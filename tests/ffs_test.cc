#include "src/ffs/ffs.h"

#include <gtest/gtest.h>

#include <map>

#include "src/util/prng.h"

namespace discfs {
namespace {

constexpr uint32_t kBlockSize = 4096;

std::unique_ptr<Ffs> MakeFs(uint64_t blocks = 4096,
                            uint32_t inodes = 1024) {
  auto dev = std::make_shared<MemBlockDevice>(kBlockSize, blocks);
  auto fs = Ffs::Format(dev, FfsFormatOptions{inodes});
  EXPECT_TRUE(fs.ok()) << fs.status();
  return std::move(fs).value();
}

TEST(Blockdev, ReadWriteRoundTrip) {
  MemBlockDevice dev(512, 16);
  std::vector<uint8_t> out(512, 0xab);
  ASSERT_TRUE(dev.Write(3, out.data()).ok());
  std::vector<uint8_t> in(512);
  ASSERT_TRUE(dev.Read(3, in.data()).ok());
  EXPECT_EQ(in, out);
  EXPECT_EQ(dev.stats().reads, 1u);
  EXPECT_EQ(dev.stats().writes, 1u);
}

TEST(Blockdev, OutOfRangeRejected) {
  MemBlockDevice dev(512, 4);
  std::vector<uint8_t> buf(512);
  EXPECT_FALSE(dev.Read(4, buf.data()).ok());
  EXPECT_FALSE(dev.Write(100, buf.data()).ok());
}

TEST(FfsTest, FormatAndRootExists) {
  auto fs = MakeFs();
  auto attr = fs->GetAttr(fs->root());
  ASSERT_TRUE(attr.ok()) << attr.status();
  EXPECT_EQ(attr->type, FileType::kDirectory);
  auto entries = fs->ReadDir(fs->root());
  ASSERT_TRUE(entries.ok());
  EXPECT_TRUE(entries->empty());
}

TEST(FfsTest, CreateLookupRoundTrip) {
  auto fs = MakeFs();
  auto created = fs->Create(fs->root(), "paper.txt", 0644);
  ASSERT_TRUE(created.ok()) << created.status();
  EXPECT_EQ(created->type, FileType::kRegular);
  EXPECT_EQ(created->mode, 0644u);
  EXPECT_EQ(created->size, 0u);
  EXPECT_EQ(created->nlink, 1u);

  auto found = fs->Lookup(fs->root(), "paper.txt");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->inode, created->inode);

  EXPECT_FALSE(fs->Lookup(fs->root(), "other.txt").ok());
}

TEST(FfsTest, CreateDuplicateRejected) {
  auto fs = MakeFs();
  ASSERT_TRUE(fs->Create(fs->root(), "x", 0644).ok());
  auto dup = fs->Create(fs->root(), "x", 0644);
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
}

TEST(FfsTest, NameValidation) {
  auto fs = MakeFs();
  EXPECT_FALSE(fs->Create(fs->root(), "", 0644).ok());
  EXPECT_FALSE(fs->Create(fs->root(), std::string(59, 'a'), 0644).ok());
  EXPECT_TRUE(fs->Create(fs->root(), std::string(58, 'a'), 0644).ok());
  EXPECT_FALSE(fs->Create(fs->root(), "a/b", 0644).ok());
  EXPECT_FALSE(fs->Create(fs->root(), ".", 0644).ok());
  EXPECT_FALSE(fs->Create(fs->root(), "..", 0644).ok());
}

TEST(FfsTest, WriteReadSmall) {
  auto fs = MakeFs();
  auto f = fs->Create(fs->root(), "f", 0644);
  ASSERT_TRUE(f.ok());
  std::string msg = "hello discfs";
  auto wrote = fs->Write(f->inode, 0,
                         reinterpret_cast<const uint8_t*>(msg.data()),
                         msg.size());
  ASSERT_TRUE(wrote.ok()) << wrote.status();
  EXPECT_EQ(*wrote, msg.size());

  std::string back(msg.size(), '\0');
  auto read = fs->Read(f->inode, 0, msg.size(),
                       reinterpret_cast<uint8_t*>(back.data()));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, msg.size());
  EXPECT_EQ(back, msg);

  auto attr = fs->GetAttr(f->inode);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->size, msg.size());
}

TEST(FfsTest, ReadPastEofTruncated) {
  auto fs = MakeFs();
  auto f = fs->Create(fs->root(), "f", 0644);
  ASSERT_TRUE(f.ok());
  Bytes data = {1, 2, 3};
  ASSERT_TRUE(fs->Write(f->inode, 0, data.data(), 3).ok());
  Bytes buf(10);
  auto n = fs->Read(f->inode, 0, 10, buf.data());
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 3u);
  auto n2 = fs->Read(f->inode, 5, 10, buf.data());
  ASSERT_TRUE(n2.ok());
  EXPECT_EQ(*n2, 0u);
}

TEST(FfsTest, LargeFileThroughIndirectBlocks) {
  // > 10 direct blocks (40 KiB) and into the single-indirect range.
  auto fs = MakeFs(8192);
  auto f = fs->Create(fs->root(), "big", 0644);
  ASSERT_TRUE(f.ok());
  Prng prng(1);
  Bytes data = prng.NextBytes(500000);  // ~122 blocks
  auto wrote = fs->Write(f->inode, 0, data.data(), data.size());
  ASSERT_TRUE(wrote.ok()) << wrote.status();
  EXPECT_EQ(*wrote, data.size());

  Bytes back(data.size());
  auto read = fs->Read(f->inode, 0, back.size(), back.data());
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data.size());
  EXPECT_EQ(back, data);
}

TEST(FfsTest, DoubleIndirectRange) {
  // Write past 10 + 1024 blocks (~4.2 MB) to exercise the double-indirect
  // tree; use a sparse write to keep the test fast.
  auto fs = MakeFs(8192);
  auto f = fs->Create(fs->root(), "sparse", 0644);
  ASSERT_TRUE(f.ok());
  uint64_t offset = (10 + 1024 + 5) * uint64_t{kBlockSize} + 123;
  Bytes data = ToBytes("deep data");
  auto wrote = fs->Write(f->inode, offset, data.data(), data.size());
  ASSERT_TRUE(wrote.ok()) << wrote.status();

  Bytes back(data.size());
  auto read = fs->Read(f->inode, offset, back.size(), back.data());
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(back, data);

  // The hole before it reads as zeros.
  Bytes hole(100);
  auto hole_read = fs->Read(f->inode, 4096, 100, hole.data());
  ASSERT_TRUE(hole_read.ok());
  EXPECT_EQ(hole, Bytes(100, 0));
}

TEST(FfsTest, OverwriteMiddle) {
  auto fs = MakeFs();
  auto f = fs->Create(fs->root(), "f", 0644);
  ASSERT_TRUE(f.ok());
  Bytes base(10000, 'a');
  ASSERT_TRUE(fs->Write(f->inode, 0, base.data(), base.size()).ok());
  Bytes patch(100, 'b');
  ASSERT_TRUE(fs->Write(f->inode, 5000, patch.data(), patch.size()).ok());

  Bytes back(10000);
  ASSERT_TRUE(fs->Read(f->inode, 0, back.size(), back.data()).ok());
  EXPECT_EQ(back[4999], 'a');
  EXPECT_EQ(back[5000], 'b');
  EXPECT_EQ(back[5099], 'b');
  EXPECT_EQ(back[5100], 'a');
  auto attr = fs->GetAttr(f->inode);
  EXPECT_EQ(attr->size, 10000u);  // overwrite must not extend
}

TEST(FfsTest, TruncateShrinkFreesBlocks) {
  auto fs = MakeFs();
  // Force the root directory's entry block to exist before measuring, so
  // the free-block comparison below only sees the file's own blocks.
  ASSERT_TRUE(fs->Create(fs->root(), "placeholder", 0644).ok());
  auto before_stat = fs->StatFs();
  ASSERT_TRUE(before_stat.ok());
  uint64_t free_before = before_stat->free_blocks;

  auto f = fs->Create(fs->root(), "f", 0644);
  ASSERT_TRUE(f.ok());
  Bytes data(200000, 'x');
  ASSERT_TRUE(fs->Write(f->inode, 0, data.data(), data.size()).ok());

  SetAttrRequest req;
  req.size = 100;
  ASSERT_TRUE(fs->SetAttr(f->inode, req).ok());
  auto attr = fs->GetAttr(f->inode);
  EXPECT_EQ(attr->size, 100u);

  // Contents preserved up to the cut.
  Bytes back(100);
  ASSERT_TRUE(fs->Read(f->inode, 0, 100, back.data()).ok());
  EXPECT_EQ(back, Bytes(100, 'x'));

  // Extending again reads zeros beyond 100.
  req.size = 300;
  ASSERT_TRUE(fs->SetAttr(f->inode, req).ok());
  Bytes ext(300);
  ASSERT_TRUE(fs->Read(f->inode, 0, 300, ext.data()).ok());
  EXPECT_EQ(ext[99], 'x');
  EXPECT_EQ(ext[100], 0);
  EXPECT_EQ(ext[299], 0);

  ASSERT_TRUE(fs->Remove(fs->root(), "f").ok());
  auto after_stat = fs->StatFs();
  ASSERT_TRUE(after_stat.ok());
  EXPECT_EQ(after_stat->free_blocks, free_before);  // everything returned
}

// A shrink releases the pointer blocks no kept block maps through, not
// just the data blocks past the new end.
TEST(FfsTest, TruncateReleasesPointerBlocks) {
  auto fs = MakeFs(8192);
  ASSERT_TRUE(fs->Create(fs->root(), "placeholder", 0644).ok());
  auto before = fs->StatFs();
  ASSERT_TRUE(before.ok());
  const uint64_t free_before = before->free_blocks;
  auto used = [&]() -> uint64_t {
    auto now = fs->StatFs();
    EXPECT_TRUE(now.ok());
    return free_before - now->free_blocks;
  };
  auto truncate = [&](InodeNum inode, uint64_t size) {
    SetAttrRequest req;
    req.size = size;
    ASSERT_TRUE(fs->SetAttr(inode, req).ok());
    auto report = fs->Check();
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_TRUE(report->clean()) << report->errors.front();
  };

  // 10 direct + 1,024 indirect + 2 double-indirect data blocks.
  auto f = fs->Create(fs->root(), "f", 0644);
  ASSERT_TRUE(f.ok());
  const uint64_t full = (10 + 1024 + 2) * uint64_t{kBlockSize};
  Bytes data(full, 'x');
  ASSERT_TRUE(fs->Write(f->inode, 0, data.data(), data.size()).ok());
  EXPECT_EQ(used(), 1036u + 3);  // + indirect, double-indirect, one level-1

  truncate(f->inode, (10 + 1024 + 1) * uint64_t{kBlockSize});
  EXPECT_EQ(used(), 1035u + 3);  // the level-1 block still maps block 1034
  truncate(f->inode, 15 * uint64_t{kBlockSize} + 1);
  EXPECT_EQ(used(), 16u + 1);  // only the indirect block stays
  truncate(f->inode, 100);
  EXPECT_EQ(used(), 1u);
  Bytes head(100);
  ASSERT_TRUE(fs->Read(f->inode, 0, head.size(), head.data()).ok());
  EXPECT_EQ(head, Bytes(100, 'x'));
  truncate(f->inode, 0);
  EXPECT_EQ(used(), 0u);

  // Re-extension reads zeros in every range, and the tree rebuilds.
  truncate(f->inode, full);
  for (uint64_t block : {0, 9, 10, 1033, 1034, 1035}) {
    Bytes back(16);
    ASSERT_TRUE(
        fs->Read(f->inode, block * kBlockSize, back.size(), back.data()).ok());
    EXPECT_EQ(back, Bytes(16, 0)) << "block " << block;
  }
  Bytes deep = ToBytes("deep");
  const uint64_t deep_at = 1035 * uint64_t{kBlockSize};
  ASSERT_TRUE(fs->Write(f->inode, deep_at, deep.data(), deep.size()).ok());
  Bytes back(deep.size());
  ASSERT_TRUE(fs->Read(f->inode, deep_at, back.size(), back.data()).ok());
  EXPECT_EQ(back, deep);
  EXPECT_EQ(used(), 1u + 2);  // + double-indirect and one level-1
  auto report = fs->Check();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->errors.front();
}

TEST(FfsTest, RemoveFreesInodeAndBlocks) {
  auto fs = MakeFs();
  auto before = fs->StatFs();
  ASSERT_TRUE(before.ok());

  auto f = fs->Create(fs->root(), "f", 0644);
  ASSERT_TRUE(f.ok());
  Bytes data(50000, 'y');
  ASSERT_TRUE(fs->Write(f->inode, 0, data.data(), data.size()).ok());
  ASSERT_TRUE(fs->Remove(fs->root(), "f").ok());

  auto after = fs->StatFs();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->free_inodes, before->free_inodes);
  // Root directory may have grown by a block for the entry; allow <= 1
  // block difference.
  EXPECT_GE(after->free_blocks + 1, before->free_blocks);
  EXPECT_FALSE(fs->Lookup(fs->root(), "f").ok());
}

TEST(FfsTest, GenerationBumpsOnReuse) {
  auto fs = MakeFs();
  auto f1 = fs->Create(fs->root(), "f1", 0644);
  ASSERT_TRUE(f1.ok());
  uint32_t gen1 = f1->generation;
  InodeNum ino = f1->inode;
  ASSERT_TRUE(fs->Remove(fs->root(), "f1").ok());
  auto f2 = fs->Create(fs->root(), "f2", 0644);
  ASSERT_TRUE(f2.ok());
  // The allocator cursor may pick a different inode; force reuse by
  // checking only when the number matches.
  if (f2->inode == ino) {
    EXPECT_GT(f2->generation, gen1);
  } else {
    // Walk: free f2, keep allocating until ino reused.
    ASSERT_TRUE(fs->Remove(fs->root(), "f2").ok());
    for (int i = 0; i < 2000; ++i) {
      auto f = fs->Create(fs->root(), "t" + std::to_string(i), 0644);
      ASSERT_TRUE(f.ok());
      if (f->inode == ino) {
        EXPECT_GT(f->generation, gen1);
        return;
      }
    }
    FAIL() << "inode never reused";
  }
}

TEST(FfsTest, MkdirAndNested) {
  auto fs = MakeFs();
  auto d1 = fs->Mkdir(fs->root(), "a", 0755);
  ASSERT_TRUE(d1.ok());
  auto d2 = fs->Mkdir(d1->inode, "b", 0755);
  ASSERT_TRUE(d2.ok());
  auto f = fs->Create(d2->inode, "c.txt", 0644);
  ASSERT_TRUE(f.ok());

  auto found_b = fs->Lookup(d1->inode, "b");
  ASSERT_TRUE(found_b.ok());
  EXPECT_EQ(found_b->inode, d2->inode);
  auto found_c = fs->Lookup(d2->inode, "c.txt");
  ASSERT_TRUE(found_c.ok());
}

TEST(FfsTest, RmdirOnlyWhenEmpty) {
  auto fs = MakeFs();
  auto d = fs->Mkdir(fs->root(), "d", 0755);
  ASSERT_TRUE(d.ok());
  ASSERT_TRUE(fs->Create(d->inode, "f", 0644).ok());
  EXPECT_FALSE(fs->Rmdir(fs->root(), "d").ok());
  ASSERT_TRUE(fs->Remove(d->inode, "f").ok());
  EXPECT_TRUE(fs->Rmdir(fs->root(), "d").ok());
  EXPECT_FALSE(fs->Lookup(fs->root(), "d").ok());
}

// A directory of three blocks (64 slots each): a freed slot in the third
// block is reused, lookups reach every block, and emptiness is judged on
// all of them.
TEST(FfsTest, DirectorySpanningThreeBlocks) {
  auto fs = MakeFs();
  auto d = fs->Mkdir(fs->root(), "d", 0755);
  ASSERT_TRUE(d.ok());
  const int kEntries = 64 * 2 + 10;
  auto name = [](int i) { return "entry" + std::to_string(i); };
  for (int i = 0; i < kEntries; ++i) {
    ASSERT_TRUE(fs->Create(d->inode, name(i), 0644).ok()) << i;
  }
  auto attr = fs->GetAttr(d->inode);
  ASSERT_TRUE(attr.ok());
  const uint64_t size = attr->size;
  EXPECT_EQ(size, kEntries * 64u);

  // Slot 130 is in the third block; the next create takes it.
  ASSERT_TRUE(fs->Remove(d->inode, name(130)).ok());
  ASSERT_TRUE(fs->Create(d->inode, "newcomer", 0644).ok());
  EXPECT_EQ(fs->GetAttr(d->inode)->size, size);
  auto listing = fs->ReadDir(d->inode);
  ASSERT_TRUE(listing.ok());
  ASSERT_EQ(listing->size(), static_cast<size_t>(kEntries));
  EXPECT_EQ((*listing)[130].name, "newcomer");

  for (int i = 0; i < kEntries; ++i) {
    if (i != 130) {
      EXPECT_TRUE(fs->Lookup(d->inode, name(i)).ok()) << name(i);
    }
  }
  EXPECT_TRUE(fs->Lookup(d->inode, "newcomer").ok());

  for (int i = 0; i < kEntries; ++i) {
    if (i != 130) {
      ASSERT_TRUE(fs->Remove(d->inode, name(i)).ok()) << name(i);
    }
  }
  EXPECT_FALSE(fs->Rmdir(fs->root(), "d").ok());  // "newcomer" remains
  ASSERT_TRUE(fs->Remove(d->inode, "newcomer").ok());
  EXPECT_TRUE(fs->Rmdir(fs->root(), "d").ok());
  auto report = fs->Check();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->errors.front();
}

TEST(FfsTest, RemoveDirectoryWithRemoveRejected) {
  auto fs = MakeFs();
  ASSERT_TRUE(fs->Mkdir(fs->root(), "d", 0755).ok());
  EXPECT_FALSE(fs->Remove(fs->root(), "d").ok());
  EXPECT_FALSE(fs->Rmdir(fs->root(), "nonexistent").ok());
}

TEST(FfsTest, RenameWithinDirectory) {
  auto fs = MakeFs();
  auto f = fs->Create(fs->root(), "old", 0644);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(fs->Rename(fs->root(), "old", fs->root(), "new").ok());
  EXPECT_FALSE(fs->Lookup(fs->root(), "old").ok());
  auto found = fs->Lookup(fs->root(), "new");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->inode, f->inode);
}

TEST(FfsTest, RenameAcrossDirectories) {
  auto fs = MakeFs();
  auto d1 = fs->Mkdir(fs->root(), "d1", 0755);
  auto d2 = fs->Mkdir(fs->root(), "d2", 0755);
  ASSERT_TRUE(d1.ok());
  ASSERT_TRUE(d2.ok());
  auto f = fs->Create(d1->inode, "f", 0644);
  ASSERT_TRUE(f.ok());
  Bytes data = ToBytes("move me");
  ASSERT_TRUE(fs->Write(f->inode, 0, data.data(), data.size()).ok());

  ASSERT_TRUE(fs->Rename(d1->inode, "f", d2->inode, "g").ok());
  EXPECT_FALSE(fs->Lookup(d1->inode, "f").ok());
  auto moved = fs->Lookup(d2->inode, "g");
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(moved->inode, f->inode);
  Bytes back(data.size());
  ASSERT_TRUE(fs->Read(moved->inode, 0, back.size(), back.data()).ok());
  EXPECT_EQ(back, data);
}

TEST(FfsTest, RenameReplacesExistingFile) {
  auto fs = MakeFs();
  auto a = fs->Create(fs->root(), "a", 0644);
  auto b = fs->Create(fs->root(), "b", 0644);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto before = fs->StatFs();
  ASSERT_TRUE(fs->Rename(fs->root(), "a", fs->root(), "b").ok());
  auto found = fs->Lookup(fs->root(), "b");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->inode, a->inode);
  EXPECT_FALSE(fs->Lookup(fs->root(), "a").ok());
  // b's old inode must be freed.
  auto after = fs->StatFs();
  EXPECT_EQ(after->free_inodes, before->free_inodes + 1);
}

TEST(FfsTest, RenameMissingSourceFails) {
  auto fs = MakeFs();
  EXPECT_FALSE(fs->Rename(fs->root(), "nope", fs->root(), "x").ok());
}

TEST(FfsTest, HardLinks) {
  auto fs = MakeFs();
  auto f = fs->Create(fs->root(), "f", 0644);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(fs->Link(fs->root(), "g", f->inode).ok());
  auto attr = fs->GetAttr(f->inode);
  EXPECT_EQ(attr->nlink, 2u);

  Bytes data = ToBytes("shared");
  ASSERT_TRUE(fs->Write(f->inode, 0, data.data(), data.size()).ok());
  auto g = fs->Lookup(fs->root(), "g");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->inode, f->inode);

  // Removing one name keeps the file alive.
  ASSERT_TRUE(fs->Remove(fs->root(), "f").ok());
  auto still = fs->GetAttr(f->inode);
  ASSERT_TRUE(still.ok());
  EXPECT_EQ(still->nlink, 1u);
  ASSERT_TRUE(fs->Remove(fs->root(), "g").ok());
  EXPECT_FALSE(fs->GetAttr(f->inode).ok());
}

TEST(FfsTest, Symlinks) {
  auto fs = MakeFs();
  auto link = fs->Symlink(fs->root(), "lnk", "/discfs/testdir");
  ASSERT_TRUE(link.ok()) << link.status();
  EXPECT_EQ(link->type, FileType::kSymlink);
  auto target = fs->ReadLink(link->inode);
  ASSERT_TRUE(target.ok());
  EXPECT_EQ(*target, "/discfs/testdir");
  auto f = fs->Create(fs->root(), "plain", 0644);
  ASSERT_TRUE(f.ok());
  EXPECT_FALSE(fs->ReadLink(f->inode).ok());
}

TEST(FfsTest, ReadDirListsAllEntries) {
  auto fs = MakeFs();
  // Spill the directory across multiple blocks (64 entries per 4K block).
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(fs->Create(fs->root(), "file" + std::to_string(i), 0644).ok());
  }
  auto entries = fs->ReadDir(fs->root());
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 200u);
}

TEST(FfsTest, SetAttrModeAndTimes) {
  auto fs = MakeFs();
  auto f = fs->Create(fs->root(), "f", 0644);
  ASSERT_TRUE(f.ok());
  SetAttrRequest req;
  req.mode = 0000;  // the DisCFS attach trick: perms 000 until credentials
  req.uid = 1001;
  req.atime = 12345;
  req.mtime = 67890;
  ASSERT_TRUE(fs->SetAttr(f->inode, req).ok());
  auto attr = fs->GetAttr(f->inode);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->mode, 0u);
  EXPECT_EQ(attr->uid, 1001u);
  EXPECT_EQ(attr->atime, 12345);
  EXPECT_EQ(attr->mtime, 67890);
}

TEST(FfsTest, StatFsCounts) {
  auto fs = MakeFs();
  auto s0 = fs->StatFs();
  ASSERT_TRUE(s0.ok());
  auto f = fs->Create(fs->root(), "f", 0644);
  ASSERT_TRUE(f.ok());
  Bytes data(kBlockSize * 3, 'z');
  ASSERT_TRUE(fs->Write(f->inode, 0, data.data(), data.size()).ok());
  auto s1 = fs->StatFs();
  ASSERT_TRUE(s1.ok());
  EXPECT_EQ(s1->free_inodes, s0->free_inodes - 1);
  EXPECT_LT(s1->free_blocks, s0->free_blocks);
}

TEST(FfsTest, MountPersistsAcrossRemount) {
  auto dev = std::make_shared<MemBlockDevice>(kBlockSize, 4096);
  InodeNum ino;
  {
    auto fs = Ffs::Format(dev, FfsFormatOptions{256});
    ASSERT_TRUE(fs.ok());
    auto f = (*fs)->Create((*fs)->root(), "persist", 0644);
    ASSERT_TRUE(f.ok());
    ino = f->inode;
    Bytes data = ToBytes("survives remount");
    ASSERT_TRUE((*fs)->Write(ino, 0, data.data(), data.size()).ok());
  }
  auto fs2 = Ffs::Mount(dev);
  ASSERT_TRUE(fs2.ok()) << fs2.status();
  auto found = (*fs2)->Lookup((*fs2)->root(), "persist");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->inode, ino);
  Bytes back(16);
  auto n = (*fs2)->Read(ino, 0, 16, back.data());
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(ToString(back), "survives remount");
}

TEST(FfsTest, MountRejectsGarbageDevice) {
  auto dev = std::make_shared<MemBlockDevice>(kBlockSize, 64);
  EXPECT_FALSE(Ffs::Mount(dev).ok());
}

TEST(FfsTest, OutOfSpaceSurfaced) {
  auto fs = MakeFs(/*blocks=*/64, /*inodes=*/32);  // tiny volume
  auto f = fs->Create(fs->root(), "f", 0644);
  ASSERT_TRUE(f.ok());
  Bytes chunk(kBlockSize, 'x');
  Status last = OkStatus();
  for (int i = 0; i < 100 && last.ok(); ++i) {
    auto wrote =
        fs->Write(f->inode, uint64_t{kBlockSize} * i, chunk.data(),
                  chunk.size());
    last = wrote.status();
  }
  EXPECT_EQ(last.code(), StatusCode::kResourceExhausted);
}

TEST(FfsTest, OutOfInodesSurfaced) {
  auto fs = MakeFs(/*blocks=*/4096, /*inodes=*/8);
  Status last = OkStatus();
  for (int i = 0; i < 20 && last.ok(); ++i) {
    last = fs->Create(fs->root(), "f" + std::to_string(i), 0644).status();
  }
  EXPECT_EQ(last.code(), StatusCode::kResourceExhausted);
}

TEST(FfsTest, FsckCleanAfterOperations) {
  auto fs = MakeFs();
  ASSERT_TRUE(fs->Create(fs->root(), "a", 0644).ok());
  auto d = fs->Mkdir(fs->root(), "d", 0755);
  ASSERT_TRUE(d.ok());
  auto f = fs->Create(d->inode, "b", 0644);
  ASSERT_TRUE(f.ok());
  Bytes data(100000, 'q');
  ASSERT_TRUE(fs->Write(f->inode, 0, data.data(), data.size()).ok());
  ASSERT_TRUE(fs->Link(d->inode, "b2", f->inode).ok());
  ASSERT_TRUE(fs->Remove(fs->root(), "a").ok());

  auto report = fs->Check();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->clean()) << report->errors.front();
  EXPECT_EQ(report->directories, 2u);  // root + d
  EXPECT_EQ(report->files, 1u);
}

// Property test: random operation sequences against an in-memory model; the
// filesystem must agree with the model and pass fsck at the end.
class FfsModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FfsModelTest, RandomOperationsMatchModel) {
  Prng prng(GetParam());
  auto fs = MakeFs(8192, 512);

  // Model: path (dir inode, name) -> file contents. Single flat directory
  // namespace per directory; dirs tracked separately.
  std::map<std::pair<InodeNum, std::string>, std::string> files;
  std::vector<InodeNum> dirs{fs->root()};

  for (int step = 0; step < 400; ++step) {
    int op = static_cast<int>(prng.NextBelow(6));
    InodeNum dir = dirs[prng.NextBelow(dirs.size())];
    std::string name = "n" + std::to_string(prng.NextBelow(30));
    auto key = std::make_pair(dir, name);
    switch (op) {
      case 0: {  // create
        auto result = fs->Create(dir, name, 0644);
        bool exists = files.count(key) != 0;
        // Name may also be taken by a directory; treat any AlreadyExists as
        // consistent if either map has it.
        if (result.ok()) {
          EXPECT_FALSE(exists);
          files[key] = "";
        } else if (result.status().code() == StatusCode::kAlreadyExists) {
          // fine: name held by file or dir
        } else {
          FAIL() << result.status();
        }
        break;
      }
      case 1: {  // write
        if (files.count(key) == 0) {
          break;
        }
        auto attr = fs->Lookup(dir, name);
        ASSERT_TRUE(attr.ok());
        size_t off = prng.NextBelow(20000);
        Bytes data = prng.NextBytes(prng.NextBelow(8000));
        auto wrote = fs->Write(attr->inode, off, data.data(), data.size());
        ASSERT_TRUE(wrote.ok()) << wrote.status();
        std::string& content = files[key];
        if (content.size() < off + data.size()) {
          content.resize(off + data.size(), '\0');
        }
        std::memcpy(content.data() + off, data.data(), data.size());
        break;
      }
      case 2: {  // read & compare
        if (files.count(key) == 0) {
          break;
        }
        auto attr = fs->Lookup(dir, name);
        ASSERT_TRUE(attr.ok());
        const std::string& content = files[key];
        EXPECT_EQ(attr->size, content.size());
        Bytes buf(content.size() + 100);
        auto n = fs->Read(attr->inode, 0, buf.size(), buf.data());
        ASSERT_TRUE(n.ok());
        EXPECT_EQ(*n, content.size());
        EXPECT_EQ(std::string(buf.begin(), buf.begin() + *n), content);
        break;
      }
      case 3: {  // remove
        auto result = fs->Remove(dir, name);
        if (files.count(key) != 0) {
          EXPECT_TRUE(result.ok()) << result;
          files.erase(key);
        } else {
          EXPECT_FALSE(result.ok());
        }
        break;
      }
      case 4: {  // truncate
        if (files.count(key) == 0) {
          break;
        }
        auto attr = fs->Lookup(dir, name);
        ASSERT_TRUE(attr.ok());
        uint64_t new_size = prng.NextBelow(30000);
        SetAttrRequest req;
        req.size = new_size;
        ASSERT_TRUE(fs->SetAttr(attr->inode, req).ok());
        std::string& content = files[key];
        content.resize(new_size, '\0');
        break;
      }
      case 5: {  // mkdir (bounded)
        if (dirs.size() >= 8) {
          break;
        }
        std::string dname = "dir" + std::to_string(prng.NextBelow(10));
        auto result = fs->Mkdir(fs->root(), dname, 0755);
        if (result.ok()) {
          dirs.push_back(result->inode);
        }
        break;
      }
    }
  }

  // Final verification: every modeled file matches, then fsck.
  for (const auto& [key, content] : files) {
    auto attr = fs->Lookup(key.first, key.second);
    ASSERT_TRUE(attr.ok()) << key.second;
    EXPECT_EQ(attr->size, content.size());
    Bytes buf(content.size());
    auto n = fs->Read(attr->inode, 0, buf.size(), buf.data());
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(std::string(buf.begin(), buf.end()), content);
  }
  auto report = fs->Check();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->clean()) << report->errors.front();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FfsModelTest,
                         ::testing::Values(1, 2, 3, 4, 5, 42, 1234));

}  // namespace
}  // namespace discfs
