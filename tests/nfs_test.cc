#include <gtest/gtest.h>

#include <thread>

#include "src/nfs/nfs_client.h"
#include "src/nfs/nfs_server.h"
#include "src/util/prng.h"
#include "tests/loop_server.h"

namespace discfs {
namespace {

// NFS client/server joined by an in-process socketpair, the server side
// an RpcConnection on an EventLoop + WorkerPool: exercises every procedure
// through the full XDR + RPC path the hosts serve.
class NfsE2E : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dev = std::make_shared<MemBlockDevice>(4096, 8192);
    auto fs = Ffs::Format(dev, FfsFormatOptions{1024});
    ASSERT_TRUE(fs.ok());
    vfs_ = std::make_shared<FfsVfs>(std::move(fs).value());
    server_ = std::make_unique<NfsServer>(vfs_);
    server_->RegisterAll(dispatcher_);

    auto pair = InProcTransport::CreatePair();
    loop_server_ = std::make_unique<LoopServer>(dispatcher_, std::move(pair.b));
    rpc_ = std::make_shared<RpcClient>(std::move(pair.a));
    client_ = std::make_unique<NfsClient>(rpc_);
  }

  void TearDown() override {
    rpc_->Close();
    EXPECT_TRUE(loop_server_->WaitClosed());
  }

  NfsFh Root() {
    auto root = client_->GetRoot();
    EXPECT_TRUE(root.ok());
    return root->fh;
  }

  std::shared_ptr<FfsVfs> vfs_;
  std::unique_ptr<NfsServer> server_;
  RpcDispatcher dispatcher_;
  std::shared_ptr<RpcClient> rpc_;
  std::unique_ptr<NfsClient> client_;
  std::unique_ptr<LoopServer> loop_server_;
};

TEST_F(NfsE2E, NullProcedure) {
  EXPECT_TRUE(client_->Null().ok());
}

TEST_F(NfsE2E, GetRootAndGetAttr) {
  NfsFh root = Root();
  auto attr = client_->GetAttr(root);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->type, FileType::kDirectory);
  EXPECT_EQ(attr->fh, root);
}

TEST_F(NfsE2E, CreateWriteReadRoundTrip) {
  NfsFh root = Root();
  auto created = client_->Create(root, "data.bin", 0644);
  ASSERT_TRUE(created.ok()) << created.status();

  Bytes payload = Prng(5).NextBytes(100000);
  // Write in 8 KiB chunks, like a real client.
  for (size_t off = 0; off < payload.size(); off += 8192) {
    size_t len = std::min<size_t>(8192, payload.size() - off);
    Bytes chunk(payload.begin() + off, payload.begin() + off + len);
    auto attr = client_->Write(created->fh, off, chunk);
    ASSERT_TRUE(attr.ok()) << attr.status();
  }
  auto attr = client_->GetAttr(created->fh);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->size, payload.size());

  Bytes back;
  for (size_t off = 0; off < payload.size(); off += 16384) {
    auto chunk = client_->Read(created->fh, off, 16384);
    ASSERT_TRUE(chunk.ok());
    Append(back, *chunk);
  }
  EXPECT_EQ(back, payload);
}

TEST_F(NfsE2E, LookupAndStaleHandle) {
  NfsFh root = Root();
  auto created = client_->Create(root, "f", 0644);
  ASSERT_TRUE(created.ok());
  auto found = client_->Lookup(root, "f");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->fh, created->fh);

  ASSERT_TRUE(client_->Remove(root, "f").ok());
  auto stale = client_->GetAttr(created->fh);
  EXPECT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kNotFound);
}

TEST_F(NfsE2E, StaleGenerationDetected) {
  NfsFh root = Root();
  auto created = client_->Create(root, "f", 0644);
  ASSERT_TRUE(created.ok());
  NfsFh wrong_gen{created->fh.inode, created->fh.generation + 1};
  auto result = client_->GetAttr(wrong_gen);
  EXPECT_FALSE(result.ok());
}

TEST_F(NfsE2E, SetAttrTruncates) {
  NfsFh root = Root();
  auto created = client_->Create(root, "f", 0644);
  ASSERT_TRUE(created.ok());
  ASSERT_TRUE(client_->Write(created->fh, 0, Bytes(5000, 'x')).ok());
  SetAttrRequest req;
  req.size = 100;
  auto attr = client_->SetAttr(created->fh, req);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->size, 100u);
}

TEST_F(NfsE2E, MkdirReaddirRmdir) {
  NfsFh root = Root();
  auto dir = client_->Mkdir(root, "sub", 0755);
  ASSERT_TRUE(dir.ok());
  ASSERT_TRUE(client_->Create(dir->fh, "a", 0644).ok());
  ASSERT_TRUE(client_->Create(dir->fh, "b", 0644).ok());

  auto entries = client_->ReadDir(dir->fh);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 2u);
  // Entries carry full handles usable directly.
  for (const NfsDirEntry& e : *entries) {
    EXPECT_TRUE(client_->GetAttr(e.fh).ok()) << e.name;
  }

  EXPECT_FALSE(client_->Rmdir(root, "sub").ok());  // not empty
  ASSERT_TRUE(client_->Remove(dir->fh, "a").ok());
  ASSERT_TRUE(client_->Remove(dir->fh, "b").ok());
  EXPECT_TRUE(client_->Rmdir(root, "sub").ok());
}

TEST_F(NfsE2E, RenameOverWire) {
  NfsFh root = Root();
  auto d1 = client_->Mkdir(root, "d1", 0755);
  auto d2 = client_->Mkdir(root, "d2", 0755);
  ASSERT_TRUE(d1.ok());
  ASSERT_TRUE(d2.ok());
  auto f = client_->Create(d1->fh, "x", 0644);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(client_->Rename(d1->fh, "x", d2->fh, "y").ok());
  EXPECT_FALSE(client_->Lookup(d1->fh, "x").ok());
  EXPECT_TRUE(client_->Lookup(d2->fh, "y").ok());
}

TEST_F(NfsE2E, LinkOverWire) {
  NfsFh root = Root();
  auto f = client_->Create(root, "orig", 0644);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(client_->Link(root, "alias", f->fh).ok());
  auto attr = client_->GetAttr(f->fh);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->nlink, 2u);
}

TEST_F(NfsE2E, SymlinkReadlinkOverWire) {
  NfsFh root = Root();
  auto link = client_->Symlink(root, "lnk", "/discfs/testdir");
  ASSERT_TRUE(link.ok());
  EXPECT_EQ(link->type, FileType::kSymlink);
  auto target = client_->ReadLink(link->fh);
  ASSERT_TRUE(target.ok());
  EXPECT_EQ(*target, "/discfs/testdir");
}

TEST_F(NfsE2E, StatFsReflectsUsage) {
  auto before = client_->StatFs();
  ASSERT_TRUE(before.ok());
  NfsFh root = Root();
  auto f = client_->Create(root, "big", 0644);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(client_->Write(f->fh, 0, Bytes(65536, 'z')).ok());
  auto after = client_->StatFs();
  ASSERT_TRUE(after.ok());
  EXPECT_LT(after->free_blocks, before->free_blocks);
  EXPECT_EQ(after->block_size, 4096u);
}

TEST_F(NfsE2E, ErrorCodesPropagate) {
  NfsFh root = Root();
  EXPECT_EQ(client_->Lookup(root, "missing").status().code(),
            StatusCode::kNotFound);
  auto f = client_->Create(root, "dup", 0644);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(client_->Create(root, "dup", 0644).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(client_->Remove(root, "missing").code(), StatusCode::kNotFound);
}

TEST_F(NfsE2E, ServerCountsOps) {
  uint64_t before = server_->ops_served();
  ASSERT_TRUE(client_->Null().ok());
  ASSERT_TRUE(client_->Null().ok());
  EXPECT_EQ(server_->ops_served(), before + 2);
}

// Access-hook behaviour through the RPC surface: a hook that denies writes
// turns the plain NFS server into a read-only one.
TEST(NfsAccessHook, ReadOnlyPolicy) {
  auto dev = std::make_shared<MemBlockDevice>(4096, 4096);
  auto fs = Ffs::Format(dev, FfsFormatOptions{256});
  ASSERT_TRUE(fs.ok());
  auto vfs = std::make_shared<FfsVfs>(std::move(fs).value());
  // Pre-seed a file.
  ASSERT_TRUE(WriteFileAt(*vfs, "/readme", "look but don't touch").ok());

  NfsServer server(vfs);
  server.set_access_hook([](const NfsAccessRequest& request) -> Status {
    if (request.needed & 2) {  // W
      return PermissionDeniedError("read-only export");
    }
    return OkStatus();
  });
  RpcDispatcher dispatcher;
  server.RegisterAll(dispatcher);

  auto pair = InProcTransport::CreatePair();
  LoopServer loop_server(dispatcher, std::move(pair.b));
  auto rpc = std::make_shared<RpcClient>(std::move(pair.a));
  NfsClient client(rpc);

  auto root = client.GetRoot();
  ASSERT_TRUE(root.ok());
  auto file = client.Lookup(root->fh, "readme");
  ASSERT_TRUE(file.ok());
  EXPECT_TRUE(client.Read(file->fh, 0, 100).ok());
  EXPECT_EQ(client.Write(file->fh, 0, ToBytes("graffiti")).status().code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(client.Create(root->fh, "new", 0644).status().code(),
            StatusCode::kPermissionDenied);
  rpc->Close();
  EXPECT_TRUE(loop_server.WaitClosed());
}

// Parameterized sweep: read/write round trips at many offsets and sizes
// (block boundaries, hole edges) through the full stack.
class NfsIoSweep : public NfsE2E,
                   public ::testing::WithParamInterface<
                       std::tuple<uint64_t, size_t>> {};

TEST_P(NfsIoSweep, OffsetSizeRoundTrip) {
  auto [offset, size] = GetParam();
  NfsFh root = Root();
  auto f = client_->Create(root, "sweep", 0644);
  ASSERT_TRUE(f.ok());
  Bytes payload = Prng(offset ^ size).NextBytes(size);
  ASSERT_TRUE(client_->Write(f->fh, offset, payload).ok());
  auto back = client_->Read(f->fh, offset, static_cast<uint32_t>(size));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, payload);
  // Bytes before the offset read as zeros (hole).
  if (offset > 0) {
    auto hole = client_->Read(f->fh, 0, 1);
    ASSERT_TRUE(hole.ok());
    EXPECT_EQ((*hole)[0], 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    OffsetsAndSizes, NfsIoSweep,
    ::testing::Values(std::make_tuple(0ull, 1u), std::make_tuple(0ull, 4096u),
                      std::make_tuple(1ull, 4096u),
                      std::make_tuple(4095ull, 2u),
                      std::make_tuple(4096ull, 4096u),
                      std::make_tuple(40960ull, 8192u),
                      std::make_tuple(100000ull, 12345u)));

// Concurrency storm against the striped-lock server: data threads hammer
// independent files (shared ns_mu_, per-inode stripes) while a namespace
// thread creates and removes entries under the exclusive lock. Run under
// TSAN by tools/run_tsan.sh; correctness check is that every thread reads
// back exactly what it wrote and the volume fscks clean afterwards.
TEST(NfsConcurrency, IndependentFileStorm) {
  auto dev = std::make_shared<MemBlockDevice>(4096, 16384);
  auto fs = Ffs::Format(dev, FfsFormatOptions{1024});
  ASSERT_TRUE(fs.ok());
  Ffs* ffs = fs->get();
  auto vfs = std::make_shared<FfsVfs>(std::move(fs).value());
  NfsServer server(vfs);

  auto root = server.GetRoot();
  ASSERT_TRUE(root.ok());

  constexpr int kDataThreads = 4;
  std::vector<NfsFh> files;
  for (int t = 0; t < kDataThreads; ++t) {
    auto f = server.Create(root->fh, "storm" + std::to_string(t), 0644);
    ASSERT_TRUE(f.ok());
    files.push_back(f->fh);
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kDataThreads; ++t) {
    threads.emplace_back([&server, &failures, fh = files[t], t] {
      Prng prng(7700 + t);
      for (int i = 0; i < 300; ++i) {
        uint64_t offset = (prng.Next() % 64) * 512;
        Bytes payload = prng.NextBytes(1 + prng.Next() % 2048);
        if (!server.Write(fh, offset, payload).ok()) {
          failures.fetch_add(1);
          return;
        }
        auto back = server.Read(fh, offset,
                                static_cast<uint32_t>(payload.size()));
        if (!back.ok() || *back != payload) {
          failures.fetch_add(1);
          return;
        }
        if (!server.GetAttr(fh).ok()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  threads.emplace_back([&server, &failures, root_fh = root->fh] {
    for (int i = 0; i < 100; ++i) {
      std::string name = "churn" + std::to_string(i);
      auto f = server.Create(root_fh, name, 0644);
      if (!f.ok()) {
        failures.fetch_add(1);
        return;
      }
      if (!server.Lookup(root_fh, name).ok() ||
          !server.ReadDir(root_fh).ok() ||
          !server.Remove(root_fh, name).ok()) {
        failures.fetch_add(1);
        return;
      }
    }
  });
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(failures.load(), 0);

  ASSERT_TRUE(ffs->Sync().ok());
  auto report = ffs->Check();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->clean())
      << report->errors.size() << " fsck errors, first: "
      << report->errors.front();
}

}  // namespace
}  // namespace discfs
