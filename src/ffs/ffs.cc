#include "src/ffs/ffs.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <list>
#include <set>
#include <unordered_map>

#include "src/util/clock.h"
#include "src/util/strings.h"

namespace discfs {
namespace {

constexpr uint32_t kMagic = 0xD15CF501;
constexpr uint32_t kInodeSize = 128;
constexpr uint32_t kDirEntrySize = 64;
constexpr size_t kDirectBlocks = 10;
constexpr size_t kInodeCacheEntries = 1024;

uint32_t LoadU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
uint64_t LoadU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}
void StoreU32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, 4); }
void StoreU64(uint8_t* p, uint64_t v) { std::memcpy(p, &v, 8); }

}  // namespace

// On-disk superblock, serialized into block 0.
struct Ffs::Superblock {
  uint32_t block_size = 0;
  uint64_t total_blocks = 0;
  uint32_t inode_count = 0;
  uint64_t inode_bitmap_start = 0;
  uint32_t inode_bitmap_blocks = 0;
  uint64_t data_bitmap_start = 0;
  uint32_t data_bitmap_blocks = 0;
  uint64_t inode_table_start = 0;
  uint32_t inode_table_blocks = 0;
  uint64_t data_start = 0;
  uint64_t free_blocks = 0;
  uint32_t free_inodes = 0;
  // In-memory allocation cursors (not persisted).
  uint64_t data_cursor = 0;
  uint64_t inode_cursor = 0;

  void Serialize(uint8_t* block) const {
    std::memset(block, 0, 96);
    StoreU32(block + 0, kMagic);
    StoreU32(block + 4, block_size);
    StoreU64(block + 8, total_blocks);
    StoreU32(block + 16, inode_count);
    StoreU64(block + 20, inode_bitmap_start);
    StoreU32(block + 28, inode_bitmap_blocks);
    StoreU64(block + 32, data_bitmap_start);
    StoreU32(block + 40, data_bitmap_blocks);
    StoreU64(block + 44, inode_table_start);
    StoreU32(block + 52, inode_table_blocks);
    StoreU64(block + 56, data_start);
    StoreU64(block + 64, free_blocks);
    StoreU32(block + 72, free_inodes);
  }

  static Result<Superblock> Deserialize(const uint8_t* block) {
    if (LoadU32(block) != kMagic) {
      return DataLossError("bad superblock magic (not an FFS volume)");
    }
    Superblock sb;
    sb.block_size = LoadU32(block + 4);
    sb.total_blocks = LoadU64(block + 8);
    sb.inode_count = LoadU32(block + 16);
    sb.inode_bitmap_start = LoadU64(block + 20);
    sb.inode_bitmap_blocks = LoadU32(block + 28);
    sb.data_bitmap_start = LoadU64(block + 32);
    sb.data_bitmap_blocks = LoadU32(block + 40);
    sb.inode_table_start = LoadU64(block + 44);
    sb.inode_table_blocks = LoadU32(block + 52);
    sb.data_start = LoadU64(block + 56);
    sb.free_blocks = LoadU64(block + 64);
    sb.free_inodes = LoadU32(block + 72);
    return sb;
  }
};

// On-disk inode, 128 bytes.
struct Ffs::DiskInode {
  uint8_t type = 0;
  uint32_t mode = 0;
  uint32_t uid = 0;
  uint32_t gid = 0;
  uint32_t nlink = 0;
  uint64_t size = 0;
  int64_t atime = 0;
  int64_t mtime = 0;
  int64_t ctime = 0;
  uint32_t generation = 0;
  uint32_t direct[kDirectBlocks] = {0};
  uint32_t indirect = 0;
  uint32_t double_indirect = 0;

  void Serialize(uint8_t* p) const {
    std::memset(p, 0, kInodeSize);
    p[0] = type;
    StoreU32(p + 4, mode);
    StoreU32(p + 8, uid);
    StoreU32(p + 12, gid);
    StoreU32(p + 16, nlink);
    StoreU64(p + 20, size);
    StoreU64(p + 28, static_cast<uint64_t>(atime));
    StoreU64(p + 36, static_cast<uint64_t>(mtime));
    StoreU64(p + 44, static_cast<uint64_t>(ctime));
    StoreU32(p + 52, generation);
    for (size_t i = 0; i < kDirectBlocks; ++i) {
      StoreU32(p + 56 + 4 * i, direct[i]);
    }
    StoreU32(p + 96, indirect);
    StoreU32(p + 100, double_indirect);
  }

  static DiskInode Deserialize(const uint8_t* p) {
    DiskInode n;
    n.type = p[0];
    n.mode = LoadU32(p + 4);
    n.uid = LoadU32(p + 8);
    n.gid = LoadU32(p + 12);
    n.nlink = LoadU32(p + 16);
    n.size = LoadU64(p + 20);
    n.atime = static_cast<int64_t>(LoadU64(p + 28));
    n.mtime = static_cast<int64_t>(LoadU64(p + 36));
    n.ctime = static_cast<int64_t>(LoadU64(p + 44));
    n.generation = LoadU32(p + 52);
    for (size_t i = 0; i < kDirectBlocks; ++i) {
      n.direct[i] = LoadU32(p + 56 + 4 * i);
    }
    n.indirect = LoadU32(p + 96);
    n.double_indirect = LoadU32(p + 100);
    return n;
  }
};

// Sharded, bounded, write-through cache of deserialized inodes, so hot-path
// GetAttr/Lookup stop re-reading (and re-parsing) inode-table blocks. It is
// never dirty relative to the block layer: WriteInode updates the cached
// copy and patches the on-disk block in the same call.
struct Ffs::InodeCache {
  struct Shard {
    std::mutex mu;
    std::list<InodeNum> lru;  // front = most recently used
    std::unordered_map<InodeNum,
                       std::pair<DiskInode, std::list<InodeNum>::iterator>>
        map;
  };

  explicit InodeCache(size_t capacity) {
    size_t n = 1;
    while (n < 16 && capacity / (n * 2) >= 64) n *= 2;
    shards.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      shards.push_back(std::make_unique<Shard>());
    }
    shard_capacity = std::max<size_t>(8, capacity / n);
  }

  Shard& ShardFor(InodeNum inode) {
    return *shards[inode & (shards.size() - 1)];
  }

  bool Get(InodeNum inode, DiskInode* out) {
    Shard& s = ShardFor(inode);
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.map.find(inode);
    if (it == s.map.end()) {
      return false;
    }
    s.lru.erase(it->second.second);
    s.lru.push_front(inode);
    it->second.second = s.lru.begin();
    *out = it->second.first;
    return true;
  }

  // Installs `node`. With overwrite=false (read-miss fill) an existing
  // entry wins — it may be newer than what the reader saw on disk.
  void Put(InodeNum inode, const DiskInode& node, bool overwrite,
           DiskInode* winner) {
    Shard& s = ShardFor(inode);
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.map.find(inode);
    if (it != s.map.end()) {
      if (overwrite) {
        it->second.first = node;
      }
      s.lru.erase(it->second.second);
      s.lru.push_front(inode);
      it->second.second = s.lru.begin();
      if (winner != nullptr) {
        *winner = it->second.first;
      }
      return;
    }
    if (s.map.size() >= shard_capacity) {
      s.map.erase(s.lru.back());
      s.lru.pop_back();
    }
    s.lru.push_front(inode);
    s.map.emplace(inode, std::make_pair(node, s.lru.begin()));
    if (winner != nullptr) {
      *winner = node;
    }
  }

  std::vector<std::unique_ptr<Shard>> shards;
  size_t shard_capacity = 0;
};

Ffs::Ffs(std::shared_ptr<BlockDevice> device, const FfsMountOptions& options)
    : now_([] { return SystemClock::Get()->NowUnix(); }),
      icache_(std::make_unique<InodeCache>(kInodeCacheEntries)) {
  if (options.cache.capacity_blocks > 0) {
    auto cache = std::make_shared<BlockCache>(std::move(device),
                                              options.cache);
    cache_ = cache.get();
    dev_ = std::move(cache);
  } else {
    dev_ = std::move(device);
  }
}

// ~BlockCache (via dev_) flushes any remaining dirty blocks.
Ffs::~Ffs() = default;

Status Ffs::Sync() {
  if (cache_ != nullptr) {
    return cache_->Sync();
  }
  return OkStatus();
}

Status Ffs::ModifyBlock(uint64_t block,
                        const std::function<void(uint8_t*)>& fn) {
  if (cache_ != nullptr) {
    return cache_->Modify(block, fn);
  }
  std::vector<uint8_t> buf(dev_->block_size());
  RETURN_IF_ERROR(dev_->Read(block, buf.data()));
  fn(buf.data());
  return dev_->Write(block, buf.data());
}

Result<std::unique_ptr<Ffs>> Ffs::Format(std::shared_ptr<BlockDevice> device,
                                         const FfsFormatOptions& options) {
  const uint32_t bs = device->block_size();
  if (bs < 512 || (bs & (bs - 1)) != 0) {
    return InvalidArgumentError("block size must be a power of two >= 512");
  }
  const uint64_t total = device->block_count();
  auto fs = std::unique_ptr<Ffs>(new Ffs(std::move(device), options.mount));
  auto sb = std::make_unique<Superblock>();
  sb->block_size = bs;
  sb->total_blocks = total;
  sb->inode_count = options.inode_count;

  const uint64_t bits_per_block = static_cast<uint64_t>(bs) * 8;
  sb->inode_bitmap_start = 1;
  sb->inode_bitmap_blocks = static_cast<uint32_t>(
      (options.inode_count + bits_per_block - 1) / bits_per_block);
  sb->inode_table_start = sb->inode_bitmap_start + sb->inode_bitmap_blocks;
  const uint32_t inodes_per_block = bs / kInodeSize;
  sb->inode_table_blocks =
      (options.inode_count + inodes_per_block - 1) / inodes_per_block;
  sb->data_bitmap_start = sb->inode_table_start + sb->inode_table_blocks;
  // The data bitmap must cover every block after itself; solve iteratively.
  uint32_t dbm_blocks = 1;
  while (true) {
    uint64_t data_start = sb->data_bitmap_start + dbm_blocks;
    if (data_start >= total) {
      return InvalidArgumentError("device too small for metadata");
    }
    uint64_t data_blocks = total - data_start;
    uint32_t needed = static_cast<uint32_t>(
        (data_blocks + bits_per_block - 1) / bits_per_block);
    if (needed <= dbm_blocks) {
      break;
    }
    dbm_blocks = needed;
  }
  sb->data_bitmap_blocks = dbm_blocks;
  sb->data_start = sb->data_bitmap_start + dbm_blocks;
  sb->free_blocks = total - sb->data_start;
  sb->free_inodes = options.inode_count - 1;  // inode 0 reserved/invalid

  // Zero all metadata blocks.
  std::vector<uint8_t> zero(bs, 0);
  for (uint64_t b = 0; b < sb->data_start; ++b) {
    RETURN_IF_ERROR(fs->dev_->Write(b, zero.data()));
  }
  fs->sb_ = std::move(sb);

  // Mark inode 0 used so it is never allocated.
  RETURN_IF_ERROR(fs->BitmapSet(fs->sb_->inode_bitmap_start, 0, true));

  // Create the root directory (inode 1).
  ASSIGN_OR_RETURN(InodeNum root, fs->AllocInode(FileType::kDirectory, 0755));
  if (root != 1) {
    return InternalError("root inode is not 1");
  }
  fs->root_inode_ = root;
  RETURN_IF_ERROR(fs->WriteSuperblock());
  return fs;
}

Result<std::unique_ptr<Ffs>> Ffs::Mount(std::shared_ptr<BlockDevice> device,
                                        const FfsMountOptions& options) {
  auto fs = std::unique_ptr<Ffs>(new Ffs(std::move(device), options));
  RETURN_IF_ERROR(fs->LoadSuperblock());
  return fs;
}

Status Ffs::LoadSuperblock() {
  std::vector<uint8_t> block(dev_->block_size());
  RETURN_IF_ERROR(dev_->Read(0, block.data()));
  ASSIGN_OR_RETURN(Superblock sb, Superblock::Deserialize(block.data()));
  if (sb.block_size != dev_->block_size() ||
      sb.total_blocks > dev_->block_count()) {
    return DataLossError("superblock does not match device geometry");
  }
  sb_ = std::make_unique<Superblock>(sb);
  return OkStatus();
}

Status Ffs::WriteSuperblock() {
  const Superblock& sb = *sb_;
  return ModifyBlock(0, [&sb](uint8_t* block) { sb.Serialize(block); });
}

// ----------------------------------------------------------------- bitmaps

Result<bool> Ffs::BitmapGet(uint64_t bitmap_start, uint64_t index) {
  const uint32_t bs = sb_->block_size;
  uint64_t block = bitmap_start + index / (static_cast<uint64_t>(bs) * 8);
  uint32_t bit = static_cast<uint32_t>(index % (static_cast<uint64_t>(bs) * 8));
  std::vector<uint8_t> buf(bs);
  RETURN_IF_ERROR(dev_->Read(block, buf.data()));
  return (buf[bit / 8] >> (bit % 8)) & 1;
}

Status Ffs::BitmapSet(uint64_t bitmap_start, uint64_t index, bool value) {
  const uint32_t bs = sb_->block_size;
  uint64_t block = bitmap_start + index / (static_cast<uint64_t>(bs) * 8);
  uint32_t bit = static_cast<uint32_t>(index % (static_cast<uint64_t>(bs) * 8));
  uint8_t mask = static_cast<uint8_t>(1 << (bit % 8));
  return ModifyBlock(block, [bit, mask, value](uint8_t* buf) {
    if (value) {
      buf[bit / 8] |= mask;
    } else {
      buf[bit / 8] &= static_cast<uint8_t>(~mask);
    }
  });
}

Result<std::optional<uint64_t>> Ffs::BitmapFindFree(uint64_t bitmap_start,
                                                    uint64_t count) {
  const uint32_t bs = sb_->block_size;
  const uint64_t bits_per_block = static_cast<uint64_t>(bs) * 8;
  // Cursor-driven scan so repeated allocations don't rescan from zero.
  uint64_t& cursor = (bitmap_start == sb_->data_bitmap_start)
                         ? sb_->data_cursor
                         : sb_->inode_cursor;
  std::vector<uint8_t> buf(bs);
  for (uint64_t attempt = 0; attempt < count; ) {
    uint64_t index = (cursor + attempt) % count;
    uint64_t block = bitmap_start + index / bits_per_block;
    RETURN_IF_ERROR(dev_->Read(block, buf.data()));
    // Scan this bitmap block from `index`.
    uint64_t block_first = (index / bits_per_block) * bits_per_block;
    uint64_t start_bit = index - block_first;
    uint64_t limit = std::min(bits_per_block, count - block_first);
    for (uint64_t bit = start_bit; bit < limit; ++bit) {
      if (((buf[bit / 8] >> (bit % 8)) & 1) == 0) {
        cursor = block_first + bit;
        return std::optional<uint64_t>(block_first + bit);
      }
    }
    attempt += limit - start_bit;
  }
  return std::optional<uint64_t>(std::nullopt);
}

// ------------------------------------------------------------------ inodes

Result<Ffs::DiskInode> Ffs::ReadInode(InodeNum inode) {
  if (inode == 0 || inode >= sb_->inode_count) {
    return InvalidArgumentError(StrPrintf("inode %u out of range", inode));
  }
  DiskInode cached;
  if (icache_->Get(inode, &cached)) {
    return cached;
  }
  const uint32_t inodes_per_block = sb_->block_size / kInodeSize;
  uint64_t block = sb_->inode_table_start + inode / inodes_per_block;
  uint32_t offset = (inode % inodes_per_block) * kInodeSize;
  std::vector<uint8_t> buf(sb_->block_size);
  RETURN_IF_ERROR(dev_->Read(block, buf.data()));
  DiskInode node = DiskInode::Deserialize(buf.data() + offset);
  // Fill without overwriting: a concurrent WriteInode may have installed
  // a newer copy than the block we just read — that copy wins.
  DiskInode winner;
  icache_->Put(inode, node, /*overwrite=*/false, &winner);
  return winner;
}

Status Ffs::WriteInode(InodeNum inode, const DiskInode& node) {
  const uint32_t inodes_per_block = sb_->block_size / kInodeSize;
  uint64_t block = sb_->inode_table_start + inode / inodes_per_block;
  uint32_t offset = (inode % inodes_per_block) * kInodeSize;
  icache_->Put(inode, node, /*overwrite=*/true, nullptr);
  // Patch only this inode's 128 bytes so concurrent updates of other
  // inodes sharing the block cannot be lost.
  return ModifyBlock(
      block, [&node, offset](uint8_t* buf) { node.Serialize(buf + offset); });
}

Result<InodeNum> Ffs::AllocInode(FileType type, uint32_t mode) {
  std::lock_guard<std::mutex> lock(alloc_mu_);
  ASSIGN_OR_RETURN(std::optional<uint64_t> slot,
                   BitmapFindFree(sb_->inode_bitmap_start, sb_->inode_count));
  if (!slot.has_value()) {
    return ResourceExhaustedError("out of inodes");
  }
  InodeNum inode = static_cast<InodeNum>(*slot);
  RETURN_IF_ERROR(BitmapSet(sb_->inode_bitmap_start, inode, true));
  ASSIGN_OR_RETURN(DiskInode old, ReadInode(inode));
  DiskInode node;
  node.type = static_cast<uint8_t>(type);
  node.mode = mode & 07777;
  node.nlink = 1;
  node.generation = old.generation + 1;  // never resurrect stale handles
  int64_t now = now_();
  node.atime = node.mtime = node.ctime = now;
  RETURN_IF_ERROR(WriteInode(inode, node));
  sb_->free_inodes--;
  RETURN_IF_ERROR(WriteSuperblock());
  return inode;
}

Status Ffs::FreeInode(InodeNum inode) {
  ASSIGN_OR_RETURN(DiskInode node, ReadInode(inode));
  RETURN_IF_ERROR(FreeBlocksFrom(node, 0));  // takes alloc_mu_ per block
  node.type = static_cast<uint8_t>(FileType::kFree);
  node.size = 0;
  node.nlink = 0;
  RETURN_IF_ERROR(WriteInode(inode, node));  // generation survives
  std::lock_guard<std::mutex> lock(alloc_mu_);
  RETURN_IF_ERROR(BitmapSet(sb_->inode_bitmap_start, inode, false));
  sb_->free_inodes++;
  return WriteSuperblock();
}

Result<uint64_t> Ffs::AllocBlock() {
  std::lock_guard<std::mutex> lock(alloc_mu_);
  uint64_t data_blocks = sb_->total_blocks - sb_->data_start;
  ASSIGN_OR_RETURN(std::optional<uint64_t> slot,
                   BitmapFindFree(sb_->data_bitmap_start, data_blocks));
  if (!slot.has_value()) {
    return ResourceExhaustedError("out of disk space");
  }
  RETURN_IF_ERROR(BitmapSet(sb_->data_bitmap_start, *slot, true));
  uint64_t block = sb_->data_start + *slot;
  // Zero on allocation: freed blocks may hold stale data, and freshly
  // mapped holes must read as zeros.
  std::vector<uint8_t> zero(sb_->block_size, 0);
  RETURN_IF_ERROR(dev_->Write(block, zero.data()));
  sb_->free_blocks--;
  RETURN_IF_ERROR(WriteSuperblock());
  return block;
}

Status Ffs::FreeBlock(uint64_t block) {
  if (block < sb_->data_start || block >= sb_->total_blocks) {
    return InternalError("freeing non-data block");
  }
  std::lock_guard<std::mutex> lock(alloc_mu_);
  RETURN_IF_ERROR(
      BitmapSet(sb_->data_bitmap_start, block - sb_->data_start, false));
  sb_->free_blocks++;
  return WriteSuperblock();
}

// ------------------------------------------------------------- block maps

Result<uint64_t> Ffs::BMap(DiskInode& node, uint64_t file_block, bool allocate,
                           bool& dirty) {
  const uint64_t ppb = sb_->block_size / 4;  // pointers per block

  auto load_ptr = [&](uint64_t block, uint64_t idx) -> Result<uint32_t> {
    std::vector<uint8_t> buf(sb_->block_size);
    RETURN_IF_ERROR(dev_->Read(block, buf.data()));
    return LoadU32(buf.data() + 4 * idx);
  };
  auto store_ptr = [&](uint64_t block, uint64_t idx,
                       uint32_t value) -> Status {
    return ModifyBlock(block, [idx, value](uint8_t* buf) {
      StoreU32(buf + 4 * idx, value);
    });
  };

  if (file_block < kDirectBlocks) {
    uint32_t ptr = node.direct[file_block];
    if (ptr == 0 && allocate) {
      ASSIGN_OR_RETURN(uint64_t fresh, AllocBlock());
      ptr = static_cast<uint32_t>(fresh);
      node.direct[file_block] = ptr;
      dirty = true;
    }
    return ptr;
  }
  file_block -= kDirectBlocks;

  if (file_block < ppb) {
    if (node.indirect == 0) {
      if (!allocate) {
        return uint64_t{0};
      }
      ASSIGN_OR_RETURN(uint64_t fresh, AllocBlock());
      node.indirect = static_cast<uint32_t>(fresh);
      dirty = true;
    }
    ASSIGN_OR_RETURN(uint32_t ptr, load_ptr(node.indirect, file_block));
    if (ptr == 0 && allocate) {
      ASSIGN_OR_RETURN(uint64_t fresh, AllocBlock());
      ptr = static_cast<uint32_t>(fresh);
      RETURN_IF_ERROR(store_ptr(node.indirect, file_block, ptr));
    }
    return uint64_t{ptr};
  }
  file_block -= ppb;

  if (file_block < ppb * ppb) {
    if (node.double_indirect == 0) {
      if (!allocate) {
        return uint64_t{0};
      }
      ASSIGN_OR_RETURN(uint64_t fresh, AllocBlock());
      node.double_indirect = static_cast<uint32_t>(fresh);
      dirty = true;
    }
    uint64_t outer = file_block / ppb;
    uint64_t inner = file_block % ppb;
    ASSIGN_OR_RETURN(uint32_t l1, load_ptr(node.double_indirect, outer));
    if (l1 == 0) {
      if (!allocate) {
        return uint64_t{0};
      }
      ASSIGN_OR_RETURN(uint64_t fresh, AllocBlock());
      l1 = static_cast<uint32_t>(fresh);
      RETURN_IF_ERROR(store_ptr(node.double_indirect, outer, l1));
    }
    ASSIGN_OR_RETURN(uint32_t ptr, load_ptr(l1, inner));
    if (ptr == 0 && allocate) {
      ASSIGN_OR_RETURN(uint64_t fresh, AllocBlock());
      ptr = static_cast<uint32_t>(fresh);
      RETURN_IF_ERROR(store_ptr(l1, inner, ptr));
    }
    return uint64_t{ptr};
  }
  return OutOfRangeError("file offset beyond maximum file size");
}

Status Ffs::FreeSubtree(uint32_t* ptr, uint64_t span, uint64_t first) {
  if (*ptr == 0 || first >= span) {
    return OkStatus();
  }
  if (span > 1) {
    const uint64_t ppb = sb_->block_size / 4;
    const uint64_t child_span = span / ppb;
    const uint64_t first_slot = first / child_span;
    std::vector<uint8_t> buf(sb_->block_size);
    RETURN_IF_ERROR(dev_->Read(*ptr, buf.data()));
    for (uint64_t i = first_slot; i < ppb; ++i) {
      uint32_t child = LoadU32(buf.data() + 4 * i);
      RETURN_IF_ERROR(
          FreeSubtree(&child, child_span, i == first_slot ? first % child_span
                                                          : 0));
      StoreU32(buf.data() + 4 * i, child);
    }
    if (first > 0) {
      // A kept block maps through this one: keep it, clear the freed slots.
      const uint8_t* src = buf.data();
      return ModifyBlock(*ptr, [src, first_slot, ppb](uint8_t* block) {
        std::memcpy(block + 4 * first_slot, src + 4 * first_slot,
                    4 * (ppb - first_slot));
      });
    }
  }
  RETURN_IF_ERROR(FreeBlock(*ptr));
  *ptr = 0;
  return OkStatus();
}

Status Ffs::FreeBlocksFrom(DiskInode& node, uint64_t first) {
  const uint64_t ppb = sb_->block_size / 4;
  uint64_t base = 0;  // first file block the next pointer maps
  auto from = [&first, &base] { return first > base ? first - base : 0; };
  for (size_t i = 0; i < kDirectBlocks; ++i, ++base) {
    RETURN_IF_ERROR(FreeSubtree(&node.direct[i], 1, from()));
  }
  RETURN_IF_ERROR(FreeSubtree(&node.indirect, ppb, from()));
  base += ppb;
  return FreeSubtree(&node.double_indirect, ppb * ppb, from());
}

Status Ffs::TruncateTo(DiskInode& node, uint64_t new_size) {
  if (new_size >= node.size) {
    node.size = new_size;  // extend: hole, reads return zeros
    return OkStatus();
  }
  // Shrink: release every block past the new end, then zero the tail of
  // the boundary block so re-extension reads zeros.
  const uint32_t bs = sb_->block_size;
  RETURN_IF_ERROR(FreeBlocksFrom(node, (new_size + bs - 1) / bs));
  if (new_size % bs != 0) {
    bool dirty = false;
    ASSIGN_OR_RETURN(uint64_t block, BMap(node, new_size / bs, false, dirty));
    if (block != 0) {
      uint32_t tail = static_cast<uint32_t>(new_size % bs);
      RETURN_IF_ERROR(ModifyBlock(block, [tail, bs](uint8_t* buf) {
        std::memset(buf + tail, 0, bs - tail);
      }));
    }
  }
  node.size = new_size;
  return OkStatus();
}

// --------------------------------------------------------------- file I/O

Result<size_t> Ffs::ReadInternal(DiskInode& node, uint64_t offset, size_t len,
                                 uint8_t* out) {
  if (offset >= node.size) {
    return size_t{0};
  }
  len = static_cast<size_t>(
      std::min<uint64_t>(len, node.size - offset));
  const uint32_t bs = sb_->block_size;
  std::vector<uint8_t> buf(bs);
  size_t done = 0;
  bool dirty = false;
  while (done < len) {
    uint64_t pos = offset + done;
    uint64_t fb = pos / bs;
    uint32_t in_block = static_cast<uint32_t>(pos % bs);
    size_t take = std::min<size_t>(len - done, bs - in_block);
    ASSIGN_OR_RETURN(uint64_t block, BMap(node, fb, false, dirty));
    if (block == 0) {
      std::memset(out + done, 0, take);  // hole
    } else {
      RETURN_IF_ERROR(dev_->Read(block, buf.data()));
      std::memcpy(out + done, buf.data() + in_block, take);
    }
    done += take;
  }
  return done;
}

Result<size_t> Ffs::WriteInternal(InodeNum inode, DiskInode& node,
                                  uint64_t offset, const uint8_t* data,
                                  size_t len) {
  const uint32_t bs = sb_->block_size;
  size_t done = 0;
  bool dirty = false;
  while (done < len) {
    uint64_t pos = offset + done;
    uint64_t fb = pos / bs;
    uint32_t in_block = static_cast<uint32_t>(pos % bs);
    size_t take = std::min<size_t>(len - done, bs - in_block);
    ASSIGN_OR_RETURN(uint64_t block, BMap(node, fb, true, dirty));
    if (take == bs) {
      RETURN_IF_ERROR(dev_->Write(block, data + done));
    } else {
      const uint8_t* src = data + done;
      RETURN_IF_ERROR(ModifyBlock(block, [src, in_block, take](uint8_t* buf) {
        std::memcpy(buf + in_block, src, take);
      }));
    }
    done += take;
  }
  if (offset + len > node.size) {
    node.size = offset + len;
    dirty = true;
  }
  node.mtime = now_();
  RETURN_IF_ERROR(WriteInode(inode, node));
  (void)dirty;
  return done;
}

// ------------------------------------------------------------ directories

Status Ffs::ForEachDirSlot(
    const DiskInode& dir_node,
    const std::function<bool(uint64_t slot, const uint8_t* entry)>& fn) {
  const uint32_t bs = sb_->block_size;
  const uint32_t entries_per_block = bs / kDirEntrySize;
  const uint64_t slots = dir_node.size / kDirEntrySize;
  DiskInode node = dir_node;  // BMap takes non-const
  std::vector<uint8_t> buf(bs);
  bool dirty = false;
  for (uint64_t slot = 0; slot < slots; ++slot) {
    if (slot % entries_per_block == 0) {
      ASSIGN_OR_RETURN(uint64_t block,
                       BMap(node, slot / entries_per_block, false, dirty));
      if (block == 0) {
        std::memset(buf.data(), 0, bs);
      } else {
        RETURN_IF_ERROR(dev_->Read(block, buf.data()));
      }
    }
    if (!fn(slot, buf.data() + (slot % entries_per_block) * kDirEntrySize)) {
      break;
    }
  }
  return OkStatus();
}

Result<std::optional<std::pair<uint32_t, DirEntry>>> Ffs::FindEntry(
    const DiskInode& dir_node, const std::string& name) {
  std::optional<std::pair<uint32_t, DirEntry>> found;
  RETURN_IF_ERROR(
      ForEachDirSlot(dir_node, [&](uint64_t slot, const uint8_t* e) {
        uint8_t name_len = e[5];
        if (LoadU32(e) == 0 || name_len != name.size() ||
            std::memcmp(e + 6, name.data(), name_len) != 0) {
          return true;
        }
        found.emplace(static_cast<uint32_t>(slot),
                      DirEntry{name, LoadU32(e), static_cast<FileType>(e[4])});
        return false;
      }));
  return found;
}

Status Ffs::AddEntry(InodeNum dir, DiskInode& dir_node,
                     const std::string& name, InodeNum target,
                     FileType type) {
  if (name.empty() || name.size() > kMaxNameLen) {
    return InvalidArgumentError("name length out of range");
  }
  if (name.find('/') != std::string::npos || name == "." || name == "..") {
    return InvalidArgumentError("invalid file name");
  }
  // Take the first free slot, or append.
  uint64_t target_slot = dir_node.size / kDirEntrySize;
  RETURN_IF_ERROR(
      ForEachDirSlot(dir_node, [&](uint64_t slot, const uint8_t* e) {
        if (LoadU32(e) != 0) {
          return true;
        }
        target_slot = slot;
        return false;
      }));
  uint8_t entry[kDirEntrySize] = {0};
  StoreU32(entry, target);
  entry[4] = static_cast<uint8_t>(type);
  entry[5] = static_cast<uint8_t>(name.size());
  std::memcpy(entry + 6, name.data(), name.size());
  ASSIGN_OR_RETURN(size_t written,
                   WriteInternal(dir, dir_node, target_slot * kDirEntrySize,
                                 entry, kDirEntrySize));
  if (written != kDirEntrySize) {
    return IoError("short directory write");
  }
  return OkStatus();
}

Status Ffs::RemoveEntrySlot(DiskInode& dir_node, uint32_t slot) {
  const uint32_t entries_per_block = sb_->block_size / kDirEntrySize;
  bool dirty = false;
  ASSIGN_OR_RETURN(uint64_t block,
                   BMap(dir_node, slot / entries_per_block, false, dirty));
  if (block == 0) {
    return InternalError("directory slot in a hole");
  }
  uint32_t in_block = (slot % entries_per_block) * kDirEntrySize;
  return ModifyBlock(block, [in_block](uint8_t* buf) {
    std::memset(buf + in_block, 0, kDirEntrySize);
  });
}

Result<bool> Ffs::DirIsEmpty(const DiskInode& dir_node) {
  bool empty = true;
  RETURN_IF_ERROR(ForEachDirSlot(dir_node, [&](uint64_t, const uint8_t* e) {
    empty = LoadU32(e) == 0;
    return empty;
  }));
  return empty;
}

// --------------------------------------------------------------- public API

InodeAttr Ffs::ToAttr(InodeNum inode, const DiskInode& node) const {
  InodeAttr attr;
  attr.inode = inode;
  attr.generation = node.generation;
  attr.type = static_cast<FileType>(node.type);
  attr.mode = node.mode;
  attr.uid = node.uid;
  attr.gid = node.gid;
  attr.nlink = node.nlink;
  attr.size = node.size;
  attr.atime = node.atime;
  attr.mtime = node.mtime;
  attr.ctime = node.ctime;
  return attr;
}

Result<InodeAttr> Ffs::GetAttr(InodeNum inode) {
  ASSIGN_OR_RETURN(DiskInode node, ReadInode(inode));
  if (node.type == static_cast<uint8_t>(FileType::kFree)) {
    return NotFoundError(StrPrintf("inode %u is not allocated", inode));
  }
  return ToAttr(inode, node);
}

Status Ffs::SetAttr(InodeNum inode, const SetAttrRequest& request) {
  ASSIGN_OR_RETURN(DiskInode node, ReadInode(inode));
  if (node.type == static_cast<uint8_t>(FileType::kFree)) {
    return NotFoundError("setattr on free inode");
  }
  if (request.mode.has_value()) {
    node.mode = *request.mode & 07777;
  }
  if (request.uid.has_value()) {
    node.uid = *request.uid;
  }
  if (request.gid.has_value()) {
    node.gid = *request.gid;
  }
  if (request.size.has_value()) {
    if (node.type != static_cast<uint8_t>(FileType::kRegular)) {
      return InvalidArgumentError("size change on non-regular file");
    }
    RETURN_IF_ERROR(TruncateTo(node, *request.size));
  }
  if (request.atime.has_value()) {
    node.atime = *request.atime;
  }
  if (request.mtime.has_value()) {
    node.mtime = *request.mtime;
  }
  node.ctime = now_();
  return WriteInode(inode, node);
}

Result<InodeAttr> Ffs::Lookup(InodeNum dir, const std::string& name) {
  ASSIGN_OR_RETURN(DiskInode dir_node, ReadInode(dir));
  if (dir_node.type != static_cast<uint8_t>(FileType::kDirectory)) {
    return InvalidArgumentError("lookup in non-directory");
  }
  ASSIGN_OR_RETURN(auto found, FindEntry(dir_node, name));
  if (!found.has_value()) {
    return NotFoundError("no entry named " + name);
  }
  return GetAttr(found->second.inode);
}

Result<InodeAttr> Ffs::Create(InodeNum dir, const std::string& name,
                              uint32_t mode) {
  ASSIGN_OR_RETURN(DiskInode dir_node, ReadInode(dir));
  if (dir_node.type != static_cast<uint8_t>(FileType::kDirectory)) {
    return InvalidArgumentError("create in non-directory");
  }
  ASSIGN_OR_RETURN(auto existing, FindEntry(dir_node, name));
  if (existing.has_value()) {
    return AlreadyExistsError(name + " already exists");
  }
  ASSIGN_OR_RETURN(InodeNum inode, AllocInode(FileType::kRegular, mode));
  RETURN_IF_ERROR(AddEntry(dir, dir_node, name, inode, FileType::kRegular));
  return GetAttr(inode);
}

Result<InodeAttr> Ffs::Mkdir(InodeNum dir, const std::string& name,
                             uint32_t mode) {
  ASSIGN_OR_RETURN(DiskInode dir_node, ReadInode(dir));
  if (dir_node.type != static_cast<uint8_t>(FileType::kDirectory)) {
    return InvalidArgumentError("mkdir in non-directory");
  }
  ASSIGN_OR_RETURN(auto existing, FindEntry(dir_node, name));
  if (existing.has_value()) {
    return AlreadyExistsError(name + " already exists");
  }
  ASSIGN_OR_RETURN(InodeNum inode, AllocInode(FileType::kDirectory, mode));
  RETURN_IF_ERROR(AddEntry(dir, dir_node, name, inode, FileType::kDirectory));
  return GetAttr(inode);
}

Result<InodeAttr> Ffs::Symlink(InodeNum dir, const std::string& name,
                               const std::string& target) {
  ASSIGN_OR_RETURN(DiskInode dir_node, ReadInode(dir));
  if (dir_node.type != static_cast<uint8_t>(FileType::kDirectory)) {
    return InvalidArgumentError("symlink in non-directory");
  }
  ASSIGN_OR_RETURN(auto existing, FindEntry(dir_node, name));
  if (existing.has_value()) {
    return AlreadyExistsError(name + " already exists");
  }
  ASSIGN_OR_RETURN(InodeNum inode, AllocInode(FileType::kSymlink, 0777));
  ASSIGN_OR_RETURN(DiskInode node, ReadInode(inode));
  ASSIGN_OR_RETURN(
      size_t n,
      WriteInternal(inode, node, 0,
                    reinterpret_cast<const uint8_t*>(target.data()),
                    target.size()));
  if (n != target.size()) {
    return IoError("short symlink write");
  }
  RETURN_IF_ERROR(AddEntry(dir, dir_node, name, inode, FileType::kSymlink));
  return GetAttr(inode);
}

Result<std::string> Ffs::ReadLink(InodeNum inode) {
  ASSIGN_OR_RETURN(DiskInode node, ReadInode(inode));
  if (node.type != static_cast<uint8_t>(FileType::kSymlink)) {
    return InvalidArgumentError("readlink on non-symlink");
  }
  std::string target(node.size, '\0');
  ASSIGN_OR_RETURN(size_t n,
                   ReadInternal(node, 0, node.size,
                                reinterpret_cast<uint8_t*>(target.data())));
  target.resize(n);
  return target;
}

Status Ffs::Link(InodeNum dir, const std::string& name, InodeNum target) {
  ASSIGN_OR_RETURN(DiskInode dir_node, ReadInode(dir));
  if (dir_node.type != static_cast<uint8_t>(FileType::kDirectory)) {
    return InvalidArgumentError("link in non-directory");
  }
  ASSIGN_OR_RETURN(DiskInode target_node, ReadInode(target));
  if (target_node.type != static_cast<uint8_t>(FileType::kRegular)) {
    return InvalidArgumentError("hard links only to regular files");
  }
  ASSIGN_OR_RETURN(auto existing, FindEntry(dir_node, name));
  if (existing.has_value()) {
    return AlreadyExistsError(name + " already exists");
  }
  RETURN_IF_ERROR(AddEntry(dir, dir_node, name, target, FileType::kRegular));
  target_node.nlink++;
  target_node.ctime = now_();
  return WriteInode(target, target_node);
}

Status Ffs::Remove(InodeNum dir, const std::string& name) {
  ASSIGN_OR_RETURN(DiskInode dir_node, ReadInode(dir));
  ASSIGN_OR_RETURN(auto found, FindEntry(dir_node, name));
  if (!found.has_value()) {
    return NotFoundError("no entry named " + name);
  }
  if (found->second.type == FileType::kDirectory) {
    return InvalidArgumentError("is a directory (use rmdir)");
  }
  RETURN_IF_ERROR(RemoveEntrySlot(dir_node, found->first));
  ASSIGN_OR_RETURN(DiskInode node, ReadInode(found->second.inode));
  if (node.nlink <= 1) {
    RETURN_IF_ERROR(FreeInode(found->second.inode));
  } else {
    node.nlink--;
    node.ctime = now_();
    RETURN_IF_ERROR(WriteInode(found->second.inode, node));
  }
  return OkStatus();
}

Status Ffs::Rmdir(InodeNum dir, const std::string& name) {
  ASSIGN_OR_RETURN(DiskInode dir_node, ReadInode(dir));
  ASSIGN_OR_RETURN(auto found, FindEntry(dir_node, name));
  if (!found.has_value()) {
    return NotFoundError("no entry named " + name);
  }
  if (found->second.type != FileType::kDirectory) {
    return InvalidArgumentError("not a directory");
  }
  ASSIGN_OR_RETURN(DiskInode child, ReadInode(found->second.inode));
  ASSIGN_OR_RETURN(bool empty, DirIsEmpty(child));
  if (!empty) {
    return FailedPreconditionError("directory not empty");
  }
  RETURN_IF_ERROR(RemoveEntrySlot(dir_node, found->first));
  return FreeInode(found->second.inode);
}

Status Ffs::Rename(InodeNum from_dir, const std::string& from_name,
                   InodeNum to_dir, const std::string& to_name) {
  ASSIGN_OR_RETURN(DiskInode from_node, ReadInode(from_dir));
  ASSIGN_OR_RETURN(auto source, FindEntry(from_node, from_name));
  if (!source.has_value()) {
    return NotFoundError("no entry named " + from_name);
  }

  ASSIGN_OR_RETURN(DiskInode to_node, ReadInode(to_dir));
  ASSIGN_OR_RETURN(auto dest, FindEntry(to_node, to_name));
  if (dest.has_value()) {
    if (dest->second.inode == source->second.inode) {
      // Same object: just remove the old name.
      RETURN_IF_ERROR(RemoveEntrySlot(from_node, source->first));
      return OkStatus();
    }
    if (dest->second.type == FileType::kDirectory) {
      if (source->second.type != FileType::kDirectory) {
        return InvalidArgumentError("cannot replace directory with file");
      }
      RETURN_IF_ERROR(Rmdir(to_dir, to_name));
    } else {
      RETURN_IF_ERROR(Remove(to_dir, to_name));
    }
    // Directory metadata changed; reload both nodes.
    ASSIGN_OR_RETURN(to_node, ReadInode(to_dir));
    ASSIGN_OR_RETURN(from_node, ReadInode(from_dir));
    ASSIGN_OR_RETURN(source, FindEntry(from_node, from_name));
    if (!source.has_value()) {
      return InternalError("source vanished during rename");
    }
  }
  RETURN_IF_ERROR(AddEntry(to_dir, to_node, to_name, source->second.inode,
                           source->second.type));
  // AddEntry may have grown to_dir == from_dir; reload before removing.
  if (to_dir == from_dir) {
    ASSIGN_OR_RETURN(from_node, ReadInode(from_dir));
    ASSIGN_OR_RETURN(source, FindEntry(from_node, from_name));
    if (!source.has_value()) {
      return InternalError("source vanished during rename");
    }
  }
  return RemoveEntrySlot(from_node, source->first);
}

Result<size_t> Ffs::Read(InodeNum inode, uint64_t offset, size_t len,
                         uint8_t* out) {
  ASSIGN_OR_RETURN(DiskInode node, ReadInode(inode));
  if (node.type != static_cast<uint8_t>(FileType::kRegular)) {
    return InvalidArgumentError("read from non-regular file");
  }
  return ReadInternal(node, offset, len, out);
}

Result<size_t> Ffs::Write(InodeNum inode, uint64_t offset, const uint8_t* data,
                          size_t len) {
  ASSIGN_OR_RETURN(DiskInode node, ReadInode(inode));
  if (node.type != static_cast<uint8_t>(FileType::kRegular)) {
    return InvalidArgumentError("write to non-regular file");
  }
  return WriteInternal(inode, node, offset, data, len);
}

Result<std::vector<DirEntry>> Ffs::ReadDir(InodeNum dir) {
  ASSIGN_OR_RETURN(DiskInode node, ReadInode(dir));
  if (node.type != static_cast<uint8_t>(FileType::kDirectory)) {
    return InvalidArgumentError("readdir on non-directory");
  }
  std::vector<DirEntry> entries;
  RETURN_IF_ERROR(ForEachDirSlot(node, [&](uint64_t, const uint8_t* e) {
    if (LoadU32(e) != 0) {
      entries.push_back(
          DirEntry{std::string(reinterpret_cast<const char*>(e + 6), e[5]),
                   LoadU32(e), static_cast<FileType>(e[4])});
    }
    return true;
  }));
  return entries;
}

Result<StatFsInfo> Ffs::StatFs() {
  std::lock_guard<std::mutex> lock(alloc_mu_);
  StatFsInfo info;
  info.block_size = sb_->block_size;
  info.total_blocks = sb_->total_blocks - sb_->data_start;
  info.free_blocks = sb_->free_blocks;
  info.total_inodes = sb_->inode_count - 1;
  info.free_inodes = sb_->free_inodes;
  return info;
}

// -------------------------------------------------------------------- fsck

Result<FsckReport> Ffs::Check() {
  FsckReport report;
  std::set<InodeNum> seen_inodes;
  std::map<InodeNum, uint32_t> link_counts;
  std::set<uint64_t> used_blocks;

  auto claim_block = [&](uint64_t block, InodeNum owner) {
    if (block == 0) {
      return;
    }
    if (block < sb_->data_start || block >= sb_->total_blocks) {
      report.errors.push_back(StrPrintf(
          "inode %u references out-of-range block %llu", owner,
          static_cast<unsigned long long>(block)));
      return;
    }
    if (!used_blocks.insert(block).second) {
      report.errors.push_back(StrPrintf(
          "block %llu referenced twice (second owner inode %u)",
          static_cast<unsigned long long>(block), owner));
    }
  };

  // Walk every block referenced by an inode's pointer trees.
  auto walk_blocks = [&](InodeNum ino, const DiskInode& node) -> Status {
    const uint64_t ppb = sb_->block_size / 4;
    for (size_t i = 0; i < kDirectBlocks; ++i) {
      claim_block(node.direct[i], ino);
    }
    std::vector<uint8_t> buf(sb_->block_size);
    if (node.indirect != 0) {
      claim_block(node.indirect, ino);
      RETURN_IF_ERROR(dev_->Read(node.indirect, buf.data()));
      for (uint64_t i = 0; i < ppb; ++i) {
        claim_block(LoadU32(buf.data() + 4 * i), ino);
      }
    }
    if (node.double_indirect != 0) {
      claim_block(node.double_indirect, ino);
      std::vector<uint8_t> outer(sb_->block_size);
      RETURN_IF_ERROR(dev_->Read(node.double_indirect, outer.data()));
      for (uint64_t i = 0; i < ppb; ++i) {
        uint32_t l1 = LoadU32(outer.data() + 4 * i);
        if (l1 == 0) {
          continue;
        }
        claim_block(l1, ino);
        RETURN_IF_ERROR(dev_->Read(l1, buf.data()));
        for (uint64_t j = 0; j < ppb; ++j) {
          claim_block(LoadU32(buf.data() + 4 * j), ino);
        }
      }
    }
    return OkStatus();
  };

  std::deque<InodeNum> queue{root_inode_};
  link_counts[root_inode_] = 1;
  while (!queue.empty()) {
    InodeNum ino = queue.front();
    queue.pop_front();
    if (!seen_inodes.insert(ino).second) {
      continue;
    }
    ASSIGN_OR_RETURN(DiskInode node, ReadInode(ino));
    if (node.type == static_cast<uint8_t>(FileType::kFree)) {
      report.errors.push_back(
          StrPrintf("directory entry references free inode %u", ino));
      continue;
    }
    RETURN_IF_ERROR(walk_blocks(ino, node));
    if (node.type == static_cast<uint8_t>(FileType::kDirectory)) {
      report.directories++;
      ASSIGN_OR_RETURN(std::vector<DirEntry> entries, ReadDir(ino));
      for (const DirEntry& e : entries) {
        if (e.inode == 0 || e.inode >= sb_->inode_count) {
          report.errors.push_back(StrPrintf(
              "dir inode %u has entry '%s' with bad inode %u", ino,
              e.name.c_str(), e.inode));
          continue;
        }
        link_counts[e.inode]++;
        if (e.type == FileType::kDirectory) {
          queue.push_back(e.inode);
        } else {
          // Files/symlinks: still need their blocks and nlink accounted.
          if (seen_inodes.insert(e.inode).second) {
            ASSIGN_OR_RETURN(DiskInode child, ReadInode(e.inode));
            if (child.type == static_cast<uint8_t>(FileType::kFree)) {
              report.errors.push_back(StrPrintf(
                  "entry '%s' references free inode %u", e.name.c_str(),
                  e.inode));
            } else {
              RETURN_IF_ERROR(walk_blocks(e.inode, child));
              report.files++;
            }
          }
        }
      }
    }
  }

  // Bitmap vs. reachability.
  uint64_t data_blocks = sb_->total_blocks - sb_->data_start;
  uint64_t marked = 0;
  for (uint64_t i = 0; i < data_blocks; ++i) {
    ASSIGN_OR_RETURN(bool bit, BitmapGet(sb_->data_bitmap_start, i));
    uint64_t block = sb_->data_start + i;
    bool reachable = used_blocks.count(block) != 0;
    if (bit) {
      ++marked;
    }
    if (bit && !reachable) {
      report.errors.push_back(StrPrintf(
          "block %llu marked used but unreachable",
          static_cast<unsigned long long>(block)));
    } else if (!bit && reachable) {
      report.errors.push_back(StrPrintf(
          "block %llu reachable but marked free",
          static_cast<unsigned long long>(block)));
    }
  }
  if (sb_->free_blocks != data_blocks - marked) {
    report.errors.push_back("superblock free-block count inconsistent");
  }

  // Link counts for regular files.
  for (const auto& [ino, expected] : link_counts) {
    ASSIGN_OR_RETURN(DiskInode node, ReadInode(ino));
    if (node.type == static_cast<uint8_t>(FileType::kRegular) &&
        node.nlink != expected) {
      report.errors.push_back(StrPrintf(
          "inode %u nlink %u but %u directory entries", ino, node.nlink,
          expected));
    }
  }

  // Inode bitmap vs. reachability.
  for (InodeNum ino = 1; ino < sb_->inode_count; ++ino) {
    ASSIGN_OR_RETURN(bool bit, BitmapGet(sb_->inode_bitmap_start, ino));
    bool reachable = seen_inodes.count(ino) != 0;
    if (bit && !reachable) {
      report.errors.push_back(
          StrPrintf("inode %u allocated but unreachable", ino));
    } else if (!bit && reachable) {
      report.errors.push_back(
          StrPrintf("inode %u reachable but marked free", ino));
    }
  }

  report.used_blocks = used_blocks.size();
  return report;
}

}  // namespace discfs
