// FFS — an inode-based local filesystem over a BlockDevice, standing in for
// OpenBSD's Fast File System in the paper's stack. It serves two roles:
//   1. the storage substrate under the NFS/DisCFS servers, and
//   2. the "FFS" baseline measured in the paper's Figures 7-12.
//
// On-disk layout (block size fixed at format time, default 4096):
//   block 0:                superblock
//   blocks [ibm, ibm+n):    inode bitmap
//   blocks [dbm, dbm+m):    data bitmap (covers the data region)
//   blocks [itab, itab+k):  inode table (128-byte inodes)
//   blocks [data, end):     data blocks
//
// Files use 10 direct block pointers, one single-indirect and one
// double-indirect block (ext2-style). Directories are arrays of fixed
// 64-byte entries. Every inode carries a generation number, bumped on
// reuse, so NFS file handles (inode, generation) never resurrect — the
// handle scheme §5 of the paper borrows from 4.4BSD.
//
// Concurrency contract (since the block-cache re-layering): Ffs sits on a
// write-back BlockCache and may be called from many threads as long as the
// caller serializes per-object access the way NfsServer does — namespace
// mutations (Create/Mkdir/Symlink/Link/Remove/Rmdir/Rename) exclusive
// against everything, per-inode writes (Write/SetAttr) exclusive per inode,
// reads shared. Under that contract all shared internal state is safe:
// sub-block updates go through the cache's atomic Modify, allocation state
// (bitmaps, superblock counters) is serialized by an internal mutex, and
// the inode cache is sharded + write-through. Check() requires a quiesced
// volume. Mounting with the cache disabled (cache.capacity_blocks = 0) is
// single-threaded only.
#ifndef DISCFS_SRC_FFS_FFS_H_
#define DISCFS_SRC_FFS_FFS_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/blockdev/block_cache.h"
#include "src/blockdev/blockdev.h"
#include "src/util/lru.h"
#include "src/util/status.h"

namespace discfs {

using InodeNum = uint32_t;

enum class FileType : uint8_t {
  kFree = 0,
  kRegular = 1,
  kDirectory = 2,
  kSymlink = 3,
};

struct InodeAttr {
  InodeNum inode = 0;
  uint32_t generation = 0;
  FileType type = FileType::kFree;
  uint32_t mode = 0;  // unix permission bits (low 12 bits)
  uint32_t uid = 0;
  uint32_t gid = 0;
  uint32_t nlink = 0;
  uint64_t size = 0;
  int64_t atime = 0;
  int64_t mtime = 0;
  int64_t ctime = 0;
};

struct DirEntry {
  std::string name;
  InodeNum inode;
  FileType type;
};

struct SetAttrRequest {
  std::optional<uint32_t> mode;
  std::optional<uint32_t> uid;
  std::optional<uint32_t> gid;
  std::optional<uint64_t> size;  // truncate/extend
  std::optional<int64_t> atime;
  std::optional<int64_t> mtime;
};

struct StatFsInfo {
  uint32_t block_size = 0;
  uint64_t total_blocks = 0;
  uint64_t free_blocks = 0;
  uint32_t total_inodes = 0;
  uint32_t free_inodes = 0;
};

struct FfsMountOptions {
  // Block cache between Ffs and the device. `cache.capacity_blocks = 0`
  // disables caching entirely — the uncached seed path, kept for the
  // benchmark baseline; only safe single-threaded.
  BlockCacheOptions cache;
};

struct FfsFormatOptions {
  FfsFormatOptions() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): FfsFormatOptions{n} is
  // the established "format with n inodes" shorthand.
  FfsFormatOptions(uint32_t inodes) : inode_count(inodes) {}

  uint32_t inode_count = 4096;
  FfsMountOptions mount;
};

// fsck-style consistency report; `errors` empty means the volume is clean.
struct FsckReport {
  std::vector<std::string> errors;
  uint64_t files = 0;
  uint64_t directories = 0;
  uint64_t used_blocks = 0;
  bool clean() const { return errors.empty(); }
};

class Ffs {
 public:
  // 64-byte dir entry minus 4 (inode) + 1 (type) + 1 (name length).
  static constexpr size_t kMaxNameLen = 58;

  ~Ffs();  // flushes the block cache (Superblock is incomplete here)

  // Formats the device and mounts the fresh volume.
  static Result<std::unique_ptr<Ffs>> Format(
      std::shared_ptr<BlockDevice> device, const FfsFormatOptions& options);

  // Mounts an existing volume (validates the superblock).
  static Result<std::unique_ptr<Ffs>> Mount(
      std::shared_ptr<BlockDevice> device,
      const FfsMountOptions& options = {});

  InodeNum root() const { return root_inode_; }

  Result<InodeAttr> GetAttr(InodeNum inode);
  Status SetAttr(InodeNum inode, const SetAttrRequest& request);

  Result<InodeAttr> Lookup(InodeNum dir, const std::string& name);

  Result<InodeAttr> Create(InodeNum dir, const std::string& name,
                           uint32_t mode);
  Result<InodeAttr> Mkdir(InodeNum dir, const std::string& name,
                          uint32_t mode);
  Result<InodeAttr> Symlink(InodeNum dir, const std::string& name,
                            const std::string& target);
  Result<std::string> ReadLink(InodeNum inode);
  Status Link(InodeNum dir, const std::string& name, InodeNum target);

  Status Remove(InodeNum dir, const std::string& name);  // files & symlinks
  Status Rmdir(InodeNum dir, const std::string& name);   // empty dirs only
  Status Rename(InodeNum from_dir, const std::string& from_name,
                InodeNum to_dir, const std::string& to_name);

  Result<size_t> Read(InodeNum inode, uint64_t offset, size_t len,
                      uint8_t* out);
  // Extends the file as needed; returns bytes written (== len on success).
  Result<size_t> Write(InodeNum inode, uint64_t offset, const uint8_t* data,
                       size_t len);

  Result<std::vector<DirEntry>> ReadDir(InodeNum dir);

  Result<StatFsInfo> StatFs();

  // Durability barrier: flushes every dirty cached block to the device.
  Status Sync();

  // The write-back cache between Ffs and the device, or nullptr when
  // mounted uncached. Exposed for stats and crash-simulation tests.
  BlockCache* block_cache() const { return cache_; }

  // Full-volume consistency check (reachability, bitmaps, link counts).
  Result<FsckReport> Check();

 private:
  struct Superblock;
  struct DiskInode;

  Ffs(std::shared_ptr<BlockDevice> device, const FfsMountOptions& options);

  Status LoadSuperblock();
  // Requires alloc_mu_ held (or a single-threaded mount/format path).
  Status WriteSuperblock();

  // Atomic read-modify-write of one block: `fn` mutates the cached copy
  // under the cache shard lock. Uncached mounts fall back to
  // read+mutate+write (hence single-threaded only).
  Status ModifyBlock(uint64_t block, const std::function<void(uint8_t*)>& fn);

  Result<DiskInode> ReadInode(InodeNum inode);
  Status WriteInode(InodeNum inode, const DiskInode& node);

  Result<InodeNum> AllocInode(FileType type, uint32_t mode);
  Status FreeInode(InodeNum inode);
  Result<uint64_t> AllocBlock();
  Status FreeBlock(uint64_t block);

  // Maps a file block index to a device block, optionally allocating the
  // path (direct / indirect / double-indirect).
  Result<uint64_t> BMap(DiskInode& node, uint64_t file_block, bool allocate,
                        bool& dirty);

  // Releases the blocks at file block `first` and beyond under one pointer
  // `*ptr` that maps `span` file blocks (1 for a data block). `first` is
  // relative to the pointer's first file block. A pointer block that some
  // kept block maps through stays, with its freed slots zeroed; anything
  // else is freed and `*ptr` becomes 0.
  Status FreeSubtree(uint32_t* ptr, uint64_t span, uint64_t first);
  // Releases every block of `node` from file block `first` on.
  Status FreeBlocksFrom(DiskInode& node, uint64_t first);
  Status TruncateTo(DiskInode& node, uint64_t new_size);

  // Calls `fn` on each 64-byte slot of the directory in order, holes read
  // as zeroed slots, until `fn` returns false.
  Status ForEachDirSlot(
      const DiskInode& dir_node,
      const std::function<bool(uint64_t slot, const uint8_t* entry)>& fn);
  Result<std::optional<std::pair<uint32_t, DirEntry>>> FindEntry(
      const DiskInode& dir_node, const std::string& name);
  Status AddEntry(InodeNum dir, DiskInode& dir_node, const std::string& name,
                  InodeNum target, FileType type);
  Status RemoveEntrySlot(DiskInode& dir_node, uint32_t slot);
  Result<bool> DirIsEmpty(const DiskInode& dir_node);

  Result<size_t> ReadInternal(DiskInode& node, uint64_t offset, size_t len,
                              uint8_t* out);
  Result<size_t> WriteInternal(InodeNum inode, DiskInode& node,
                               uint64_t offset, const uint8_t* data,
                               size_t len);

  InodeAttr ToAttr(InodeNum inode, const DiskInode& node) const;

  // Bitmap helpers: `bitmap_start` in blocks, index into the bitmap.
  Result<bool> BitmapGet(uint64_t bitmap_start, uint64_t index);
  Status BitmapSet(uint64_t bitmap_start, uint64_t index, bool value);
  Result<std::optional<uint64_t>> BitmapFindFree(uint64_t bitmap_start,
                                                 uint64_t count);

  // `dev_` is what all I/O goes through: the BlockCache when enabled
  // (cache_ points into it), otherwise the raw device.
  std::shared_ptr<BlockDevice> dev_;
  BlockCache* cache_ = nullptr;
  std::unique_ptr<Superblock> sb_;
  // Serializes allocation state: bitmap find/set, superblock counters and
  // cursors, and StatFs.
  std::mutex alloc_mu_;
  // Deserialized inodes, so hot-path GetAttr/Lookup stop re-reading and
  // re-parsing inode-table blocks. Never dirty relative to the block
  // layer: WriteInode updates the cached copy and patches the on-disk
  // block in the same call.
  ShardedLru<InodeNum, DiskInode> icache_;
  InodeNum root_inode_ = 1;
};

}  // namespace discfs

#endif  // DISCFS_SRC_FFS_FFS_H_
