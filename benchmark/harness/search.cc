// search: the paper's Fig 12. An owner holding a credential on the root
// only builds a source tree with the credential-returning MKDIR/CREATE,
// so the session ends up holding one server-issued credential per
// handle. The owner delegates R+X to a searcher with one blanket
// credential; the searcher then walks the tree and wc's every .c/.h file.
// The policy cache holds 128 handles and the tree has about 1,000, so
// every file access is a KeyNote query over a depth-3 chain
// (POLICY -> server -> owner -> searcher) whose middle link is one of the
// owner's ~1,000 server-issued credentials.
#include <algorithm>
#include <mutex>
#include <string>
#include <thread>

#include "benchmark/harness/workload.h"
#include "src/discfs/action_env.h"
#include "src/discfs/credentials.h"
#include "src/util/prng.h"
#include "src/util/strings.h"

namespace discfs::bm {
namespace {

// Half the paper's ~2,000 files: a cold check evaluates every credential
// the owner holds, so at 2,000 one walk takes longer than a whole run.
constexpr size_t kDirs = 40;
constexpr size_t kFilesPerDir = 25;
constexpr size_t kSmokeDirs = 4;
constexpr size_t kSmokeFilesPerDir = 25;
constexpr size_t kMeanFileBytes = 8192;
constexpr size_t kPolicyCacheSize = 128;      // the paper's setting
constexpr size_t kBlockCacheBlocks = 8192;    // 32 MiB: the tree fits
constexpr uint64_t kDeviceMib = 64;
constexpr uint32_t kInodes = 4096;
constexpr size_t kOwnerConnections = 4;
constexpr size_t kMinWalks = 3;
constexpr size_t kKeptCredentials = 62;

struct WcCounts {
  uint64_t files = 0;
  uint64_t lines = 0;
  uint64_t words = 0;
  uint64_t bytes = 0;

  void Add(const WcCounts& o) {
    files += o.files;
    lines += o.lines;
    words += o.words;
    bytes += o.bytes;
  }
  bool operator==(const WcCounts& o) const {
    return files == o.files && lines == o.lines && words == o.words &&
           bytes == o.bytes;
  }
};

// --- tree generator (after bench/search.cc) ---

// Deterministic C-ish file contents: declarations, braces, comments.
std::string GenerateSourceFile(Prng& prng, size_t approx_bytes) {
  static const char* const kWords[] = {
      "static", "int", "void", "struct", "return", "if", "else", "for",
      "while", "break", "continue", "sizeof", "const", "char", "uint32_t",
      "buf", "len", "error", "inode", "vnode", "proc", "uio", "flags",
      "curproc", "splbio", "KASSERT", "M_WAITOK", "ENOENT", "EINVAL"};
  std::string out;
  out.reserve(approx_bytes + 128);
  while (out.size() < approx_bytes) {
    size_t words_in_line = 1 + prng.NextBelow(8);
    if (prng.NextBool(0.08)) {
      out += "/* ";
    }
    for (size_t i = 0; i < words_in_line; ++i) {
      out += kWords[prng.NextBelow(std::size(kWords))];
      out += (i + 1 == words_in_line) ? ";" : " ";
    }
    if (prng.NextBool(0.08)) {
      out += " */";
    }
    out += "\n";
  }
  return out;
}

// 60% .c, 25% .h, 10% .S, 5% .conf, by position in a 20-file cycle.
const char* ExtensionAt(size_t i) {
  size_t k = i % 20;
  if (k < 12) {
    return ".c";
  }
  if (k < 17) {
    return ".h";
  }
  if (k < 19) {
    return ".S";
  }
  return ".conf";
}

void Shuffle(std::vector<size_t>& v, Prng& prng) {
  for (size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[prng.NextBelow(i)]);
  }
}

bool IsSource(const std::string& name) {
  return EndsWith(name, ".c") || EndsWith(name, ".h");
}

WcCounts CountWc(const std::string& contents) {
  WcCounts counts;
  counts.files = 1;
  counts.bytes = contents.size();
  bool in_word = false;
  for (char c : contents) {
    if (c == '\n') {
      ++counts.lines;
    }
    bool space = (c == ' ' || c == '\n' || c == '\t');
    if (!space && !in_word) {
      ++counts.words;
      in_word = true;
    } else if (space) {
      in_word = false;
    }
  }
  return counts;
}

struct TreeFile {
  std::string name;
  std::string contents;
};

struct Tree {
  std::vector<std::string> dirs;
  std::vector<std::vector<TreeFile>> files;  // per directory
  WcCounts expected;                         // over .c/.h files
};

// Every seed yields the same (size, extension) pairs, sizes evenly spread
// over 0.25x..2x the mean; the seed shuffles which file gets which pair
// and writes the words. So every seed asks for the same work.
Tree GenerateTree(uint64_t seed, size_t dirs, size_t files_per_dir) {
  static const char* const kDirNames[] = {
      "kern",   "vfs", "net",   "dev",     "arch",    "ufs",  "nfs",
      "crypto", "compat", "ddb", "isofs",  "miscfs",  "netinet", "scsi",
      "stand",  "sys", "uvm",   "msdosfs", "ntfs",    "adosfs"};
  Prng prng(seed);
  const size_t total = dirs * files_per_dir;
  // File i gets size and extension number order[i], so the .c/.h files
  // always get the same sizes too.
  std::vector<size_t> order(total);
  for (size_t i = 0; i < total; ++i) {
    order[i] = i;
  }
  Shuffle(order, prng);
  Tree tree;
  for (size_t d = 0; d < dirs; ++d) {
    tree.dirs.push_back(std::string(kDirNames[d % std::size(kDirNames)]) +
                        (d >= std::size(kDirNames)
                             ? StrPrintf("%zu", d / std::size(kDirNames))
                             : ""));
    std::vector<TreeFile> files;
    for (size_t f = 0; f < files_per_dir; ++f) {
      size_t i = d * files_per_dir + f;
      TreeFile file;
      file.name = StrPrintf("file%03zu%s", f, ExtensionAt(order[i]));
      size_t bytes = kMeanFileBytes / 4 +
                     order[i] * (kMeanFileBytes * 7 / 4) / total;
      file.contents = GenerateSourceFile(prng, bytes);
      if (IsSource(file.name)) {
        tree.expected.Add(CountWc(file.contents));
      }
      files.push_back(std::move(file));
    }
    tree.files.push_back(std::move(files));
  }
  return tree;
}

using MakeFn = std::function<Result<NfsFh>(
    const NfsFh& dir, const std::string& name, bool is_dir)>;

// Builds directories first, first + stride, ... with their files.
Status BuildTree(FsOps& fs, const MakeFn& make, const Tree& tree,
                 const NfsFh& root, size_t first, size_t stride,
                 Tally& tally) {
  for (size_t d = first; d < tree.dirs.size(); d += stride) {
    Result<NfsFh> dir = make(root, tree.dirs[d], /*is_dir=*/true);
    if (!tally.Ok(dir, "search mkdir")) {
      return dir.status();
    }
    for (const TreeFile& file : tree.files[d]) {
      Result<NfsFh> fh = make(*dir, file.name, /*is_dir=*/false);
      if (!tally.Ok(fh, "search create")) {
        return fh.status();
      }
      for (size_t off = 0; off < file.contents.size(); off += kBlockBytes) {
        size_t n = std::min<size_t>(kBlockBytes, file.contents.size() - off);
        Bytes chunk(file.contents.begin() + off,
                    file.contents.begin() + off + n);
        Status st = fs.Write(*fh, off, chunk);
        if (!tally.Ok(st, "search write")) {
          return st;
        }
      }
    }
  }
  return OkStatus();
}

struct WalkResult {
  WcCounts counts;
  double seconds = 0;
  LatencyLog file_ms;  // per file: LOOKUP plus its READs
  std::vector<uint32_t> inodes;  // directories and scanned files, in order
};

// find . -name '*.[ch]' | xargs wc: READDIR every directory, then LOOKUP
// and READ each .c/.h file in 8 KiB reads.
Status Walk(FsOps& fs, Tally& tally, WalkResult* out) {
  uint64_t start = NowNs();
  Result<NfsFh> root = fs.Root();
  if (!tally.Ok(root, "search getroot")) {
    return root.status();
  }
  Result<std::vector<NfsDirEntry>> top = fs.ReadDir(*root);
  if (!tally.Ok(top, "search readdir")) {
    return top.status();
  }
  for (const NfsDirEntry& dir : *top) {
    if (dir.type != FileType::kDirectory) {
      continue;
    }
    out->inodes.push_back(dir.fh.inode);
    Result<std::vector<NfsDirEntry>> entries = fs.ReadDir(dir.fh);
    if (!tally.Ok(entries, "search readdir")) {
      return entries.status();
    }
    for (const NfsDirEntry& entry : *entries) {
      if (entry.type == FileType::kDirectory || !IsSource(entry.name)) {
        continue;
      }
      uint64_t file_start = NowNs();
      Result<std::pair<NfsFh, uint64_t>> found =
          fs.Lookup(dir.fh, entry.name);
      if (!tally.Ok(found, "search lookup")) {
        return found.status();
      }
      auto [fh, size] = *found;
      out->inodes.push_back(fh.inode);
      std::string contents;
      contents.reserve(size);
      while (contents.size() < size) {
        uint32_t n = static_cast<uint32_t>(
            std::min<uint64_t>(kBlockBytes, size - contents.size()));
        Result<Bytes> data = fs.Read(fh, contents.size(), n);
        if (!tally.Ok(data, "search read")) {
          return data.status();
        }
        if (data->empty()) {
          break;
        }
        contents.append(data->begin(), data->end());
      }
      out->counts.Add(CountWc(contents));
      uint64_t file_end = NowNs();
      out->file_ms.Add(file_end,
                       static_cast<double>(file_end - file_start) / 1e6);
    }
  }
  out->seconds = static_cast<double>(NowNs() - start) / 1e9;
  return OkStatus();
}

class Search : public Workload {
 public:
  explicit Search(RunConfig config)
      : Workload(config),
        tree_(GenerateTree(config.seed,
                           config.smoke ? kSmokeDirs : kDirs,
                           config.smoke ? kSmokeFilesPerDir : kFilesPerDir)),
        server_key_(MakeKey(config.seed * 1000 + 11)),
        owner_key_(MakeKey(config.seed * 1000 + 12)),
        searcher_key_(MakeKey(config.seed * 1000 + 13)) {
    CredentialOptions options;
    options.permissions = "RX";
    options.comment = "search delegation";
    Result<std::string> grant = IssueCredential(
        owner_key_, searcher_key_.public_key(), /*handle=*/"", options);
    if (tally_.Ok(grant, "sign searcher grant")) {
      searcher_grant_ = *grant;
    }
  }

  Status Setup(bool instrumented) override {
    NodeSpec spec;
    spec.volume = VolumeSpec{kDeviceMib, kInodes, kBlockCacheBlocks};
    spec.policy_cache_size = kPolicyCacheSize;
    spec.server_key = server_key_;
    spec.rand_seed = config_.seed * 1000 + 14;
    ASSIGN_OR_RETURN(node_, StartNode(spec, instrumented));
    NetCounters* net = instrumented ? &net_ : nullptr;
    minted_.clear();
    RETURN_IF_ERROR(BuildAsOwner(net));
    ASSIGN_OR_RETURN(searcher_,
                     ConnectClient(node_->host->port(), searcher_key_,
                                   server_key_.public_key(), net,
                                   config_.seed * 1000 + 15));
    RETURN_IF_ERROR(TracedCall(Op::kSubmitCred, [&] {
                      return searcher_->SubmitCredential(searcher_grant_);
                    }).status());
    fs_ = NfsOps(searcher_->nfs());
    return OkStatus();
  }

  PassResult Run(double seconds) override {
    PassResult pass;
    WalkResult warm;
    if (Verified(warm)) {
      walk_inodes_ = warm.inodes;
    }
    Samples walk_s;
    uint64_t start = NowNs();
    do {
      WalkResult walk;
      if (!Verified(walk)) {
        break;
      }
      walk_s.Add(walk.seconds);
      pass.ops += walk.counts.files;
      pass.bytes += walk.counts.bytes;
      pass.latency_ms.Append(walk.file_ms);
    } while (walk_s.size() < kMinWalks || NowNs() - start < seconds * 1e9);
    // Rates come from the median walk, like walk_s: every walk does the
    // same work, and one walk slowed by the machine should not move them.
    pass.values["walk_s"] = walk_s.Quantile(0.5);
    pass.op_seconds = pass.values["walk_s"] * walk_s.size();
    pass.byte_seconds = pass.op_seconds;
    return pass;
  }

  void Teardown() override {
    fs_.reset();
    if (searcher_ != nullptr) {
      searcher_->Close();
      searcher_.reset();
    }
    if (node_ != nullptr) {
      StopNode(*node_, "search volume", tally_);
      node_.reset();
    }
  }

  std::vector<Node*> nodes() override { return {node_.get()}; }

  std::vector<AccessPair> AccessPairs() override {
    std::vector<AccessPair> pairs;
    std::string principal = searcher_key_.public_key().ToKeyNoteString();
    for (uint32_t inode : walk_inodes_) {
      pairs.push_back(AccessPair{0, principal, inode});
    }
    return pairs;
  }

  std::vector<std::string> Credentials() override {
    std::vector<std::string> texts = minted_;
    texts.push_back(searcher_grant_);
    return texts;
  }

  std::pair<DsaPrivateKey, DsaPrivateKey> ChannelKeys() override {
    return {searcher_key_, server_key_};
  }

  // The same tree built with plain CREATE/MKDIR on each reference system;
  // one warm walk, then the median of kMinWalks timed walks.
  std::map<std::string, double> PaperReferences() override {
    std::map<std::string, double> out;
    auto walks = [&](const std::string& key) {
      return [&, key](FsOps& fs) -> Status {
        ASSIGN_OR_RETURN(NfsFh root, fs.Root());
        MakeFn make = [&](const NfsFh& dir, const std::string& name,
                          bool is_dir) {
          return is_dir ? fs.Mkdir(dir, name) : fs.Create(dir, name);
        };
        RETURN_IF_ERROR(BuildTree(fs, make, tree_, root, 0, 1, tally_));
        Samples walk_s;
        for (size_t i = 0; i <= kMinWalks; ++i) {
          WalkResult walk;
          RETURN_IF_ERROR(Walk(fs, tally_, &walk));
          CheckTotals(walk);
          if (i > 0) {  // the first walk warms the caches
            walk_s.Add(walk.seconds);
          }
        }
        out[key] = walk_s.Quantile(0.5);
        return OkStatus();
      };
    };
    VolumeSpec spec{kDeviceMib, kInodes, kBlockCacheBlocks};
    tally_.Ok(WithFfs(spec, tally_, walks("ref.ffs.walk_s")), "ffs reference");
    tally_.Ok(WithCfsNe(spec, tally_, walks("ref.cfsne.walk_s")),
              "cfs-ne reference");
    return out;
  }

 private:
  // The owner's kOwnerConnections connections (one key) submit the root
  // credential and build the tree in parallel with the
  // credential-returning procedures; the server mints one credential per
  // directory and file.
  Status BuildAsOwner(NetCounters* net) {
    std::vector<std::unique_ptr<DiscfsClient>> owners;
    for (size_t i = 0; i < kOwnerConnections; ++i) {
      ASSIGN_OR_RETURN(std::unique_ptr<DiscfsClient> owner,
                       ConnectClient(node_->host->port(), owner_key_,
                                     server_key_.public_key(), net,
                                     config_.seed * 1000 + 20 + i));
      owners.push_back(std::move(owner));
    }
    ASSIGN_OR_RETURN(NfsFattr root, TracedCall(Op::kGetRoot, [&] {
                       return owners[0]->Attach();
                     }));
    CredentialOptions options;
    options.permissions = "RWX";
    options.comment = "search owner";
    Result<std::string> root_grant =
        IssueCredential(server_key_, owner_key_.public_key(),
                        HandleString(root.fh.inode), options);
    if (!tally_.Ok(root_grant, "sign owner root credential")) {
      return root_grant.status();
    }
    RETURN_IF_ERROR(TracedCall(Op::kSubmitCred, [&] {
                      return owners[0]->SubmitCredential(*root_grant);
                    }).status());
    minted_.push_back(*root_grant);

    std::mutex mu;
    std::vector<Status> results(kOwnerConnections);
    std::vector<std::thread> threads;
    for (size_t i = 0; i < kOwnerConnections; ++i) {
      threads.emplace_back([&, i] {
        DiscfsClient& owner = *owners[i];
        std::unique_ptr<FsOps> fs = NfsOps(owner.nfs());
        MakeFn make = [&](const NfsFh& dir, const std::string& name,
                          bool is_dir) -> Result<NfsFh> {
          Result<CreateResult> made =
              is_dir ? TracedCall(Op::kMkdirCred,
                                  [&] {
                                    return owner.MkdirWithCredential(dir, name,
                                                                     0755);
                                  })
                     : TracedCall(Op::kCreateCred, [&] {
                         return owner.CreateWithCredential(dir, name, 0644);
                       });
          if (!made.ok()) {
            return made.status();
          }
          {
            std::lock_guard<std::mutex> lock(mu);
            if (minted_.size() < kKeptCredentials) {
              minted_.push_back(made->credential);
            }
          }
          return made->attr.fh;
        };
        results[i] = BuildTree(*fs, make, tree_, root.fh, i,
                               kOwnerConnections, tally_);
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
    for (auto& owner : owners) {
      owner->Close();
    }
    for (const Status& st : results) {
      RETURN_IF_ERROR(st);
    }
    return OkStatus();
  }

  // Walks as the searcher; false if the walk failed.
  bool Verified(WalkResult& walk) {
    if (!Walk(*fs_, tally_, &walk).ok()) {
      return false;
    }
    CheckTotals(walk);
    return true;
  }

  void CheckTotals(const WalkResult& walk) {
    if (!(walk.counts == tree_.expected)) {
      tally_.CheckFailed(StrPrintf(
          "search walk counted %llu files, %llu lines, %llu words, %llu "
          "bytes; the generator wrote %llu, %llu, %llu, %llu",
          static_cast<unsigned long long>(walk.counts.files),
          static_cast<unsigned long long>(walk.counts.lines),
          static_cast<unsigned long long>(walk.counts.words),
          static_cast<unsigned long long>(walk.counts.bytes),
          static_cast<unsigned long long>(tree_.expected.files),
          static_cast<unsigned long long>(tree_.expected.lines),
          static_cast<unsigned long long>(tree_.expected.words),
          static_cast<unsigned long long>(tree_.expected.bytes)));
    }
  }

  const Tree tree_;
  const DsaPrivateKey server_key_;
  const DsaPrivateKey owner_key_;
  const DsaPrivateKey searcher_key_;
  std::string searcher_grant_;

  std::unique_ptr<Node> node_;
  std::unique_ptr<DiscfsClient> searcher_;
  std::unique_ptr<FsOps> fs_;
  std::vector<std::string> minted_;  // guarded by BuildAsOwner's mutex
  std::vector<uint32_t> walk_inodes_;
};

}  // namespace

std::unique_ptr<Workload> MakeSearch(RunConfig config) {
  return std::make_unique<Search>(config);
}

}  // namespace discfs::bm
