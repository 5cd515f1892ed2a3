// bonnie: the paper's Figs 8, 9 and 11. One client, closed loop, one call
// in flight: write, then rewrite, then read a file in 8 KiB blocks, round
// after round. The server's block cache holds the whole file and the one
// handle always hits the policy cache, so the secure channel, the RPC
// round trip and the loopback socket do nearly all the work.
#include <string>

#include "benchmark/harness/workload.h"
#include "src/discfs/credentials.h"

namespace discfs::bm {
namespace {

constexpr size_t kFileBlocks = 4096;  // 32 MiB in 8 KiB blocks
constexpr size_t kSmokeFileBlocks = 256;
constexpr size_t kBlockCacheBlocks = 24576;  // 96 MiB: the file fits
constexpr uint64_t kDeviceMib = 64;
constexpr uint32_t kInodes = 64;

struct Phase {
  uint64_t calls = 0;
  uint64_t bytes = 0;
  uint64_t ns = 0;

  void Add(const Phase& o) {
    calls += o.calls;
    bytes += o.bytes;
    ns += o.ns;
  }
  double mbps() const { return ns == 0 ? 0 : bytes / (ns / 1e9) / 1e6; }
};

struct Round {
  Phase write;
  Phase rewrite;  // bytes counted once per block, as bonnie reports it
  Phase read;
};

uint64_t BlockKey(uint64_t file_key, size_t block) {
  return Mix64(file_key ^ (static_cast<uint64_t>(block) << 20));
}

// One round over `blocks` blocks: truncate, sequential write of version
// 2r+1; rewrite = read (verify 2r+1), write 2r+2; read (verify 2r+2).
// Every call's latency lands in `latency_ms`.
Round RunRound(FsOps& fs, const NfsFh& file, uint64_t file_key,
               uint64_t round, size_t blocks, LatencyLog* latency_ms,
               Tally& tally) {
  Round out;
  const uint64_t written = 2 * round + 1;
  const uint64_t rewritten = written + 1;
  if (!tally.Ok(fs.Truncate(file), "bonnie truncate")) {
    return out;
  }
  auto timed = [&](Phase& phase, auto&& call) {
    uint64_t t0 = NowNs();
    auto result = call();
    uint64_t t1 = NowNs();
    phase.ns += t1 - t0;
    phase.calls++;
    latency_ms->Add(t1, static_cast<double>(t1 - t0) / 1e6);
    return result;
  };
  auto verify = [&](const Result<Bytes>& data, size_t block,
                    uint64_t version) {
    if (!tally.Ok(data, "bonnie read")) {
      return;
    }
    if (data->size() != kBlockBytes ||
        !MatchesPattern(BlockKey(file_key, block), version, data->data(),
                        data->size())) {
      tally.CheckFailed("bonnie block " + std::to_string(block) +
                        " differs from the pattern written");
    }
  };

  for (size_t b = 0; b < blocks; ++b) {
    Bytes data = MakePattern(BlockKey(file_key, b), written, kBlockBytes);
    Status st = timed(out.write,
                      [&] { return fs.Write(file, b * kBlockBytes, data); });
    tally.Ok(st, "bonnie write");
    out.write.bytes += kBlockBytes;
  }
  for (size_t b = 0; b < blocks; ++b) {
    Result<Bytes> data = timed(out.rewrite, [&] {
      return fs.Read(file, b * kBlockBytes, kBlockBytes);
    });
    verify(data, b, written);
    Bytes next = MakePattern(BlockKey(file_key, b), rewritten, kBlockBytes);
    Status st = timed(out.rewrite,
                      [&] { return fs.Write(file, b * kBlockBytes, next); });
    tally.Ok(st, "bonnie rewrite");
    out.rewrite.bytes += kBlockBytes;
  }
  for (size_t b = 0; b < blocks; ++b) {
    Result<Bytes> data = timed(
        out.read, [&] { return fs.Read(file, b * kBlockBytes, kBlockBytes); });
    verify(data, b, rewritten);
    out.read.bytes += kBlockBytes;
  }
  return out;
}

void AddPaperValues(const Round& r, std::map<std::string, double>& values,
                    const std::string& prefix) {
  values[prefix + "write_MBps"] = r.write.mbps();
  values[prefix + "rewrite_MBps"] = r.rewrite.mbps();
  values[prefix + "read_MBps"] = r.read.mbps();
}

class Bonnie : public Workload {
 public:
  explicit Bonnie(RunConfig config)
      : Workload(config),
        blocks_(config.smoke ? kSmokeFileBlocks : kFileBlocks),
        server_key_(MakeKey(config.seed * 1000 + 1)),
        user_key_(MakeKey(config.seed * 1000 + 2)),
        file_key_(Mix64(config.seed)) {
    CredentialOptions options;
    options.permissions = "RWX";
    options.comment = "bonnie user";
    Result<std::string> grant = IssueCredential(
        server_key_, user_key_.public_key(), /*handle=*/"", options);
    if (tally_.Ok(grant, "sign bonnie grant")) {
      grant_ = *grant;
    }
  }

  Status Setup(bool instrumented) override {
    NodeSpec spec;
    spec.volume = VolumeSpec{kDeviceMib, kInodes, kBlockCacheBlocks};
    spec.server_key = server_key_;
    spec.rand_seed = config_.seed * 1000 + 3;
    ASSIGN_OR_RETURN(node_, StartNode(spec, instrumented));
    ASSIGN_OR_RETURN(
        client_, ConnectClient(node_->host->port(), user_key_,
                               server_key_.public_key(),
                               instrumented ? &net_ : nullptr,
                               config_.seed * 1000 + 4));
    Result<std::string> id = TracedCall(
        Op::kSubmitCred, [&] { return client_->SubmitCredential(grant_); });
    RETURN_IF_ERROR(id.status());
    fs_ = NfsOps(client_->nfs());
    ASSIGN_OR_RETURN(NfsFh root, fs_->Root());
    ASSIGN_OR_RETURN(file_, fs_->Create(root, "bonnie.dat"));
    round_ = 0;
    return OkStatus();
  }

  PassResult Run(double seconds) override {
    PassResult pass;
    Round total;
    uint64_t start = NowNs();
    do {
      Round r = RunRound(*fs_, file_, file_key_, round_++, blocks_,
                         &pass.latency_ms, tally_);
      total.write.Add(r.write);
      total.rewrite.Add(r.rewrite);
      total.read.Add(r.read);
    } while (NowNs() - start < seconds * 1e9);
    pass.ops = total.write.calls + total.rewrite.calls + total.read.calls;
    pass.op_seconds = (total.write.ns + total.rewrite.ns + total.read.ns) / 1e9;
    // Payload carried by the calls: rewrite moves each block twice.
    pass.bytes = total.write.bytes + 2 * total.rewrite.bytes + total.read.bytes;
    pass.byte_seconds = pass.op_seconds;
    AddPaperValues(total, pass.values, "");
    return pass;
  }

  void Teardown() override {
    fs_.reset();
    if (client_ != nullptr) {
      client_->Close();
      client_.reset();
    }
    if (node_ != nullptr) {
      StopNode(*node_, "bonnie volume", tally_);
      node_.reset();
    }
  }

  std::vector<Node*> nodes() override { return {node_.get()}; }

  std::vector<AccessPair> AccessPairs() override {
    return {AccessPair{0, user_key_.public_key().ToKeyNoteString(),
                       file_.inode}};
  }

  std::vector<std::string> Credentials() override { return {grant_}; }

  std::pair<DsaPrivateKey, DsaPrivateKey> ChannelKeys() override {
    return {user_key_, server_key_};
  }

  // One round on each reference system, same file size and caches.
  std::map<std::string, double> PaperReferences() override {
    std::map<std::string, double> out;
    auto one_round = [&](const std::string& prefix) {
      return [&, prefix](FsOps& fs) -> Status {
        ASSIGN_OR_RETURN(NfsFh root, fs.Root());
        ASSIGN_OR_RETURN(NfsFh file, fs.Create(root, "bonnie.dat"));
        LatencyLog latency_ms;
        AddPaperValues(RunRound(fs, file, file_key_, 0, blocks_, &latency_ms,
                                tally_),
                       out, prefix);
        return OkStatus();
      };
    };
    VolumeSpec spec{kDeviceMib, kInodes, kBlockCacheBlocks};
    tally_.Ok(WithFfs(spec, tally_, one_round("ref.ffs.")), "ffs reference");
    tally_.Ok(WithCfsNe(spec, tally_, one_round("ref.cfsne.")),
              "cfs-ne reference");
    return out;
  }

 private:
  const size_t blocks_;
  const DsaPrivateKey server_key_;
  const DsaPrivateKey user_key_;
  const uint64_t file_key_;
  std::string grant_;

  std::unique_ptr<Node> node_;
  std::unique_ptr<DiscfsClient> client_;
  std::unique_ptr<FsOps> fs_;
  NfsFh file_;
  uint64_t round_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeBonnie(RunConfig config) {
  return std::make_unique<Bonnie>(config);
}

}  // namespace discfs::bm
