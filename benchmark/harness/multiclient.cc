// multiclient: four connections, each with its own key and private files,
// 80% reads and 20% writes of 8 KiB at seeded random aligned offsets. The
// working set is four times the server's block cache, so this is the one
// workload with block-cache misses, evictions and write-back, and the only
// concurrent one (RPC queueing, the event loop, the worker pool, NFS
// locks). Every access hits the policy cache; KeyNote does nothing here.
//
// A pass is an open loop at the fixed kOfferedRate, whose first kWarmShare
// warms the caches and whose rest is timed from each request's scheduled
// send (p50_ms, p99_ms), then a closed loop with kInFlight calls
// outstanding per connection (ops_per_s). The open loop runs first so its
// tail does not inherit the backlog a saturating closed loop leaves in the
// block cache's write-back.
#include <algorithm>
#include <deque>
#include <future>
#include <string>
#include <thread>

#include "benchmark/harness/workload.h"
#include "src/discfs/credentials.h"
#include "src/nfs/protocol.h"
#include "src/util/prng.h"
#include "src/wire/xdr.h"

namespace discfs::bm {
namespace {

constexpr size_t kClients = 4;
constexpr size_t kFilesPerClient = 32;
constexpr size_t kBlocksPerFile = 64;  // 512 KiB files
constexpr size_t kSmokeFilesPerClient = 4;
constexpr size_t kSmokeBlocksPerFile = 16;
constexpr size_t kInFlight = 16;
constexpr double kReadShare = 0.8;
constexpr size_t kBlockCacheBlocks = 4096;  // 16 MiB vs a 64 MiB working set
constexpr size_t kPolicyCacheSize = 1024;   // every access hits
constexpr uint64_t kDeviceMib = 96;
constexpr uint32_t kInodes = 512;
// Open-loop offered load over all connections: about half the closed-loop
// ops_per_s measured on a 4-core machine when the benchmark was defined.
// It is a constant, never derived at run time, so a parent commit and a
// change face the same load.
constexpr double kOfferedRate = 14000;
// Shares of a pass: open-loop warm-up, timed open loop, closed loop.
constexpr double kWarmShare = 0.1;
constexpr double kOpenShare = 0.5;
// Pause between the open-loop drain and the closed loop.
constexpr uint64_t kPhaseGapNs = 20'000'000;

// What a client knows about one of its blocks. Writes to one block that
// overlap in flight may land in either order, so once a group of
// overlapping writes has completed the block holds one of the group's
// versions: `floor` is the group's oldest.
struct BlockState {
  uint64_t floor = 1;   // oldest version the block can hold now
  uint64_t issued = 1;  // newest version sent
  uint32_t writes_in_flight = 0;
  uint64_t group_oldest = 0;  // oldest write of the current overlap group
};

struct ClientState {
  DsaPrivateKey key;
  std::string grant;
  std::unique_ptr<DiscfsClient> client;
  std::vector<NfsFh> files;
  std::vector<BlockState> blocks;  // file * blocks_per_file + block
};

struct InFlight {
  std::future<Result<Bytes>> reply;
  bool read = false;
  size_t slot = 0;
  // Reads: the block's floor when sent (the oldest acceptable version).
  // Writes: the version written.
  uint64_t version = 0;
  uint64_t scheduled_ns = 0;
  uint64_t sent_ns = 0;
  uint64_t trace_id = 0;
};

struct ThreadResult {
  uint64_t closed_ops = 0;
  uint64_t closed_bytes = 0;
  LatencyLog open_ms;
  Samples late_ms;
};

struct Schedule {
  uint64_t open_start = 0;
  uint64_t warm_end = 0;  // open-loop sends from here on are timed
  uint64_t open_end = 0;
  uint64_t closed_start = 0;
  uint64_t closed_end = 0;
};

class Multiclient : public Workload {
 public:
  explicit Multiclient(RunConfig config)
      : Workload(config),
        files_(config.smoke ? kSmokeFilesPerClient : kFilesPerClient),
        blocks_(config.smoke ? kSmokeBlocksPerFile : kBlocksPerFile),
        server_key_(MakeKey(config.seed * 1000 + 31)) {
    CredentialOptions options;
    options.permissions = "RWX";
    for (size_t i = 0; i < kClients; ++i) {
      ClientState c;
      c.key = MakeKey(config.seed * 1000 + 40 + i);
      options.comment = "multiclient user " + std::to_string(i);
      Result<std::string> grant =
          IssueCredential(server_key_, c.key.public_key(), "", options);
      if (tally_.Ok(grant, "sign multiclient grant")) {
        c.grant = *grant;
      }
      clients_.push_back(std::move(c));
    }
  }

  Status Setup(bool instrumented) override {
    NodeSpec spec;
    spec.volume = VolumeSpec{kDeviceMib, kInodes, kBlockCacheBlocks};
    spec.policy_cache_size = kPolicyCacheSize;
    spec.server_key = server_key_;
    spec.rand_seed = config_.seed * 1000 + 32;
    ASSIGN_OR_RETURN(node_, StartNode(spec, instrumented));
    std::vector<Status> results(kClients);
    std::vector<std::thread> threads;
    for (size_t i = 0; i < kClients; ++i) {
      threads.emplace_back([&, i] {
        results[i] = SetupClient(i, instrumented ? &net_ : nullptr);
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
    for (const Status& st : results) {
      RETURN_IF_ERROR(st);
    }
    return OkStatus();
  }

  PassResult Run(double seconds) override {
    const uint64_t start = NowNs() + 5'000'000;
    const uint64_t span_ns = static_cast<uint64_t>(seconds * 1e9);
    Schedule s;
    s.open_start = start;
    s.warm_end = start + static_cast<uint64_t>(span_ns * kWarmShare);
    s.open_end = s.warm_end + static_cast<uint64_t>(span_ns * kOpenShare);
    s.closed_start = s.open_end + kPhaseGapNs;
    s.closed_end = start + span_ns + kPhaseGapNs;
    std::vector<ThreadResult> results(kClients);
    std::vector<std::thread> threads;
    for (size_t i = 0; i < kClients; ++i) {
      threads.emplace_back([&, i] {
        Prng rng(Mix64(config_.seed * 1000 + 50 + i + 16 * passes_));
        SleepUntilNs(start);
        OpenLoop(i, rng, s, results[i]);
        SleepUntilNs(s.closed_start);
        ClosedLoop(i, rng, s, results[i]);
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
    ++passes_;
    PassResult pass;
    pass.op_seconds = static_cast<double>(s.closed_end - s.closed_start) / 1e9;
    pass.byte_seconds = pass.op_seconds;
    for (const ThreadResult& r : results) {
      pass.ops += r.closed_ops;
      pass.bytes += r.closed_bytes;
      pass.latency_ms.Append(r.open_ms);
      pass.series["late_ms"].Append(r.late_ms);
    }
    return pass;
  }

  void Teardown() override {
    for (ClientState& c : clients_) {
      if (c.client != nullptr) {
        c.client->Close();
        c.client.reset();
      }
    }
    if (node_ != nullptr) {
      StopNode(*node_, "multiclient volume", tally_);
      node_.reset();
    }
  }

  std::vector<Node*> nodes() override { return {node_.get()}; }

  std::vector<AccessPair> AccessPairs() override {
    std::vector<AccessPair> pairs;
    for (const ClientState& c : clients_) {
      std::string principal = c.key.public_key().ToKeyNoteString();
      for (const NfsFh& file : c.files) {
        pairs.push_back(AccessPair{0, principal, file.inode});
      }
    }
    return pairs;
  }

  std::vector<std::string> Credentials() override {
    std::vector<std::string> texts;
    for (const ClientState& c : clients_) {
      texts.push_back(c.grant);
    }
    return texts;
  }

  std::pair<DsaPrivateKey, DsaPrivateKey> ChannelKeys() override {
    return {clients_[0].key, server_key_};
  }

 private:
  uint64_t BlockKey(size_t client, size_t slot) const {
    return Mix64(config_.seed ^ (static_cast<uint64_t>(client) << 48) ^
                 static_cast<uint64_t>(slot));
  }

  // Connects client i, submits its grant, creates its directory and files
  // and writes version 1 of every block.
  Status SetupClient(size_t i, NetCounters* net) {
    ClientState& c = clients_[i];
    ASSIGN_OR_RETURN(c.client,
                     ConnectClient(node_->host->port(), c.key,
                                   server_key_.public_key(), net,
                                   config_.seed * 1000 + 60 + i));
    Result<std::string> id = TracedCall(
        Op::kSubmitCred, [&] { return c.client->SubmitCredential(c.grant); });
    if (!tally_.Ok(id, "multiclient submit")) {
      return id.status();
    }
    std::unique_ptr<FsOps> fs = NfsOps(c.client->nfs());
    ASSIGN_OR_RETURN(NfsFh root, fs->Root());
    ASSIGN_OR_RETURN(NfsFh dir, fs->Mkdir(root, "c" + std::to_string(i)));
    c.files.clear();
    c.blocks.assign(files_ * blocks_, BlockState{});
    for (size_t f = 0; f < files_; ++f) {
      Result<NfsFh> file = fs->Create(dir, "f" + std::to_string(f));
      if (!tally_.Ok(file, "multiclient create")) {
        return file.status();
      }
      c.files.push_back(*file);
      for (size_t b = 0; b < blocks_; ++b) {
        Bytes data =
            MakePattern(BlockKey(i, f * blocks_ + b), 1, kBlockBytes);
        Status st = fs->Write(*file, b * kBlockBytes, data);
        if (!tally_.Ok(st, "multiclient initial write")) {
          return st;
        }
      }
    }
    return OkStatus();
  }

  InFlight Send(size_t i, Prng& rng, uint64_t scheduled_ns) {
    ClientState& c = clients_[i];
    InFlight f;
    size_t file = rng.NextBelow(files_);
    size_t block = rng.NextBelow(blocks_);
    f.slot = file * blocks_ + block;
    f.read = rng.NextDouble() < kReadShare;
    f.scheduled_ns = scheduled_ns;
    XdrWriter w;
    WriteFh(w, c.files[file]);
    w.PutU64(block * kBlockBytes);
    BlockState& state = c.blocks[f.slot];
    if (f.read) {
      f.version = state.floor;
      w.PutU32(kBlockBytes);
    } else {
      f.version = ++state.issued;
      if (state.writes_in_flight++ == 0) {
        state.group_oldest = f.version;
      }
      w.PutOpaque(MakePattern(BlockKey(i, f.slot), f.version, kBlockBytes));
    }
    Op op = f.read ? Op::kRead : Op::kWrite;
    RpcClient& rpc = *c.client->nfs().rpc();
    Bytes args = w.Take();
    if (Tracer::Get().armed()) {
      f.trace_id = obs::MintTraceId();
      obs::TraceScope trace(f.trace_id);
      f.sent_ns = NowNs();
      f.reply = rpc.CallAsync(kNfsProgram, OpProc(op), args);
    } else {
      f.sent_ns = NowNs();
      f.reply = rpc.CallAsync(kNfsProgram, OpProc(op), args);
    }
    return f;
  }

  // Collects one reply and checks read-after-write: a read returns a
  // version no older than the block's floor when it was sent and no newer
  // than the newest write sent, with that version's bytes.
  void Complete(size_t i, InFlight& f, uint64_t done_ns) {
    ClientState& c = clients_[i];
    Result<Bytes> reply = f.reply.get();
    if (f.trace_id != 0) {
      Tracer::Get().Record(CallSpanName(f.read ? Op::kRead : Op::kWrite),
                           f.sent_ns, done_ns, f.trace_id);
    }
    BlockState& state = c.blocks[f.slot];
    if (!f.read && --state.writes_in_flight == 0) {
      state.floor = state.group_oldest;
    }
    if (!tally_.Ok(reply, f.read ? "multiclient read" : "multiclient write") ||
        !f.read) {
      return;
    }
    XdrReader r(*reply);
    Result<Bytes> data = r.GetOpaque();
    uint64_t version = data.ok() ? PatternVersion(data->data(), data->size())
                                 : 0;
    if (!data.ok() || data->size() != kBlockBytes || version < f.version ||
        version > state.issued ||
        !MatchesPattern(BlockKey(i, f.slot), version, data->data(),
                        data->size())) {
      tally_.CheckFailed("multiclient client " + std::to_string(i) +
                         " read a block that does not match any write "
                         "it could observe");
    }
  }

  void ClosedLoop(size_t i, Prng& rng, const Schedule& s, ThreadResult& out) {
    std::deque<InFlight> queue;
    while (NowNs() < s.closed_end) {
      while (queue.size() < kInFlight) {
        queue.push_back(Send(i, rng, NowNs()));
      }
      InFlight& f = queue.front();
      f.reply.wait();
      uint64_t done = NowNs();
      Complete(i, f, done);
      if (done < s.closed_end) {
        out.closed_ops++;
        out.closed_bytes += kBlockBytes;
      }
      queue.pop_front();
    }
    for (InFlight& f : queue) {
      f.reply.wait();
      Complete(i, f, NowNs());
    }
  }

  void OpenLoop(size_t i, Prng& rng, const Schedule& s, ThreadResult& out) {
    const uint64_t interval =
        static_cast<uint64_t>(1e9 * kClients / kOfferedRate);
    uint64_t next = s.open_start + rng.NextBelow(interval);
    std::deque<InFlight> queue;
    while (true) {
      uint64_t now = NowNs();
      bool sending = next < s.open_end;
      if (sending && now >= next) {
        queue.push_back(Send(i, rng, next));
        if (next >= s.warm_end) {
          out.late_ms.Add(static_cast<double>(queue.back().sent_ns - next) /
                          1e6);
        }
        next += interval;
        continue;
      }
      if (queue.empty()) {
        if (!sending) {
          break;
        }
        SleepUntilNs(next);
        continue;
      }
      InFlight& f = queue.front();
      if (sending) {
        if (f.reply.wait_for(std::chrono::nanoseconds(next - now)) !=
            std::future_status::ready) {
          continue;
        }
      } else {
        f.reply.wait();
      }
      uint64_t done = NowNs();
      Complete(i, f, done);
      if (f.scheduled_ns >= s.warm_end) {
        out.open_ms.Add(done,
                        static_cast<double>(done - f.scheduled_ns) / 1e6);
      }
      queue.pop_front();
    }
  }

  const size_t files_;
  const size_t blocks_;
  const DsaPrivateKey server_key_;
  std::vector<ClientState> clients_;
  std::unique_ptr<Node> node_;
  uint64_t passes_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeMulticlient(RunConfig config) {
  return std::make_unique<Multiclient>(config);
}

}  // namespace discfs::bm
