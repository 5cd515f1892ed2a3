#include "benchmark/harness/layers.h"

#include <algorithm>
#include <array>
#include <thread>
#include <unordered_map>

#include "src/cluster/fabric.h"
#include "src/discfs/action_env.h"
#include "src/keynote/session.h"
#include "src/util/strings.h"

namespace discfs::bm {
namespace {

// The client procedures the workloads issue in their measured passes.
constexpr Op kTracedOps[] = {Op::kRead,        Op::kWrite,
                             Op::kLookup,      Op::kReadDir,
                             Op::kSubmitBatch, Op::kRemoveCred,
                             Op::kSubmitCred};
constexpr Op kNfsOps[] = {Op::kRead, Op::kWrite, Op::kLookup, Op::kReadDir};
constexpr VfsOp kFfsOps[] = {VfsOp::kRead, VfsOp::kWrite, VfsOp::kLookup,
                             VfsOp::kReadDir, VfsOp::kGetAttr};
// The paper's figures: bonnie's three phases (Figs 8, 9, 11) and the
// search walk (Fig 12).
constexpr const char* kPaperMetrics[] = {"write_MBps", "rewrite_MBps",
                                         "read_MBps", "walk_s"};

constexpr size_t kMaxReplayRecords = 2000;
constexpr size_t kHandshakeReplays = 8;
constexpr size_t kPolicyReplaySamples = 256;
constexpr size_t kMaxPolicyReplayPairs = 512;
constexpr size_t kVerifyReplaySamples = 64;

const char* PaperUnit(const std::string& metric) {
  return metric == "walk_s" ? "s" : "MB/s";
}

Histogram::Snapshot Minus(const Histogram::Snapshot& a,
                          const Histogram::Snapshot& b) {
  Histogram::Snapshot d;
  d.buckets.resize(a.buckets.size());
  for (size_t i = 0; i < a.buckets.size(); ++i) {
    uint64_t before = i < b.buckets.size() ? b.buckets[i] : 0;
    d.buckets[i] = a.buckets[i] > before ? a.buckets[i] - before : 0;
    d.count += d.buckets[i];
  }
  d.sum = a.sum > b.sum ? a.sum - b.sum : 0;
  return d;
}

void AddInto(Histogram::Snapshot& into, const Histogram::Snapshot& x) {
  if (into.buckets.size() < x.buckets.size()) {
    into.buckets.resize(x.buckets.size());
  }
  for (size_t i = 0; i < x.buckets.size(); ++i) {
    into.buckets[i] += x.buckets[i];
  }
  into.count += x.count;
  into.sum += x.sum;
}

double MeanUs(uint64_t sum_ns, uint64_t count) {
  return count == 0 ? 0 : static_cast<double>(sum_ns) / count / 1e3;
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0 : static_cast<double>(num) / den;
}

uint64_t Sub(uint64_t a, uint64_t b) { return a > b ? a - b : 0; }

std::string SpanLabels(Op op, const char* span) {
  return StrPrintf("prog=\"%u\",proc=\"%u\",span=\"%s\"", OpProg(op),
                   OpProc(op), span);
}

struct ChannelReplay {
  double seal_us = 0;
  double open_us = 0;
  double handshake_ms = 0;
};

// Handshakes a SecureChannel pair over InProcTransport (the server side on
// a helper thread) and returns the client-side handshake time in ms.
Result<double> Handshake(const DsaPrivateKey& client_key,
                         const DsaPrivateKey& server_key, uint64_t seed,
                         std::unique_ptr<SecureChannel>* client,
                         std::unique_ptr<SecureChannel>* server) {
  InProcTransport::Pair pair = InProcTransport::CreatePair();
  Result<std::unique_ptr<SecureChannel>> server_side =
      UnavailableError("not run");
  std::thread server_thread([&] {
    server_side = SecureChannel::ServerHandshake(
        std::move(pair.b), ChannelIdentity{server_key, SeededRand(seed)});
  });
  uint64_t start = NowNs();
  Result<std::unique_ptr<SecureChannel>> client_side =
      SecureChannel::ClientHandshake(
          std::move(pair.a), ChannelIdentity{client_key, SeededRand(seed + 1)},
          server_key.public_key());
  double ms = static_cast<double>(NowNs() - start) / 1e6;
  // A failed client side has already destroyed its transport, which
  // closes the pair and unblocks the server side.
  server_thread.join();
  RETURN_IF_ERROR(client_side.status());
  RETURN_IF_ERROR(server_side.status());
  *client = std::move(client_side).value();
  *server = std::move(server_side).value();
  return ms;
}

Result<ChannelReplay> ReplayChannel(Workload& workload, uint64_t seed) {
  auto [client_key, server_key] = workload.ChannelKeys();
  ChannelReplay out;
  Samples handshakes;
  std::unique_ptr<SecureChannel> client;
  std::unique_ptr<SecureChannel> server;
  for (size_t i = 0; i < kHandshakeReplays; ++i) {
    ASSIGN_OR_RETURN(double ms, Handshake(client_key, server_key, seed + 2 * i,
                                          &client, &server));
    handshakes.Add(ms);
  }
  out.handshake_ms = handshakes.Quantile(0.5);

  std::vector<uint32_t> sizes = workload.net().sizes();
  if (sizes.size() > kMaxReplayRecords) {
    sizes.resize(kMaxReplayRecords);
  }
  uint64_t seal_ns = 0;
  uint64_t open_ns = 0;
  for (uint32_t size : sizes) {
    Bytes message(size, 0x5a);
    uint64_t t0 = NowNs();
    RETURN_IF_ERROR(client->Send(message));
    uint64_t t1 = NowNs();
    ASSIGN_OR_RETURN(Bytes opened, server->Recv());
    uint64_t t2 = NowNs();
    if (opened != message) {
      return DataLossError("channel replay returned different bytes");
    }
    seal_ns += t1 - t0;
    open_ns += t2 - t1;
  }
  out.seal_us = MeanUs(seal_ns, sizes.size());
  out.open_us = MeanUs(open_ns, sizes.size());
  return out;
}

struct PolicyReplay {
  double query_us = 0;  // cold: a KeyNote query
  double hit_us = 0;    // warm: a policy-cache hit
};

// Empties each involved server's policy cache by installing a new policy
// assertion for a principal nobody uses (which invalidates the whole
// cache), then checks every pair twice: the first check queries KeyNote,
// the second hits the cache.
PolicyReplay ReplayPolicy(Workload& workload, Tally& tally) {
  std::vector<AccessPair> pairs = workload.AccessPairs();
  if (pairs.size() > kMaxPolicyReplayPairs) {
    pairs.resize(kMaxPolicyReplayPairs);
  }
  PolicyReplay out;
  if (pairs.empty()) {
    return out;
  }
  std::vector<Node*> nodes = workload.nodes();
  size_t rounds = std::max<size_t>(
      1, std::min<size_t>(16, (kPolicyReplaySamples + pairs.size() - 1) /
                                  pairs.size()));
  Samples cold;
  Samples warm;
  std::vector<bool> involved(nodes.size(), false);
  for (const AccessPair& pair : pairs) {
    involved[pair.node] = true;
  }
  for (size_t round = 0; round < rounds; ++round) {
    for (size_t n = 0; n < nodes.size(); ++n) {
      if (!involved[n]) {
        continue;  // a flush there would reach the others mid-replay
      }
      std::string flush = StrPrintf(
          "Authorizer: \"POLICY\"\nLicensees: \"replay-flush-%zu\"\n"
          "Conditions: app_domain == \"%s\" -> \"R\";\n",
          round, kAppDomain);
      tally.Ok(nodes[n]->server().AddPolicyAssertion(flush),
               "policy replay flush");
    }
    for (const AccessPair& pair : pairs) {
      DiscfsServer& server = nodes[pair.node]->server();
      uint64_t t0 = NowNs();
      uint32_t first = server.EffectiveMask(pair.principal, pair.inode);
      uint64_t t1 = NowNs();
      uint32_t second = server.EffectiveMask(pair.principal, pair.inode);
      uint64_t t2 = NowNs();
      if (first != second) {
        tally.CheckFailed("policy replay: cached mask differs from query");
      }
      cold.Add(static_cast<double>(t1 - t0) / 1e3);
      warm.Add(static_cast<double>(t2 - t1) / 1e3);
    }
  }
  out.query_us = cold.Mean();
  out.hit_us = warm.Mean();
  return out;
}

double ReplayVerify(Workload& workload, Tally& tally) {
  std::vector<std::string> texts = workload.Credentials();
  if (texts.empty()) {
    return 0;
  }
  Samples us;
  const size_t samples = std::clamp(texts.size(), kVerifyReplaySamples,
                                    4 * kVerifyReplaySamples);
  for (size_t i = 0; i < samples; ++i) {
    const std::string& text = texts[i % texts.size()];
    uint64_t t0 = NowNs();
    auto verified =
        keynote::KeyNoteSession::ParseAndVerifyCredential(text, nullptr);
    uint64_t t1 = NowNs();
    if (!verified.ok()) {
      tally.CheckFailed("verify replay: " + verified.status().ToString());
    }
    us.Add(static_cast<double>(t1 - t0) / 1e3);
  }
  return us.Mean();
}

}  // namespace

const std::vector<MetricSpec>& LayerSpecs() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> s;
    auto add = [&](std::string name, const char* unit) {
      s.push_back(MetricSpec{std::move(name), unit});
    };
    for (Op op : kTracedOps) {
      add(std::string("rpc.call_us.") + OpName(op), "us");
    }
    for (Op op : kTracedOps) {
      add(std::string("rpc.outside_server_us.") + OpName(op), "us");
    }
    for (Op op : kTracedOps) {
      add(std::string("rpc.queue_wait_us_p50.") + OpName(op), "us");
    }
    for (Op op : kTracedOps) {
      add(std::string("rpc.queue_wait_us_p99.") + OpName(op), "us");
    }
    add("rpc.decode_us", "us");
    add("rpc.execute_us", "us");
    add("rpc.reply_us", "us");
    add("rpc.pool_queue_depth_p99", "count");
    add("net.wire_bytes_per_op", "B");
    add("net.client_send_us", "us");
    add("securechannel.seal_us", "us");
    add("securechannel.open_us", "us");
    add("securechannel.handshake_ms", "ms");
    add("discfs.policy_hit_ratio", "ratio");
    add("discfs.access_checks", "count");
    add("discfs.check_hit_us", "us");
    add("discfs.submit_us_per_cred", "us");
    add("discfs.survivor_hit_ratio", "ratio");
    add("discfs.attach_ms", "ms");
    add("keynote.queries", "count");
    add("keynote.session_credentials", "count");
    add("keynote.query_us", "us");
    add("crypto.sig_cache_hit_ratio", "ratio");
    add("crypto.dsa_verify_us", "us");
    for (Op op : kNfsOps) {
      add(std::string("nfs.self_us.") + OpName(op), "us");
    }
    for (VfsOp op : kFfsOps) {
      add(std::string("ffs.calls.") + VfsOpName(op), "count");
    }
    for (VfsOp op : kFfsOps) {
      add(std::string("ffs.us.") + VfsOpName(op), "us");
    }
    for (VfsOp op : kFfsOps) {
      add(std::string("ffs.self_us.") + VfsOpName(op), "us");
    }
    add("blockdev.hit_ratio", "ratio");
    add("blockdev.evictions", "count");
    add("blockdev.writebacks", "count");
    add("blockdev.readaheads", "count");
    add("blockdev.dev_reads", "count");
    add("blockdev.dev_writes", "count");
    add("blockdev.dev_us_fg", "us");
    add("blockdev.dev_us_bg", "us");
    add("cluster.events_published", "count");
    add("cluster.events_applied", "count");
    add("cluster.remote_bumps", "count");
    add("cluster.revoke_deny_ms_p50", "ms");
    add("cluster.revoke_deny_ms_p90", "ms");
    // The client-seen tail of the untraced pass: too unsteady on a shared
    // machine to bound, so reported here rather than end to end.
    add("client.p90_ms", "ms");
    add("client.p99_ms", "ms");
    add("loadgen.late_ms_p99", "ms");
    add("obs.trace_overhead_frac", "ratio");
    add("unattributed_frac", "ratio");
    for (const char* m : kPaperMetrics) {
      add(std::string("paper.discfs.") + m, PaperUnit(m));
      add(std::string("ref.ffs.") + m, PaperUnit(m));
      add(std::string("ref.cfsne.") + m, PaperUnit(m));
      // DisCFS relative to CFS-NE on the same figure: the cost of
      // credentials plus the secure channel.
      add(std::string("paper.discfs_over_cfsne.") + m, "ratio");
    }
    return s;
  }();
  return specs;
}

NodeSnapshot TakeSnapshot(Node& node) {
  NodeSnapshot snap;
  DiscfsServer& server = node.server();
  obs::MetricsRegistry& reg = server.metrics();
  snap.procs.resize(kOpCount);
  for (size_t i = 0; i < kOpCount; ++i) {
    Op op = static_cast<Op>(i);
    auto take = [&](const char* span) {
      return reg.GetHistogram("discfs_rpc_span_ns", SpanLabels(op, span))
          ->TakeSnapshot();
    };
    snap.procs[i].decode = take("decode");
    snap.procs[i].queue_wait = take("queue_wait");
    snap.procs[i].execute = take("execute");
    snap.procs[i].reply = take("reply");
    snap.procs[i].total = take("total");
  }
  snap.pool_depth =
      reg.GetHistogram("discfs_rpc_pool_queue_depth")->TakeSnapshot();
  snap.stats = server.stats_snapshot();
  snap.keynote_queries = server.counters().keynote_queries.load();
  snap.access_checks = server.counters().access_checks.load();
  if (node.host->fabric() != nullptr) {
    cluster::FabricStats fabric = node.host->fabric()->stats();
    snap.fabric_published = fabric.published;
    snap.fabric_applied = fabric.applied;
  }
  const BlockCacheStats& cache = node.volume.fs->block_cache()->cache_stats();
  snap.cache_hits = cache.hits.load();
  snap.cache_misses = cache.misses.load();
  snap.evictions = cache.evictions.load();
  snap.writebacks = cache.writebacks.load();
  snap.readaheads = cache.readaheads.load();
  snap.dev_reads = node.volume.device->stats().reads.load();
  snap.dev_writes = node.volume.device->stats().writes.load();
  if (node.volume.timing != nullptr) {
    snap.dev_fg_ns = node.volume.timing->times().fg_ns.load();
    snap.dev_bg_ns = node.volume.timing->times().bg_ns.load();
  }
  return snap;
}

std::map<std::string, double> CollectLayers(
    Workload& workload, const std::vector<NodeSnapshot>& before,
    const std::vector<NodeSnapshot>& after, const std::vector<Span>& spans,
    const PassResult& untraced, const PassResult& traced,
    const std::map<std::string, double>& refs) {
  std::map<std::string, double> m;
  for (const MetricSpec& spec : LayerSpecs()) {
    m[spec.name] = 0;
  }
  Tally& tally = workload.tally();

  // --- spans: client calls, Vfs calls, device I/O inside Vfs calls ---
  std::array<uint64_t, kOpCount> call_count{};
  std::array<uint64_t, kOpCount> call_ns{};
  std::array<uint64_t, kOpCount> vfs_ns_under{};  // Vfs time per procedure
  std::array<uint64_t, kVfsOpCount> vfs_count{};
  std::array<uint64_t, kVfsOpCount> vfs_ns{};
  std::array<uint64_t, kVfsOpCount> vfs_self_ns{};
  std::unordered_map<uint64_t, Op> op_of_trace;
  for (const Span& s : spans) {
    if (IsCallSpan(s.name)) {
      op_of_trace[s.trace_id] = static_cast<Op>(s.name);
    }
  }
  uint64_t calls = 0;
  uint64_t all_call_ns = 0;
  for (const Span& s : spans) {
    if (IsCallSpan(s.name)) {
      call_count[s.name]++;
      call_ns[s.name] += s.duration();
      calls++;
      all_call_ns += s.duration();
    } else if (IsVfsSpan(s.name)) {
      size_t op = s.name - kOpCount;
      vfs_count[op]++;
      vfs_ns[op] += s.duration();
      vfs_self_ns[op] += Sub(s.duration(), s.device_ns);
      auto it = op_of_trace.find(s.trace_id);
      if (it != op_of_trace.end()) {
        vfs_ns_under[static_cast<size_t>(it->second)] += s.duration();
      }
    }
  }

  // --- server telemetry deltas, summed over nodes ---
  std::vector<NodeSnapshot::ProcSpans> rec(kOpCount);
  Histogram::Snapshot pool_depth;
  uint64_t policy_hits = 0, policy_misses = 0, sig_hits = 0, sig_misses = 0;
  uint64_t keynote_queries = 0, access_checks = 0, credentials = 0;
  uint64_t published = 0, applied = 0, remote_bumps = 0;
  uint64_t cache_hits = 0, cache_misses = 0, evictions = 0, writebacks = 0;
  uint64_t readaheads = 0, dev_reads = 0, dev_writes = 0;
  uint64_t fg_ns = 0, bg_ns = 0;
  for (size_t n = 0; n < after.size() && n < before.size(); ++n) {
    const NodeSnapshot& a = after[n];
    const NodeSnapshot& b = before[n];
    for (size_t i = 0; i < kOpCount; ++i) {
      AddInto(rec[i].decode, Minus(a.procs[i].decode, b.procs[i].decode));
      AddInto(rec[i].queue_wait,
              Minus(a.procs[i].queue_wait, b.procs[i].queue_wait));
      AddInto(rec[i].execute, Minus(a.procs[i].execute, b.procs[i].execute));
      AddInto(rec[i].reply, Minus(a.procs[i].reply, b.procs[i].reply));
      AddInto(rec[i].total, Minus(a.procs[i].total, b.procs[i].total));
    }
    AddInto(pool_depth, Minus(a.pool_depth, b.pool_depth));
    policy_hits += Sub(a.stats.cache.hits, b.stats.cache.hits);
    policy_misses += Sub(a.stats.cache.misses, b.stats.cache.misses);
    sig_hits += Sub(a.stats.signatures.hits, b.stats.signatures.hits);
    sig_misses += Sub(a.stats.signatures.misses, b.stats.signatures.misses);
    keynote_queries += Sub(a.keynote_queries, b.keynote_queries);
    access_checks += Sub(a.access_checks, b.access_checks);
    credentials += a.stats.credential_count;
    published += Sub(a.fabric_published, b.fabric_published);
    applied += Sub(a.fabric_applied, b.fabric_applied);
    remote_bumps +=
        Sub(a.stats.coherence.remote_bumps, b.stats.coherence.remote_bumps);
    cache_hits += Sub(a.cache_hits, b.cache_hits);
    cache_misses += Sub(a.cache_misses, b.cache_misses);
    evictions += Sub(a.evictions, b.evictions);
    writebacks += Sub(a.writebacks, b.writebacks);
    readaheads += Sub(a.readaheads, b.readaheads);
    dev_reads += Sub(a.dev_reads, b.dev_reads);
    dev_writes += Sub(a.dev_writes, b.dev_writes);
    fg_ns += Sub(a.dev_fg_ns, b.dev_fg_ns);
    bg_ns += Sub(a.dev_bg_ns, b.dev_bg_ns);
  }

  // --- rpc ---
  uint64_t rec_calls = 0, decode_ns = 0, execute_ns = 0, reply_ns = 0;
  uint64_t server_total_ns = 0;
  for (Op op : kTracedOps) {
    size_t i = static_cast<size_t>(op);
    std::string name = OpName(op);
    m["rpc.call_us." + name] = MeanUs(call_ns[i], call_count[i]);
    if (call_count[i] > 0 && rec[i].total.count > 0) {
      m["rpc.outside_server_us." + name] =
          MeanUs(call_ns[i], call_count[i]) -
          MeanUs(rec[i].total.sum, rec[i].total.count);
    }
    m["rpc.queue_wait_us_p50." + name] =
        static_cast<double>(rec[i].queue_wait.Quantile(0.5)) / 1e3;
    m["rpc.queue_wait_us_p99." + name] =
        static_cast<double>(rec[i].queue_wait.Quantile(0.99)) / 1e3;
  }
  for (size_t i = 0; i < kOpCount; ++i) {
    rec_calls += rec[i].total.count;
    decode_ns += rec[i].decode.sum;
    execute_ns += rec[i].execute.sum;
    reply_ns += rec[i].reply.sum;
    server_total_ns += rec[i].total.sum;
  }
  m["rpc.decode_us"] = MeanUs(decode_ns, rec_calls);
  m["rpc.execute_us"] = MeanUs(execute_ns, rec_calls);
  m["rpc.reply_us"] = MeanUs(reply_ns, rec_calls);
  m["rpc.pool_queue_depth_p99"] =
      static_cast<double>(pool_depth.Quantile(0.99));

  // --- net ---
  NetCounters& net = workload.net();
  m["net.wire_bytes_per_op"] =
      Ratio(net.bytes_out.load() + net.bytes_in.load(), calls);
  m["net.client_send_us"] = MeanUs(net.send_ns.load(), net.sends.load());

  // --- securechannel (replay) ---
  Result<ChannelReplay> channel = ReplayChannel(workload, 0x5ec0de);
  if (tally.Ok(channel, "secure channel replay")) {
    m["securechannel.seal_us"] = channel->seal_us;
    m["securechannel.open_us"] = channel->open_us;
    m["securechannel.handshake_ms"] = channel->handshake_ms;
  }

  // --- discfs / keynote / crypto ---
  m["discfs.policy_hit_ratio"] =
      Ratio(policy_hits, policy_hits + policy_misses);
  m["discfs.access_checks"] = static_cast<double>(access_checks);
  auto series = [&](const char* name) -> const Samples* {
    auto it = traced.series.find(name);
    return it == traced.series.end() ? nullptr : &it->second;
  };
  if (const Samples* s = series("submit_us_per_cred")) {
    m["discfs.submit_us_per_cred"] = s->Mean();
  }
  if (auto it = traced.values.find("survivor_hit_ratio");
      it != traced.values.end()) {
    m["discfs.survivor_hit_ratio"] = it->second;
  }
  if (const Samples* s = series("attach_ms")) {
    m["discfs.attach_ms"] = s->Quantile(0.5);
  }
  m["keynote.queries"] = static_cast<double>(keynote_queries);
  m["keynote.session_credentials"] = static_cast<double>(credentials);
  m["crypto.sig_cache_hit_ratio"] = Ratio(sig_hits, sig_hits + sig_misses);

  // --- nfs: execute time minus the Vfs time under the same calls ---
  for (Op op : kNfsOps) {
    size_t i = static_cast<size_t>(op);
    if (rec[i].execute.count > 0) {
      m[std::string("nfs.self_us.") + OpName(op)] =
          MeanUs(Sub(rec[i].execute.sum, vfs_ns_under[i]),
                 rec[i].execute.count);
    }
  }

  // --- ffs ---
  for (VfsOp op : kFfsOps) {
    size_t i = static_cast<size_t>(op);
    std::string name = VfsOpName(op);
    m["ffs.calls." + name] = static_cast<double>(vfs_count[i]);
    m["ffs.us." + name] = MeanUs(vfs_ns[i], vfs_count[i]);
    m["ffs.self_us." + name] = MeanUs(vfs_self_ns[i], vfs_count[i]);
  }

  // --- blockdev (device time per client call) ---
  m["blockdev.hit_ratio"] = Ratio(cache_hits, cache_hits + cache_misses);
  m["blockdev.evictions"] = static_cast<double>(evictions);
  m["blockdev.writebacks"] = static_cast<double>(writebacks);
  m["blockdev.readaheads"] = static_cast<double>(readaheads);
  m["blockdev.dev_reads"] = static_cast<double>(dev_reads);
  m["blockdev.dev_writes"] = static_cast<double>(dev_writes);
  m["blockdev.dev_us_fg"] = MeanUs(fg_ns, calls);
  m["blockdev.dev_us_bg"] = MeanUs(bg_ns, calls);

  // --- cluster ---
  m["cluster.events_published"] = static_cast<double>(published);
  m["cluster.events_applied"] = static_cast<double>(applied);
  m["cluster.remote_bumps"] = static_cast<double>(remote_bumps);
  if (const Samples* s = series("revoke_deny_ms")) {
    m["cluster.revoke_deny_ms_p50"] = s->Quantile(0.5);
    m["cluster.revoke_deny_ms_p90"] = s->Quantile(0.9);
  }

  // --- whole run ---
  m["client.p90_ms"] = untraced.latency_ms.WindowedQuantile(0.9);
  m["client.p99_ms"] = untraced.latency_ms.WindowedQuantile(0.99);
  if (const Samples* s = series("late_ms")) {
    m["loadgen.late_ms_p99"] = s->Quantile(0.99);
  }
  if (untraced.ops_per_s() > 0) {
    m["obs.trace_overhead_frac"] =
        1.0 - traced.ops_per_s() / untraced.ops_per_s();
  }

  // --- replays of the access check and DSA verify ---
  PolicyReplay policy = ReplayPolicy(workload, tally);
  m["discfs.check_hit_us"] = policy.hit_us;
  m["keynote.query_us"] = policy.query_us;
  m["crypto.dsa_verify_us"] = ReplayVerify(workload, tally);

  // The server's recorded span starts before it reads and opens the call
  // record and ends after it seals and sends the reply, so outside it a
  // call spends the client's seal of the call, the socket send, and the
  // client's open of the reply; the rest is what no layer accounts for
  // (thread wake-ups, the demux hand-off). The replayed record sizes cover
  // both directions, so one mean seal plus one mean open is one call's.
  if (all_call_ns > 0) {
    double attributed =
        static_cast<double>(net.send_ns.load()) +
        static_cast<double>(calls) *
            (m["securechannel.seal_us"] + m["securechannel.open_us"]) * 1e3 +
        static_cast<double>(server_total_ns);
    m["unattributed_frac"] = 1.0 - attributed / all_call_ns;
  }

  // --- the paper's comparison ---
  for (const char* metric : kPaperMetrics) {
    auto discfs = untraced.values.find(metric);
    if (discfs == untraced.values.end()) {
      continue;
    }
    m[std::string("paper.discfs.") + metric] = discfs->second;
    auto ffs = refs.find(std::string("ref.ffs.") + metric);
    auto cfsne = refs.find(std::string("ref.cfsne.") + metric);
    if (ffs != refs.end()) {
      m[ffs->first] = ffs->second;
    }
    if (cfsne != refs.end()) {
      m[cfsne->first] = cfsne->second;
      if (cfsne->second > 0) {
        m[std::string("paper.discfs_over_cfsne.") + metric] =
            discfs->second / cfsne->second;
      }
    }
  }
  if (m.size() != LayerSpecs().size()) {
    tally.CheckFailed("per-layer metric names drifted from LayerSpecs()");
  }
  return m;
}

}  // namespace discfs::bm
