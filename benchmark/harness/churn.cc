// churn: the control plane. Two DisCFS nodes, A and B, linked by the
// coherence fabric, each holding a seeded corpus of credentials. Rounds
// run on a fixed period; each round
//   1. submits one batch of fresh credentials at A,
//   2. revokes one victim credential at A (installed on both nodes) and
//      probes B with DiscfsServer::EffectiveMask until the victim is
//      denied there,
//   3. every kAttachEvery-th round, attaches a fresh client to B: connect,
//      handshake, submit its grant, first READ.
// Throughout, a reader on B does one-deep reads of files no churn touches;
// its policy-cache entries must survive every remote invalidation.
// Credentials are signed before set-up (input generation).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>
#include <thread>

#include "benchmark/harness/workload.h"
#include "src/cluster/fabric.h"
#include "src/discfs/action_env.h"
#include "src/discfs/credentials.h"
#include "src/util/strings.h"

namespace discfs::bm {
namespace {

constexpr size_t kCorpus = 1000;  // per node
constexpr size_t kSmokeCorpus = 50;
constexpr size_t kBatch = 20;
constexpr uint64_t kRoundPeriodNs = 50'000'000;
constexpr size_t kAttachEvery = 4;
constexpr size_t kReaderFiles = 16;
constexpr size_t kReaderBlocks = 8;  // 64 KiB files
constexpr size_t kSubmitChunk = 250;
constexpr size_t kUserKeys = 64;
constexpr size_t kVictimKeys = 32;
constexpr size_t kFreshKeys = 64;
constexpr uint64_t kDenyTimeoutNs = 5'000'000'000;
constexpr uint64_t kProbeIntervalNs = 50'000;
constexpr auto kFabricSettle = std::chrono::seconds(20);
constexpr uint64_t kDeviceMib = 16;
constexpr uint32_t kInodes = 256;
constexpr size_t kBlockCacheBlocks = 1024;
// NfsFh numbers in the credentials' HANDLE conditions. Only the reader's
// files exist on disk; the rest are policy entries.
constexpr uint32_t kCorpusHandleA = 300000;
constexpr uint32_t kCorpusHandleB = 400000;
constexpr uint32_t kVictimHandle = 500000;
constexpr uint32_t kFreshHandle = 600000;

std::vector<DsaPrivateKey> MakeKeys(uint64_t seed, size_t n) {
  std::vector<DsaPrivateKey> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    keys.push_back(MakeKey(seed + i));
  }
  return keys;
}

std::string Principal(const DsaPrivateKey& key) {
  return key.public_key().ToKeyNoteString();
}

class Churn : public Workload {
 public:
  explicit Churn(RunConfig config)
      : Workload(config),
        corpus_(config.smoke ? kSmokeCorpus : kCorpus),
        rounds_(std::max<size_t>(
            2, static_cast<size_t>(std::ceil(config.seconds * 1e9 /
                                             kRoundPeriodNs)))),
        admin_(MakeKey(config.seed * 1000 + 70)),
        server_a_(MakeKey(config.seed * 1000 + 71)),
        server_b_(MakeKey(config.seed * 1000 + 72)),
        operator_(MakeKey(config.seed * 1000 + 73)),
        reader_key_(MakeKey(config.seed * 1000 + 74)),
        users_(MakeKeys(config.seed * 100000 + 1000, kUserKeys)),
        victims_(MakeKeys(config.seed * 100000 + 2000, kVictimKeys)),
        fresh_(MakeKeys(config.seed * 100000 + 3000, kFreshKeys)),
        attachers_(MakeKeys(config.seed * 100000 + 4000,
                            rounds_ / kAttachEvery + 1)) {
    auto issue = [&](const DsaPrivateKey& issuer, const DsaPrivateKey& subject,
                     const std::string& handle, const char* perms) {
      CredentialOptions options;
      options.permissions = perms;
      return IssueCredential(issuer, subject.public_key(), handle, options);
    };
    std::vector<std::string> grants = SignAll(
        2,
        [&](size_t i) {
          return issue(admin_, i == 0 ? operator_ : reader_key_, "",
                       i == 0 ? "RWX" : "R");
        },
        tally_);
    operator_grant_ = grants[0];
    reader_grant_ = grants[1];
    corpus_a_ = SignAll(
        corpus_,
        [&](size_t j) {
          return issue(operator_, users_[j % kUserKeys],
                       HandleString(kCorpusHandleA + j), "R");
        },
        tally_);
    corpus_b_ = SignAll(
        corpus_,
        [&](size_t j) {
          return issue(operator_, users_[j % kUserKeys],
                       HandleString(kCorpusHandleB + j), "R");
        },
        tally_);
    victim_creds_ = SignAll(
        rounds_,
        [&](size_t r) {
          return issue(operator_, victims_[r % kVictimKeys],
                       HandleString(kVictimHandle + r), "R");
        },
        tally_);
    fresh_creds_ = SignAll(
        rounds_ * kBatch,
        [&](size_t k) {
          return issue(operator_, fresh_[k % kFreshKeys],
                       HandleString(kFreshHandle + k), "R");
        },
        tally_);
    attach_grants_ = SignAll(
        attachers_.size(),
        [&](size_t a) { return issue(admin_, attachers_[a], "", "R"); },
        tally_);
  }

  Status Setup(bool instrumented) override {
    instrumented_ = instrumented;
    NetCounters* net = instrumented ? &net_ : nullptr;
    std::string policy = StrPrintf(
        "Authorizer: \"POLICY\"\nLicensees: \"%s\"\n"
        "Conditions: app_domain == \"%s\" -> \"RWX\";\n",
        Principal(admin_).c_str(), kAppDomain);
    auto spec = [&](const DsaPrivateKey& key, const DsaPrivateKey& peer,
                    uint64_t seed) {
      NodeSpec s;
      s.volume = VolumeSpec{kDeviceMib, kInodes, kBlockCacheBlocks};
      s.server_key = key;
      s.policies = {policy};
      s.cluster_trusted = {peer.public_key()};
      s.rand_seed = seed;
      return s;
    };
    ASSIGN_OR_RETURN(a_, StartNode(spec(server_a_, server_b_,
                                        config_.seed * 1000 + 75),
                                   instrumented));
    ASSIGN_OR_RETURN(b_, StartNode(spec(server_b_, server_a_,
                                        config_.seed * 1000 + 76),
                                   instrumented));
    RETURN_IF_ERROR(a_->host->AddClusterPeer(
        {"127.0.0.1", b_->host->port(), server_b_.public_key()}));
    RETURN_IF_ERROR(b_->host->AddClusterPeer(
        {"127.0.0.1", a_->host->port(), server_a_.public_key()}));

    ASSIGN_OR_RETURN(op_a_, ConnectClient(a_->host->port(), operator_,
                                          server_a_.public_key(), net,
                                          config_.seed * 1000 + 77));
    ASSIGN_OR_RETURN(std::unique_ptr<DiscfsClient> op_b,
                     ConnectClient(b_->host->port(), operator_,
                                   server_b_.public_key(), net,
                                   config_.seed * 1000 + 78));
    std::vector<std::string> ids_a;
    std::vector<std::string> ids_b;
    RETURN_IF_ERROR(SubmitAll(*op_a_, {operator_grant_}, &ids_a));
    RETURN_IF_ERROR(SubmitAll(*op_b, {operator_grant_}, &ids_b));
    RETURN_IF_ERROR(SubmitAll(*op_a_, corpus_a_, &ids_a));
    RETURN_IF_ERROR(SubmitAll(*op_b, corpus_b_, &ids_b));
    victim_ids_.clear();
    RETURN_IF_ERROR(SubmitAll(*op_a_, victim_creds_, &victim_ids_));
    RETURN_IF_ERROR(SubmitAll(*op_b, victim_creds_, &ids_b));

    // The reader's files on B, written by the operator.
    std::unique_ptr<FsOps> fs_b = NfsOps(op_b->nfs());
    ASSIGN_OR_RETURN(NfsFh root, fs_b->Root());
    reader_files_.clear();
    for (size_t f = 0; f < kReaderFiles; ++f) {
      ASSIGN_OR_RETURN(NfsFh file,
                       fs_b->Create(root, "r" + std::to_string(f)));
      for (size_t b = 0; b < kReaderBlocks; ++b) {
        RETURN_IF_ERROR(fs_b->Write(
            file, b * kBlockBytes,
            MakePattern(ReaderKey(f, b), 1, kBlockBytes)));
      }
      reader_files_.push_back(file);
    }
    op_b->Close();

    ASSIGN_OR_RETURN(reader_, ConnectClient(b_->host->port(), reader_key_,
                                            server_b_.public_key(), net,
                                            config_.seed * 1000 + 79));
    RETURN_IF_ERROR(SubmitAll(*reader_, {reader_grant_}, &ids_b));
    reader_fs_ = NfsOps(reader_->nfs());

    // Every set-up event has reached the other node before timing starts.
    for (Node* node : {a_.get(), b_.get()}) {
      cluster::CoherenceFabric* fabric = node->host->fabric();
      if (!fabric->WaitForAck(fabric->stats().head_seq, kFabricSettle)) {
        return UnavailableError("coherence fabric did not settle");
      }
    }
    next_round_ = 0;
    next_attach_ = 0;
    return OkStatus();
  }

  PassResult Run(double seconds) override {
    PassResult pass;
    size_t rounds = std::min<size_t>(
        rounds_ - next_round_,
        std::max<uint64_t>(1, static_cast<uint64_t>(seconds * 1e9) /
                                  kRoundPeriodNs));
    if (rounds == 0) {
      tally_.CheckFailed("churn ran out of prepared rounds");
      return pass;
    }
    // The reader's own first checks are misses; only what churn does to
    // its warm entries counts.
    for (const NfsFh& file : reader_files_) {
      tally_.Ok(reader_fs_->Read(file, 0, kBlockBytes), "churn reader warm-up");
    }
    PolicyCache::Stats b_before = b_->server().stats_snapshot().cache;
    churn_hits_ = 0;
    churn_misses_ = 0;

    std::atomic<bool> stop{false};
    LatencyLog read_ms;
    uint64_t read_bytes = 0;
    std::thread reader([&] {
      for (uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        size_t f = i % kReaderFiles;
        size_t b = (i / kReaderFiles) % kReaderBlocks;
        uint64_t t0 = NowNs();
        Result<Bytes> data =
            reader_fs_->Read(reader_files_[f], b * kBlockBytes, kBlockBytes);
        uint64_t t1 = NowNs();
        if (!tally_.Ok(data, "churn reader")) {
          continue;
        }
        read_ms.Add(t1, static_cast<double>(t1 - t0) / 1e6);
        read_bytes += data->size();
        if (!MatchesPattern(ReaderKey(f, b), 1, data->data(), data->size())) {
          tally_.CheckFailed("churn reader saw wrong bytes");
        }
      }
    });

    const uint64_t start = NowNs();
    Samples submit_s;
    for (size_t r = 0; r < rounds; ++r) {
      SleepUntilNs(start + r * kRoundPeriodNs);
      submit_s.Add(static_cast<double>(RunRound(next_round_++, pass)) / 1e9);
    }
    const uint64_t end = NowNs();
    stop.store(true);
    reader.join();

    PolicyCache::Stats b_after = b_->server().stats_snapshot().cache;
    uint64_t hits = b_after.hits - b_before.hits;
    uint64_t misses = b_after.misses - b_before.misses;
    uint64_t reader_hits = hits > churn_hits_ ? hits - churn_hits_ : 0;
    uint64_t reader_misses =
        misses > churn_misses_ ? misses - churn_misses_ : 0;
    pass.values["survivor_hit_ratio"] =
        reader_hits + reader_misses == 0
            ? 0
            : static_cast<double>(reader_hits) / (reader_hits + reader_misses);
    // Admission rate of the median batch call: every batch is the same
    // size, and one batch stalled by the machine should not move it.
    pass.ops = rounds * kBatch;
    pass.op_seconds = submit_s.Quantile(0.5) * rounds;
    pass.bytes = read_bytes;
    pass.byte_seconds = static_cast<double>(end - start) / 1e9;
    pass.latency_ms = std::move(read_ms);
    return pass;
  }

  void Teardown() override {
    reader_fs_.reset();
    for (std::unique_ptr<DiscfsClient>* c : {&reader_, &op_a_}) {
      if (*c != nullptr) {
        (*c)->Close();
        c->reset();
      }
    }
    if (b_ != nullptr) {
      StopNode(*b_, "churn volume B", tally_);
      b_.reset();
    }
    if (a_ != nullptr) {
      StopNode(*a_, "churn volume A", tally_);
      a_.reset();
    }
  }

  std::vector<Node*> nodes() override { return {a_.get(), b_.get()}; }

  std::vector<AccessPair> AccessPairs() override {
    std::vector<AccessPair> pairs;
    for (const NfsFh& file : reader_files_) {
      pairs.push_back(AccessPair{1, Principal(reader_key_), file.inode});
    }
    return pairs;
  }

  std::vector<std::string> Credentials() override {
    return std::vector<std::string>(
        corpus_a_.begin(),
        corpus_a_.begin() + std::min<size_t>(64, corpus_a_.size()));
  }

  std::pair<DsaPrivateKey, DsaPrivateKey> ChannelKeys() override {
    return {reader_key_, server_b_};
  }

 private:
  uint64_t ReaderKey(size_t file, size_t block) const {
    return Mix64(config_.seed ^ (static_cast<uint64_t>(file) << 32) ^ block);
  }

  // Submits `texts` in batches; every credential must be admitted. Ids are
  // appended to `ids`.
  Status SubmitAll(DiscfsClient& client, const std::vector<std::string>& texts,
                   std::vector<std::string>* ids) {
    for (size_t off = 0; off < texts.size(); off += kSubmitChunk) {
      std::vector<std::string> chunk(
          texts.begin() + off,
          texts.begin() + std::min(texts.size(), off + kSubmitChunk));
      auto results = TracedCall(Op::kSubmitBatch, [&] {
        return client.SubmitCredentials(chunk);
      });
      if (!tally_.Ok(results, "churn submit batch")) {
        return results.status();
      }
      for (const Result<std::string>& id : *results) {
        if (!tally_.Ok(id, "churn submit credential")) {
          return id.status();
        }
        ids->push_back(*id);
      }
    }
    return OkStatus();
  }

  // One round; returns the nanoseconds spent in the batch submit call.
  uint64_t RunRound(size_t k, PassResult& pass) {
    // 1. A batch of fresh credentials at A.
    std::vector<std::string> batch(
        fresh_creds_.begin() + k * kBatch,
        fresh_creds_.begin() + (k + 1) * kBatch);
    uint64_t t0 = NowNs();
    auto results = TracedCall(Op::kSubmitBatch, [&] {
      return op_a_->SubmitCredentials(batch);
    });
    uint64_t submit_ns = NowNs() - t0;
    if (tally_.Ok(results, "churn fresh batch")) {
      for (const Result<std::string>& id : *results) {
        tally_.Ok(id, "churn fresh credential");
      }
    }
    pass.series["submit_us_per_cred"].Add(static_cast<double>(submit_ns) /
                                          1e3 / kBatch);

    // 2. Revoke the victim at A; B must deny it.
    DiscfsServer& b = b_->server();
    const std::string victim = Principal(victims_[k % kVictimKeys]);
    const uint32_t handle = kVictimHandle + static_cast<uint32_t>(k);
    ++churn_misses_;  // the first check of a new pair queries KeyNote
    if (b.EffectiveMask(victim, handle) == 0) {
      tally_.CheckFailed("churn victim " + std::to_string(k) +
                         " was not granted at B before its revocation");
    }
    Status removed = TracedCall(Op::kRemoveCred, [&] {
      return op_a_->RemoveCredential(victim_ids_[k]);
    });
    uint64_t revoked = NowNs();
    if (tally_.Ok(removed, "churn remove credential")) {
      while (b.EffectiveMask(victim, handle) != 0) {
        ++churn_hits_;  // still the cached grant
        if (NowNs() - revoked > kDenyTimeoutNs) {
          tally_.CheckFailed("churn victim " + std::to_string(k) +
                             " still granted at B 5 s after revocation");
          break;
        }
        SleepUntilNs(NowNs() + kProbeIntervalNs);
      }
      ++churn_misses_;  // the denying check recomputed after invalidation
      pass.series["revoke_deny_ms"].Add(
          static_cast<double>(NowNs() - revoked) / 1e6);
    }

    // 3. A fresh client attaches to B.
    if (k % kAttachEvery == 0 && next_attach_ < attachers_.size()) {
      size_t a = next_attach_++;
      uint64_t attach_start = NowNs();
      Result<std::unique_ptr<DiscfsClient>> client =
          ConnectClient(b_->host->port(), attachers_[a],
                        server_b_.public_key(),
                        instrumented_ ? &net_ : nullptr,
                        config_.seed * 1000 + 900 + a);
      if (tally_.Ok(client, "churn attach connect")) {
        Status attached = TracedCall(Op::kSubmitCred, [&] {
                            return (*client)->SubmitCredential(
                                attach_grants_[a]);
                          }).status();
        if (tally_.Ok(attached, "churn attach submit")) {
          // A READ, unlike a GETATTR, is checked against the grant just
          // submitted; that first check of a new principal is a miss.
          ++churn_misses_;
          Result<Bytes> data = TracedCall(Op::kRead, [&] {
            return (*client)->nfs().Read(reader_files_[0], 0, kBlockBytes);
          });
          if (tally_.Ok(data, "churn attach read")) {
            pass.series["attach_ms"].Add(
                static_cast<double>(NowNs() - attach_start) / 1e6);
            if (!MatchesPattern(ReaderKey(0, 0), 1, data->data(),
                                data->size())) {
              tally_.CheckFailed("churn attacher read wrong bytes");
            }
          }
        }
        (*client)->Close();
      }
    }
    return submit_ns;
  }

  const size_t corpus_;
  const size_t rounds_;  // prepared for the whole run
  const DsaPrivateKey admin_;
  const DsaPrivateKey server_a_;
  const DsaPrivateKey server_b_;
  const DsaPrivateKey operator_;
  const DsaPrivateKey reader_key_;
  const std::vector<DsaPrivateKey> users_;
  const std::vector<DsaPrivateKey> victims_;
  const std::vector<DsaPrivateKey> fresh_;
  const std::vector<DsaPrivateKey> attachers_;
  std::string operator_grant_;
  std::string reader_grant_;
  std::vector<std::string> corpus_a_;
  std::vector<std::string> corpus_b_;
  std::vector<std::string> victim_creds_;
  std::vector<std::string> fresh_creds_;
  std::vector<std::string> attach_grants_;

  std::unique_ptr<Node> a_;
  std::unique_ptr<Node> b_;
  std::unique_ptr<DiscfsClient> op_a_;
  std::unique_ptr<DiscfsClient> reader_;
  std::unique_ptr<FsOps> reader_fs_;
  std::vector<NfsFh> reader_files_;
  std::vector<std::string> victim_ids_;
  bool instrumented_ = false;
  size_t next_round_ = 0;
  size_t next_attach_ = 0;
  // Policy-cache hits and misses at B that churn itself causes (probes and
  // attaches), taken out of the reader's survivor ratio.
  uint64_t churn_hits_ = 0;
  uint64_t churn_misses_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeChurn(RunConfig config) {
  return std::make_unique<Churn>(config);
}

}  // namespace discfs::bm
