// Tests for the benchmark harness itself: the three backends must be
// behaviourally identical (same files, same bytes) and the shaper sane —
// otherwise the figures compare different workloads instead of different
// systems.
#include <gtest/gtest.h>

#include <chrono>

#include "bench/bonnie.h"
#include "src/net/shaper.h"

namespace discfs::bench {
namespace {

BackendOptions SmallOpts() {
  BackendOptions opts;
  opts.device_mib = 64;
  opts.inode_count = 2048;
  return opts;
}

// Factory-parameterized suite: every FsBackend implementation must pass.
using Factory = Result<std::unique_ptr<FsBackend>> (*)(const BackendOptions&);

class BackendContract : public ::testing::TestWithParam<Factory> {
 protected:
  void SetUp() override {
    // Disable shaping for functional tests.
    setenv("DISCFS_LINK_MBPS", "0", 1);
    setenv("DISCFS_LINK_LATENCY_US", "0", 1);
    auto backend = GetParam()(SmallOpts());
    ASSERT_TRUE(backend.ok()) << backend.status();
    backend_ = std::move(backend).value();
  }
  std::unique_ptr<FsBackend> backend_;
};

TEST_P(BackendContract, CreateWriteReadFile) {
  auto file = backend_->CreateFile("t.bin");
  ASSERT_TRUE(file.ok()) << file.status();
  Bytes data = ToBytes("backend contract data");
  ASSERT_TRUE(backend_->WriteAt(*file, 0, data.data(), data.size()).ok());
  Bytes buf(64);
  auto n = backend_->ReadAt(*file, 0, buf.data(), buf.size());
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, data.size());
  EXPECT_EQ(Bytes(buf.begin(), buf.begin() + *n), data);
}

TEST_P(BackendContract, CreateTruncatesExisting) {
  auto f1 = backend_->CreateFile("t.bin");
  ASSERT_TRUE(f1.ok());
  Bytes big(10000, 'x');
  ASSERT_TRUE(backend_->WriteAt(*f1, 0, big.data(), big.size()).ok());
  auto f2 = backend_->CreateFile("t.bin");
  ASSERT_TRUE(f2.ok());
  Bytes buf(16);
  auto n = backend_->ReadAt(*f2, 0, buf.data(), buf.size());
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);  // truncated
}

TEST_P(BackendContract, BonnieSmokeAllPhases) {
  for (BonniePhase phase :
       {BonniePhase::kSeqOutputChar, BonniePhase::kSeqOutputBlock,
        BonniePhase::kSeqRewrite, BonniePhase::kSeqInputChar,
        BonniePhase::kSeqInputBlock}) {
    auto result = RunBonniePhaseFresh(*backend_, phase, /*file_mb=*/1);
    ASSERT_TRUE(result.ok()) << BonniePhaseName(phase) << ": "
                             << result.status();
    EXPECT_EQ(result->bytes, 1024u * 1024u) << BonniePhaseName(phase);
    EXPECT_GT(result->kb_per_sec, 0) << BonniePhaseName(phase);
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendContract,
                         ::testing::Values(&MakeFfsBackend, &MakeCfsNeBackend,
                                           &MakeDiscfsBackend),
                         [](const auto& info) {
                           switch (info.index) {
                             case 0:
                               return "Ffs";
                             case 1:
                               return "CfsNe";
                             default:
                               return "Discfs";
                           }
                         });

// ----- shaper -----

TEST(Shaper, PassThroughWhenDisabled) {
  auto pair = InProcTransport::CreatePair();
  ShapedStream shaped(std::move(pair.a), LinkModel{0, 0});
  ASSERT_TRUE(shaped.Send(ToBytes("x")).ok());
  auto got = pair.b->Recv();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ToString(*got), "x");
}

TEST(Shaper, DelaysProportionalToSize) {
  auto pair = InProcTransport::CreatePair();
  // 8 Mbps -> 1 byte per microsecond: a 20 KB frame takes >= 20 ms.
  ShapedStream shaped(std::move(pair.a), LinkModel{8, 0});
  auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(shaped.Send(Bytes(20000, 1)).ok());
  double elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  EXPECT_GE(elapsed, 0.018);
  auto got = pair.b->Recv();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->size(), 20000u);
}

TEST(Shaper, FixedLatencyApplied) {
  auto pair = InProcTransport::CreatePair();
  ShapedStream shaped(std::move(pair.a), LinkModel{0, 5000});  // 5 ms
  auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(shaped.Send(ToBytes("tiny")).ok());
  double elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  EXPECT_GE(elapsed, 0.004);
}

// Counts which teardown call reaches the wrapped stream.
class TeardownRecorder : public MsgStream {
 public:
  Status Send(const Bytes&) override { return OkStatus(); }
  Result<Bytes> Recv() override { return UnavailableError("no data"); }
  void Close() override { ++closes; }
  void Shutdown() override { ++shutdowns; }

  int closes = 0;
  int shutdowns = 0;
};

// RpcClient::Close shuts its stream down while the demux thread may be in
// the inner Recv; a shaped link must not turn that into a close(2).
TEST(Shaper, ShutdownForwardsWithoutClosing) {
  auto inner = std::make_unique<TeardownRecorder>();
  TeardownRecorder* recorder = inner.get();
  ShapedStream shaped(std::move(inner), LinkModel{0, 0});
  shaped.Shutdown();
  EXPECT_EQ(recorder->shutdowns, 1);
  EXPECT_EQ(recorder->closes, 0);
  shaped.Close();
  EXPECT_EQ(recorder->closes, 1);
}

TEST(Shaper, EnvParsing) {
  setenv("DISCFS_LINK_MBPS", "42.5", 1);
  setenv("DISCFS_LINK_LATENCY_US", "77", 1);
  LinkModel model = LinkModelFromEnv();
  EXPECT_DOUBLE_EQ(model.mbps, 42.5);
  EXPECT_EQ(model.latency_us, 77u);
  unsetenv("DISCFS_LINK_MBPS");
  unsetenv("DISCFS_LINK_LATENCY_US");
  model = LinkModelFromEnv();
  EXPECT_DOUBLE_EQ(model.mbps, 100);  // paper default
}

}  // namespace
}  // namespace discfs::bench
