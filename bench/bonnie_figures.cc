// Figures 7-11: the five Bonnie phases on FFS, CFS-NE and DisCFS.
//
// Each backend runs the phases in Bonnie's own order on one file
// (per-character output, block output, rewrite, per-character input,
// block input), so every input phase reads what the output phases wrote.
// Then one table per figure compares the three systems. The file is
// DISCFS_BONNIE_MB MiB (default 8; the paper used 100 MB).
#include <cstdio>
#include <iterator>
#include <vector>

#include "bench/bonnie.h"

namespace discfs::bench {
namespace {

constexpr BonniePhase kPhases[] = {
    BonniePhase::kSeqOutputChar, BonniePhase::kSeqOutputBlock,
    BonniePhase::kSeqRewrite, BonniePhase::kSeqInputChar,
    BonniePhase::kSeqInputBlock};

int Run() {
  const size_t file_mb = BonnieFileMb();
  BackendOptions opts;
  opts.device_mib = file_mb * 2 + 64;
  auto backends = MakeAllBackends(opts);
  if (!backends.ok()) {
    std::fprintf(stderr, "backend setup failed: %s\n",
                 backends.status().ToString().c_str());
    return 1;
  }
  // rows[phase][backend], in the paper's presentation order.
  std::vector<std::vector<BonnieResult>> rows(std::size(kPhases));
  for (auto& backend : *backends) {
    for (size_t p = 0; p < std::size(kPhases); ++p) {
      auto result = RunBonniePhase(*backend, kPhases[p], file_mb);
      if (!result.ok()) {
        std::fprintf(stderr, "%s on %s failed: %s\n",
                     BonniePhaseName(kPhases[p]), backend->name().c_str(),
                     result.status().ToString().c_str());
        return 1;
      }
      rows[p].push_back(*result);
    }
  }
  for (size_t p = 0; p < std::size(kPhases); ++p) {
    std::printf("== Figure %zu: Bonnie %s, %zu MiB file ==\n", 7 + p,
                BonniePhaseName(kPhases[p]), file_mb);
    for (const BonnieResult& row : rows[p]) {
      PrintBonnieRow(row);
    }
  }
  std::printf("(paper setup: 100 MB file, 450 MHz PIII server, 100 Mbps "
              "Ethernet; set DISCFS_BONNIE_MB to change the file size)\n");
  return 0;
}

}  // namespace
}  // namespace discfs::bench

int main() { return discfs::bench::Run(); }
