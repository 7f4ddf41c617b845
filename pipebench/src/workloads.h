// The three workloads. Each runs its set-up several times (reporting the
// median as setup_s), measures for args.seconds in whole rounds, checks the
// program's answers against values computed apart from it, and returns the
// end-to-end metrics (args.trace == false) or the per-layer ledger
// (args.trace == true) with its operation accounting.
#pragma once

#include "common.h"
#include "fattree.h"

namespace pipebench {

/// Set-up repetitions per run; setup_s is their median. The first
/// repetitions of a short set-up run slower (fresh pages, a cold
/// allocator): fattree_live's 25 ms set-up takes ~5 repetitions to settle
/// from ~45 ms, so it repeats often enough that the median lands well
/// among the settled ones.
inline constexpr int kQueryFleetSetupReps = 5;
inline constexpr int kIngestSetupReps = 5;
inline constexpr int kFatTreeSetupReps = 31;

[[nodiscard]] RunResult run_ingest_fanin(const Args& args);
[[nodiscard]] RunResult run_query_fleet(const Args& args);

struct FatTreeLiveOptions {
  DestinationDemux demux = DestinationDemux::kReverseEcmp;
};
[[nodiscard]] RunResult run_fattree_live(const Args& args, const FatTreeLiveOptions& options = {});

/// The fat tree's accuracy bound: the median per-flow mean relative error
/// of the downstream segment must stay under it (see README.md for how it
/// follows from the paper's results).
inline constexpr double kFatTreeErrorBound = 0.30;

}  // namespace pipebench
