// Correctness checks kept apart from the program: each compares an answer
// the program gave with a value the benchmark computed itself from the
// inputs it generated (or, for the fat tree, from the simulator's ground
// truth). A check returns an empty string when the answer holds and a
// one-line reason when it does not. The benchmark's self-test feeds each
// check a corrupted answer to show that it is rejected.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "collect/sharded_collector.h"
#include "net/flow_key.h"
#include "rli/flow_stats.h"

namespace pipebench {

/// |got - exact| <= alpha * |exact| (with a hair of floating-point slack):
/// the latency sketch's relative-accuracy guarantee for one order statistic.
[[nodiscard]] std::string check_quantile(const std::string& what, double got, double exact,
                                         double alpha);

/// Exact equality of a count.
[[nodiscard]] std::string check_count(const std::string& what, std::uint64_t got,
                                      std::uint64_t want);

/// A ranked top-k answer (worst first) against the exact per-flow values
/// of the ranking quantile: every returned flow's rank lies within alpha of
/// its exact value, the answer holds min(k, flows) entries, and no flow
/// left out has an exact value above what the k-th returned rank allows
/// (rank_k / (1 - alpha)).
[[nodiscard]] std::string check_top_k(
    const std::vector<rlir::collect::RankedFlowSummary>& answer, std::size_t k,
    const std::unordered_map<rlir::net::FiveTuple, double>& exact, double alpha);

/// Per-flow estimate counts (exact) and means (relative 1e-9) reported by
/// the fleet against the estimates the vantage receivers produced.
[[nodiscard]] std::string check_flow_estimates(
    const std::vector<rlir::collect::FlowSummary>& fleet_flows,
    const rlir::rli::FlowStatsMap& estimates);

/// Median of the per-flow mean relative error against ground truth, which
/// must lie under `bound`. Returns the median through `median_out`.
[[nodiscard]] std::string check_error_median(const rlir::rli::FlowStatsMap& truth,
                                             const rlir::rli::FlowStatsMap& estimates,
                                             double bound, double* median_out = nullptr);

/// Collects failed checks and counts the answers they rejected.
struct Checker {
  std::vector<std::string> errors;
  std::uint64_t wrong = 0;
  /// Records `reason` when non-empty; returns whether the check held.
  bool expect(const std::string& reason) {
    if (reason.empty()) return true;
    ++wrong;
    if (errors.size() < 20) errors.push_back(reason);
    return false;
  }
};

}  // namespace pipebench
