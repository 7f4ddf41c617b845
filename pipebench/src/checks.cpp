#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace pipebench {

namespace {

std::string format(const char* fmt, const std::string& what, double a, double b, double c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, fmt, what.c_str(), a, b, c);
  return buf;
}

}  // namespace

std::string check_quantile(const std::string& what, double got, double exact, double alpha) {
  const double slack = alpha * std::fabs(exact) * (1.0 + 1e-9) + 1e-9;
  if (std::isfinite(got) && std::fabs(got - exact) <= slack) return {};
  return format("%s: %.6g is not within %.4g relative of the exact %.6g", what, got, alpha,
                exact);
}

std::string check_count(const std::string& what, std::uint64_t got, std::uint64_t want) {
  if (got == want) return {};
  return format("%s: %.0f, expected exactly %.0f", what, static_cast<double>(got),
                static_cast<double>(want));
}

std::string check_top_k(const std::vector<rlir::collect::RankedFlowSummary>& answer,
                        std::size_t k,
                        const std::unordered_map<rlir::net::FiveTuple, double>& exact,
                        double alpha) {
  const std::size_t want = std::min(k, exact.size());
  if (answer.size() != want) {
    return format("%s: %.0f entries for k=%.0f over %.0f flows", "top_k",
                  static_cast<double>(answer.size()), static_cast<double>(k),
                  static_cast<double>(exact.size()));
  }
  std::unordered_set<rlir::net::FiveTuple> returned;
  for (const auto& [rank, summary] : answer) {
    const auto it = exact.find(summary.key);
    if (it == exact.end()) return "top_k: returned a flow that was never loaded";
    if (auto bad = check_quantile("top_k rank of " + summary.key.to_string(), rank, it->second,
                                  alpha);
        !bad.empty()) {
      return bad;
    }
    if (!returned.insert(summary.key).second) return "top_k: a flow returned twice";
  }
  if (answer.empty()) return {};
  const double floor_rank = answer.back().first / (1.0 - alpha) * (1.0 + 1e-9);
  for (const auto& [key, value] : exact) {
    if (value > floor_rank && returned.count(key) == 0) {
      return format("top_k: left-out flow %s has exact %.6g above the k-th rank %.6g",
                    key.to_string(), value, answer.back().first);
    }
  }
  return {};
}

std::string check_flow_estimates(const std::vector<rlir::collect::FlowSummary>& fleet_flows,
                                 const rlir::rli::FlowStatsMap& estimates) {
  std::size_t nonempty = 0;
  for (const auto& [key, stats] : estimates) nonempty += stats.count() > 0 ? 1 : 0;
  if (fleet_flows.size() != nonempty) {
    return format("%s: the fleet holds %.0f flows, the receivers produced %.0f",
                  "flow estimates", static_cast<double>(fleet_flows.size()), static_cast<double>(nonempty));
  }
  for (const auto& flow : fleet_flows) {
    const auto it = estimates.find(flow.key);
    if (it == estimates.end()) {
      return "flow estimates: the fleet holds " + flow.key.to_string() +
             " which no receiver estimated";
    }
    if (flow.packets != it->second.count()) {
      return format("flow estimates: %s counts %.0f estimates, the receivers %.0f",
                    flow.key.to_string(), static_cast<double>(flow.packets),
                    static_cast<double>(it->second.count()));
    }
    const double want = it->second.mean();
    if (std::fabs(flow.mean_ns - want) > 1e-9 * std::max(1.0, std::fabs(want))) {
      return format("flow estimates: %s mean %.12g, the receivers %.12g", flow.key.to_string(),
                    flow.mean_ns, want);
    }
  }
  return {};
}

std::string check_error_median(const rlir::rli::FlowStatsMap& truth,
                               const rlir::rli::FlowStatsMap& estimates, double bound,
                               double* median_out) {
  std::vector<double> errors;
  for (const auto& [key, true_stats] : truth) {
    const auto it = estimates.find(key);
    if (it == estimates.end() || it->second.count() == 0 || true_stats.mean() == 0.0) continue;
    errors.push_back(std::fabs(it->second.mean() - true_stats.mean()) /
                     std::fabs(true_stats.mean()));
  }
  if (errors.empty()) return "accuracy: no flow has both an estimate and ground truth";
  const std::size_t mid = (errors.size() - 1) / 2;
  std::nth_element(errors.begin(), errors.begin() + static_cast<std::ptrdiff_t>(mid),
                   errors.end());
  const double med = errors[mid];
  if (median_out != nullptr) *median_out = med;
  if (med < bound) return {};
  return format("%s: median per-flow mean relative error %.4g over %.0f flows is not "
                "under %.4g",
                "accuracy", med, static_cast<double>(errors.size()), bound);
}

}  // namespace pipebench
