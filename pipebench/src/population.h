// The seeded flow population behind ingest_fanin and query_fleet, and the
// exact order statistics the benchmark checks the program's sketched
// answers against.
//
// A population is the repository's synthetic packet trace
// (trace::SyntheticTraceGenerator: the stand-in for the paper's CAIDA
// trace, with its Pareto flow sizes and bursty arrivals) cut into epochs of
// trace time. Every packet crosses `links` vantages and gets one latency
// estimate at each, drawn log-normal around 80 us (sigma 0.6) as
// bench/collector_throughput.cpp draws them: the scale of the paper's
// loaded queues (83 us average at 93% utilization). A flow's estimates at
// one vantage within one epoch form one record, as that vantage's
// EstimateExporter would export them. Every latency is a float so the
// exact values the benchmark keeps are the values the program sees.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "collect/estimate_record.h"
#include "collect/exporter.h"
#include "net/flow_key.h"
#include "timebase/time.h"

namespace pipebench {

namespace collect = rlir::collect;

struct PopulationConfig {
  std::size_t epochs = 8;
  /// Trace time per epoch (the trace offers the generator's default load,
  /// the paper's regular trace: 2.2 Gb/s).
  rlir::timebase::Duration epoch_length = rlir::timebase::Duration::milliseconds(100);
  /// Vantages (links) every packet crosses, each with its own estimate.
  std::uint32_t links = 1;
};

/// One record of the population: a flow's estimates in one epoch at one
/// link, stored as latencies[offset, offset + count).
struct RecordSpan {
  std::uint32_t flow = 0;
  std::uint32_t link = 0;
  std::uint32_t epoch = 0;
  std::uint32_t offset = 0;
  std::uint32_t count = 0;
};

struct Population {
  PopulationConfig config;
  /// Flow keys in order of their first packet.
  std::vector<rlir::net::FiveTuple> keys;
  /// Ordered by epoch; epoch e's records are [epoch_begin[e], epoch_begin[e+1]).
  std::vector<RecordSpan> records;
  std::vector<std::size_t> epoch_begin;
  std::vector<float> latencies;
  /// Record indices of each flow, ascending.
  std::vector<std::vector<std::uint32_t>> by_flow;

  [[nodiscard]] std::size_t estimates() const { return latencies.size(); }
  /// A flow key no record carries (a destination outside the trace's pool).
  [[nodiscard]] static rlir::net::FiveTuple unseen_key(std::uint64_t i);
};

[[nodiscard]] Population make_population(const PopulationConfig& config, std::uint64_t seed);

/// Feeds epoch `epoch`'s estimates through one EstimateExporter per link and
/// drains them: the records a vantage would export for that epoch, stamped
/// `stamp` and with every link renumbered to `link_override` when it is not
/// collect::kNoLink. Returns one batch per link that had records.
[[nodiscard]] std::vector<std::vector<collect::EstimateRecord>> export_epoch(
    const Population& pop, std::size_t epoch, std::uint32_t stamp,
    collect::LinkId link_override = collect::kNoLink,
    const std::function<void(std::int64_t observe_ns, std::uint64_t estimates,
                             std::int64_t drain_ns, std::uint64_t records)>& timing = {});

// --- Exact order statistics ------------------------------------------------

/// The latencies of a selection, replicated `multiplicity` times, answer
/// order-statistic queries exactly: rank r of the replicated multiset is
/// sorted[r / multiplicity].
class ExactDistribution {
 public:
  ExactDistribution(std::vector<float> values, std::uint64_t multiplicity);

  [[nodiscard]] std::uint64_t count() const { return values_.size() * multiplicity_; }
  /// The 0-based order statistic floor(q * (count - 1)).
  [[nodiscard]] double quantile(double q) const;

 private:
  std::vector<float> values_;
  std::uint64_t multiplicity_ = 1;
};

/// Latencies of every record selected by `keep`.
[[nodiscard]] std::vector<float> select_latencies(
    const Population& pop, const std::function<bool(const RecordSpan&)>& keep);
/// Latencies of one flow's records selected by `keep` (all when empty).
[[nodiscard]] std::vector<float> flow_latencies(
    const Population& pop, std::uint32_t flow,
    const std::function<bool(const RecordSpan&)>& keep = {});

}  // namespace pipebench
