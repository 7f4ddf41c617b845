// The traced run's per-layer ledger.
//
// Some layers run where the benchmark holds the call (exporters, client
// submit, the coordinator's fan-out, the simulator step); those are timed
// live around the public call. Others run inside the agent's run loop or
// the simulator's taps; for those the traced run captures the layer's
// inputs and replays them through the same public functions on one thread:
//
//   * a client's wire bytes -> FrameDecoder -> decode_record_views_prefix ->
//     ConcurrentShardedCollector::submit_views, without and then with a
//     SketchHistoryStore attached (the difference is the history tee);
//   * exported record batches -> encode_records -> encode_frame, and
//     net::crc32c over the payloads;
//   * a vantage's arrival stream -> a fresh RlirReceiver -> a fresh
//     EstimateExporter.
//
// Every function here adds its metrics to a Metrics map under the names
// BENCHMARK.json lists, and its spans to the Tracer.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "collect/estimate_record.h"
#include "common.h"
#include "fattree.h"
#include "transport/coordinator.h"

namespace pipebench {

/// Adds a metric (value, unit) to `m`.
void put(Metrics& m, const std::string& name, double value, const std::string& unit);

/// Client wire bytes replayed through the agent's ingest layers.
void replay_wire(const std::vector<std::uint8_t>& bytes, Tracer& tracer, Metrics& out);

/// Record batches replayed through the encode layers.
void replay_encode(const std::vector<std::vector<collect::EstimateRecord>>& batches,
                   Tracer& tracer, Metrics& out);

/// A vantage's arrivals replayed through a fresh receiver (using `demux`)
/// and exporter: rlir.receiver.ns_per_packet, collect.exporter.observe_ns
/// and collect.exporter.drain_ns_per_record.
void replay_vantage(const ArrivalCapture& capture, const rlir::rlir::Demultiplexer& demux,
                    const rlir::timebase::Clock* clock, Tracer& tracer, Metrics& out);

/// What a workload knows about the state its agents hold, so the ledger's
/// query mix asks meaningful questions.
struct QueryTargets {
  std::vector<rlir::net::FiveTuple> flows;
  std::vector<collect::LinkId> links;
  std::uint32_t first_epoch = 0;
  std::uint32_t last_epoch = 0;
};

/// The ten query kinds of the query_fleet mix, in a fixed order.
[[nodiscard]] const std::vector<std::string>& mix_kinds();

/// The k of every top_k query (ranked at p99).
inline constexpr std::size_t kTopK = 10;

/// One query and its answer, reduced to what the checks read. The caller
/// fills the request fields; ask() fills the rest.
struct Answer {
  // Request.
  std::string kind;
  rlir::net::FiveTuple key;  // flow_quantile, flow_sketch, window_flow_quantile
  std::uint32_t flow = 0;    // the caller's index of `key`
  collect::LinkId link = 0;  // window_link
  std::uint32_t first = 0, last = 0;  // window kinds
  double q = 0.99;
  // Answer.
  bool present = false;
  double value = 0.0;
  std::uint64_t count = 0;
  double p50 = 0.0, p99 = 0.0;
  transport::WindowInfo window;
  std::vector<collect::RankedFlowSummary> top;
  std::vector<std::tuple<collect::LinkId, std::uint64_t, double>> links;
  transport::AgentStats stats;
  std::uint64_t metric_records = 0;
};

/// Sends `a`'s query of kind a.kind through the coordinator and records
/// the answer in `a`. Every workload issues its queries through here.
void ask(transport::QueryCoordinator& coord, Answer& a);

/// Sends one query of `kind` aimed at `targets` (the i-th pick of flow,
/// link and window) and returns its wall time in ms.
double timed_query(transport::QueryCoordinator& coord, const std::string& kind,
                   const QueryTargets& targets, std::uint64_t i);

/// Per-kind p50 over `per_kind` queries of each kind (adds
/// transport.coordinator.<kind>_p50_ms for every kind).
void coordinator_kind_ledger(transport::QueryCoordinator& coord, const QueryTargets& targets,
                             std::size_t per_kind, Tracer& tracer, Metrics& out);

/// Adds the per-kind p50s from latencies the workload already measured.
void kind_p50s(const std::map<std::string, std::vector<double>>& kind_ms, Metrics& out);

/// From the coordinator's span ring: the fan-out's self time
/// (transport.coordinator.merge_us); from the agents' rings: answer time
/// (transport.agent.answer_us) and the scrape answer (obs.scrape_us).
void span_ledger(const obs::SpanRecorder& coordinator,
                 const std::vector<obs::SpanRecorder*>& agents, Metrics& out);

/// Round-trip floor: one client, one agent, `n` kStats queries
/// (transport.client.stats_query_p50_ms).
void stats_query_floor(const transport::SocketAddress& agent, std::size_t n, Metrics& out);

/// Socket write/read times per KB from the tallies.
void socket_ledger(const IoTally& writes, const IoTally& reads, Metrics& out);

/// The fat-tree layers (trace generation, simulator step, receivers,
/// scheduler advance, classification) measured on one small in-process
/// round: what workloads that do not run the simulator report for them.
void fattree_fixture(std::uint64_t seed, Tracer& tracer, Metrics& out);

/// The fat-tree layer metrics from raw totals (trace.generate_ns_per_packet,
/// sim.run_ns_per_packet, collect.scheduler_advance_us_per_epoch,
/// rlir.classified_fraction).
void fattree_ledger(std::int64_t generate_ns, std::size_t generated, std::int64_t sim_ns,
                    std::uint64_t injected, std::int64_t advance_ns, std::uint64_t epochs,
                    std::uint64_t classified, std::uint64_t unclassified, Metrics& out);

}  // namespace pipebench
