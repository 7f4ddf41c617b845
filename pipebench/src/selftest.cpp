// The benchmark's own tests: each correctness check accepts the program's
// real answer and rejects a corrupted one.
//
//   * a quantile moved by three times the sketch's relative accuracy;
//   * one record dropped before ingest;
//   * a top-k answer whose worst flow was swapped for a milder one;
//   * fattree_live run with SingleSenderDemux, the paper's no-demux
//     strawman, which the accuracy check must reject.
//
// Exits 0 when every case behaves, 1 otherwise.
#include <cstdio>
#include <string>

#include "checks.h"
#include "collect/sharded_collector.h"
#include "common/latency_sketch.h"
#include "population.h"
#include "workloads.h"

namespace {

using namespace pipebench;

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

constexpr double kAlpha = 0.01;

void quantile_moved() {
  PopulationConfig pc;
  pc.epochs = 4;
  pc.epoch_length = rlir::timebase::Duration::milliseconds(5);
  const Population pop = make_population(pc, 7);
  rlir::common::LatencySketch sketch;
  for (const float v : pop.latencies) sketch.add(v);
  const ExactDistribution exact(pop.latencies, 1);
  for (const double q : {0.5, 0.99}) {
    const double got = sketch.quantile(q);
    const std::string label = "p" + std::to_string(static_cast<int>(q * 100));
    expect(check_quantile(label, got, exact.quantile(q), kAlpha).empty(),
           label + " of the sketch is accepted");
    expect(!check_quantile(label, got * (1 + 3 * kAlpha), exact.quantile(q), kAlpha).empty(),
           label + " moved up by 3x the relative accuracy is rejected");
    expect(!check_quantile(label, got * (1 - 3 * kAlpha), exact.quantile(q), kAlpha).empty(),
           label + " moved down by 3x the relative accuracy is rejected");
  }
}

void record_dropped() {
  PopulationConfig pc;
  pc.epochs = 3;
  pc.epoch_length = rlir::timebase::Duration::milliseconds(20);
  const Population pop = make_population(pc, 11);
  for (const bool drop : {false, true}) {
    rlir::collect::ShardedCollector collector(rlir::collect::CollectorConfig{});
    std::uint64_t records = 0;
    for (std::size_t e = 0; e < pop.config.epochs; ++e) {
      for (auto& batch : export_epoch(pop, e, static_cast<std::uint32_t>(e))) {
        if (drop && e == 1) batch.pop_back();
        collector.ingest(batch);
        records += batch.size();
      }
    }
    const bool accepted =
        check_count("records ingested", collector.records_ingested(), pop.records.size()).empty() &&
        check_count("fleet count", collector.fleet().count(), pop.estimates()).empty();
    expect(accepted == !drop, drop ? "one record dropped is rejected"
                                   : "every record ingested is accepted");
  }
}

void top_k_swapped() {
  PopulationConfig pc;
  pc.epochs = 2;
  pc.epoch_length = rlir::timebase::Duration::milliseconds(50);
  const Population pop = make_population(pc, 13);
  rlir::collect::ShardedCollector collector(rlir::collect::CollectorConfig{});
  for (std::size_t e = 0; e < pop.config.epochs; ++e) {
    for (const auto& batch : export_epoch(pop, e, static_cast<std::uint32_t>(e))) {
      collector.ingest(batch);
    }
  }
  std::unordered_map<rlir::net::FiveTuple, double> exact;
  for (std::uint32_t f = 0; f < pop.keys.size(); ++f) {
    if (pop.by_flow[f].empty()) continue;
    exact[pop.keys[f]] = ExactDistribution(flow_latencies(pop, f), 1).quantile(0.99);
  }
  auto top = collector.top_k_ranked(10, 0.99);
  expect(check_top_k(top, 10, exact, kAlpha).empty(), "the collector's top-10 is accepted");
  // Replace the worst flow by the 11th: the left-out worst flow must show.
  const auto deeper = collector.top_k_ranked(11, 0.99);
  top.erase(top.begin());
  top.push_back(deeper.back());
  expect(!check_top_k(top, 10, exact, kAlpha).empty(),
         "a top-10 missing the worst flow is rejected");
}

void fattree_strawman() {
  Args args;
  args.workload = "fattree_live";
  args.seed = 5;
  args.seconds = 1;
  FatTreeLiveOptions reverse;
  const RunResult good = run_fattree_live(args, reverse);
  expect(good.errors.empty(), "fattree_live with reverse-ECMP demux passes every check");
  FatTreeLiveOptions strawman;
  strawman.demux = DestinationDemux::kSingleSender;
  const RunResult bad = run_fattree_live(args, strawman);
  bool accuracy_failed = false;
  for (const auto& e : bad.errors) accuracy_failed |= e.rfind("accuracy", 0) == 0;
  expect(accuracy_failed, "fattree_live with SingleSenderDemux fails the accuracy check");
}

}  // namespace

int main() {
  quantile_moved();
  record_dropped();
  top_k_swapped();
  fattree_strawman();
  std::printf("%s\n", failures == 0 ? "selftest: all checks behave" : "selftest: FAILED");
  return failures == 0 ? 0 : 1;
}
