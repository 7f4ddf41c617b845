// pipebench: one command, three workloads, every end-to-end metric (or,
// with --trace 1, every per-layer metric) of the collection pipeline.
//
//   pipebench --workload ingest_fanin|query_fleet|fattree_live
//             --seed N --seconds S --trace 0|1
//
// Prints the run's operation accounting on stderr and, as the last line of
// stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Exits non-zero when any answer was wrong (after printing the result).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "workloads.h"

namespace {

using pipebench::Metrics;

const std::vector<std::string>& end_to_end_names() {
  static const std::vector<std::string> names = {
      "setup_s",          "ingest_records_per_cpu_s", "wire_bytes_per_record",
      "resident_bytes_per_flow", "query_p50_ms", "freshness_p50_epochs",
      "freshness_p95_epochs", "estimated_packets_per_cpu_s"};
  return names;
}

const std::vector<std::string>& per_layer_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n = {
        "collect.exporter.observe_ns",
        "collect.exporter.drain_ns_per_record",
        "collect.encode_ns_per_record",
        "collect.decode_ns_per_record",
        "collect.merge_ns_per_record",
        "collect.history_tee_ns_per_record",
        "collect.history_seal_us_per_epoch",
        "collect.scheduler_advance_us_per_epoch",
        "collect.bytes_per_flow",
        "collect.history_bytes",
        "collect.top_k_warm_us",
        "collect.top_k_cold_us",
        "collect.window_us",
        "transport.frame.encode_ns_per_kb",
        "transport.client.submit_ns_per_record",
        "transport.frame.decode_ns_per_kb",
        "transport.socket.write_ns_per_kb",
        "transport.socket.read_ns_per_kb",
        "transport.client.backpressure_wait_ms",
        "transport.client.epochs_per_frame",
        "transport.client.stats_query_p50_ms",
        "transport.coordinator.merge_us",
        "transport.agent.answer_us",
        "transport.client.records_shed",
        "transport.client.reconnects",
        "transport.coordinator.agent_failures",
        "net.crc32c_ns_per_kb",
        "obs.scrape_us",
        "obs.tracing_overhead",
        "trace.generate_ns_per_packet",
        "sim.run_ns_per_packet",
        "rlir.receiver.ns_per_packet",
        "rlir.classified_fraction"};
    for (const auto& kind : {"fleet", "top_k", "flow_quantile", "flow_sketch", "links", "stats",
                             "metrics", "window_fleet", "window_link", "window_flow_quantile"}) {
      n.push_back(std::string("transport.coordinator.") + kind + "_p50_ms");
    }
    return n;
  }();
  return names;
}

int usage() {
  std::fprintf(stderr,
               "usage: pipebench --workload ingest_fanin|query_fleet|fattree_live "
               "[--seed N] [--seconds S] [--trace 0|1]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pipebench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || !(args.seconds > 0)) return usage();

  pipebench::RunResult result;
  try {
    if (args.workload == "ingest_fanin") {
      result = pipebench::run_ingest_fanin(args);
    } else if (args.workload == "query_fleet") {
      result = pipebench::run_query_fleet(args);
    } else if (args.workload == "fattree_live") {
      result = pipebench::run_fattree_live(args);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipebench: %s\n", e.what());
    return 1;
  }

  const auto& ops = result.ops;
  std::fprintf(stderr,
               "pipebench %s seed %llu: records submitted %llu shed %llu not-ingested %llu | "
               "queries sent %llu timed-out %llu lost %llu wrong %llu | probes sent %llu "
               "unanswered %llu | reconnects %llu\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               static_cast<unsigned long long>(ops.records_submitted),
               static_cast<unsigned long long>(ops.records_shed),
               static_cast<unsigned long long>(ops.records_not_ingested),
               static_cast<unsigned long long>(ops.queries_sent),
               static_cast<unsigned long long>(ops.queries_timed_out),
               static_cast<unsigned long long>(ops.queries_lost),
               static_cast<unsigned long long>(ops.queries_wrong),
               static_cast<unsigned long long>(ops.probes_sent),
               static_cast<unsigned long long>(ops.probes_unanswered),
               static_cast<unsigned long long>(ops.reconnects));
  for (const auto& e : result.errors) std::fprintf(stderr, "pipebench: WRONG: %s\n", e.c_str());

  const auto& names = args.trace ? per_layer_names() : end_to_end_names();
  std::string json = "{\"correct\": ";
  json += result.errors.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ops.attempted());
  json += ", \"failed\": " + std::to_string(ops.failed());
  json += ", \"metrics\": {";
  bool complete = true;
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto it = result.metrics.find(names[i]);
    if (it == result.metrics.end() || !std::isfinite(it->second.value)) {
      std::fprintf(stderr, "pipebench: metric %s was not measured\n", names[i].c_str());
      complete = false;
      continue;
    }
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", names[i].c_str(), it->second.value,
                  it->second.unit.c_str());
    json += buf;
  }
  json += "}}";
  if (!complete) return 1;
  std::printf("%s\n", json.c_str());
  return result.errors.empty() ? 0 : 1;
}
