// query_fleet: three agents, each on its own thread, are loaded in set-up
// through the record plane (a PartitionedClient spraying by flow hash) with
// enough epochs that every history store holds raw, mid and coarse
// segments. The loading client closes before the coordinator dials. The
// main thread's QueryCoordinator then runs a seeded mix of ten query kinds,
// one outstanding at a time, with no ingest during timing. Every answer is
// recorded and checked after the timed loop against exact values computed
// from the generated latencies.
#include <cstdio>
#include <random>
#include <tuple>

#include "checks.h"
#include "layers.h"
#include "population.h"
#include "transport/coordinator.h"
#include "transport/partitioned_client.h"
#include "workloads.h"

namespace pipebench {

namespace {

constexpr double kAlpha = 0.01;
constexpr std::size_t kAgents = 3;

PopulationConfig population_config() {
  PopulationConfig pc;
  pc.epochs = 256;
  pc.epoch_length = rlir::timebase::Duration::milliseconds(10);
  // The four switch-to-switch links of a path between pods of a k=4 fat
  // tree: every flow is seen at each.
  pc.links = 4;
  return pc;
}

/// One set-up: agents started and loaded through the record plane.
struct Loaded {
  std::vector<std::unique_ptr<AgentThread>> agents;
  /// Wall and process cpu time of the load (export, submit, ingest).
  double load_s = 0.0, load_cpu_s = 0.0;
  std::uint64_t records = 0, bytes = 0, frames = 0, batches = 0, shed = 0, reconnects = 0;
  std::vector<SubmitEvent> events;
  std::vector<ProbeAnswer> probes;
  std::uint64_t probes_sent = 0, probes_unanswered = 0;
  std::size_t rss_before = 0, rss_after = 0;
  std::int64_t observe_ns = 0, drain_ns = 0, submit_ns = 0, wait_ns = 0;
  std::uint64_t observed = 0, drained = 0, waits = 0;
  std::vector<std::vector<collect::EstimateRecord>> sample_batches;
};

void load(const Population& pop, SocketDir& dir, IoTally* reads, WireCapture* capture,
          Tracer& tracer, Loaded& out) {
  for (std::size_t a = 0; a < kAgents; ++a) {
    out.agents.push_back(std::make_unique<AgentThread>(dir.next(), reads));
  }
  out.rss_before = resident_bytes();
  transport::PartitionedClientConfig pcfg;
  transport::PartitionedClient loader(pcfg);
  for (std::size_t a = 0; a < kAgents; ++a) {
    const auto& addr = out.agents[a]->address();
    loader.add_endpoint(a == 0 && capture != nullptr ? capturing_dialer(addr, capture)
                                                     : dialer(addr));
  }
  const auto probe = [&] {
    ProbeAnswer answer;
    for (std::size_t a = 0; a < kAgents; ++a) {
      out.probes_sent += 1;
      transport::Query q;
      q.kind = transport::QueryKind::kStats;
      const auto reply = loader.client(a).query(q);
      if (!reply.has_value()) {
        out.probes_unanswered += 1;
        return;
      }
      answer.ingested.push_back(reply->stats.records_ingested);
    }
    answer.t = now_s();
    out.probes.push_back(std::move(answer));
  };
  const std::size_t room = pcfg.client.max_buffered_bytes - (1u << 20);
  const double t0 = now_s();
  const double cpu0 = process_cpu_s();
  for (std::size_t e = 0; e < pop.config.epochs; ++e) {
    auto batches = export_epoch(
        pop, e, static_cast<std::uint32_t>(e), collect::kNoLink,
        [&](std::int64_t ons, std::uint64_t n, std::int64_t dns, std::uint64_t r) {
          out.observe_ns += ons;
          out.observed += n;
          out.drain_ns += dns;
          out.drained += r;
        });
    for (const auto& batch : batches) {
      const std::int64_t w0 = now_ns();
      for (std::size_t a = 0; a < kAgents; ++a) {
        while (loader.client(a).buffered_bytes() > room) {
          if (loader.pump() == 0) std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
      }
      const std::int64_t s0 = now_ns();
      loader.submit(static_cast<std::uint32_t>(e), batch);
      const std::int64_t s1 = now_ns();
      loader.pump();
      out.wait_ns += s0 - w0;
      out.submit_ns += s1 - s0;
      out.waits += 1;
      tracer.add("transport", obs::SpanKind::kClientFlush, "submit", s0, s1);
    }
    SubmitEvent ev{now_s(), {}};
    for (std::size_t a = 0; a < kAgents; ++a) ev.target.push_back(loader.records_routed(a));
    out.events.push_back(std::move(ev));
    if (capture != nullptr && out.sample_batches.size() < 64) {
      for (auto& b : batches) out.sample_batches.push_back(std::move(b));
    }
    probe();
  }
  while (!loader.drain(64)) std::this_thread::sleep_for(std::chrono::microseconds(100));
  const auto routed_total = loader.stats().records_submitted;
  for (int guard = 0; guard < 100000; ++guard) {
    probe();
    std::uint64_t ingested = 0;
    if (!out.probes.empty()) {
      for (const auto n : out.probes.back().ingested) ingested += n;
    }
    if (ingested >= routed_total) break;
  }
  out.load_s = now_s() - t0;
  out.load_cpu_s = process_cpu_s() - cpu0;
  out.rss_after = resident_bytes();
  for (std::size_t a = 0; a < kAgents; ++a) {
    const auto s = loader.client(a).stats();
    out.records += s.records_submitted;
    out.bytes += s.bytes_sent;
    // The probes ride the same connections; count record frames only.
    out.frames += s.frames_sent - s.queries_sent;
    out.batches += s.batches_submitted;
    out.shed += s.records_shed;
    out.reconnects += s.reconnects;
  }
}

/// The exact values the recorded answers are checked against, computed
/// lazily and kept per selection.
class Oracle {
 public:
  explicit Oracle(const Population& pop) : pop_(pop) {}

  const ExactDistribution& window(std::uint32_t first, std::uint32_t last, int link) {
    auto& slot = windows_[{first, last, link}];
    if (!slot) {
      slot = std::make_unique<ExactDistribution>(
          select_latencies(pop_,
                           [&](const RecordSpan& r) {
                             return r.epoch >= first && r.epoch <= last &&
                                    (link < 0 || r.link == static_cast<std::uint32_t>(link));
                           }),
          1);
    }
    return *slot;
  }
  std::uint64_t window_records(std::uint32_t first, std::uint32_t last) const {
    const std::size_t hi = std::min<std::size_t>(last + 1, pop_.config.epochs);
    return first >= hi ? 0 : pop_.epoch_begin[hi] - pop_.epoch_begin[first];
  }
  const std::unordered_map<rlir::net::FiveTuple, double>& flow_p99() {
    if (flow_p99_.empty()) {
      for (std::uint32_t f = 0; f < pop_.keys.size(); ++f) {
        if (pop_.by_flow[f].empty()) continue;
        flow_p99_[pop_.keys[f]] = ExactDistribution(flow_latencies(pop_, f), 1).quantile(0.99);
      }
    }
    return flow_p99_;
  }

 private:
  const Population& pop_;
  std::map<std::tuple<std::uint32_t, std::uint32_t, int>, std::unique_ptr<ExactDistribution>>
      windows_;
  std::unordered_map<rlir::net::FiveTuple, double> flow_p99_;
};

void check_answers(const Population& pop, const std::vector<Answer>& answers, Checker& check) {
  Oracle oracle(pop);
  const auto last_epoch = static_cast<std::uint32_t>(pop.config.epochs - 1);
  const ExactDistribution& all = oracle.window(0, last_epoch, -1);
  std::size_t seen_flows = 0;
  for (const auto& f : pop.by_flow) seen_flows += f.empty() ? 0 : 1;
  for (const auto& a : answers) {
    const bool unseen = a.flow >= pop.keys.size() || pop.by_flow[a.flow].empty();
    if (a.kind == "fleet") {
      check.expect(check_count("fleet count", a.count, all.count()));
      check.expect(check_quantile("fleet p50", a.p50, all.quantile(0.5), kAlpha));
      check.expect(check_quantile("fleet p99", a.p99, all.quantile(0.99), kAlpha));
    } else if (a.kind == "top_k") {
      check.expect(check_top_k(a.top, kTopK, oracle.flow_p99(), kAlpha));
    } else if (a.kind == "flow_quantile" || a.kind == "flow_sketch") {
      if (unseen) {
        check.expect(a.present ? a.kind + ": an unseen flow answered present" : "");
        continue;
      }
      if (!check.expect(a.present ? "" : a.kind + ": a loaded flow answered absent")) continue;
      const ExactDistribution exact(flow_latencies(pop, a.flow), 1);
      if (a.kind == "flow_quantile") {
        check.expect(check_quantile("flow quantile", a.value, exact.quantile(a.q), kAlpha));
      } else {
        check.expect(check_count("flow sketch count", a.count, exact.count()));
        check.expect(check_quantile("flow sketch p99", a.p99, exact.quantile(0.99), kAlpha));
      }
    } else if (a.kind == "links") {
      check.expect(check_count("links", a.links.size(), pop.config.links));
      for (const auto& [link, count, p99] : a.links) {
        const auto& exact = oracle.window(0, last_epoch, static_cast<int>(link));
        check.expect(check_count("link count", count, exact.count()));
        check.expect(check_quantile("link p99", p99, exact.quantile(0.99), kAlpha));
      }
    } else if (a.kind == "stats") {
      check.expect(check_count("stats records", a.stats.records_ingested, pop.records.size()));
      check.expect(check_count("stats estimates", a.stats.estimates_ingested, pop.estimates()));
      check.expect(check_count("stats flows", a.stats.flows, seen_flows));
    } else if (a.kind == "metrics") {
      check.expect(check_count("scraped records", a.metric_records, pop.records.size()));
    } else {
      // Window kinds: exact over the bounds the reply reports as covered.
      if (!check.expect(a.window.covered ? "" : a.kind + ": window not covered")) continue;
      const std::uint32_t c0 = a.window.first;
      const std::uint32_t c1 = a.window.last;
      if (a.kind == "window_fleet") {
        check.expect(check_count("window records", a.window.records,
                                 oracle.window_records(c0, c1)));
        const auto& exact = oracle.window(c0, c1, -1);
        check.expect(check_count("window_fleet count", a.count, exact.count()));
        check.expect(check_quantile("window_fleet p99", a.p99, exact.quantile(0.99), kAlpha));
      } else if (a.kind == "window_link") {
        const auto& exact = oracle.window(c0, c1, static_cast<int>(a.link));
        check.expect(check_count("window_link count", a.present ? a.count : 0, exact.count()));
        if (a.present) {
          check.expect(check_quantile("window_link p99", a.p99, exact.quantile(0.99), kAlpha));
        }
      } else {
        const std::vector<float> values =
            unseen ? std::vector<float>{}
                   : flow_latencies(pop, a.flow, [&](const RecordSpan& r) {
                       return r.epoch >= c0 && r.epoch <= c1;
                     });
        if (values.empty()) {
          check.expect(a.present ? "window_flow_quantile: absent flow answered present" : "");
          continue;
        }
        if (!check.expect(a.present ? "" : "window_flow_quantile: present flow absent")) {
          continue;
        }
        const ExactDistribution exact(values, 1);
        check.expect(check_quantile("window_flow_quantile", a.value, exact.quantile(a.q),
                                    kAlpha));
      }
    }
  }
}

/// The window list over a 256-epoch load, whose history holds raw epochs
/// 192-255, mid segments over 64-191 and coarse segments below: windows
/// inside each tier and windows spanning all three. Fixed, so every seed
/// asks windows of the same shapes. A window reads at most 2 raw epochs
/// (~2,700 records): raw epochs are answered by decoding every record body
/// in them, memory-bound work whose stalls on a shared host would otherwise
/// set the mix's p99 (8 raw epochs put it at 15-27 ms, varying by a third
/// between blocks of one run).
std::vector<std::pair<std::uint32_t, std::uint32_t>> tier_windows() {
  return {{254, 255}, {246, 247}, {192, 193},  // raw
          {120, 127}, {96, 159},  {64, 191},   // mid
          {0, 63},    {16, 47},                // coarse
          {0, 193},   {40, 192},  {150, 193}}; // spanning
}

}  // namespace

RunResult run_query_fleet(const Args& args) {
  RunResult res;
  Metrics& m = res.metrics;
  Tracer tracer(false);
  SocketDir dir;
  IoTally reads;
  WireCapture capture(48u << 20);

  // --- Set-up: generate, export and load; repeated, the last kept ----------
  std::vector<double> setup_s, load_rate, estimate_rate, wire_bytes;
  // Per set-up: the p50 and p99 of its epochs' freshness.
  std::vector<double> fresh_p50, fresh_p95;
  Population pop;
  Loaded loaded;
  std::size_t first_rss_growth = 0;
  std::size_t uncovered = 0;
  for (int rep = 0; rep < kQueryFleetSetupReps; ++rep) {
    const bool last = rep + 1 == kQueryFleetSetupReps;
    if (args.trace && last) {
      tracer.set_enabled(true);
      g_layer_timing.store(true);
    }
    loaded = Loaded{};  // stops the previous set-up's agents
    const double t0 = now_s();
    pop = make_population(population_config(), args.seed);
    load(pop, dir, args.trace ? &reads : nullptr, args.trace && last ? &capture : nullptr,
         tracer, loaded);
    setup_s.push_back(now_s() - t0);
    load_rate.push_back(static_cast<double>(loaded.records) / loaded.load_cpu_s);
    estimate_rate.push_back(static_cast<double>(pop.estimates()) / loaded.load_cpu_s);
    wire_bytes.push_back(static_cast<double>(loaded.bytes) / static_cast<double>(loaded.records));
    std::size_t missed = 0;
    const auto rep_fresh = freshness_epochs(loaded.events, loaded.probes, 1.0, &missed);
    fresh_p50.push_back(percentile(rep_fresh, 0.5));
    fresh_p95.push_back(percentile(rep_fresh, 0.95));
    uncovered += missed;
    if (rep == 0) first_rss_growth = loaded.rss_after - std::min(loaded.rss_after,
                                                                 loaded.rss_before);
    tracer.set_enabled(false);
    g_layer_timing.store(false);
  }
  res.ops.records_submitted = loaded.records;
  res.ops.records_shed = loaded.shed;
  res.ops.reconnects = loaded.reconnects;
  res.ops.probes_sent = loaded.probes_sent;
  res.ops.probes_unanswered = loaded.probes_unanswered;

  // --- Timed phase: the seeded query mix -----------------------------------
  std::mt19937_64 rng(args.seed * 7919 + 17);
  const auto windows = tier_windows();
  std::vector<Answer> answers;
  std::vector<double> query_ms;
  std::map<std::string, std::vector<double>> kind_ms;
  obs::SpanRecorder coord_spans(1u << 16);
  std::uint64_t agent_failures = 0;
  double untraced_ms = 0, traced_ms = 0;
  std::uint64_t untraced_n = 0, traced_n = 0;

  const auto run_mix = [&](transport::QueryCoordinator& coord, double until, bool traced) {
    while (now_s() < until) {
      Answer a;
      a.kind = mix_kinds()[rng() % mix_kinds().size()];
      a.flow = static_cast<std::uint32_t>(rng() % (pop.keys.size() + pop.keys.size() / 10));
      a.key = a.flow < pop.keys.size() ? pop.keys[a.flow] : Population::unseen_key(a.flow);
      a.link = static_cast<std::uint32_t>(rng() % pop.config.links);
      a.q = rng() % 2 == 0 ? 0.99 : 0.5;
      const auto [w0, w1] = windows[rng() % windows.size()];
      a.first = w0;
      a.last = w1;
      const std::int64_t t0 = now_ns();
      ask(coord, a);
      const std::int64_t t1 = now_ns();
      const double ms = static_cast<double>(t1 - t0) / 1e6;
      query_ms.push_back(ms);
      kind_ms[a.kind].push_back(ms);
      (traced ? traced_ms : untraced_ms) += ms;
      (traced ? traced_n : untraced_n) += 1;
      tracer.add("transport", obs::SpanKind::kCoordMerge, a.kind, t0, t1);
      res.ops.queries_sent += 1;
      answers.push_back(std::move(a));
    }
    agent_failures += coord.stats().agent_failures;
  };

  const auto make_coordinator = [&](bool traced) {
    transport::QueryCoordinatorConfig qcfg;
    if (traced) qcfg.instruments.spans = &coord_spans;
    auto coord = std::make_unique<transport::QueryCoordinator>(qcfg);
    for (const auto& agent : loaded.agents) coord->add_agent(dialer(agent->address()));
    return coord;
  };
  const double t_start = now_s();
  if (!args.trace) {
    auto coord = make_coordinator(false);
    run_mix(*coord, t_start + args.seconds, false);
  } else {
    // First half untraced, second half traced (obs.tracing_overhead).
    {
      auto coord = make_coordinator(false);
      run_mix(*coord, t_start + args.seconds / 2, false);
    }
    kind_ms.clear();
    tracer.set_enabled(true);
    auto coord = make_coordinator(true);
    run_mix(*coord, t_start + args.seconds, true);
  }
  res.ops.queries_timed_out = agent_failures;

  // --- Checks ---------------------------------------------------------------
  Checker check;
  check.expect(check_count("records shed", loaded.shed, 0));
  check.expect(check_count("load epochs no probe covered", uncovered, 0));
  check_answers(pop, answers, check);
  res.ops.queries_wrong = check.wrong;
  res.errors = check.errors;

  if (!args.trace) {
    std::uint64_t flows = 0;
    for (const auto& f : pop.by_flow) flows += f.empty() ? 0 : 1;
    put(m, "setup_s", median(setup_s), "s");
    put(m, "ingest_records_per_cpu_s", median(load_rate), "records/cpu-s");
    put(m, "estimated_packets_per_cpu_s", median(estimate_rate), "packets/cpu-s");
    put(m, "wire_bytes_per_record", median(wire_bytes), "bytes");
    put(m, "resident_bytes_per_flow",
        static_cast<double>(first_rss_growth) / static_cast<double>(flows), "bytes");
    put(m, "query_p50_ms", percentile(query_ms, 0.5), "ms");
    // Freshness is the median over set-ups: a stall moves one set-up, not
    // the run's figure.
    put(m, "freshness_p50_epochs", median(fresh_p50), "epochs");
    put(m, "freshness_p95_epochs", median(fresh_p95), "epochs");
    std::fprintf(stderr, "pipebench query_fleet wall clock: query p99 %.3f ms\n",
                 percentile(query_ms, 0.99));
    return res;
  }

  // --- Traced ledger -------------------------------------------------------
  fattree_fixture(args.seed, tracer, m);
  put(m, "collect.exporter.observe_ns",
      static_cast<double>(loaded.observe_ns) / static_cast<double>(loaded.observed), "ns");
  put(m, "collect.exporter.drain_ns_per_record",
      static_cast<double>(loaded.drain_ns) / static_cast<double>(loaded.drained), "ns/record");
  replay_encode(loaded.sample_batches, tracer, m);
  put(m, "transport.client.submit_ns_per_record",
      static_cast<double>(loaded.submit_ns) / static_cast<double>(loaded.records), "ns/record");
  put(m, "transport.client.backpressure_wait_ms",
      static_cast<double>(loaded.wait_ns) / static_cast<double>(loaded.waits) / 1e6, "ms");
  put(m, "transport.client.epochs_per_frame",
      static_cast<double>(pop.config.epochs * kAgents) / static_cast<double>(loaded.frames),
      "epochs");
  socket_ledger(capture.writes, reads, m);
  replay_wire(capture.bytes, tracer, m);
  kind_p50s(kind_ms, m);
  std::vector<obs::SpanRecorder*> agent_spans;
  for (auto& agent : loaded.agents) agent_spans.push_back(&agent->spans());
  span_ledger(coord_spans, agent_spans, m);
  stats_query_floor(loaded.agents[0]->address(), 200, m);
  put(m, "transport.client.records_shed", static_cast<double>(loaded.shed), "count");
  put(m, "transport.client.reconnects", static_cast<double>(loaded.reconnects), "count");
  put(m, "transport.coordinator.agent_failures", static_cast<double>(agent_failures), "count");
  put(m, "obs.tracing_overhead",
      (traced_ms / static_cast<double>(std::max<std::uint64_t>(1, traced_n))) /
          (untraced_ms / static_cast<double>(std::max<std::uint64_t>(1, untraced_n))),
      "ratio");
  tracer.write_chrome_trace(".bench_build/pipebench-query_fleet-trace.json");
  return res;
}

}  // namespace pipebench
