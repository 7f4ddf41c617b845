// ingest_fanin: two vantage producers replay one seeded, heavy-tailed flow
// population as two links, each through its own CollectorClient over a
// unix socket into one agent. Producers send whole epoch batches (tens of
// thousands of records), wait on a full stream instead of shedding, and
// together offer more than the agent absorbs — so the measured rate is the
// agent's capacity. A coordinator on the main thread probes the agent's
// counters for freshness while the producers run; answers are queried and
// checked only after the timed phase.
#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <random>

#include "checks.h"
#include "layers.h"
#include "population.h"
#include "transport/coordinator.h"
#include "workloads.h"

namespace pipebench {

namespace {

constexpr double kAlpha = 0.01;  // the default sketch's relative accuracy
constexpr std::uint64_t kLockstepSlack = 4;
/// How long a producer sleeps while its stream is full. The agent takes
/// ~25 ms to absorb one epoch batch, and a socket's buffer holds ~2 ms of
/// it, so a 200 µs nap keeps the agent fed without the producers spinning
/// on cpu the rates are measured against.
constexpr auto kProducerWait = std::chrono::microseconds(200);

PopulationConfig population_config() {
  PopulationConfig pc;
  pc.epochs = 8;
  pc.epoch_length = rlir::timebase::Duration::milliseconds(500);
  pc.links = 1;
  return pc;
}

/// Both producers' epoch batches, exported in set-up.
struct Inputs {
  Population pop;
  std::vector<std::vector<collect::EstimateRecord>> batches[2];
  std::int64_t observe_ns = 0, drain_ns = 0;
  std::uint64_t observed = 0, drained = 0;
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  in.pop = make_population(population_config(), seed);
  for (std::uint32_t p = 0; p < 2; ++p) {
    for (std::size_t e = 0; e < in.pop.config.epochs; ++e) {
      auto batches = export_epoch(
          in.pop, e, static_cast<std::uint32_t>(e), p,
          [&](std::int64_t ons, std::uint64_t n, std::int64_t dns, std::uint64_t r) {
            in.observe_ns += ons;
            in.observed += n;
            in.drain_ns += dns;
            in.drained += r;
          });
      in.batches[p].push_back(std::move(batches.at(0)));
    }
  }
  return in;
}

/// Decides, once per round and for both producers alike, whether to run
/// another round: the last producer to arrive reads the stop flag.
class RoundBarrier {
 public:
  bool arrive(const std::atomic<bool>& stop) {
    std::unique_lock<std::mutex> lock(mu_);
    const std::uint64_t gen = generation_;
    if (++arrived_ == 2) {
      go_on_ = !stop.load();
      arrived_ = 0;
      ++generation_;
      cv_.notify_all();
      return go_on_;
    }
    cv_.wait(lock, [&] { return generation_ != gen; });
    return go_on_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int arrived_ = 0;
  std::uint64_t generation_ = 0;
  bool go_on_ = true;
};

struct ProducerStats {
  std::vector<SubmitEvent> events;
  std::int64_t submit_ns = 0;
  std::int64_t wait_ns = 0;
  std::uint64_t batches = 0;
  std::uint64_t rounds = 0;
  /// Records submitted in the warm-up round, the untraced half and the
  /// traced half.
  std::uint64_t records_in_phase[3] = {0, 0, 0};
};

}  // namespace

RunResult run_ingest_fanin(const Args& args) {
  RunResult res;
  Metrics& m = res.metrics;
  Tracer tracer(false);

  // --- Set-up (repeated; the last inputs are kept) -------------------------
  std::vector<double> setup_s;
  Inputs in;
  for (int rep = 0; rep < kIngestSetupReps; ++rep) {
    const double t0 = now_s();
    in = make_inputs(args.seed);
    setup_s.push_back(now_s() - t0);
  }
  const Population& pop = in.pop;
  const std::size_t epochs = pop.config.epochs;
  std::vector<std::size_t> frame_bytes(epochs);
  for (std::size_t e = 0; e < epochs; ++e) {
    std::size_t bytes = transport::kFrameHeaderSize + 16;
    for (const auto& rec : in.batches[0][e]) bytes += collect::wire_size(rec);
    frame_bytes[e] = bytes;
  }

  SocketDir dir;
  IoTally reads;
  AgentThread agent(dir.next(), args.trace ? &reads : nullptr);
  WireCapture captures[2] = {WireCapture(48u << 20), WireCapture(0)};
  transport::CollectorClientConfig ccfg;
  std::unique_ptr<transport::CollectorClient> clients[2];
  for (int p = 0; p < 2; ++p) {
    clients[p] = std::make_unique<transport::CollectorClient>(
        ccfg, args.trace ? capturing_dialer(agent.address(), &captures[p])
                         : dialer(agent.address()));
  }
  transport::QueryCoordinator coord;
  coord.add_agent(dialer(agent.address()));

  // --- Timed phase ---------------------------------------------------------
  std::atomic<bool> stop{false};
  std::atomic<int> phase{0};  // 0 warm-up, 1 measured untraced, 2 measured traced
  std::atomic<std::uint64_t> total_submitted{0};
  std::atomic<std::uint64_t> epochs_done[2] = {0, 0};
  RoundBarrier barrier;
  ProducerStats pstats[2];
  const std::size_t rss0 = resident_bytes();
  const double t_start = now_s();

  const auto producer = [&](int p) {
    auto& client = *clients[p];
    auto& st = pstats[p];
    for (std::uint64_t round = 0;; ++round) {
      for (std::size_t e = 0; e < epochs; ++e) {
        while (epochs_done[p].load() > epochs_done[1 - p].load() + kLockstepSlack) {
          std::this_thread::sleep_for(kProducerWait);
        }
        auto& batch = in.batches[p][e];
        const auto stamp = static_cast<std::uint32_t>(round * epochs + e);
        for (auto& rec : batch) rec.epoch = stamp;
        const std::int64_t w0 = now_ns();
        while (client.buffered_bytes() + frame_bytes[e] > ccfg.max_buffered_bytes) {
          if (client.pump() == 0) std::this_thread::sleep_for(kProducerWait);
        }
        const std::int64_t s0 = now_ns();
        client.submit(stamp, batch);
        const std::int64_t s1 = now_ns();
        const std::uint64_t total = total_submitted.fetch_add(batch.size()) + batch.size();
        st.events.push_back(SubmitEvent{static_cast<double>(s1) / 1e9, {total}});
        client.pump();
        st.wait_ns += s0 - w0;
        st.submit_ns += s1 - s0;
        st.batches += 1;
        st.records_in_phase[phase.load()] += batch.size();
        tracer.add("transport", obs::SpanKind::kClientFlush, "submit", s0, s1);
        epochs_done[p].fetch_add(1);
      }
      st.rounds += 1;
      if (!barrier.arrive(stop)) break;
    }
    // Everything submitted goes on the wire before the producer leaves.
    while (client.buffered_bytes() > 0 || client.coalescing_records() > 0) {
      client.flush();
      if (client.pump() == 0) std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  };

  // A traced run measures its first half untraced and its second half
  // traced; obs.tracing_overhead compares the two.
  double t_warm = 0.0;  // the end of the warm-up round (flow table filled)
  double t_traced = 0.0;
  std::thread producers[2] = {std::thread(producer, 0), std::thread(producer, 1)};
  std::vector<ProbeAnswer> probes;
  // Per probe answer: the agent's ingested records and estimates, and the
  // process's cpu time when it arrived.
  std::vector<double> probe_t, probe_records, probe_estimates, probe_cpu;
  const auto probe = [&] {
    res.ops.probes_sent += 1;
    const auto per_agent = coord.per_agent_stats();
    if (!per_agent.at(0).has_value()) {
      res.ops.probes_unanswered += 1;
      return;
    }
    const double t = now_s();
    probes.push_back(ProbeAnswer{t, {per_agent[0]->records_ingested}});
    probe_t.push_back(t);
    probe_records.push_back(static_cast<double>(per_agent[0]->records_ingested));
    probe_estimates.push_back(static_cast<double>(per_agent[0]->estimates_ingested));
    probe_cpu.push_back(process_cpu_s());
  };
  // The first round fills the agent's flow table and is not measured.
  while (epochs_done[0].load() < epochs || epochs_done[1].load() < epochs) probe();
  t_warm = now_s();
  t_traced = t_warm;
  phase.store(1);
  while (now_s() - t_warm < args.seconds) {
    if (args.trace && phase.load() == 1 && now_s() - t_warm >= args.seconds / 2) {
      t_traced = now_s();
      tracer.set_enabled(true);
      g_layer_timing.store(true);
      phase.store(2);
    }
    probe();
  }
  const double t_stop = now_s();
  stop.store(true);
  for (auto& t : producers) t.join();
  const std::uint64_t submitted = total_submitted.load();
  // Wait for the agent to absorb everything (bounded by a stall guard).
  double t_end = now_s();
  while (probes.empty() || probes.back().ingested[0] < submitted) {
    probe();
    t_end = now_s();
    if (t_end - t_start > args.seconds + 60) break;
  }
  tracer.set_enabled(false);
  g_layer_timing.store(false);
  const std::size_t rss1 = resident_bytes();

  // --- Accounting and checks -----------------------------------------------
  Checker check;
  std::uint64_t rounds = pstats[0].rounds;
  check.expect(check_count("rounds of producer 1", pstats[1].rounds, rounds));
  const std::uint64_t multiplicity = 2 * rounds;
  std::uint64_t bytes_sent = 0, frames_sent = 0, batches_submitted = 0;
  for (auto& c : clients) {
    const auto s = c->stats();
    res.ops.records_submitted += s.records_submitted;
    res.ops.records_shed += s.records_shed;
    res.ops.reconnects += s.reconnects;
    bytes_sent += s.bytes_sent;
    frames_sent += s.frames_sent;
    batches_submitted += s.batches_submitted;
  }
  check.expect(check_count("records shed", res.ops.records_shed, 0));
  const auto stats = coord.fleet_stats();
  const std::uint64_t ingested = stats.records_ingested;
  res.ops.records_not_ingested = submitted > ingested ? submitted - ingested : 0;
  check.expect(check_count("records ingested", ingested, submitted));
  check.expect(check_count("estimates ingested", stats.estimates_ingested,
                           multiplicity * pop.estimates()));

  // Answers after the timed phase: the fleet distribution, a seeded sample
  // of flows, and single-epoch windows over the newest epochs. Their
  // latencies are this workload's query figures.
  std::vector<double> query_ms;
  const auto timed = [&](auto&& fn) {
    res.ops.queries_sent += 1;
    const double t0 = now_s();
    auto out = fn();
    query_ms.push_back((now_s() - t0) * 1e3);
    return out;
  };
  const ExactDistribution all(pop.latencies, multiplicity);
  const auto fleet = timed([&] { return coord.fleet(); });
  check.expect(check_count("fleet sketch count", fleet.count(), all.count()));
  check.expect(check_quantile("fleet p50", fleet.quantile(0.5), all.quantile(0.5), kAlpha));
  check.expect(check_quantile("fleet p99", fleet.quantile(0.99), all.quantile(0.99), kAlpha));

  std::mt19937_64 rng(args.seed ^ 0xf10f10);
  std::vector<rlir::net::FiveTuple> sample;
  for (int i = 0; i < 1000; ++i) {
    std::uint32_t f = static_cast<std::uint32_t>(rng() % pop.keys.size());
    while (pop.by_flow[f].empty()) f = (f + 1) % static_cast<std::uint32_t>(pop.keys.size());
    sample.push_back(pop.keys[f]);
    const auto got = timed([&] { return coord.flow_quantile(pop.keys[f], 0.99); });
    const ExactDistribution exact(flow_latencies(pop, f), multiplicity);
    if (!check.expect(got.has_value() ? "" : "flow p99: a loaded flow answered absent")) continue;
    check.expect(check_quantile("flow p99", *got, exact.quantile(0.99), kAlpha));
  }
  const auto last_epoch = static_cast<std::uint32_t>(rounds * epochs - 1);
  // 50 windows, 5% of the block: the p99 lands well inside the windows'
  // cost (decoding one raw epoch), not on the edge between them and the
  // flow queries' rare slow answers.
  for (int i = 0; i < 50; ++i) {
    const std::uint32_t e = last_epoch - static_cast<std::uint32_t>(i % 8);
    const auto w = timed([&] { return coord.window_fleet(e, e); });
    std::uint64_t want_records = 0, want_estimates = 0;
    for (std::uint32_t x = w.window.first; w.window.covered && x <= w.window.last; ++x) {
      const std::size_t base = x % epochs;
      want_records += 2 * (pop.epoch_begin[base + 1] - pop.epoch_begin[base]);
      for (std::size_t r = pop.epoch_begin[base]; r < pop.epoch_begin[base + 1]; ++r) {
        want_estimates += 2 * pop.records[r].count;
      }
    }
    check.expect(check_count("window covered", w.window.covered ? 1 : 0, 1));
    check.expect(check_count("window records", w.window.records, want_records));
    check.expect(check_count("window estimates", w.sketch ? w.sketch->count() : 0,
                             want_estimates));
  }
  res.ops.queries_wrong += check.wrong;
  const auto cstats = coord.stats();
  res.ops.queries_timed_out += cstats.agent_failures;

  std::size_t uncovered = 0;
  std::vector<SubmitEvent> events;
  for (const auto& st : pstats) {
    for (const auto& ev : st.events) {
      if (ev.t >= t_warm) events.push_back(ev);
    }
  }
  std::sort(events.begin(), events.end(),
            [](const SubmitEvent& a, const SubmitEvent& b) { return a.t < b.t; });
  // Probe times are steady-clock seconds like the events.
  // Both producers submit one batch per epoch.
  const auto fresh = freshness_epochs(events, probes, 2.0, &uncovered);
  check.expect(check_count("submissions no probe answer covered", uncovered, 0));
  res.errors = check.errors;
  const auto fresh_ms = freshness_ms(events, probes, &uncovered);
  // Rates are medians over one-second windows of the measured phase: per
  // cpu second of the whole process for the metrics, per second on stderr.
  const auto per_cpu_s = window_rates(probe_t, probe_records, probe_cpu, t_warm, t_stop, 1.0);
  const auto per_s = window_rates(probe_t, probe_records, probe_t, t_warm, t_stop, 1.0);
  std::fprintf(stderr,
               "pipebench ingest_fanin wall clock: %.0f records/s (%.2f cpus busy); freshness "
               "p50 %.2f ms p95 %.2f ms; query p99 %.3f ms\n",
               median(per_s), median(per_s) / median(per_cpu_s), percentile(fresh_ms, 0.5),
               percentile(fresh_ms, 0.95), percentile(query_ms, 0.99));

  if (!args.trace) {
    put(m, "setup_s", median(setup_s), "s");
    put(m, "ingest_records_per_cpu_s", median(per_cpu_s), "records/cpu-s");
    put(m, "estimated_packets_per_cpu_s",
        median(window_rates(probe_t, probe_estimates, probe_cpu, t_warm, t_stop, 1.0)),
        "packets/cpu-s");
    put(m, "wire_bytes_per_record",
        static_cast<double>(bytes_sent) / static_cast<double>(res.ops.records_submitted), "bytes");
    put(m, "resident_bytes_per_flow",
        (static_cast<double>(rss1) - static_cast<double>(rss0)) / static_cast<double>(stats.flows),
        "bytes");
    put(m, "query_p50_ms", percentile(query_ms, 0.5), "ms");
    put(m, "freshness_p50_epochs", percentile(fresh, 0.5), "epochs");
    put(m, "freshness_p95_epochs", percentile(fresh, 0.95), "epochs");
    return res;
  }

  // --- Traced ledger -------------------------------------------------------
  tracer.set_enabled(true);
  fattree_fixture(args.seed, tracer, m);
  put(m, "collect.exporter.observe_ns",
      static_cast<double>(in.observe_ns) / static_cast<double>(in.observed), "ns");
  put(m, "collect.exporter.drain_ns_per_record",
      static_cast<double>(in.drain_ns) / static_cast<double>(in.drained), "ns/record");
  replay_encode(in.batches[0], tracer, m);
  double submit_ns = 0, wait_ns = 0, batches = 0, traced_records = 0, untraced_records = 0;
  for (const auto& st : pstats) {
    submit_ns += static_cast<double>(st.submit_ns);
    wait_ns += static_cast<double>(st.wait_ns);
    batches += static_cast<double>(st.batches);
    untraced_records += static_cast<double>(st.records_in_phase[1]);
    traced_records += static_cast<double>(st.records_in_phase[2]);
  }
  put(m, "transport.client.submit_ns_per_record",
      submit_ns / static_cast<double>(res.ops.records_submitted), "ns/record");
  put(m, "transport.client.backpressure_wait_ms", wait_ns / batches / 1e6, "ms");
  put(m, "transport.client.epochs_per_frame",
      static_cast<double>(batches_submitted) / static_cast<double>(frames_sent), "epochs");
  // Wall time per record submitted, traced half over untraced half.
  const double untraced_s = t_traced - t_warm;
  socket_ledger(captures[0].writes, reads, m);
  replay_wire(captures[0].bytes, tracer, m);

  for (auto& c : clients) c.reset();
  obs::SpanRecorder coord_spans(1u << 16);
  {
    transport::QueryCoordinatorConfig qcfg;
    qcfg.instruments.spans = &coord_spans;
    transport::QueryCoordinator traced(qcfg);
    traced.add_agent(dialer(agent.address()));
    QueryTargets targets{sample, {0, 1}, last_epoch - 7, last_epoch};
    coordinator_kind_ledger(traced, targets, 20, tracer, m);
    put(m, "transport.coordinator.agent_failures",
        static_cast<double>(traced.stats().agent_failures + cstats.agent_failures), "count");
  }
  span_ledger(coord_spans, {&agent.spans()}, m);
  stats_query_floor(agent.address(), 200, m);
  put(m, "transport.client.records_shed", static_cast<double>(res.ops.records_shed), "count");
  put(m, "transport.client.reconnects", static_cast<double>(res.ops.reconnects), "count");
  put(m, "obs.tracing_overhead",
      (untraced_records / untraced_s) /
          (traced_records / std::max(1e-9, t_end - t_traced)),
      "ratio");
  tracer.write_chrome_trace(".bench_build/pipebench-ingest_fanin-trace.json");
  return res;
}

}  // namespace pipebench
