// fattree_live: the paper's measurement path, live. Each round replays the
// set-up's synthetic trace through a fresh fat-tree simulation whose
// EpochScheduler ships many small epoch batches through
// PartitionedClient::make_sink over unix sockets to two agent threads,
// started afresh for the round so that every round does the same work. The
// main thread runs the simulation, the scheduler and the coordinator: after
// every simulation step it sends one freshness probe (per-agent stats
// against the records the client routed to each agent through each epoch),
// and after every epoch a short query mix (fleet, top_k, the quantile of a
// flow active in that epoch, a window over the last epochs). Reads
// interleave with writes.
#include <cstdio>
#include <random>
#include <unordered_map>

#include "checks.h"
#include "layers.h"
#include "transport/coordinator.h"
#include "transport/partitioned_client.h"
#include "workloads.h"

namespace pipebench {

namespace {

constexpr std::size_t kAgents = 2;
constexpr std::uint32_t kWindowEpochs = 8;
constexpr double kAlpha = 0.01;

/// What the scheduler has delivered so far, tallied from its batches: the
/// bounds the per-epoch answers are checked against.
struct Delivered {
  struct Flow {
    std::uint32_t first_epoch = 0;
    double min = 0.0, max = 0.0;
  };
  std::unordered_map<rlir::net::FiveTuple, Flow> flows;
  /// Records per epoch (all links) and estimates per (epoch << 32 | link).
  std::unordered_map<std::uint32_t, std::uint64_t> epoch_records;
  std::unordered_map<std::uint64_t, std::uint64_t> link_estimates;
  std::uint64_t estimates = 0;

  void add(std::uint32_t epoch, const std::vector<collect::EstimateRecord>& batch) {
    for (const auto& rec : batch) {
      const auto [it, inserted] = flows.try_emplace(
          rec.key, Flow{epoch, rec.sketch.min(), rec.sketch.max()});
      if (!inserted) {
        it->second.min = std::min(it->second.min, rec.sketch.min());
        it->second.max = std::max(it->second.max, rec.sketch.max());
      }
      link_estimates[static_cast<std::uint64_t>(epoch) << 32 | rec.link] += rec.sketch.count();
      estimates += rec.sketch.count();
    }
    epoch_records[epoch] += batch.size();
  }
  /// Over epochs [first, last]: records delivered on every link (what a
  /// window's coverage counts) and estimates delivered for `link`.
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> window(collect::LinkId link,
                                                               std::uint32_t first,
                                                               std::uint32_t last) const {
    std::pair<std::uint64_t, std::uint64_t> sum{0, 0};
    for (std::uint64_t e = first; e <= last; ++e) {
      const auto r = epoch_records.find(static_cast<std::uint32_t>(e));
      if (r != epoch_records.end()) sum.first += r->second;
      const auto x = link_estimates.find(e << 32 | link);
      if (x != link_estimates.end()) sum.second += x->second;
    }
    return sum;
  }
};

/// One answer of the per-epoch mix with what was known when it was asked.
struct LiveAnswer {
  Answer answer;
  /// Estimates the scheduler had delivered (an upper bound on what the
  /// agents hold) and those of the epochs the last probe showed ingested on
  /// every agent (a lower bound).
  std::uint64_t estimates_delivered = 0;
  std::uint64_t estimates_covered = 0;
  /// Epochs [0, covered_epochs) were ingested on every agent at the last
  /// probe; flows the agents held then.
  std::uint32_t covered_epochs = 0;
  std::uint64_t flows_probed = 0;
};

/// The per-epoch answers against the delivered tallies: the fleet count
/// lies between the covered and the delivered estimates and never shrinks;
/// top-k holds between min(k, flows probed) and k delivered flows, worst
/// first, each rank within the flow's delivered estimates; a flow whose
/// first epoch was ingested answers present, and a present answer lies
/// within the flow's estimates; a covered window counts no more records
/// than were delivered over its reported bounds, nor more estimates than
/// were delivered for its link.
void check_live_answers(const std::vector<LiveAnswer>& live, const Delivered& delivered,
                        Checker& check) {
  const auto within = [&](const std::string& what, const rlir::net::FiveTuple& key,
                          double value) {
    const auto it = delivered.flows.find(key);
    if (it == delivered.flows.end()) return what + ": a flow never delivered answered";
    const auto& f = it->second;
    if (value < f.min * (1 - kAlpha) - 1e-9 || value > f.max * (1 + kAlpha) + 1e-9) {
      return what + ": " + std::to_string(value) + " outside the flow's estimates [" +
             std::to_string(f.min) + ", " + std::to_string(f.max) + "]";
    }
    return std::string();
  };
  std::uint64_t last_fleet = 0;
  for (const auto& l : live) {
    const Answer& a = l.answer;
    if (a.kind == "fleet") {
      if (check.expect(a.count >= l.estimates_covered && a.count <= l.estimates_delivered
                           ? ""
                           : "live fleet count " + std::to_string(a.count) + " outside [" +
                                 std::to_string(l.estimates_covered) + ", " +
                                 std::to_string(l.estimates_delivered) + "]")) {
        check.expect(a.count >= last_fleet ? "" : "live fleet count shrank");
        last_fleet = a.count;
      }
    } else if (a.kind == "top_k") {
      const std::size_t want = std::min<std::uint64_t>(kTopK, l.flows_probed);
      if (!check.expect(a.top.size() >= want && a.top.size() <= kTopK
                            ? ""
                            : "live top_k holds " + std::to_string(a.top.size()) +
                                  " flows, want at least " + std::to_string(want))) {
        continue;
      }
      for (std::size_t i = 0; i < a.top.size(); ++i) {
        if (i > 0 && a.top[i].first > a.top[i - 1].first) {
          check.expect("live top_k not worst first");
          break;
        }
        if (!check.expect(within("live top_k rank", a.top[i].second.key, a.top[i].first))) break;
      }
    } else if (a.kind == "flow_quantile") {
      const auto it = delivered.flows.find(a.key);
      const bool ingested =
          it != delivered.flows.end() && it->second.first_epoch < l.covered_epochs;
      if (!a.present) {
        check.expect(ingested ? "live flow_quantile: an ingested flow answered absent" : "");
        continue;
      }
      check.expect(within("live flow_quantile", a.key, a.value));
    } else if (a.kind == "window_link" && a.window.covered) {
      const auto [records, estimates] = delivered.window(a.link, a.window.first, a.window.last);
      check.expect(a.window.first <= a.window.last ? "" : "live window bounds reversed");
      check.expect(a.window.records <= records
                       ? ""
                       : "live window_link counts " + std::to_string(a.window.records) +
                             " records, " + std::to_string(records) + " delivered");
      check.expect(a.count <= estimates
                       ? ""
                       : "live window_link counts " + std::to_string(a.count) +
                             " estimates, " + std::to_string(estimates) + " delivered");
    }
  }
}

/// One round's collection plane: two agents, the partitioned client that
/// feeds them and the coordinator that asks them.
struct Pipeline {
  std::vector<std::unique_ptr<AgentThread>> agents;
  std::unique_ptr<transport::PartitionedClient> client;
  std::unique_ptr<transport::QueryCoordinator> coord;

  /// Closes the connections, then stops the agents.
  void reset() {
    coord.reset();
    client.reset();
    agents.clear();
  }
};

}  // namespace

RunResult run_fattree_live(const Args& args, const FatTreeLiveOptions& options) {
  using rlir::timebase::Duration;
  RunResult res;
  Metrics& m = res.metrics;
  Tracer tracer(false);

  // --- Set-up: the two source ToRs' traces (repeated, the last kept) ------
  std::vector<double> setup_s;
  FatTreeInputs inputs;
  for (int rep = 0; rep < kFatTreeSetupReps; ++rep) {
    const double t0 = now_s();
    inputs = make_fattree_inputs(args.seed, Duration::milliseconds(300));
    setup_s.push_back(now_s() - t0);
  }

  SocketDir dir;
  IoTally reads;
  WireCapture capture(48u << 20);
  obs::SpanRecorder coord_spans(1u << 16);
  // A fresh collection plane per round: the agents' flow tables, rank
  // indexes and history start empty every round, so each round's figures
  // are samples of the same work whatever the number of rounds that fit.
  Pipeline pipe;
  const auto start_pipeline = [&](bool traced) {
    pipe.reset();
    for (std::size_t a = 0; a < kAgents; ++a) {
      pipe.agents.push_back(
          std::make_unique<AgentThread>(dir.next(), args.trace ? &reads : nullptr));
    }
    pipe.client = std::make_unique<transport::PartitionedClient>();
    // The first traced round's connection to agent 0 is captured for the
    // wire replay: one connection, so the replay sees one frame stream whose
    // epochs only move forward.
    const bool capture_round = traced && capture.bytes.empty();
    for (std::size_t a = 0; a < kAgents; ++a) {
      const auto& address = pipe.agents[a]->address();
      pipe.client->add_endpoint(capture_round && a == 0 ? capturing_dialer(address, &capture)
                                                        : dialer(address));
    }
    transport::QueryCoordinatorConfig qcfg;
    if (traced) qcfg.instruments.spans = &coord_spans;
    pipe.coord = std::make_unique<transport::QueryCoordinator>(qcfg);
    for (const auto& agent : pipe.agents) pipe.coord->add_agent(dialer(agent->address()));
  };

  // --- Timed phase: whole rounds until the time is up -----------------------
  // Per round (reset at its start): the epoch events, with each event's
  // epoch and the estimates delivered through it; the probe answers; what
  // was delivered; the per-epoch answers.
  std::vector<SubmitEvent> events;
  std::vector<std::uint32_t> event_epochs;
  std::vector<std::uint64_t> event_estimates;
  std::size_t covered = 0;  // events the last probe showed ingested everywhere
  std::uint64_t last_flows = 0, last_estimates = 0;
  Delivered delivered_tally;
  std::vector<LiveAnswer> live;
  std::vector<ProbeAnswer> probes;
  // Over the run: every query's latency and every epoch's freshness.
  std::vector<double> query_ms, fresh, fresh_ms;
  std::size_t uncovered = 0;
  // Per-round figures; the run reports their medians. Rates are over each
  // round's cpu time (simulation, agents, queries and drain); the
  // wall-clock rates and each round's query p99 go to stderr.
  std::vector<double> round_records_per_cpu_s, round_estimates_per_cpu_s;
  std::vector<double> round_records_per_s, round_query_p99;
  // Resident growth per flow held across the first round: later rounds
  // reuse pages the earlier ones freed, so only the first shows the cost.
  double first_bytes_per_flow = 0.0;
  rlir::rli::FlowStatsMap round_truth, round_estimates;
  std::vector<collect::FlowSummary> all_flows;
  Checker check;
  std::uint64_t epochs_fired = 0, rounds = 0, agent_failures = 0;
  std::uint64_t bytes_sent = 0, frames_sent = 0;
  std::uint64_t injected = 0, classified = 0, unclassified = 0;
  std::int64_t sim_ns = 0, advance_ns = 0, submit_ns = 0;
  std::uint64_t submitted_records = 0;
  std::uint32_t next_epoch = 0;
  bool traced_half = false;
  double t_traced = 0, untraced_epochs = 0, traced_epochs = 0;
  ArrivalCapture arrivals;
  std::vector<std::vector<collect::EstimateRecord>> sample_batches;
  std::mt19937_64 rng(args.seed * 104729 + 3);

  const auto probe = [&] {
    res.ops.probes_sent += 1;
    const auto per_agent = pipe.coord->per_agent_stats();
    ProbeAnswer answer{0.0, {}};
    std::uint64_t estimates_now = 0, flows_now = 0;
    for (const auto& s : per_agent) {
      if (!s.has_value()) {
        res.ops.probes_unanswered += 1;
        return;
      }
      answer.ingested.push_back(s->records_ingested);
      estimates_now += s->estimates_ingested;
      flows_now += s->flows;
    }
    last_estimates = estimates_now;
    last_flows = flows_now;
    // Advance past the epochs this answer shows ingested on every agent.
    for (; covered < events.size(); ++covered) {
      bool all = true;
      for (std::size_t a = 0; all && a < kAgents; ++a) {
        all = answer.ingested[a] >= events[covered].target[a];
      }
      if (!all) break;
    }
    answer.t = now_s();
    probes.push_back(std::move(answer));
  };
  const auto timed = [&](Answer a) {
    res.ops.queries_sent += 1;
    LiveAnswer l;
    l.estimates_delivered = delivered_tally.estimates;
    l.estimates_covered = covered == 0 ? 0 : event_estimates[covered - 1];
    l.covered_epochs = covered == 0 ? 0 : event_epochs[covered - 1] + 1;
    l.flows_probed = last_flows;
    const std::int64_t t0 = now_ns();
    ask(*pipe.coord, a);
    const std::int64_t t1 = now_ns();
    const double ms = static_cast<double>(t1 - t0) / 1e6;
    query_ms.push_back(ms);
    tracer.add("transport", obs::SpanKind::kCoordMerge, a.kind, t0, t1);
    l.answer = std::move(a);
    live.push_back(std::move(l));
  };

  const double t_start = now_s();
  double last_round_s = 0.0;
  while (rounds == 0 || now_s() - t_start < args.seconds || (args.trace && !traced_half)) {
    if (args.trace && !traced_half && rounds > 0 &&
        now_s() - t_start + last_round_s >= args.seconds) {
      // A traced run traces its last round only: the coordinator with the
      // span ring, the byte-stream timers and the benchmark's own spans.
      traced_half = true;
      t_traced = now_s();
      tracer.set_enabled(true);
      g_layer_timing.store(true);
    }
    start_pipeline(traced_half);
    events.clear();
    event_epochs.clear();
    event_estimates.clear();
    probes.clear();
    live.clear();
    delivered_tally = Delivered{};
    covered = 0;
    last_flows = last_estimates = 0;
    const std::size_t rss0 = rounds == 0 ? resident_bytes() : 0;
    // The record sinks: the deployed path (timed in the traced half), and
    // one that tallies what was delivered and remembers a flow and a link
    // of the newest batch for the per-epoch query mix.
    rlir::net::FiveTuple active_flow;
    collect::LinkId active_link = 0;
    std::vector<collect::EpochScheduler::BatchSink> sinks;
    if (traced_half) {
      sinks.push_back([&, deployed = pipe.client->make_sink()](
                          std::uint32_t epoch, const std::vector<collect::EstimateRecord>& b) {
        const std::int64_t t0 = now_ns();
        deployed(epoch, b);
        const std::int64_t t1 = now_ns();
        submit_ns += t1 - t0;
        submitted_records += b.size();
        tracer.add("transport", obs::SpanKind::kClientFlush, "submit", t0, t1);
      });
    } else {
      sinks.push_back(pipe.client->make_sink());
    }
    const bool keep_batches = traced_half && sample_batches.empty();
    sinks.push_back([&, keep_batches](std::uint32_t epoch,
                                      const std::vector<collect::EstimateRecord>& b) {
      delivered_tally.add(epoch, b);
      active_flow = b[rng() % b.size()].key;
      active_link = b.front().link;
      if (keep_batches) sample_batches.push_back(b);
    });
    FatTreeRoundConfig cfg;
    cfg.demux = options.demux;
    const double round_t0 = now_s();
    const double round_cpu0 = process_cpu_s();
    const std::size_t round_q0 = query_ms.size();
    std::uint64_t delivered = 0;
    {
      FatTreeRound round(inputs, cfg, std::move(sinks),
                         traced_half && arrivals.arrivals.empty() ? &arrivals : nullptr);
      std::uint64_t fired = 0;
      while (round.step()) {
        const std::uint64_t now_fired = round.scheduler().epochs_fired();
        const bool new_epoch = now_fired > fired;
        const std::uint32_t after = round.scheduler().next_epoch();
        for (; fired < now_fired; ++fired) {
          event_epochs.push_back(after - static_cast<std::uint32_t>(now_fired - fired));
          event_estimates.push_back(delivered_tally.estimates);
          SubmitEvent ev{now_s(), {}};
          for (std::size_t a = 0; a < kAgents; ++a) {
            ev.target.push_back(pipe.client->records_routed(a));
          }
          events.push_back(std::move(ev));
        }
        probe();
        if (!new_epoch) continue;
        const std::uint32_t epoch = round.scheduler().next_epoch() - 1;
        const std::uint32_t first = epoch >= kWindowEpochs - 1 ? epoch - (kWindowEpochs - 1) : 0;
        Answer fleet, top, flow, window;
        fleet.kind = "fleet";
        top.kind = "top_k";
        flow.kind = "flow_quantile";
        flow.key = active_flow;
        window.kind = "window_link";
        window.link = active_link;
        window.first = first;
        window.last = epoch;
        for (auto& a : {fleet, top, flow, window}) timed(a);
      }
      // End of round: the final drain delivers everything still coalescing.
      while (!pipe.client->drain(64)) std::this_thread::sleep_for(std::chrono::microseconds(100));
      for (int guard = 0; guard < 100000; ++guard) {
        probe();
        bool all = !probes.empty();
        for (std::size_t a = 0; all && a < kAgents; ++a) {
          all = probes.back().ingested[a] >= pipe.client->records_routed(a);
        }
        if (all) break;
      }
      const double round_s = now_s() - round_t0;
      last_round_s = round_s;
      const double round_cpu_s = process_cpu_s() - round_cpu0;
      delivered = round.scheduler().records_delivered();
      round_records_per_cpu_s.push_back(static_cast<double>(delivered) / round_cpu_s);
      round_estimates_per_cpu_s.push_back(static_cast<double>(last_estimates) / round_cpu_s);
      round_records_per_s.push_back(static_cast<double>(delivered) / round_s);
      round_query_p99.push_back(percentile(
          std::vector<double>(query_ms.begin() + static_cast<std::ptrdiff_t>(round_q0),
                              query_ms.end()),
          0.99));

      // The round's answers: conservation, every flow's estimates against
      // the receivers', and every per-epoch answer against the tallies.
      all_flows = pipe.coord->top_k_flows(1u << 24, 0.99);
      res.ops.queries_sent += 2;
      check.expect(check_flow_estimates(all_flows, round.fleet().unsharded_estimates()));
      if (rounds == 0) {
        round_truth = round.downstream_truth();
        round_estimates = round.downstream_estimates();
      }
      epochs_fired += round.scheduler().epochs_fired();
      (traced_half ? traced_epochs : untraced_epochs) += static_cast<double>(fired);
      injected += round.packets_injected();
      sim_ns += round.sim_ns();
      advance_ns += round.advance_ns();
      const auto [c, u] = round.classification();
      classified += c;
      unclassified += u;
      next_epoch = round.scheduler().next_epoch();
    }
    const auto stats = pipe.coord->fleet_stats();
    res.ops.records_not_ingested +=
        delivered > stats.records_ingested ? delivered - stats.records_ingested : 0;
    check.expect(check_count("records the scheduler delivered vs ingested",
                             stats.records_ingested, delivered));
    check_live_answers(live, delivered_tally, check);
    std::size_t missed = 0;
    const auto round_fresh = freshness_epochs(events, probes, 1.0, &missed);
    fresh.insert(fresh.end(), round_fresh.begin(), round_fresh.end());
    uncovered += missed;
    const auto round_fresh_ms = freshness_ms(events, probes, &missed);
    fresh_ms.insert(fresh_ms.end(), round_fresh_ms.begin(), round_fresh_ms.end());
    if (rounds == 0) {
      // The round's simulation is gone; what stays resident is the agents'.
      first_bytes_per_flow = (static_cast<double>(resident_bytes()) - static_cast<double>(rss0)) /
                             static_cast<double>(stats.flows);
    }
    for (std::size_t a = 0; a < kAgents; ++a) {
      const auto s = pipe.client->client(a).stats();
      res.ops.records_submitted += s.records_submitted;
      res.ops.records_shed += s.records_shed;
      res.ops.reconnects += s.reconnects;
      bytes_sent += s.bytes_sent;
      frames_sent += s.frames_sent;
    }
    agent_failures += pipe.coord->stats().agent_failures;
    rounds += 1;
    if (traced_half) break;
  }
  const double t_end = now_s();
  tracer.set_enabled(false);
  g_layer_timing.store(false);

  // --- Accounting and checks -----------------------------------------------
  check.expect(check_count("records shed", res.ops.records_shed, 0));
  double error_median = 0.0;
  check.expect(check_error_median(round_truth, round_estimates, kFatTreeErrorBound,
                                  &error_median));
  check.expect(check_count("epochs no probe covered", uncovered, 0));
  std::fprintf(stderr, "pipebench fattree_live: %llu rounds, %llu epochs, %zu flows, median "
               "downstream error %.4f\n",
               static_cast<unsigned long long>(rounds),
               static_cast<unsigned long long>(epochs_fired), all_flows.size(), error_median);
  std::fprintf(stderr,
               "pipebench fattree_live wall clock: %.0f records/s (median round); freshness "
               "p50 %.2f ms p95 %.2f ms; query p99 %.3f ms (median round)\n",
               median(round_records_per_s), percentile(fresh_ms, 0.5),
               percentile(fresh_ms, 0.95), median(round_query_p99));
  res.ops.queries_timed_out = agent_failures;
  res.ops.queries_wrong = check.wrong;
  res.errors = check.errors;

  if (!args.trace) {
    put(m, "setup_s", median(setup_s), "s");
    put(m, "ingest_records_per_cpu_s", median(round_records_per_cpu_s), "records/cpu-s");
    put(m, "estimated_packets_per_cpu_s", median(round_estimates_per_cpu_s), "packets/cpu-s");
    put(m, "wire_bytes_per_record",
        static_cast<double>(bytes_sent) / static_cast<double>(res.ops.records_submitted), "bytes");
    put(m, "resident_bytes_per_flow", first_bytes_per_flow, "bytes");
    put(m, "query_p50_ms", percentile(query_ms, 0.5), "ms");
    put(m, "freshness_p50_epochs", percentile(fresh, 0.5), "epochs");
    put(m, "freshness_p95_epochs", percentile(fresh, 0.95), "epochs");
    return res;
  }

  // --- Traced ledger (over the last round's collection plane) --------------
  tracer.set_enabled(true);
  fattree_ledger(inputs.generate_ns, inputs.packets.size(), sim_ns, injected, advance_ns,
                 epochs_fired, classified, unclassified, m);
  {
    // The destination vantage's arrivals, replayed through a fresh receiver
    // with the same demultiplexer and a fresh exporter.
    FatTreeRoundConfig cfg;
    cfg.demux = options.demux;
    const FatTreeRound shape(inputs, cfg, {});
    replay_vantage(arrivals, shape.destination_demux(), shape.clock(), tracer, m);
  }
  replay_encode(sample_batches, tracer, m);
  put(m, "transport.client.submit_ns_per_record",
      static_cast<double>(submit_ns) /
          static_cast<double>(std::max<std::uint64_t>(1, submitted_records)),
      "ns/record");
  // make_sink never waits for room: a full buffer sheds instead.
  put(m, "transport.client.backpressure_wait_ms", 0.0, "ms");
  put(m, "transport.client.epochs_per_frame",
      static_cast<double>(epochs_fired * kAgents) / static_cast<double>(frames_sent), "epochs");
  socket_ledger(capture.writes, reads, m);
  replay_wire(capture.bytes, tracer, m);
  pipe.client.reset();
  QueryTargets targets;
  for (std::size_t i = 0; i < all_flows.size() && i < 64; ++i) {
    targets.flows.push_back(all_flows[i].key);
  }
  for (collect::LinkId l = 0; l < 5; ++l) targets.links.push_back(l);
  targets.last_epoch = next_epoch - 1;
  targets.first_epoch = next_epoch > 64 ? next_epoch - 64 : 0;
  coordinator_kind_ledger(*pipe.coord, targets, 20, tracer, m);
  agent_failures += pipe.coord->stats().agent_failures;
  std::vector<obs::SpanRecorder*> agent_spans;
  for (auto& agent : pipe.agents) agent_spans.push_back(&agent->spans());
  span_ledger(coord_spans, agent_spans, m);
  stats_query_floor(pipe.agents[0]->address(), 200, m);
  put(m, "transport.client.records_shed", static_cast<double>(res.ops.records_shed), "count");
  put(m, "transport.client.reconnects", static_cast<double>(res.ops.reconnects), "count");
  put(m, "transport.coordinator.agent_failures", static_cast<double>(agent_failures), "count");
  put(m, "obs.tracing_overhead",
      ((t_end - t_traced) / std::max(1.0, traced_epochs)) /
          ((t_traced - t_start) / std::max(1.0, untraced_epochs)),
      "ratio");
  tracer.write_chrome_trace(".bench_build/pipebench-fattree_live-trace.json");
  return res;
}

}  // namespace pipebench
