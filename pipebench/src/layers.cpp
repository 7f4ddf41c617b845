#include "layers.h"

#include <algorithm>
#include <span>

#include "collect/concurrent_collector.h"
#include "collect/exporter.h"
#include "collect/history.h"
#include "net/hash.h"
#include "rlir/receiver.h"
#include "transport/frame.h"
#include "transport/messages.h"

namespace pipebench {

namespace {

double per(double total, double units) { return units > 0 ? total / units : 0.0; }

}  // namespace

void put(Metrics& m, const std::string& name, double value, const std::string& unit) {
  m[name] = Metric{value, unit};
}

// --- Wire replay -----------------------------------------------------------

void replay_wire(const std::vector<std::uint8_t>& bytes, Tracer& tracer, Metrics& out) {
  const transport::CollectorAgentConfig agent_cfg = daemon_agent_config(nullptr);
  struct Pass {
    std::int64_t frame_ns = 0, decode_ns = 0, submit_ns = 0, seal_ns = 0;
    std::uint64_t records = 0, seals = 0;
    std::vector<double> cold_us, warm_us, window_us;
    double bytes_per_flow = 0, history_bytes = 0;
  };
  const auto run = [&](bool with_history) {
    Pass p;
    collect::ConcurrentShardedCollector collector(agent_cfg.collector);
    std::unique_ptr<collect::SketchHistoryStore> history;
    if (with_history) {
      collect::HistoryConfig hc = agent_cfg.history;
      hc.sketch = agent_cfg.collector.sketch;
      history = std::make_unique<collect::SketchHistoryStore>(hc);
      collector.set_history(history.get());
    }
    transport::FrameDecoder decoder;
    std::vector<collect::RecordView> views;
    bool have_epoch = false;
    std::uint32_t first_epoch = 0;
    std::uint32_t epoch = 0;
    collect::LinkId some_link = 0;
    const auto top_k_pair = [&] {
      std::int64_t t = now_ns();
      (void)collector.top_k_ranked(10, 0.99);
      const std::int64_t t1 = now_ns();
      (void)collector.top_k_ranked(10, 0.99);
      const std::int64_t t2 = now_ns();
      p.cold_us.push_back(static_cast<double>(t1 - t) / 1e3);
      p.warm_us.push_back(static_cast<double>(t2 - t1) / 1e3);
      tracer.add("collect", obs::SpanKind::kAgentAnswer, "top_k cold", t, t1);
      tracer.add("collect", obs::SpanKind::kAgentAnswer, "top_k warm", t1, t2);
    };
    for (std::size_t off = 0; off < bytes.size(); off += agent_cfg.io_chunk) {
      decoder.feed(bytes.data() + off, std::min(agent_cfg.io_chunk, bytes.size() - off));
      for (;;) {
        const std::int64_t f0 = now_ns();
        const auto frame = decoder.next_view();
        const std::int64_t f1 = now_ns();
        p.frame_ns += f1 - f0;
        if (!frame) break;
        tracer.add("transport", obs::SpanKind::kAgentDecode, "frame decode", f0, f1);
        if (frame->type != transport::FrameType::kRecordBatch) continue;
        const std::uint8_t* data = frame->payload;
        std::size_t remaining = frame->size;
        while (remaining > 0 && !transport::is_trace_trailer(data, remaining)) {
          views.clear();
          const std::int64_t d0 = now_ns();
          const std::size_t consumed = collect::decode_record_views_prefix(data, remaining, views);
          const std::int64_t d1 = now_ns();
          p.decode_ns += d1 - d0;
          tracer.add("collect", obs::SpanKind::kAgentDecode, "view decode", d0, d1);
          data += consumed;
          remaining -= consumed;
          if (views.empty()) continue;
          if (with_history && (!have_epoch || views.front().epoch > epoch)) {
            if (have_epoch) top_k_pair();
            const std::int64_t s0 = now_ns();
            history->note_epoch(views.front().epoch);
            const std::int64_t s1 = now_ns();
            p.seal_ns += s1 - s0;
            p.seals += 1;
            tracer.add("collect", obs::SpanKind::kEpochSeal, "history seal", s0, s1);
            if (!have_epoch) {
              first_epoch = views.front().epoch;
              some_link = views.front().link;
            }
            epoch = views.front().epoch;
            have_epoch = true;
          }
          const std::int64_t m0 = now_ns();
          collector.submit_views(views);
          const std::int64_t m1 = now_ns();
          p.submit_ns += m1 - m0;
          p.records += views.size();
          tracer.add("collect", obs::SpanKind::kAgentIngest,
                     with_history ? "merge + history tee" : "merge", m0, m1);
        }
      }
    }
    if (with_history && have_epoch) {
      top_k_pair();
      const std::uint32_t recent = epoch >= 7 ? epoch - 7 : 0;
      for (int rep = 0; rep < 3; ++rep) {
        for (int kind = 0; kind < 3; ++kind) {
          const std::int64_t w0 = now_ns();
          if (kind == 0) (void)history->window_fleet(first_epoch, epoch);
          if (kind == 1) (void)history->window_fleet(recent, epoch);
          if (kind == 2) (void)history->window_link(first_epoch, epoch, some_link);
          const std::int64_t w1 = now_ns();
          p.window_us.push_back(static_cast<double>(w1 - w0) / 1e3);
          tracer.add("collect", obs::SpanKind::kHistoryWindow, "window", w0, w1);
        }
      }
      p.history_bytes = static_cast<double>(history->approx_bytes());
    }
    if (!with_history) {
      const auto snap = collector.snapshot();
      p.bytes_per_flow = per(static_cast<double>(snap.approx_flow_bytes()),
                             static_cast<double>(snap.flow_count()));
    }
    return p;
  };
  const Pass plain = run(false);
  const Pass teed = run(true);
  const double records = static_cast<double>(plain.records);
  const double kb = static_cast<double>(bytes.size()) / 1024.0;
  put(out, "transport.frame.decode_ns_per_kb", per(static_cast<double>(plain.frame_ns), kb),
      "ns/KB");
  put(out, "collect.decode_ns_per_record", per(static_cast<double>(plain.decode_ns), records),
      "ns/record");
  put(out, "collect.merge_ns_per_record", per(static_cast<double>(plain.submit_ns), records),
      "ns/record");
  put(out, "collect.history_tee_ns_per_record",
      per(static_cast<double>(teed.submit_ns - plain.submit_ns), records), "ns/record");
  put(out, "collect.history_seal_us_per_epoch",
      per(static_cast<double>(teed.seal_ns) / 1e3, static_cast<double>(teed.seals)), "us");
  put(out, "collect.top_k_cold_us", median(teed.cold_us), "us");
  put(out, "collect.top_k_warm_us", median(teed.warm_us), "us");
  put(out, "collect.window_us", mean(teed.window_us), "us");
  put(out, "collect.bytes_per_flow", plain.bytes_per_flow, "bytes");
  put(out, "collect.history_bytes", teed.history_bytes, "bytes");
}

// --- Encode replay ---------------------------------------------------------

void replay_encode(const std::vector<std::vector<collect::EstimateRecord>>& batches,
                   Tracer& tracer, Metrics& out) {
  std::int64_t encode_ns = 0, frame_ns = 0, crc_ns = 0;
  double records = 0, kb = 0;
  std::uint32_t digest = 0;
  for (const auto& batch : batches) {
    const std::int64_t t0 = now_ns();
    const auto payload = collect::encode_records(batch);
    const std::int64_t t1 = now_ns();
    const auto frame = transport::encode_frame(transport::FrameType::kRecordBatch, payload);
    const std::int64_t t2 = now_ns();
    digest ^= rlir::net::crc32c(std::as_bytes(std::span(payload)));
    const std::int64_t t3 = now_ns();
    encode_ns += t1 - t0;
    frame_ns += t2 - t1;
    crc_ns += t3 - t2;
    records += static_cast<double>(batch.size());
    kb += static_cast<double>(frame.size()) / 1024.0;
    tracer.add("collect", obs::SpanKind::kClientFlush, "encode records", t0, t1);
    tracer.add("transport", obs::SpanKind::kClientFlush, "frame encode", t1, t2);
    tracer.add("net", obs::SpanKind::kClientFlush, "crc32c", t2, t3);
  }
  put(out, "collect.encode_ns_per_record", per(static_cast<double>(encode_ns), records),
      "ns/record");
  put(out, "transport.frame.encode_ns_per_kb", per(static_cast<double>(frame_ns), kb), "ns/KB");
  // crc32c is an out-of-line library call, so it runs although the digest
  // goes unused.
  static_cast<void>(digest);
  put(out, "net.crc32c_ns_per_kb", per(static_cast<double>(crc_ns), kb), "ns/KB");
}

// --- Vantage replay --------------------------------------------------------

void replay_vantage(const ArrivalCapture& capture, const rlir::rlir::Demultiplexer& demux,
                    const rlir::timebase::Clock* clock, Tracer& tracer, Metrics& out) {
  rlir::rlir::RlirReceiver receiver(rlir::rli::ReceiverConfig{}, clock, &demux);
  std::vector<std::pair<rlir::net::SenderId, rlir::rli::RliReceiver::PacketEstimate>> estimates;
  receiver.add_estimate_sink(
      [&](rlir::net::SenderId sender, const rlir::rli::RliReceiver::PacketEstimate& e) {
        estimates.emplace_back(sender, e);
      });
  const std::int64_t t0 = now_ns();
  for (const auto& [packet, arrival] : capture.arrivals) receiver.on_packet(packet, arrival);
  receiver.flush();
  const std::int64_t t1 = now_ns();
  collect::EstimateExporter exporter(collect::ExporterConfig{});
  for (const auto& [sender, e] : estimates) exporter.observe(sender, e);
  const std::int64_t t2 = now_ns();
  const auto records = exporter.drain(0);
  const std::int64_t t3 = now_ns();
  tracer.add("rlir", obs::SpanKind::kAgentIngest, "receiver replay", t0, t1);
  tracer.add("collect", obs::SpanKind::kAgentIngest, "exporter observe", t1, t2);
  tracer.add("collect", obs::SpanKind::kEpochSeal, "exporter drain", t2, t3);
  put(out, "rlir.receiver.ns_per_packet",
      per(static_cast<double>(t1 - t0), static_cast<double>(capture.arrivals.size())), "ns");
  put(out, "collect.exporter.observe_ns",
      per(static_cast<double>(t2 - t1), static_cast<double>(estimates.size())), "ns");
  put(out, "collect.exporter.drain_ns_per_record",
      per(static_cast<double>(t3 - t2), static_cast<double>(records.size())), "ns/record");
}

// --- Query ledger ----------------------------------------------------------

const std::vector<std::string>& mix_kinds() {
  static const std::vector<std::string> kinds = {
      "fleet",     "top_k",   "flow_quantile", "flow_sketch", "links",
      "stats",     "metrics", "window_fleet",  "window_link", "window_flow_quantile"};
  return kinds;
}

namespace {

void summarize(Answer& a, const std::optional<rlir::common::LatencySketch>& sketch) {
  a.present = sketch.has_value();
  if (!sketch) return;
  a.count = sketch->count();
  a.p50 = sketch->quantile(0.5);
  a.p99 = sketch->quantile(0.99);
}

}  // namespace

void ask(transport::QueryCoordinator& coord, Answer& a) {
  if (a.kind == "fleet") {
    summarize(a, coord.fleet());
  } else if (a.kind == "top_k") {
    a.top = coord.top_k_ranked(kTopK, 0.99);
  } else if (a.kind == "flow_quantile") {
    const auto v = coord.flow_quantile(a.key, a.q);
    a.present = v.has_value();
    a.value = v.value_or(0.0);
  } else if (a.kind == "flow_sketch") {
    summarize(a, coord.flow_sketch(a.key));
  } else if (a.kind == "links") {
    for (const auto& [link, sketch] : coord.link_distributions()) {
      a.links.emplace_back(link, sketch.count(), sketch.quantile(0.99));
    }
  } else if (a.kind == "stats") {
    a.stats = coord.fleet_stats();
  } else if (a.kind == "metrics") {
    for (const auto& s : coord.fleet_metrics().metrics.samples) {
      if (s.name == "rlir_agent_records_ingested_total") a.metric_records += s.counter;
    }
  } else if (a.kind == "window_fleet") {
    const auto w = coord.window_fleet(a.first, a.last);
    summarize(a, w.sketch);
    a.window = w.window;
  } else if (a.kind == "window_link") {
    const auto w = coord.window_link(a.link, a.first, a.last);
    summarize(a, w.sketch);
    a.window = w.window;
  } else {
    const auto v = coord.window_flow_quantile(a.key, a.q, a.first, a.last, &a.window);
    a.present = v.has_value();
    a.value = v.value_or(0.0);
  }
}

double timed_query(transport::QueryCoordinator& coord, const std::string& kind,
                   const QueryTargets& targets, std::uint64_t i) {
  Answer a;
  a.kind = kind;
  a.key = targets.flows[i % targets.flows.size()];
  a.link = targets.links[i % targets.links.size()];
  const std::uint32_t span = targets.last_epoch - targets.first_epoch;
  a.first = (i % 2 == 0) ? targets.first_epoch
                         : targets.last_epoch - std::min<std::uint32_t>(7, span);
  a.last = targets.last_epoch;
  const std::int64_t t0 = now_ns();
  ask(coord, a);
  return static_cast<double>(now_ns() - t0) / 1e6;
}

void coordinator_kind_ledger(transport::QueryCoordinator& coord, const QueryTargets& targets,
                             std::size_t per_kind, Tracer& tracer, Metrics& out) {
  std::map<std::string, std::vector<double>> kind_ms;
  for (std::size_t i = 0; i < per_kind; ++i) {
    for (const auto& kind : mix_kinds()) {
      const std::int64_t t0 = now_ns();
      kind_ms[kind].push_back(timed_query(coord, kind, targets, i));
      tracer.add("transport", obs::SpanKind::kCoordMerge, kind, t0, now_ns());
    }
  }
  kind_p50s(kind_ms, out);
}

void kind_p50s(const std::map<std::string, std::vector<double>>& kind_ms, Metrics& out) {
  for (const auto& kind : mix_kinds()) {
    const auto it = kind_ms.find(kind);
    put(out, "transport.coordinator." + kind + "_p50_ms",
        it == kind_ms.end() ? 0.0 : median(it->second), "ms");
  }
}

void span_ledger(const obs::SpanRecorder& coordinator,
                 const std::vector<obs::SpanRecorder*>& agents, Metrics& out) {
  const auto coord = coordinator.snapshot().spans;
  std::map<std::uint64_t, std::int64_t> leg_ns;
  for (const auto& s : coord) {
    if (s.kind == obs::SpanKind::kCoordLeg) leg_ns[s.parent_id] += s.duration_ns();
  }
  std::vector<double> self_us;
  for (const auto& s : coord) {
    if (s.kind != obs::SpanKind::kCoordMerge) continue;
    self_us.push_back(static_cast<double>(s.duration_ns() - leg_ns[s.span_id]) / 1e3);
  }
  std::vector<double> answer_us, scrape_us;
  for (const auto* recorder : agents) {
    for (const auto& s : recorder->snapshot().spans) {
      if (s.kind != obs::SpanKind::kAgentAnswer) continue;
      const double us = static_cast<double>(s.duration_ns()) / 1e3;
      answer_us.push_back(us);
      if (s.label == "metrics") scrape_us.push_back(us);
    }
  }
  put(out, "transport.coordinator.merge_us", median(self_us), "us");
  put(out, "transport.agent.answer_us", median(answer_us), "us");
  put(out, "obs.scrape_us", median(scrape_us), "us");
}

void stats_query_floor(const transport::SocketAddress& agent, std::size_t n, Metrics& out) {
  transport::CollectorClient client(transport::CollectorClientConfig{}, dialer(agent));
  transport::Query q;
  q.kind = transport::QueryKind::kStats;
  std::vector<double> ms;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t t0 = now_ns();
    if (client.query(q).has_value()) ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  }
  put(out, "transport.client.stats_query_p50_ms", median(ms), "ms");
}

void socket_ledger(const IoTally& writes, const IoTally& reads, Metrics& out) {
  put(out, "transport.socket.write_ns_per_kb",
      per(static_cast<double>(writes.ns.load()), static_cast<double>(writes.bytes.load()) / 1024),
      "ns/KB");
  put(out, "transport.socket.read_ns_per_kb",
      per(static_cast<double>(reads.ns.load()), static_cast<double>(reads.bytes.load()) / 1024),
      "ns/KB");
}

// --- Fat-tree layers -------------------------------------------------------

void fattree_ledger(std::int64_t generate_ns, std::size_t generated, std::int64_t sim_ns,
                    std::uint64_t injected, std::int64_t advance_ns, std::uint64_t epochs,
                    std::uint64_t classified, std::uint64_t unclassified, Metrics& out) {
  put(out, "trace.generate_ns_per_packet",
      per(static_cast<double>(generate_ns), static_cast<double>(generated)), "ns");
  put(out, "sim.run_ns_per_packet",
      per(static_cast<double>(sim_ns), static_cast<double>(injected)), "ns");
  put(out, "collect.scheduler_advance_us_per_epoch",
      per(static_cast<double>(advance_ns) / 1e3, static_cast<double>(epochs)), "us");
  put(out, "rlir.classified_fraction",
      per(static_cast<double>(classified), static_cast<double>(classified + unclassified)),
      "ratio");
}

void fattree_fixture(std::uint64_t seed, Tracer& tracer, Metrics& out) {
  const auto inputs =
      make_fattree_inputs(seed, rlir::timebase::Duration::milliseconds(40));
  ArrivalCapture capture;
  FatTreeRoundConfig cfg;
  FatTreeRound round(inputs, cfg, {}, &capture);
  while (round.step()) {
  }
  const auto [classified, unclassified] = round.classification();
  fattree_ledger(inputs.generate_ns, inputs.packets.size(), round.sim_ns(),
                 round.packets_injected(), round.advance_ns(), round.scheduler().epochs_fired(),
                 classified, unclassified, out);
  replay_vantage(capture, round.destination_demux(), round.clock(), tracer, out);
}

}  // namespace pipebench
