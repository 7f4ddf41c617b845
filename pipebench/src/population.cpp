#include "population.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common.h"
#include "common/rng.h"
#include "trace/synthetic.h"

namespace pipebench {

using rlir::net::FiveTuple;
using rlir::net::Ipv4Address;

namespace {

/// Per-packet latency estimates: log-normal around 80 us, sigma 0.6, as
/// bench/collector_throughput.cpp draws them (the paper's loaded-queue
/// scale).
constexpr double kLatencyMedianNs = 80e3;
constexpr double kLatencySigma = 0.6;

}  // namespace

FiveTuple Population::unseen_key(std::uint64_t i) {
  FiveTuple key;
  // The trace draws destinations from 192.168.0.0/16 only.
  key.src = Ipv4Address(0x0a000000u + static_cast<std::uint32_t>(i & 0xffff));
  key.dst = Ipv4Address(172, 16, static_cast<std::uint8_t>(i >> 8), static_cast<std::uint8_t>(i));
  key.src_port = static_cast<std::uint16_t>(1024 + i % 60000);
  key.dst_port = 9;
  return key;
}

Population make_population(const PopulationConfig& config, std::uint64_t seed) {
  rlir::trace::SyntheticConfig tc;
  tc.duration = rlir::timebase::Duration(config.epoch_length.ns() *
                                         static_cast<std::int64_t>(config.epochs));
  tc.seed = seed;
  rlir::trace::SyntheticTraceGenerator gen(tc);
  rlir::common::Xoshiro256 latency_rng(seed * 0x9e3779b97f4a7c15ULL + 12345);

  Population pop;
  pop.config = config;
  pop.epoch_begin.push_back(0);
  std::unordered_map<FiveTuple, std::uint32_t> index;
  // One epoch's estimates as (flow * links + link, latency), grouped into
  // records when the epoch ends: records in order of flow index and link,
  // estimates in trace order.
  std::vector<std::pair<std::uint64_t, float>> pending;
  const auto close_epoch = [&](std::size_t epoch) {
    std::stable_sort(pending.begin(), pending.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    for (std::size_t i = 0; i < pending.size();) {
      const std::uint64_t slot = pending[i].first;
      RecordSpan rec;
      rec.flow = static_cast<std::uint32_t>(slot / config.links);
      rec.link = static_cast<std::uint32_t>(slot % config.links);
      rec.epoch = static_cast<std::uint32_t>(epoch);
      rec.offset = static_cast<std::uint32_t>(pop.latencies.size());
      for (; i < pending.size() && pending[i].first == slot; ++i) {
        pop.latencies.push_back(pending[i].second);
        ++rec.count;
      }
      pop.by_flow[rec.flow].push_back(static_cast<std::uint32_t>(pop.records.size()));
      pop.records.push_back(rec);
    }
    pending.clear();
    pop.epoch_begin.push_back(pop.records.size());
  };

  std::size_t epoch = 0;
  while (const auto pkt = gen.next()) {
    const auto e = std::min<std::size_t>(
        config.epochs - 1,
        static_cast<std::size_t>((pkt->ts - rlir::timebase::TimePoint::zero()).ns() /
                                 config.epoch_length.ns()));
    for (; epoch < e; ++epoch) close_epoch(epoch);
    const auto [it, inserted] =
        index.try_emplace(pkt->key, static_cast<std::uint32_t>(pop.keys.size()));
    if (inserted) {
      pop.keys.push_back(pkt->key);
      pop.by_flow.emplace_back();
    }
    for (std::uint32_t link = 0; link < config.links; ++link) {
      pending.emplace_back(
          static_cast<std::uint64_t>(it->second) * config.links + link,
          static_cast<float>(latency_rng.lognormal(std::log(kLatencyMedianNs), kLatencySigma)));
    }
  }
  for (; epoch < config.epochs; ++epoch) close_epoch(epoch);
  return pop;
}

std::vector<std::vector<collect::EstimateRecord>> export_epoch(
    const Population& pop, std::size_t epoch, std::uint32_t stamp, collect::LinkId link_override,
    const std::function<void(std::int64_t, std::uint64_t, std::int64_t, std::uint64_t)>& timing) {
  std::vector<collect::EstimateExporter> exporters;
  for (std::uint32_t l = 0; l < pop.config.links; ++l) {
    collect::ExporterConfig cfg;
    cfg.link = link_override != collect::kNoLink ? link_override : l;
    exporters.emplace_back(cfg);
  }
  const std::int64_t t0 = now_ns();
  std::uint64_t observed = 0;
  rlir::rli::RliReceiver::PacketEstimate est{};
  for (std::size_t r = pop.epoch_begin[epoch]; r < pop.epoch_begin[epoch + 1]; ++r) {
    const RecordSpan& rec = pop.records[r];
    est.key = pop.keys[rec.flow];
    for (std::uint32_t i = 0; i < rec.count; ++i) {
      est.arrival = rlir::timebase::TimePoint(static_cast<std::int64_t>(epoch) *
                                                   pop.config.epoch_length.ns() + i);
      est.estimate_ns = pop.latencies[rec.offset + i];
      exporters[rec.link].observe(1, est);
    }
    observed += rec.count;
  }
  const std::int64_t t1 = now_ns();
  std::vector<std::vector<collect::EstimateRecord>> batches;
  std::uint64_t drained = 0;
  for (auto& exporter : exporters) {
    auto batch = exporter.drain(stamp);
    drained += batch.size();
    if (!batch.empty()) batches.push_back(std::move(batch));
  }
  if (timing) timing(t1 - t0, observed, now_ns() - t1, drained);
  return batches;
}

ExactDistribution::ExactDistribution(std::vector<float> values, std::uint64_t multiplicity)
    : values_(std::move(values)), multiplicity_(multiplicity) {
  std::sort(values_.begin(), values_.end());
}

double ExactDistribution::quantile(double q) const {
  if (values_.empty()) return 0.0;
  const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(count() - 1));
  return values_[rank / multiplicity_];
}

std::vector<float> select_latencies(const Population& pop,
                                    const std::function<bool(const RecordSpan&)>& keep) {
  std::vector<float> out;
  for (const auto& rec : pop.records) {
    if (!keep(rec)) continue;
    out.insert(out.end(), pop.latencies.begin() + rec.offset,
               pop.latencies.begin() + rec.offset + rec.count);
  }
  return out;
}

std::vector<float> flow_latencies(const Population& pop, std::uint32_t flow,
                                  const std::function<bool(const RecordSpan&)>& keep) {
  std::vector<float> out;
  for (const std::uint32_t r : pop.by_flow[flow]) {
    const RecordSpan& rec = pop.records[r];
    if (keep && !keep(rec)) continue;
    out.insert(out.end(), pop.latencies.begin() + rec.offset,
               pop.latencies.begin() + rec.offset + rec.count);
  }
  return out;
}

}  // namespace pipebench
