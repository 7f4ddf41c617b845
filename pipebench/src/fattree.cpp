#include "fattree.h"

#include <algorithm>

#include "common.h"
#include "trace/synthetic.h"

namespace pipebench {

using rlir::timebase::Duration;
using rlir::timebase::TimePoint;

namespace {

constexpr int kFatTreeK = 4;
constexpr rlir::net::SenderId kCoreSenderBase = 10;
/// Offered load of each source ToR's trace.
constexpr double kOfferedBps = 2e9;

}  // namespace

FatTreeInputs make_fattree_inputs(std::uint64_t seed, Duration duration) {
  const rlir::topo::FatTree topo(kFatTreeK);
  const auto dst = topo.tor(3, 0);
  FatTreeInputs inputs;
  const std::int64_t t0 = now_ns();
  int index = 0;
  for (const auto src : {topo.tor(0, 0), topo.tor(0, 1)}) {
    rlir::trace::SyntheticConfig cfg;
    cfg.duration = duration;
    cfg.offered_bps = kOfferedBps;
    cfg.seed = seed * 2 + static_cast<std::uint64_t>(index);
    cfg.src_pool = topo.host_prefix(src);
    cfg.dst_pool = topo.host_prefix(dst);
    cfg.first_seq = static_cast<std::uint64_t>(index + 1) * 100'000'000ULL;
    auto packets = rlir::trace::SyntheticTraceGenerator(cfg).generate_all();
    inputs.packets.insert(inputs.packets.end(), packets.begin(), packets.end());
    ++index;
  }
  inputs.generate_ns = now_ns() - t0;
  return inputs;
}

FatTreeRound::FatTreeRound(const FatTreeInputs& inputs, const FatTreeRoundConfig& config,
                           std::vector<rlir::collect::EpochScheduler::BatchSink> sinks,
                           ArrivalCapture* capture)
    : topo_(kFatTreeK),
      sim_(&topo_, rlir::topo::FatTreeSimConfig{}, &hasher_),
      fleet_(rlir::collect::FleetConfig{}, &clock_),
      scheduler_([&] {
        rlir::collect::EpochSchedulerConfig cfg;
        cfg.period = kEpochPeriod;
        cfg.first_epoch = config.first_epoch;
        return cfg;
      }()) {
  const auto src_a = topo_.tor(0, 0);
  const auto src_b = topo_.tor(0, 1);
  const auto dst = topo_.tor(3, 0);
  const auto cores = topo_.cores();
  sim_.add_extra_delay(topo_.core(1), Duration::microseconds(40));

  rlir::rli::SenderConfig s1_cfg;
  s1_cfg.id = 1;
  s1_cfg.static_gap = 50;
  s1_ = std::make_unique<rlir::rlir::TorSenderAgent>(s1_cfg, &clock_, cores);
  sim_.add_agent(src_a, s1_.get());
  rlir::rli::SenderConfig s2_cfg = s1_cfg;
  s2_cfg.id = 2;
  s2_ = std::make_unique<rlir::rlir::TorSenderAgent>(s2_cfg, &clock_, cores);
  sim_.add_agent(src_b, s2_.get());

  up_demux_.add_origin(topo_.host_prefix(src_a), 1);
  up_demux_.add_origin(topo_.host_prefix(src_b), 2);

  auto reverse_ecmp = std::make_unique<rlir::rlir::ReverseEcmpDemux>(&topo_, &hasher_, dst);
  for (int c = 0; c < topo_.core_count(); ++c) {
    rlir::rli::SenderConfig cfg;
    cfg.id = static_cast<rlir::net::SenderId>(kCoreSenderBase + c);
    cfg.static_gap = 50;
    core_senders_.push_back(std::make_unique<rlir::rlir::CoreSenderAgent>(
        cfg, &clock_, std::vector<rlir::topo::NodeId>{dst}));
    sim_.add_agent(topo_.core(c), core_senders_.back().get());
    reverse_ecmp->set_sender_at_core(c, cfg.id);
  }
  if (config.demux == DestinationDemux::kReverseEcmp) {
    down_demux_ = std::move(reverse_ecmp);
  } else {
    // The paper's no-demux strawman: every packet interpolated against one
    // core's reference stream — the delayed core's, so the three quarters
    // of flows routed over the other cores are measured against the wrong
    // path.
    down_demux_ = std::make_unique<rlir::rlir::SingleSenderDemux>(kCoreSenderBase + 1);
  }

  for (auto& sink : sinks) fleet_.add_batch_sink(std::move(sink));
  for (const auto& core : cores) fleet_.deploy(sim_, core, &up_demux_);
  destination_link_ = fleet_.deploy(sim_, dst, down_demux_.get());

  for (const auto& core : cores) {
    truths_.push_back(std::make_unique<rlir::rlir::SegmentTruth>());
    sim_.add_arrival_tap(core, &truths_.back()->entry_tap());
    sim_.add_arrival_tap(dst, &truths_.back()->exit_tap());
  }
  if (capture != nullptr) sim_.add_arrival_tap(dst, capture);

  for (const auto& pkt : inputs.packets) sim_.inject_from_host(pkt);
  injected_ = inputs.packets.size();
  fleet_.attach_scheduler(scheduler_);
}

bool FatTreeRound::step() {
  if (done_) return false;
  if (sim_.events_pending()) {
    t_ += kEpochPeriod;
    const std::int64_t t0 = now_ns();
    sim_.run_until(t_);
    const std::int64_t t1 = now_ns();
    scheduler_.advance_to(t_);
    sim_ns_ += t1 - t0;
    advance_ns_ += now_ns() - t1;
    return true;
  }
  const std::int64_t t0 = now_ns();
  scheduler_.advance_to(std::max(t_, sim_.now()) + kEpochPeriod);
  advance_ns_ += now_ns() - t0;
  done_ = true;
  return true;
}

rlir::rli::FlowStatsMap FatTreeRound::downstream_truth() const {
  rlir::rli::FlowStatsMap all;
  for (const auto& truth : truths_) {
    for (const auto& [key, stats] : truth->per_flow()) all[key].merge(stats);
  }
  return all;
}

rlir::rli::FlowStatsMap FatTreeRound::downstream_estimates() const {
  return fleet_.receiver(destination_link_).merged_estimates();
}

std::pair<std::uint64_t, std::uint64_t> FatTreeRound::classification() const {
  std::uint64_t classified = 0;
  std::uint64_t unclassified = 0;
  for (std::size_t link = 0; link < fleet_.vantage_count(); ++link) {
    const auto& receiver = fleet_.receiver(static_cast<rlir::collect::LinkId>(link));
    classified += receiver.classified_packets();
    unclassified += receiver.unclassified_packets();
  }
  return {classified, unclassified};
}

}  // namespace pipebench
