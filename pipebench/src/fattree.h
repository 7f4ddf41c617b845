// The paper's measurement path as the fleet tests build it
// (tests/fleet_workload.h): a k=4 fat tree, RLIR senders at two source ToRs
// and at every core, receivers at every core (prefix demux) and at the
// destination ToR (reverse-ECMP demux, or the single-stream strawman), extra
// delay on one core, and an EpochScheduler draining every vantage's
// exporter into whatever sinks the caller registers.
//
// One FatTreeRound replays one pre-generated trace through a fresh
// simulation. Ground truth for the downstream segment (every core -> the
// destination ToR) comes from rlir::SegmentTruth taps, so the destination
// receiver's per-flow estimates can be scored.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "collect/epoch_scheduler.h"
#include "collect/fleet.h"
#include "net/packet.h"
#include "rli/sender.h"
#include "rlir/demux.h"
#include "rlir/segment_truth.h"
#include "rlir/sender_agent.h"
#include "sim/tap.h"
#include "timebase/clock.h"
#include "topo/fattree_sim.h"

namespace pipebench {

struct FatTreeInputs {
  /// Both source ToRs' packets, in generation order.
  std::vector<rlir::net::Packet> packets;
  std::int64_t generate_ns = 0;
};

/// Generates the two source ToRs' synthetic traces (seeded) for `duration`
/// of simulated time at 2 Gb/s each.
[[nodiscard]] FatTreeInputs make_fattree_inputs(std::uint64_t seed,
                                                rlir::timebase::Duration duration);

enum class DestinationDemux { kReverseEcmp, kSingleSender };

/// Epochs last 1 ms of simulated time and the simulation advances one
/// epoch per step, so every step ends on an epoch boundary.
inline constexpr rlir::timebase::Duration kEpochPeriod = rlir::timebase::Duration::milliseconds(1);

struct FatTreeRoundConfig {
  DestinationDemux demux = DestinationDemux::kReverseEcmp;
  std::uint32_t first_epoch = 0;
};

/// Records what arrives at one node (the traced run replays it through a
/// fresh receiver and exporter).
class ArrivalCapture final : public rlir::sim::PacketTap {
 public:
  void on_packet(const rlir::net::Packet& packet, rlir::timebase::TimePoint arrival) override {
    arrivals.emplace_back(packet, arrival);
  }
  std::vector<std::pair<rlir::net::Packet, rlir::timebase::TimePoint>> arrivals;
};

class FatTreeRound {
 public:
  /// Builds the topology, deploys senders, receivers and truth taps, and
  /// injects the inputs. `sinks` receive every drained batch (none = the
  /// FleetCollector's own in-process collector). `capture` (nullable) is
  /// installed at the destination ToR.
  FatTreeRound(const FatTreeInputs& inputs, const FatTreeRoundConfig& config,
               std::vector<rlir::collect::EpochScheduler::BatchSink> sinks,
               ArrivalCapture* capture = nullptr);
  FatTreeRound(const FatTreeRound&) = delete;
  FatTreeRound& operator=(const FatTreeRound&) = delete;

  /// Runs the simulation one step and advances the scheduler to the new
  /// time; after the last event, fires the final epoch. Returns false once
  /// the round has ended (nothing was done).
  bool step();

  [[nodiscard]] rlir::collect::EpochScheduler& scheduler() { return scheduler_; }
  [[nodiscard]] rlir::collect::FleetCollector& fleet() { return fleet_; }
  [[nodiscard]] const rlir::rlir::Demultiplexer& destination_demux() const { return *down_demux_; }
  [[nodiscard]] const rlir::timebase::Clock* clock() const { return &clock_; }

  /// Ground truth of the downstream segment (merged over the cores).
  [[nodiscard]] rlir::rli::FlowStatsMap downstream_truth() const;
  /// The destination receiver's per-flow estimates.
  [[nodiscard]] rlir::rli::FlowStatsMap downstream_estimates() const;
  /// Classified and unclassified packets summed over every vantage.
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> classification() const;

  [[nodiscard]] std::uint64_t packets_injected() const { return injected_; }
  /// Wall time spent in sim.run_until and in scheduler.advance_to, and the
  /// epochs the scheduler fired.
  [[nodiscard]] std::int64_t sim_ns() const { return sim_ns_; }
  [[nodiscard]] std::int64_t advance_ns() const { return advance_ns_; }

 private:
  rlir::topo::FatTree topo_;
  rlir::topo::Crc32EcmpHasher hasher_;
  rlir::timebase::PerfectClock clock_;
  rlir::topo::FatTreeSim sim_;
  std::unique_ptr<rlir::rlir::TorSenderAgent> s1_;
  std::unique_ptr<rlir::rlir::TorSenderAgent> s2_;
  std::vector<std::unique_ptr<rlir::rlir::CoreSenderAgent>> core_senders_;
  rlir::rlir::PrefixDemux up_demux_;
  std::unique_ptr<rlir::rlir::Demultiplexer> down_demux_;
  std::vector<std::unique_ptr<rlir::rlir::SegmentTruth>> truths_;
  rlir::collect::FleetCollector fleet_;
  rlir::collect::LinkId destination_link_ = 0;
  rlir::collect::EpochScheduler scheduler_;
  rlir::timebase::TimePoint t_;
  std::uint64_t injected_ = 0;
  std::int64_t sim_ns_ = 0;
  std::int64_t advance_ns_ = 0;
  bool done_ = false;
};

}  // namespace pipebench
