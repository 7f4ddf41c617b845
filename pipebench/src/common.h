// Shared harness of the pipeline benchmark: command-line arguments, metric
// and operation accounting, sample statistics, the agent thread every
// workload runs (configured the way examples/collector_daemon configures
// its agent), socket paths inside the checkout, and the benchmark-side
// tracing (spans recorded around calls into each layer, plus byte-stream
// wrappers that time and capture what crosses the socket).
#pragma once

#include <time.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/span.h"
#include "transport/agent.h"
#include "transport/byte_stream.h"
#include "transport/client.h"
#include "transport/socket.h"

namespace pipebench {

namespace transport = rlir::transport;
namespace collect = rlir::collect;
namespace obs = rlir::obs;

// --- Time ------------------------------------------------------------------

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
[[nodiscard]] inline double now_s() { return static_cast<double>(now_ns()) / 1e9; }
/// CPU time of the whole process, every thread included, in seconds. The
/// kernel leaves out the time the host stole from the virtual machine's
/// cpus (paravirtual steal accounting), so rates per cpu second read the
/// program's cost, not the host's load.
[[nodiscard]] inline double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

// --- Arguments and results -------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};
/// Ordered by name so the printed object is stable run to run.
using Metrics = std::map<std::string, Metric>;

/// What a run attempted and what failed, printed with every result.
struct Ops {
  std::uint64_t records_submitted = 0;
  std::uint64_t records_shed = 0;
  std::uint64_t records_not_ingested = 0;
  std::uint64_t queries_sent = 0;
  std::uint64_t queries_timed_out = 0;
  std::uint64_t queries_lost = 0;
  std::uint64_t queries_wrong = 0;
  std::uint64_t probes_sent = 0;
  std::uint64_t probes_unanswered = 0;
  std::uint64_t reconnects = 0;

  [[nodiscard]] std::uint64_t attempted() const {
    return records_submitted + queries_sent + probes_sent;
  }
  [[nodiscard]] std::uint64_t failed() const {
    return records_shed + records_not_ingested + queries_timed_out + queries_lost +
           queries_wrong + probes_unanswered;
  }
};

struct RunResult {
  Metrics metrics;
  Ops ops;
  /// One line per failed correctness check; empty = every answer checked out.
  std::vector<std::string> errors;
};

// --- Sample statistics -----------------------------------------------------

/// The q-quantile of the samples by nearest rank (0-based floor(q*(n-1))),
/// the same order statistic the latency sketch targets. 0 for no samples.
[[nodiscard]] double percentile(std::vector<double> samples, double q);
[[nodiscard]] inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}
[[nodiscard]] double mean(const std::vector<double>& samples);

/// Resident set size of this process, from /proc/self/statm, read after
/// malloc_trim so that heap pages already freed (a finished round's
/// simulator, say) do not count.
[[nodiscard]] std::size_t resident_bytes();

// --- Sockets inside the checkout -------------------------------------------

/// A private directory for the run's unix sockets, relative to the working
/// directory (the checkout), removed with everything in it on destruction.
class SocketDir {
 public:
  SocketDir();
  ~SocketDir();
  SocketDir(const SocketDir&) = delete;
  SocketDir& operator=(const SocketDir&) = delete;

  /// A fresh socket address in the directory.
  [[nodiscard]] transport::SocketAddress next();

 private:
  std::string dir_;
  int counter_ = 0;
};

/// A stream factory that dials `address` (nullptr when refused, which the
/// client's backoff retries).
[[nodiscard]] transport::CollectorClient::StreamFactory dialer(transport::SocketAddress address);

// --- Freshness -------------------------------------------------------------

/// An epoch (or batch) leaving the benchmark's hands: when, and how many
/// records each agent must have ingested before the answer covers it.
struct SubmitEvent {
  double t = 0.0;
  std::vector<std::uint64_t> target;
};
/// A probe answer: when it arrived and what each agent had ingested.
struct ProbeAnswer {
  double t = 0.0;
  std::vector<std::uint64_t> ingested;
};
/// For every event, the time from the event to the first probe answer (at
/// or after it) in which every agent's ingested count reaches its target,
/// in ms. Probe answers must be in arrival order (their counts never
/// decrease). Events no answer covers are counted in `uncovered`.
[[nodiscard]] std::vector<double> freshness_ms(const std::vector<SubmitEvent>& events,
                                               const std::vector<ProbeAnswer>& probes,
                                               std::size_t* uncovered);

/// For every event, how many epochs the pipeline moved on before the first
/// probe answer that covers it (as above): the answer's arrival placed on
/// the events' own timeline — between the events around it, or past the
/// last at the mean gap — less the event's place, over `events_per_epoch`.
/// Events must be in time order. Measured in the pipeline's own epochs, a
/// freshness does not scale with how fast the host runs the benchmark.
[[nodiscard]] std::vector<double> freshness_epochs(const std::vector<SubmitEvent>& events,
                                                   const std::vector<ProbeAnswer>& probes,
                                                   double events_per_epoch,
                                                   std::size_t* uncovered);

/// Rates of a never-decreasing counter per unit of a never-decreasing cost
/// (cpu seconds, say), both sampled at times `t`: one rate per window
/// [from + k*width, from + (k+1)*width) that ends by `to`, taken between
/// the last samples at or before each window edge. Reporting the median of
/// these keeps one slow second from moving a run's figure.
[[nodiscard]] std::vector<double> window_rates(const std::vector<double>& t,
                                               const std::vector<double>& count,
                                               const std::vector<double>& cost, double from,
                                               double to, double width);

// --- Benchmark-side tracing ------------------------------------------------

/// Gates the byte-stream timers and captures (the traced run switches them
/// on for its traced half only).
inline std::atomic<bool> g_layer_timing{false};

/// Counts of bytes moved through a timed stream and the time spent doing it.
struct IoTally {
  std::atomic<std::int64_t> ns{0};
  std::atomic<std::uint64_t> bytes{0};
};

/// What a client wrote on one connection, kept for replay (bounded).
struct WireCapture {
  explicit WireCapture(std::size_t cap) : cap_bytes(cap) {}
  std::size_t cap_bytes;
  std::vector<std::uint8_t> bytes;
  IoTally writes;
};

/// Wraps a client's stream: keeps the first cap_bytes of what was written
/// (from the connection's first byte, so the capture starts on a frame
/// boundary) and, while g_layer_timing is on, times every write that moved
/// bytes.
class CapturingStream final : public transport::ByteStream {
 public:
  CapturingStream(std::unique_ptr<transport::ByteStream> inner, WireCapture* capture)
      : inner_(std::move(inner)), capture_(capture) {}
  std::size_t write_some(const std::uint8_t* data, std::size_t size) override;
  std::size_t write_some_vectored(const transport::ConstBuffer* buffers,
                                  std::size_t count) override;
  std::size_t read_some(std::uint8_t* data, std::size_t size) override {
    return inner_->read_some(data, size);
  }
  [[nodiscard]] bool closed() const override { return inner_->closed(); }
  void close() override { inner_->close(); }

 private:
  void keep(const std::uint8_t* data, std::size_t size);
  std::unique_ptr<transport::ByteStream> inner_;
  WireCapture* capture_;
};

/// A dialer whose streams are wrapped in CapturingStream (capture borrowed;
/// it must outlive every stream the factory makes).
[[nodiscard]] transport::CollectorClient::StreamFactory capturing_dialer(
    transport::SocketAddress address, WireCapture* capture);

/// Wraps the agent's listener so every accepted stream's reads that moved
/// bytes are timed into `reads` (the agent's run loop is not the
/// benchmark's to hold, so the socket read layer is timed from inside the
/// stream it reads).
class TimedListener final : public transport::Listener {
 public:
  TimedListener(std::unique_ptr<transport::Listener> inner, IoTally* reads)
      : inner_(std::move(inner)), reads_(reads) {}
  [[nodiscard]] std::unique_ptr<transport::ByteStream> accept() override;

 private:
  std::unique_ptr<transport::Listener> inner_;
  IoTally* reads_;
};

/// The benchmark's own spans, grouped by layer ("collect", "transport",
/// ...), written as Chrome trace JSON at the end of a traced run. Disabled
/// tracers record nothing. Thread-safe.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  void set_enabled(bool on) { enabled_ = on; }

  /// Records [start_ns, end_ns) (steady clock) for `layer`/`label`.
  void add(const std::string& layer, obs::SpanKind kind, std::string label,
           std::int64_t start_ns, std::int64_t end_ns);
  /// Writes every layer's spans through obs::to_chrome_trace.
  void write_chrome_trace(const std::string& path) const;

 private:
  std::atomic<bool> enabled_;
  mutable std::mutex mu_;
  std::map<std::string, std::vector<obs::Span>> spans_;
};

// --- The agent -------------------------------------------------------------

/// One CollectorAgent configured as collector_daemon configures it (8
/// shards, its always-on span ring) with the history store switched on,
/// listening on a unix socket and driven by CollectorAgent::run with the
/// default idle sleep on a thread of its own.
class AgentThread {
 public:
  /// `reads` (nullable) times the agent's socket reads.
  AgentThread(const transport::SocketAddress& address, IoTally* reads);
  ~AgentThread() { stop(); }
  AgentThread(const AgentThread&) = delete;
  AgentThread& operator=(const AgentThread&) = delete;

  /// Stops and joins the run loop (idempotent). After it returns the agent
  /// may be read from this thread.
  void stop();

  [[nodiscard]] transport::CollectorAgent& agent() { return agent_; }
  [[nodiscard]] obs::SpanRecorder& spans() { return spans_; }
  [[nodiscard]] const transport::SocketAddress& address() const { return address_; }

 private:
  transport::SocketAddress address_;
  obs::SpanRecorder spans_;
  transport::CollectorAgent agent_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// The configuration collector_daemon builds (shards 8, span ring attached)
/// plus --history.
[[nodiscard]] transport::CollectorAgentConfig daemon_agent_config(obs::SpanRecorder* spans);

}  // namespace pipebench
