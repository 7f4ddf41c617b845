#include "common.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <stdexcept>

namespace pipebench {

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(samples.size() - 1));
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank),
                   samples.end());
  return samples[rank];
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

std::size_t resident_bytes() {
  malloc_trim(0);
  std::ifstream statm("/proc/self/statm");
  std::size_t size_pages = 0;
  std::size_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

namespace {

/// The first probe answer at or after `ev` in which every agent's ingested
/// count reaches the event's target (probes.end() when none does).
std::vector<ProbeAnswer>::const_iterator covering_probe(const SubmitEvent& ev,
                                                       const std::vector<ProbeAnswer>& probes) {
  const auto covers = [&](const ProbeAnswer& p) {
    for (std::size_t a = 0; a < ev.target.size(); ++a) {
      if (p.ingested[a] < ev.target[a]) return false;
    }
    return true;
  };
  // Counts never decrease, so "covers" is monotone over the answers.
  const auto it = std::partition_point(probes.begin(), probes.end(),
                                       [&](const ProbeAnswer& p) { return !covers(p); });
  return std::find_if(it, probes.end(), [&](const ProbeAnswer& p) { return p.t >= ev.t; });
}

}  // namespace

std::vector<double> freshness_ms(const std::vector<SubmitEvent>& events,
                                 const std::vector<ProbeAnswer>& probes, std::size_t* uncovered) {
  std::vector<double> out;
  out.reserve(events.size());
  *uncovered = 0;
  for (const auto& ev : events) {
    const auto it = covering_probe(ev, probes);
    if (it == probes.end()) {
      *uncovered += 1;
      continue;
    }
    out.push_back((it->t - ev.t) * 1e3);
  }
  return out;
}

std::vector<double> freshness_epochs(const std::vector<SubmitEvent>& events,
                                     const std::vector<ProbeAnswer>& probes,
                                     double events_per_epoch, std::size_t* uncovered) {
  std::vector<double> out;
  out.reserve(events.size());
  *uncovered = 0;
  if (events.empty()) return out;
  const double span = events.back().t - events.front().t;
  const double mean_gap =
      events.size() > 1 && span > 0 ? span / static_cast<double>(events.size() - 1) : 1e-3;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto it = covering_probe(events[i], probes);
    if (it == probes.end()) {
      *uncovered += 1;
      continue;
    }
    // The last event at or before the answer (event i or a later one).
    const auto next = std::upper_bound(
        events.begin() + static_cast<std::ptrdiff_t>(i), events.end(), it->t,
        [](double t, const SubmitEvent& e) { return t < e.t; });
    const auto j = static_cast<std::size_t>(next - events.begin()) - 1;
    const double gap = next == events.end() ? mean_gap : next->t - events[j].t;
    const double place = static_cast<double>(j - i) + (it->t - events[j].t) / gap;
    out.push_back(place / events_per_epoch);
  }
  return out;
}

std::vector<double> window_rates(const std::vector<double>& t, const std::vector<double>& count,
                                 const std::vector<double>& cost, double from, double to,
                                 double width) {
  std::vector<double> rates;
  const auto last_at = [&](double when) {
    const auto it = std::upper_bound(t.begin(), t.end(), when);
    return it == t.begin() ? std::size_t{0} : static_cast<std::size_t>(it - t.begin()) - 1;
  };
  for (double lo = from; lo + width <= to; lo += width) {
    const std::size_t a = last_at(lo);
    const std::size_t b = last_at(lo + width);
    if (b > a && cost[b] > cost[a]) rates.push_back((count[b] - count[a]) / (cost[b] - cost[a]));
  }
  return rates;
}

// --- Sockets ---------------------------------------------------------------

SocketDir::SocketDir() : dir_(".bench_build/sock-" + std::to_string(getpid())) {
  std::filesystem::create_directories(dir_);
}

SocketDir::~SocketDir() {
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);
}

transport::SocketAddress SocketDir::next() {
  return transport::SocketAddress::unix_path(dir_ + "/a" + std::to_string(counter_++));
}

transport::CollectorClient::StreamFactory dialer(transport::SocketAddress address) {
  return [address] { return transport::connect_to(address); };
}

// --- Tracing ---------------------------------------------------------------

void CapturingStream::keep(const std::uint8_t* data, std::size_t size) {
  const std::size_t room = capture_->cap_bytes - std::min(capture_->cap_bytes,
                                                          capture_->bytes.size());
  const std::size_t n = std::min(room, size);
  capture_->bytes.insert(capture_->bytes.end(), data, data + n);
}

std::size_t CapturingStream::write_some(const std::uint8_t* data, std::size_t size) {
  const std::int64_t t0 = now_ns();
  const std::size_t n = inner_->write_some(data, size);
  keep(data, n);
  if (n > 0 && g_layer_timing.load(std::memory_order_relaxed)) {
    capture_->writes.ns += now_ns() - t0;
    capture_->writes.bytes += n;
  }
  return n;
}

std::size_t CapturingStream::write_some_vectored(const transport::ConstBuffer* buffers,
                                                 std::size_t count) {
  const std::int64_t t0 = now_ns();
  const std::size_t n = inner_->write_some_vectored(buffers, count);
  std::size_t left = n;
  for (std::size_t i = 0; i < count && left > 0; ++i) {
    const std::size_t take = std::min(left, buffers[i].size);
    keep(buffers[i].data, take);
    left -= take;
  }
  if (n > 0 && g_layer_timing.load(std::memory_order_relaxed)) {
    capture_->writes.ns += now_ns() - t0;
    capture_->writes.bytes += n;
  }
  return n;
}

transport::CollectorClient::StreamFactory capturing_dialer(transport::SocketAddress address,
                                                           WireCapture* capture) {
  return [address, capture]() -> std::unique_ptr<transport::ByteStream> {
    auto inner = transport::connect_to(address);
    if (inner == nullptr) return nullptr;
    return std::make_unique<CapturingStream>(std::move(inner), capture);
  };
}

namespace {

class ReadTimedStream final : public transport::ByteStream {
 public:
  ReadTimedStream(std::unique_ptr<transport::ByteStream> inner, IoTally* reads)
      : inner_(std::move(inner)), reads_(reads) {}
  std::size_t write_some(const std::uint8_t* data, std::size_t size) override {
    return inner_->write_some(data, size);
  }
  std::size_t write_some_vectored(const transport::ConstBuffer* buffers,
                                  std::size_t count) override {
    return inner_->write_some_vectored(buffers, count);
  }
  std::size_t read_some(std::uint8_t* data, std::size_t size) override {
    const std::int64_t t0 = now_ns();
    const std::size_t n = inner_->read_some(data, size);
    if (n > 0 && g_layer_timing.load(std::memory_order_relaxed)) {
      reads_->ns += now_ns() - t0;
      reads_->bytes += n;
    }
    return n;
  }
  [[nodiscard]] bool closed() const override { return inner_->closed(); }
  void close() override { inner_->close(); }

 private:
  std::unique_ptr<transport::ByteStream> inner_;
  IoTally* reads_;
};

}  // namespace

std::unique_ptr<transport::ByteStream> TimedListener::accept() {
  auto stream = inner_->accept();
  if (stream == nullptr) return nullptr;
  return std::make_unique<ReadTimedStream>(std::move(stream), reads_);
}

void Tracer::add(const std::string& layer, obs::SpanKind kind, std::string label,
                 std::int64_t start_ns, std::int64_t end_ns) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  obs::Span span;
  span.kind = kind;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.label = std::move(label);
  const std::lock_guard<std::mutex> lock(mu_);
  auto& spans = spans_[layer];
  span.span_id = spans.size() + 1;
  spans.push_back(std::move(span));
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::vector<std::pair<std::string, std::vector<obs::Span>>> processes;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [layer, spans] : spans_) processes.emplace_back(layer, spans);
  }
  std::ofstream out(path);
  out << obs::to_chrome_trace(processes);
}

// --- The agent -------------------------------------------------------------

transport::CollectorAgentConfig daemon_agent_config(obs::SpanRecorder* spans) {
  transport::CollectorAgentConfig cfg;
  cfg.collector.shard_count = 8;
  cfg.enable_history = true;
  cfg.instruments.spans = spans;
  return cfg;
}

AgentThread::AgentThread(const transport::SocketAddress& address, IoTally* reads)
    : address_(address), agent_(daemon_agent_config(&spans_)) {
  std::unique_ptr<transport::Listener> listener =
      std::make_unique<transport::SocketListener>(address_);
  if (reads != nullptr) listener = std::make_unique<TimedListener>(std::move(listener), reads);
  agent_.set_listener(std::move(listener));
  thread_ = std::thread([this] { agent_.run(stop_); });
}

void AgentThread::stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

}  // namespace pipebench
