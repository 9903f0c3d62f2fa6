#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "metrics/reservoir.hpp"
#include "netlayer/plane.hpp"
#include "workload/arrival.hpp"

/// \file probes.hpp
/// The benchmark's tracing, kept entirely outside the simulator:
///
///  - SpanLog: spans (name, start, end, parent) recorded around every
///    call the benchmark makes into a layer — setup pieces, run_for
///    slices, observation polls, finish/report. Spans stay in memory
///    and are written out when the run ends; a span's self time is its
///    duration minus the time its child spans cover.
///  - Meter / MeterScope: per-call wall time accumulated by the timing
///    decorators below, split into self and child time so that nested
///    probes (a plane submit inside a router deliver handler) are not
///    counted twice.
///  - MeasuredPlane / TimedArrivals: forwarding decorators for
///    netlayer::EntanglementPlane and workload::ArrivalProcess. They
///    only read the clock and record what they forward, so a decorated
///    run replays the undecorated trajectory exactly (the benchmark
///    checks the digests agree).

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Host-speed calibration. A shared VM swings about 2x in speed for
/// seconds at a time, per vCPU, and branchy code like the simulator
/// feels it most. The benchmark times a fixed kernel between slices
/// and scales the slices' wall time by kCalibrationNominalS over the
/// kernel's time: host time at the reference host speed.
///
/// The kernel is binary-heap churn (the simulator's event-queue shape)
/// on two static 256 KiB buffers: no repository code and no allocation,
/// so the program's heap state cannot slow it. It runs once to load
/// its buffer into cache and is timed on the second pass, so the
/// program's working set does not slow it either.
double calibration_kernel_s();
inline constexpr double kCalibrationNominalS = 3.0e-3;

class SpanLog {
 public:
  struct Span {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    int parent;  // index into spans(), -1 for a root span
  };

  int open(const char* name) {
    spans_.push_back({name, Clock::now(), {}, current_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end = Clock::now();
    current_ = spans_[static_cast<std::size_t>(id)].parent;
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }

  struct Totals {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  /// Per-name count, total and self time.
  std::map<std::string, Totals> totals() const;

  /// Every span as one JSON object per line.
  bool write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  int current_ = -1;
};

/// RAII span; a null log records nothing (the untraced run).
class SpanScope {
 public:
  SpanScope(SpanLog* log, const char* name)
      : log_(log), id_(log != nullptr ? log->open(name) : -1) {}
  ~SpanScope() {
    if (log_ != nullptr) log_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

struct Meter {
  std::uint64_t calls = 0;
  double total_s = 0.0;
  double child_s = 0.0;  // covered by nested MeterScopes
  double self_s() const { return total_s - child_s; }
};

/// Times one call into `meter`. Scopes nest (the simulator is
/// single-threaded): a scope's duration is also credited to the
/// enclosing scope's child time.
class MeterScope {
 public:
  explicit MeterScope(Meter& meter)
      : meter_(meter), parent_(current_), start_(Clock::now()) {
    current_ = this;
  }
  ~MeterScope() {
    const double dt = seconds_between(start_, Clock::now());
    meter_.calls += 1;
    meter_.total_s += dt;
    if (parent_ != nullptr) parent_->meter_.child_s += dt;
    current_ = parent_;
  }
  MeterScope(const MeterScope&) = delete;
  MeterScope& operator=(const MeterScope&) = delete;

  /// True while no MeterScope is open: the caller is the top level of
  /// the event being handled.
  static bool top_level() noexcept { return current_ == nullptr; }

 private:
  inline static MeterScope* current_ = nullptr;
  Meter& meter_;
  MeterScope* parent_;
  Clock::time_point start_;
};

/// Runs `fn`, timed into `meter` when there is one (traced runs).
template <typename Fn>
void metered(Meter* meter, Fn&& fn) {
  if (meter == nullptr) {
    fn();
    return;
  }
  MeterScope scope(*meter);
  fn();
}

/// Meters shared by the two decorators.
struct FlowMeters {
  Meter submit;    // plane submit calls
  Meter complete;  // the router's deliver/error handlers
  Meter arrival;   // ArrivalProcess sample_shape + next_arrival
  /// Plane submits made directly by an arrival event (as opposed to
  /// admissions of queued requests from a deliver or lease event).
  double arrival_submit_s = 0.0;
  bool in_arrival = false;
};

/// The plane every flow workload's Router speaks to. It samples each
/// request's latency from the Router's submission stamp
/// (E2eRequest::submitted_at, carried as E2eOk::submit_time) to the
/// request's last delivered pair, so time queued in the Router counts;
/// the plane's own Collector entry starts only at admission. Given
/// meters (traced runs), it also times submit and the deliver/error
/// handlers it hands the Router.
class MeasuredPlane : public qlink::netlayer::EntanglementPlane {
 public:
  MeasuredPlane(qlink::netlayer::EntanglementPlane& inner, FlowMeters* meters)
      : inner_(inner), meters_(meters) {}

  /// Submission-to-last-pair latencies (s) of completed requests.
  const qlink::metrics::Reservoir& latencies() const noexcept {
    return latencies_;
  }

  qlink::sim::EngineRef engine_ref() noexcept override {
    return inner_.engine_ref();
  }
  qlink::sim::Simulator& simulator() noexcept override {
    return inner_.simulator();
  }
  std::size_t num_links() const noexcept override {
    return inner_.num_links();
  }
  std::size_t num_nodes() const noexcept override {
    return inner_.num_nodes();
  }
  std::pair<std::uint32_t, std::uint32_t> endpoints(
      std::size_t link) const override {
    return inner_.endpoints(link);
  }
  std::uint32_t submit(const qlink::netlayer::E2eRequest& request,
                       const std::vector<qlink::netlayer::Hop>& route,
                       std::span<const double> hop_floors) override {
    if (meters_ == nullptr) return inner_.submit(request, route, hop_floors);
    const bool direct = meters_->in_arrival && MeterScope::top_level();
    const double before = meters_->submit.total_s;
    std::uint32_t id = 0;
    {
      MeterScope scope(meters_->submit);
      id = inner_.submit(request, route, hop_floors);
    }
    if (direct) meters_->arrival_submit_s += meters_->submit.total_s - before;
    return id;
  }
  void release(const qlink::netlayer::E2eOk& ok) override {
    inner_.release(ok);
  }
  void set_deliver_handler(DeliverFn fn) override {
    inner_.set_deliver_handler(
        [this, fn = std::move(fn)](const qlink::netlayer::E2eOk& ok) {
          record(ok);
          metered(meters_ ? &meters_->complete : nullptr, [&] { fn(ok); });
        });
  }
  void set_error_handler(ErrorFn fn) override {
    inner_.set_error_handler(
        [this, fn = std::move(fn)](const qlink::netlayer::E2eErr& err) {
          metered(meters_ ? &meters_->complete : nullptr, [&] { fn(err); });
        });
  }
  void set_edge_stats(qlink::metrics::EdgeStats* stats) noexcept override {
    inner_.set_edge_stats(stats);
  }
  qlink::core::Link::RateEstimate estimate_link(std::size_t link,
                                                double floor) override {
    return inner_.estimate_link(link, floor);
  }
  double link_delay_s(std::size_t link) const override {
    return inner_.link_delay_s(link);
  }
  qlink::core::Link::TestRoundEstimate measured_estimate(
      std::size_t link) const override {
    return inner_.measured_estimate(link);
  }

 private:
  void record(const qlink::netlayer::E2eOk& ok) {
    const auto it = pairs_seen_.try_emplace(ok.request_id, 0).first;
    if (++it->second < ok.total_pairs) return;
    pairs_seen_.erase(it);
    latencies_.add(qlink::sim::to_seconds(ok.deliver_time - ok.submit_time));
  }

  qlink::netlayer::EntanglementPlane& inner_;
  FlowMeters* meters_;
  /// Pairs delivered so far, per request still waiting for more.
  std::unordered_map<std::uint32_t, std::uint16_t> pairs_seen_;
  /// Same capacity as the Collector's latency reservoir.
  qlink::metrics::Reservoir latencies_{1024, 0x7375626d69747465ULL};
};

/// Times the arrival process. The driver's arrival event calls
/// sample_shape first and next_arrival last, which brackets the plane
/// submits that event makes (FlowMeters::in_arrival).
class TimedArrivals : public qlink::workload::ArrivalProcess {
 public:
  TimedArrivals(std::shared_ptr<qlink::workload::ArrivalProcess> inner,
                FlowMeters& meters)
      : inner_(std::move(inner)), meters_(meters) {}

  qlink::sim::SimTime next_arrival(qlink::sim::Random& random,
                                   qlink::sim::SimTime now) const override {
    MeterScope scope(meters_.arrival);
    meters_.in_arrival = false;
    return inner_->next_arrival(random, now);
  }
  qlink::workload::RequestShape sample_shape(
      qlink::sim::Random& random, qlink::sim::SimTime now) const override {
    MeterScope scope(meters_.arrival);
    meters_.in_arrival = true;
    return inner_->sample_shape(random, now);
  }
  double mean_rate_hz() const override { return inner_->mean_rate_hz(); }

 private:
  std::shared_ptr<qlink::workload::ArrivalProcess> inner_;
  FlowMeters& meters_;
};

}  // namespace perfbench
