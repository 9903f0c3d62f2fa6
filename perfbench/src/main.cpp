// perfbench: the repository benchmark's measuring program. One process
// runs one workload (see workloads.hpp) for one seed and prints, as its
// last line, one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Untraced (--trace 0): round(--seconds / the workload's nominal
// replication cost) independent replications, replication i seeded by
// derive_seed(--seed, 1000 + i). Host-time metrics are calibrated to a
// reference host speed (probes.hpp) and are medians over replications
// (of each replication's slice percentiles, too). Simulated metrics pool every
// replication's samples. attempted / failed count the replications;
// one fails when it breaks a correctness check. The trajectory digest
// folds every replication's simulated counters, so it is a function of
// (workload, seed, replication count) alone.
//
// Traced (--trace 1): replication 0 untraced, then again with the
// Simulator profiler on, timing decorators around the flow plane and
// the arrival process, and spans around every call into a layer.
// Prints the per-layer metrics and trace.overhead (traced / untraced
// calibrated wall); the two must agree on the digest. Spans are written
// to --spans (JSON lines) when the run ends.
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--spans PATH]

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "metrics/stats.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using qlink::metrics::percentile;
using qlink::sim::Simulator;

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

/// VmHWM of this process image. getrusage's ru_maxrss would also count
/// the parent's resident set at fork time (it survives exec), which
/// reads the Python launcher's size instead of the benchmark's.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) throw std::runtime_error("cannot read /proc/self/status");
  char line[256];
  double kib = -1.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  if (kib < 0.0) throw std::runtime_error("no VmHWM in /proc/self/status");
  return kib / 1024.0;
}

/// Seed of replication `rep` of a run seeded `seed`.
std::uint64_t rep_seed(std::uint64_t seed, std::size_t rep) {
  return derive_seed(seed, 1000 + rep);
}

/// One replication: host timings plus its deterministic outcome.
struct Rep {
  double setup_s = 0.0;
  double run_s = 0.0;  // sum of slice walls
  double finish_s = 0.0;
  std::vector<double> slice_s;
  /// Calibrated (see calibration_kernel_s): set-up and slice walls at
  /// the reference host speed.
  double cal_setup_s = 0.0;
  double cal_run_s = 0.0;
  std::vector<double> cal_slice_s;
  double sim_s = 0.0;
  std::uint64_t events = 0;
  std::size_t heap_high_water = 0;
  Outcome outcome;
  std::uint64_t digest = 0;
  std::map<std::string, Simulator::LabelStat> labels;  // profiled reps

  /// Set-up, slices (both calibrated) and finish.
  double cal_total_s() const { return cal_setup_s + cal_run_s + finish_s; }
};

/// FNV-1a over every simulated counter and sample of the replication.
std::uint64_t digest_of(const Rep& r) {
  const Outcome& o = r.outcome;
  std::map<std::string, double> fields = o.counters;
  fields["sim.events"] = static_cast<double>(r.events);
  fields["sim.heap_high_water"] = static_cast<double>(r.heap_high_water);
  fields["sim.seconds"] = r.sim_s;
  fields["sim.slices"] = static_cast<double>(r.slice_s.size());
  fields["requests"] = static_cast<double>(o.requests);
  fields["failed"] = static_cast<double>(o.failed);
  fields["pairs"] = static_cast<double>(o.pairs);
  fields["fidelity.count"] = static_cast<double>(o.fidelity.count());
  fields["fidelity.mean"] = o.fidelity.mean();
  fields["latency.count"] = static_cast<double>(o.latency_count);
  std::uint64_t h = kFnvOffset;
  char buf[160];
  for (const auto& [name, value] : fields) {
    const int n =
        std::snprintf(buf, sizeof buf, "%s=%.17g;", name.c_str(), value);
    fnv_mix(h, buf, static_cast<std::size_t>(n));
  }
  for (const double x : o.latencies) {
    const int n = std::snprintf(buf, sizeof buf, "%.17g;", x);
    fnv_mix(h, buf, static_cast<std::size_t>(n));
  }
  return h;
}

/// Slices between two calibration kernels.
constexpr std::size_t kCalibrationEvery = 100;
/// Host time spent timing extra set-ups after each replication.
constexpr double kSetupBlockS = 0.05;

Rep run_rep(const WorkloadSpec& spec, std::uint64_t seed, const Probes& probes,
            bool profile) {
  Rep r;
  std::vector<double> kernel_s{calibration_kernel_s()};
  const auto t0 = Clock::now();
  std::unique_ptr<Workload> w;
  {
    SpanScope span(probes.spans, "setup");
    w = spec.make(seed, probes);
  }
  const auto t1 = Clock::now();
  Simulator& sim = w->simulator();
  sim.set_profiler(profile);
  {
    SpanScope span(probes.spans, "run");
    w->start();
    const auto slice = [&] {
      if (r.slice_s.size() % kCalibrationEvery == 0 && !r.slice_s.empty()) {
        kernel_s.push_back(calibration_kernel_s());
      }
      SpanScope slice_span(probes.spans, "run.slice");
      const auto s0 = Clock::now();
      w->advance(spec.slice);
      r.slice_s.push_back(seconds_between(s0, Clock::now()));
    };
    for (std::size_t i = 0; i < spec.issue_slices; ++i) slice();
    w->stop_issuing();
    for (std::size_t i = 0; i < spec.max_drain_slices && !w->settled(); ++i) {
      slice();
    }
  }
  const auto t2 = Clock::now();
  {
    SpanScope span(probes.spans, "finish");
    w->finish();
  }
  r.finish_s = seconds_between(t2, Clock::now());
  kernel_s.push_back(calibration_kernel_s());
  r.setup_s = seconds_between(t0, t1);
  r.cal_setup_s = r.setup_s * kCalibrationNominalS / kernel_s.front();
  // Slice i lies between kernels k = i / kCalibrationEvery and k + 1.
  for (std::size_t i = 0; i < r.slice_s.size(); ++i) {
    const std::size_t k = i / kCalibrationEvery;
    const double speed = 0.5 * (kernel_s[k] + kernel_s[k + 1]);
    r.cal_slice_s.push_back(r.slice_s[i] * kCalibrationNominalS / speed);
    r.run_s += r.slice_s[i];
    r.cal_run_s += r.cal_slice_s.back();
  }
  r.sim_s = qlink::sim::to_seconds(sim.now());
  r.events = sim.events_processed();
  r.heap_high_water = sim.heap_high_water();
  if (profile) {
    for (const auto& stat : sim.label_stats()) r.labels[stat.label] = stat;
  }
  r.outcome = w->outcome();
  if (!w->settled()) r.outcome.violations.push_back("drain did not settle");
  r.digest = digest_of(r);
  return r;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::uint64_t attempted,
                  std::uint64_t failed, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

void print_rep(const char* tag, const Rep& r) {
  const Outcome& o = r.outcome;
  std::printf("%s: digest %016" PRIx64 " | %zu slices, %.3f sim-s, %" PRIu64
              " events | requests %" PRIu64 ", failed %" PRIu64
              ", pairs %" PRIu64
              " | setup %.4f s, run %.4f s, finish %.4f s"
              " | calibrated slice p50 %.3f ms, p99 %.3f ms\n",
              tag, r.digest, r.slice_s.size(), r.sim_s, r.events, o.requests,
              o.failed, o.pairs, r.setup_s, r.run_s, r.finish_s,
              percentile(r.cal_slice_s, 50.0) * 1e3,
              percentile(r.cal_slice_s, 99.0) * 1e3);
  for (const std::string& v : o.violations) {
    std::printf("%s: CHECK FAILED: %s\n", tag, v.c_str());
  }
}

/// Host-time metrics are calibrated (see calibration_kernel_s) medians
/// over replications; a replication's slice p99 rests on >= 1000 slices.
int run_untraced(const WorkloadSpec& spec, std::uint64_t seed,
                 double seconds) {
  const auto count = static_cast<std::size_t>(
      std::max(1.0, std::round(seconds / spec.rep_cost_s)));
  std::vector<double> setups, wall_per_sim, pairs_per_wall, p50, p99;
  std::vector<double> raw_wall_per_sim;
  std::size_t min_slices = static_cast<std::size_t>(-1);
  std::vector<double> latencies;
  qlink::metrics::RunningStat fidelity;
  double sim_s = 0.0, events = 0.0, pairs = 0.0, requests = 0.0,
         failed = 0.0;
  std::uint64_t latency_count = 0;
  std::uint64_t failed_reps = 0;
  std::uint64_t digest = kFnvOffset;
  // Set-up is cheap next to a replication, so it is timed more often:
  // for kSetupBlockS after every replication, so that the samples span
  // the run's host phases. A block is calibrated by the kernel before it.
  const auto time_setups = [&] {
    const double scale = kCalibrationNominalS / calibration_kernel_s();
    const auto start = Clock::now();
    do {
      const auto t0 = Clock::now();
      const std::unique_ptr<Workload> w =
          spec.make(rep_seed(seed, 0), Probes{});
      setups.push_back(seconds_between(t0, Clock::now()) * scale);
    } while (seconds_between(start, Clock::now()) < kSetupBlockS);
  };
  for (std::size_t i = 0; i < count; ++i) {
    const Rep r = run_rep(spec, rep_seed(seed, i), Probes{}, false);
    print_rep("rep", r);
    const Outcome& o = r.outcome;
    if (!o.violations.empty() || o.pairs == 0) ++failed_reps;
    fnv_mix(digest, &r.digest, sizeof r.digest);
    setups.push_back(r.cal_setup_s);
    wall_per_sim.push_back(r.cal_run_s / r.sim_s);
    raw_wall_per_sim.push_back(r.run_s / r.sim_s);
    pairs_per_wall.push_back(static_cast<double>(o.pairs) / r.cal_run_s);
    p50.push_back(percentile(r.cal_slice_s, 50.0) * 1e3);
    p99.push_back(percentile(r.cal_slice_s, 99.0) * 1e3);
    min_slices = std::min(min_slices, r.cal_slice_s.size());
    latencies.insert(latencies.end(), o.latencies.begin(), o.latencies.end());
    latency_count += o.latency_count;
    fidelity.merge(o.fidelity);
    sim_s += r.sim_s;
    events += static_cast<double>(r.events);
    pairs += static_cast<double>(o.pairs);
    requests += static_cast<double>(o.requests);
    failed += static_cast<double>(o.failed);
    time_setups();
  }

  std::printf("replications: %zu; slice %.1f sim-ms\n", count,
              qlink::sim::to_seconds(spec.slice) * 1e3);
  std::printf("slice_wall_ms_p99: median over replications of >= %zu "
              "slices each\n",
              min_slices);
  std::printf("uncalibrated wall_per_sim_s: %.6g\n", median(raw_wall_per_sim));
  std::printf("sim_latency_p90_s: %zu samples of %" PRIu64
              " completed requests\n",
              latencies.size(), latency_count);
  std::printf("trajectory_digest: %016" PRIx64 "\n", digest);

  if (latencies.empty()) latencies.push_back(0.0);
  const std::vector<Metric> metrics = {
      {"wall_per_sim_s", median(wall_per_sim), "s/s"},
      {"pairs_per_wall_s", median(pairs_per_wall), "1/s"},
      {"slice_wall_ms_p50", median(p50), "ms"},
      {"slice_wall_ms_p99", median(p99), "ms"},
      {"setup_s", median(setups), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"events_per_pair", events / pairs, "count"},
      {"sim_pairs_per_s", pairs / sim_s, "1/s"},
      {"sim_latency_p50_s", percentile(latencies, 50.0), "s"},
      {"sim_latency_p90_s", percentile(latencies, 90.0), "s"},
      {"sim_fidelity_mean", fidelity.mean(), "fidelity"},
      // The complement of the failed share: no request fails on most
      // workloads, and a metric must never read 0.
      {"request_ok_ratio", 1.0 - failed / requests, "ratio"},
  };
  const bool correct = failed_reps == 0;
  print_result(correct, count, failed_reps, metrics);
  return correct ? 0 : 1;
}

/// Per-label event count and mean handler ns.
struct LabelCost {
  double events = 0.0;
  double wall_s = 0.0;
  double ns() const { return events > 0.0 ? wall_s / events * 1e9 : 0.0; }
};

LabelCost label_cost(const Rep& r, std::initializer_list<const char*> names) {
  LabelCost c;
  for (const char* name : names) {
    const auto it = r.labels.find(name);
    if (it == r.labels.end()) continue;
    c.events += static_cast<double>(it->second.count);
    c.wall_s += it->second.wall_seconds;
  }
  return c;
}

double per_call_ns(double seconds, double calls) {
  return calls > 0.0 ? seconds / calls * 1e9 : 0.0;
}

int run_traced(const WorkloadSpec& spec, std::uint64_t seed,
               const std::string& spans_path) {
  const Rep plain = run_rep(spec, rep_seed(seed, 0), Probes{}, false);
  print_rep("untraced", plain);

  SpanLog spans;
  FlowMeters flow;
  Meter obs_poll;
  Meter obs_finish;
  const Probes probes{&spans, &flow, &obs_poll, &obs_finish};
  const Rep traced = run_rep(spec, rep_seed(seed, 0), probes, true);
  print_rep("traced", traced);

  const Outcome& o = traced.outcome;
  const auto counter = [&](const char* name) {
    const auto it = o.counters.find(name);
    return it == o.counters.end() ? 0.0 : it->second;
  };
  double handler_s = 0.0;
  for (const auto& [name, stat] : traced.labels) handler_s += stat.wall_seconds;
  const double events = static_cast<double>(traced.events);
  const LabelCost mhp = label_cost(traced, {"mhp.cycle"});
  const LabelCost mhp_timeout = label_cost(traced, {"mhp.timeout"});
  const LabelCost chan = label_cost(traced, {"net.channel"});
  const LabelCost swap = label_cost(traced, {"swap.cascade", "swap.deliver"});
  const LabelCost deliver = label_cost(traced, {"flow.deliver"});
  const LabelCost cycle = label_cost(traced, {"workload.cycle"});
  const LabelCost arrival = label_cost(traced, {"workload.arrival"});

  const double requests = static_cast<double>(o.requests);
  const double obs_s = obs_poll.total_s + obs_finish.total_s;
  const std::vector<Metric> metrics = {
      {"sim.events", events, "count"},
      {"sim.events_per_sim_s", events / traced.sim_s, "1/s"},
      {"sim.heap_high_water", static_cast<double>(traced.heap_high_water),
       "count"},
      {"sim.dispatch_ns",
       per_call_ns(traced.run_s - handler_s - obs_poll.total_s, events), "ns"},
      {"mhp.cycle.events", mhp.events, "count"},
      {"mhp.cycle.ns", mhp.ns(), "ns"},
      {"mhp.cycles_per_attempt",
       counter("mhp.attempts") > 0 ? mhp.events / counter("mhp.attempts")
                                   : 0.0,
       "ratio"},
      {"mhp.gen_frames", counter("mhp.gen_frames"), "count"},
      {"mhp.timeout.events", mhp_timeout.events, "count"},
      {"net.channel.events", chan.events, "count"},
      {"net.channel.ns", chan.ns(), "ns"},
      {"net.frames_sent", counter("net.frames_sent"), "count"},
      {"net.frames_dropped", counter("net.frames_dropped"), "count"},
      {"net.frames_per_pair", counter("net.frames_per_pair"), "count"},
      {"egp.attempts", counter("egp.attempts"), "count"},
      {"egp.attempts_per_ok", counter("egp.attempts_per_ok"), "ratio"},
      {"egp.errors", counter("egp.errors"), "count"},
      {"egp.expires", counter("egp.expires"), "count"},
      {"dqp.retransmissions", counter("dqp.retransmissions"), "count"},
      {"qstate.fast_ops", counter("qstate.fast_ops"), "count"},
      {"qstate.dense_ops", counter("qstate.dense_ops"), "count"},
      {"qstate.promotions", counter("qstate.promotions"), "count"},
      {"qstate.pool_hit_ratio", counter("qstate.pool_hit_ratio"), "ratio"},
      {"swap.swaps", counter("swap.swaps"), "count"},
      {"swap.ns", swap.ns(), "ns"},
      {"swap.link_pairs_per_pair", counter("swap.link_pairs_per_pair"),
       "ratio"},
      {"flow.deliver.events", deliver.events, "count"},
      // Self time: the router's deliver handler is timed on its own.
      {"flow.deliver.ns",
       per_call_ns(deliver.wall_s - flow.complete.total_s, deliver.events),
       "ns"},
      {"flow.submit.ns", per_call_ns(flow.submit.total_s,
                                     static_cast<double>(flow.submit.calls)),
       "ns"},
      {"flow.attempts_per_pair", counter("flow.attempts_per_pair"), "ratio"},
      {"router.submitted", counter("router.submitted"), "count"},
      {"router.blocked_ratio", counter("router.blocked_ratio"), "ratio"},
      {"router.deferred", counter("router.deferred"), "count"},
      {"router.admission_wait_mean_s", counter("router.admission_wait_mean_s"),
       "s"},
      // Arrival handler time minus the plane submits it made and the
      // arrival sampling: path search + reservation.
      {"router.admit.ns",
       per_call_ns(arrival.wall_s - flow.arrival_submit_s - flow.arrival.total_s,
                   arrival.events),
       "ns"},
      {"router.complete.ns",
       per_call_ns(flow.complete.self_s(),
                   static_cast<double>(flow.complete.calls)),
       "ns"},
      {"workload.cycle.events", cycle.events, "count"},
      {"workload.cycle.ns", cycle.ns(), "ns"},
      {"workload.cycles_per_request",
       requests > 0 ? cycle.events / requests : 0.0, "ratio"},
      {"workload.arrival.sample_ns",
       per_call_ns(flow.arrival.total_s, arrival.events), "ns"},
      {"obs.poll.ns",
       per_call_ns(obs_poll.total_s, static_cast<double>(obs_poll.calls)),
       "ns"},
      {"obs.finish_s", obs_finish.total_s, "s"},
      {"obs.share", obs_s / (traced.run_s + traced.finish_s), "ratio"},
      {"obs.monitor_records", counter("obs.monitor_records"), "count"},
      {"obs.netstate_records", counter("obs.netstate_records"), "count"},
      {"metrics.open_evicted", counter("metrics.open_evicted"), "count"},
      {"trace.overhead", traced.cal_total_s() / plain.cal_total_s(), "ratio"},
  };

  std::printf("span self time (s):\n");
  for (const auto& [name, t] : spans.totals()) {
    std::printf("  %-16s n=%-7" PRIu64 " total %.4f self %.4f\n", name.c_str(),
                t.count, t.total_s, t.self_s);
  }
  std::printf("hottest labels (s):\n");
  for (const auto& [name, stat] : traced.labels) {
    std::printf("  %-22s n=%-10" PRIu64 " wall %.4f\n", name.c_str(),
                stat.count, stat.wall_seconds);
  }
  if (!spans_path.empty() && !spans.write_jsonl(spans_path)) {
    std::fprintf(stderr, "cannot write spans to %s\n", spans_path.c_str());
    return 1;
  }
  const bool same = traced.digest == plain.digest;
  if (!same) std::printf("CHECK FAILED: traced digest != untraced digest\n");
  const bool correct = same && plain.outcome.violations.empty() &&
                       o.violations.empty();
  const std::uint64_t failed = (plain.outcome.violations.empty() ? 0 : 1) +
                               (o.violations.empty() && same ? 0 : 1);
  print_result(correct, 2, failed, metrics);
  return correct ? 0 : 1;
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans PATH]\nworkloads:");
  for (const WorkloadSpec& s : workload_specs()) {
    std::fprintf(stderr, " %s", s.name);
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string name;
  std::string spans_path;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      name = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      trace = std::atoi(value);
    } else if (arg == "--spans") {
      spans_path = value;
    } else {
      usage();
    }
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& s : workload_specs()) {
    if (name == s.name) spec = &s;
  }
  if (spec == nullptr || seconds <= 0.0 || (trace != 0 && trace != 1)) usage();
  try {
    return trace == 1 ? run_traced(*spec, seed, spans_path)
                      : run_untraced(*spec, seed, seconds);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
