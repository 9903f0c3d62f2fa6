#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "metrics/stats.hpp"
#include "probes.hpp"
#include "sim/simulator.hpp"

/// \file workloads.hpp
/// The benchmark workloads. Each is a batch run of the simulator with
/// open-loop traffic, built from one seed:
///
///  chain_swap     a 3-hop full-detail chain through SwapService on the
///                 Bell-diagonal backend with Pauli-twirl installs,
///                 lossless wire, per-cycle Bernoulli NL 1.5 (Ultra),
///                 k = 1, node 0 -> node 3. MHP attempt churn, the wire, EGP,
///                 Bell kernels and the swap cascade do the work;
///                 routing, flow and obs idle.
///  flow_observed  dragonfly(32 x 32) on FlowPlane + Router (k = 2, path
///                 cache on), a three-class Poisson mix over 70 pinned
///                 endpoint pairs (every path lookup hits the cache),
///                 with EdgeStats, Monitor and NetState attached: the
///                 observation hooks dominate; the full-detail layers
///                 idle.
///  flow_spread    the same graph, plane, router and rate with nothing
///                 attached and endpoints drawn over all 1024 nodes:
///                 nearly every request misses the path cache, so Yen
///                 path search dominates.
///
/// One replication builds the workload from scratch, issues traffic
/// for a fixed number of fixed-length simulated slices, stops issuing,
/// and (flow workloads) drains until the Router has settled every
/// request. Queues start empty. A benchmark run is several independent
/// replications, each with its own seed derived from the run's seed.
/// Simulated latency is timed from submission, so queueing counts: in
/// the flow workloads from the Router's submission stamp (MeasuredPlane).

namespace perfbench {

/// Deterministic results of one run of a workload: identical across
/// repeats for one seed, and the input of the trajectory digest.
struct Outcome {
  std::uint64_t requests = 0;  // submitted
  std::uint64_t failed = 0;    // ERR / EXPIRE / reject / eviction
  std::uint64_t pairs = 0;     // delivered
  qlink::metrics::RunningStat fidelity;
  /// Request latencies (s): every completed request, or the Collector's
  /// uniform reservoir sample of them past its capacity.
  std::vector<double> latencies;
  std::uint64_t latency_count = 0;  // completed requests with a latency
  /// Per-layer counters and ratios (simulated quantities only).
  std::map<std::string, double> counters;
  /// Correctness violations; any entry fails the run.
  std::vector<std::string> violations;
};

/// Host-time probes a traced run hands to a workload (null members
/// when untraced).
struct Probes {
  SpanLog* spans = nullptr;
  FlowMeters* flow = nullptr;
  /// Observation polls and finish/report, timed by the workload.
  Meter* obs_poll = nullptr;
  Meter* obs_finish = nullptr;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual qlink::sim::Simulator& simulator() = 0;
  virtual void start() = 0;
  /// Advance one simulated slice (plus any observation polling).
  virtual void advance(qlink::sim::SimTime span) = 0;
  virtual void stop_issuing() = 0;
  /// Every submitted request has settled (always true for the
  /// full-detail workloads, which do not drain).
  virtual bool settled() = 0;
  virtual void finish() = 0;
  virtual Outcome outcome() = 0;
};

struct WorkloadSpec {
  const char* name;
  qlink::sim::SimTime slice;
  /// Slices of issuing traffic per replication.
  std::size_t issue_slices;
  /// Drain-phase backstop (flow workloads), in slices.
  std::size_t max_drain_slices;
  /// Nominal host seconds per replication on a 4-vCPU shared Xeon VM
  /// (the host's load moves it by up to about 1.5x either way). Only
  /// sizes a run: --seconds S runs round(S / rep_cost_s) replications.
  double rep_cost_s;
  std::unique_ptr<Workload> (*make)(std::uint64_t seed, const Probes& probes);
};

const std::vector<WorkloadSpec>& workload_specs();

/// Derived stream seed: one --seed drives every generated input.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// FNV-1a: folds `n` bytes into `h`, which starts at kFnvOffset.
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
void fnv_mix(std::uint64_t& h, const void* bytes, std::size_t n);

}  // namespace perfbench
