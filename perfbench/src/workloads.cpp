#include "workloads.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/network.hpp"
#include "metrics/collector.hpp"
#include "metrics/edge_stats.hpp"
#include "netlayer/flow_plane.hpp"
#include "netlayer/swap_service.hpp"
#include "netlayer/topology.hpp"
#include "obs/monitor.hpp"
#include "obs/netstate.hpp"
#include "obs/report.hpp"
#include "qstate/backend.hpp"
#include "routing/router.hpp"
#include "workload/arrival.hpp"
#include "workload/workload.hpp"

namespace perfbench {

using namespace qlink;

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 of (seed, stream): independent streams per input.
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void fnv_mix(std::uint64_t& h, const void* bytes, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(bytes);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
}

namespace {

// Seed streams.
constexpr std::uint64_t kLinkSeed = 1;
constexpr std::uint64_t kDriverSeed = 2;
constexpr std::uint64_t kPoolSeed = 3;
constexpr std::uint64_t kPlaneSeed = 4;

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = kFnvOffset;
  fnv_mix(h, text.data(), text.size());
  return h;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void require(Outcome& out, bool ok, const std::string& what) {
  if (!ok) out.violations.push_back(what);
}

/// Latency, fidelity and the Collector's create/ok/err/open/evicted
/// balance. `err_closed_max` bounds how many requests an ERR may have
/// closed (the Collector drops a request on any non-EXPIRE ERR).
void collector_outcome(const metrics::Collector& c,
                       std::uint64_t err_closed_max, Outcome& out) {
  metrics::RunningStat fidelity;
  std::uint64_t created = 0;
  std::uint64_t completed = 0;
  for (const core::Priority p :
       {core::Priority::kCreateKeep, core::Priority::kMeasureDirectly,
        core::Priority::kNetworkLayer}) {
    const auto& k = c.kind(p);
    fidelity.merge(k.fidelity);
    created += k.requests_submitted;
    completed += k.requests_completed;
  }
  out.fidelity = fidelity;
  if (fidelity.count() > 0) {
    require(out, fidelity.min() >= 0.25 && fidelity.max() <= 1.0 + 1e-9,
            "delivered fidelity outside [0.25, 1]");
  }
  out.latencies = c.request_latency_reservoir().samples();
  out.latency_count = c.request_latency_reservoir().count();

  const std::uint64_t accounted =
      completed + c.open_requests() + c.open_evicted();
  require(out, accounted <= created && created - accounted <= err_closed_max,
          "collector create/ok/err/open/evicted balance");
  out.counters["collector.created"] = static_cast<double>(created);
  out.counters["collector.completed"] = static_cast<double>(completed);
  out.counters["collector.open"] = static_cast<double>(c.open_requests());
  out.counters["metrics.open_evicted"] = static_cast<double>(c.open_evicted());
}

/// Per-link counters of the full-detail stack (proto, net, core).
struct LinkTally {
  double mhp_attempts = 0, gen_frames = 0, frames_sent = 0,
         frames_dropped = 0, egp_attempts = 0, egp_oks = 0, egp_errors = 0,
         egp_expires = 0, dqp_retx = 0;

  void add(core::Link& l) {
    mhp_attempts += static_cast<double>(l.mhp_a().attempts_made() +
                                        l.mhp_b().attempts_made());
    gen_frames += static_cast<double>(l.station().gen_frames());
    for (net::ClassicalChannel* ch :
         {&l.peer_channel(), &l.station_channel_a(), &l.station_channel_b()}) {
      frames_sent += static_cast<double>(ch->frames_sent());
      frames_dropped += static_cast<double>(ch->frames_dropped());
    }
    for (core::Egp* egp : {&l.egp_a(), &l.egp_b()}) {
      egp_attempts += static_cast<double>(egp->stats().attempts);
      egp_oks += static_cast<double>(egp->stats().oks);
      egp_errors += static_cast<double>(egp->stats().errors);
      egp_expires += static_cast<double>(egp->stats().expires_sent);
      dqp_retx += static_cast<double>(egp->queue().retransmissions());
    }
  }

  void write(double pairs, Outcome& out) const {
    out.counters["mhp.attempts"] = mhp_attempts;
    out.counters["mhp.gen_frames"] = gen_frames;
    out.counters["net.frames_sent"] = frames_sent;
    out.counters["net.frames_dropped"] = frames_dropped;
    out.counters["net.frames_per_pair"] = ratio(frames_sent, pairs);
    out.counters["egp.attempts"] = egp_attempts;
    out.counters["egp.attempts_per_ok"] = ratio(egp_attempts, egp_oks);
    out.counters["egp.errors"] = egp_errors;
    out.counters["egp.expires"] = egp_expires;
    out.counters["dqp.retransmissions"] = dqp_retx;
  }
};

void backend_counters(const qstate::BackendStats& s, Outcome& out) {
  out.counters["qstate.fast_ops"] = static_cast<double>(s.fast_ops);
  out.counters["qstate.dense_ops"] = static_cast<double>(s.dense_ops);
  out.counters["qstate.promotions"] = static_cast<double>(s.promotions);
  out.counters["qstate.pool_hit_ratio"] =
      ratio(static_cast<double>(s.pool_hits),
            static_cast<double>(s.pool_hits + s.pool_misses));
}

// ---- chain_swap ------------------------------------------------------

class ChainSwap : public Workload {
 public:
  ChainSwap(std::uint64_t seed, const Probes& probes) {
    {
      SpanScope span(probes.spans, "setup.network");
      netlayer::NetworkConfig nc;
      nc.kind = netlayer::TopologyKind::kChain;
      nc.num_links = 3;
      nc.seed = derive_seed(seed, kLinkSeed);
      nc.link.scenario = hw::ScenarioParams::lab();
      // Decoherence-protected carbon memory (as bench_chain_scaling):
      // pairs must survive the wait for the slowest hop.
      nc.link.scenario.nv.carbon_t2_ns = 0.5e9;
      nc.link.scenario.nv.carbon_coupling_rad_per_s /= 10.0;
      nc.link.backend = qstate::BackendKind::kBellDiagonal;
      nc.link.pauli_twirl_installs = true;
      net_ = std::make_unique<netlayer::QuantumNetwork>(nc);
    }
    {
      SpanScope span(probes.spans, "setup.swap");
      swap_ = std::make_unique<netlayer::SwapService>(*net_, &collector_);
    }
    SpanScope span(probes.spans, "setup.driver");
    workload::WorkloadConfig wl;
    // Two departures from bench_chain_scaling's row (NL 0.8, floor
    // 0.78), both for steady latency across seeds. The chain serves
    // fewer pairs than either load asks for, so latency is backlog
    // growth: (issue - service rate) x time. At 0.8 that difference of
    // two noisy rates spread sim_latency_p50_s 0.26 (IQR / median) over
    // seven seeds. At the paper's Ultra load, 1.5, the issue rate
    // dominates it and the spread fell to 0.10. A per-hop floor of 0.7
    // generates about twice as fast as 0.78 for the same host cost per
    // simulated second, so a run gets twice the latency samples.
    wl.nl = {1.5, 1};
    wl.origin = workload::OriginMode::kAllA;
    wl.min_fidelity = 0.5;
    wl.link_min_fidelity = 0.7;
    wl.seed = derive_seed(seed, kDriverSeed);
    driver_ = workload::WorkloadDriver::for_e2e(*net_, *swap_, wl.traffic(),
                                                wl.tuning(), collector_);
  }

  sim::Simulator& simulator() override { return net_->simulator(); }
  void start() override {
    net_->start();
    driver_->start();
  }
  void advance(sim::SimTime span) override { net_->run_for(span); }
  void stop_issuing() override { driver_->stop(); }
  bool settled() override { return true; }
  void finish() override {}

  Outcome outcome() override {
    Outcome out;
    const auto& ss = swap_->stats();
    out.requests = driver_->requests_issued();
    out.pairs = collector_.kind(core::Priority::kNetworkLayer).pairs_delivered;
    out.failed = ss.errors;
    collector_outcome(collector_, ss.errors, out);
    require(out, ss.pairs_delivered == out.pairs &&
                     driver_->pairs_matched() == out.pairs,
            "swap deliveries == collector deliveries == driver deliveries");
    require(out, ss.requests == out.requests, "driver issued == swap requests");
    LinkTally tally;
    for (std::size_t i = 0; i < net_->num_links(); ++i) tally.add(net_->link(i));
    tally.write(static_cast<double>(out.pairs), out);
    backend_counters(net_->registry().backend().stats(), out);
    out.counters["swap.swaps"] = static_cast<double>(ss.swaps);
    out.counters["swap.link_pairs_per_pair"] =
        ratio(static_cast<double>(ss.link_pairs_consumed),
              static_cast<double>(ss.pairs_delivered));
    out.counters["swap.unclaimed_oks"] = static_cast<double>(ss.unclaimed_oks);
    return out;
  }

 private:
  std::unique_ptr<netlayer::QuantumNetwork> net_;
  metrics::Collector collector_;
  std::unique_ptr<netlayer::SwapService> swap_;
  std::unique_ptr<workload::WorkloadDriver> driver_;
};

// ---- flow_observed, flow_spread --------------------------------------

/// The CREATE-floor set-point every flow link is operated at.
constexpr double kFloorMenu[] = {0.7};
/// Offered load per pinned endpoint pair, relative to one link's
/// calibrated pair time (bench_workload_scale's scale row).
constexpr double kUtilization = 0.2;
constexpr double kPinnedPairs = 70.0;
/// Monitor record interval; flow_observed polls observation this often
/// (its slices are a whole number of intervals).
constexpr sim::SimTime kPollInterval = sim::duration::milliseconds(100);

core::LinkConfig flow_link_config(std::uint64_t seed) {
  core::LinkConfig lc;
  lc.scenario = hw::ScenarioParams::lab();
  lc.scenario.nv.carbon_t2_ns = 5e9;
  lc.scenario.nv.carbon_coupling_rad_per_s /= 10.0;
  lc.backend = qstate::BackendKind::kBellDiagonal;
  lc.pauli_twirl_installs = true;
  lc.seed = seed;
  return lc;
}

/// bench_workload_scale's three-class mix (bulk 4 / interactive 2 /
/// batch 1, batch asks for two pairs). Pinned: each class draws from an
/// endpoint pool (40 / 20 / 10 pairs, so every pair sees the same
/// rate). Spread: the pools are empty, so the driver draws each
/// request's endpoints uniformly over distinct node pairs.
std::shared_ptr<workload::ArrivalProcess> make_mix(double rate_hz,
                                                   std::size_t num_nodes,
                                                   bool pinned,
                                                   std::uint64_t seed) {
  sim::Random pick(seed);
  const auto pool = [&](std::size_t n) {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
    const auto hi = static_cast<std::int64_t>(num_nodes) - 1;
    while (pinned && pairs.size() < n) {
      const auto src = static_cast<std::uint32_t>(pick.uniform_int(0, hi));
      const auto dst = static_cast<std::uint32_t>(pick.uniform_int(0, hi));
      if (src != dst) pairs.emplace_back(src, dst);
    }
    return pairs;
  };
  std::vector<workload::ClassMixProcess::Class> classes(3);
  classes[0].weight = 4.0;
  classes[0].shape.name = "bulk";
  classes[0].shape.endpoints = pool(40);
  classes[1].weight = 2.0;
  classes[1].shape.name = "interactive";
  classes[1].shape.endpoints = pool(20);
  classes[2].weight = 1.0;
  classes[2].shape.name = "batch";
  classes[2].shape.num_pairs = 2;
  classes[2].shape.endpoints = pool(10);
  return std::make_shared<workload::ClassMixProcess>(
      std::make_shared<workload::PoissonProcess>(rate_hz), std::move(classes));
}

/// Dragonfly(32 x 32) on FlowPlane + Router. Observed: pinned
/// endpoints, EdgeStats + Monitor + NetState attached and polled.
/// Spread: endpoints over all nodes, nothing attached, so nearly every
/// request misses the path cache and pays a Yen search.
class FlowWorkload : public Workload {
 public:
  FlowWorkload(std::uint64_t seed, const Probes& probes, bool observed)
      : probes_(probes), observed_(observed) {
    {
      SpanScope span(probes.spans, "setup.graph");
      graph_ = std::make_unique<routing::Graph>(routing::Graph::dragonfly(32, 32));
    }
    netlayer::FlowCalibration cal;
    {
      SpanScope span(probes.spans, "setup.calibrate");
      core::Link probe(flow_link_config(derive_seed(seed, kLinkSeed)));
      cal = netlayer::FlowCalibration::from_link(probe, kFloorMenu);
    }
    const netlayer::FlowCalibration::Entry* point = cal.best();
    if (point == nullptr) throw std::runtime_error("flow calibration failed");
    const double rate_hz =
        kUtilization * kPinnedPairs / std::max(point->pair_time_s, 1e-9);
    {
      SpanScope span(probes.spans, "setup.plane");
      collector_.set_open_capacity(1u << 16);
      netlayer::FlowPlaneConfig fc;
      fc.num_nodes = graph_->num_nodes();
      for (const routing::Graph::Edge& e : graph_->edges()) {
        fc.edges.emplace_back(e.a, e.b);
      }
      fc.calibration = cal;
      fc.collector = &collector_;
      fc.seed = derive_seed(seed, kPlaneSeed);
      plane_ = std::make_unique<netlayer::FlowPlane>(std::move(fc));
      measured_ = std::make_unique<MeasuredPlane>(*plane_, probes.flow);
    }
    {
      SpanScope span(probes.spans, "setup.router");
      routing::RouterConfig rc;
      rc.k_candidates = 2;
      rc.cache_paths = true;
      router_ = std::make_unique<routing::Router>(*graph_, *measured_, rc,
                                                  &collector_);
      router_->annotate_from_network(kFloorMenu);
    }
    if (observed_) {
      SpanScope span(probes.spans, "setup.obs");
      edge_stats_ = std::make_unique<metrics::EdgeStats>(graph_->num_edges(),
                                                         graph_->num_nodes());
      router_->set_edge_stats(edge_stats_.get());
      obs::MonitorConfig mc;
      mc.run = "flow_observed";
      mc.interval = kPollInterval;
      mc.stall_consecutive = 10;  // random traffic: quiet 100 ms happens
      monitor_ = std::make_unique<obs::Monitor>(plane_->simulator(),
                                                collector_, std::move(mc));
      monitor_->attach_router(router_.get());
      obs::NetStateConfig nsc;
      nsc.run = "flow_observed";
      nsc.interval = sim::duration::seconds(1);  // 16k edges per record
      netstate_ = std::make_unique<obs::NetState>(plane_->simulator(),
                                                  *edge_stats_, std::move(nsc));
      netstate_->attach_collector(&collector_);
      netstate_->attach_graph(graph_.get());
    }
    SpanScope span(probes.spans, "setup.driver");
    workload::TrafficConfig traffic;
    traffic.min_fidelity = 0.4;
    traffic.link_min_fidelity = kFloorMenu[0];
    traffic.arrivals = make_mix(rate_hz, graph_->num_nodes(), observed_,
                                derive_seed(seed, kPoolSeed));
    if (probes.flow != nullptr) {
      traffic.arrivals =
          std::make_shared<TimedArrivals>(traffic.arrivals, *probes.flow);
    }
    workload::DriverConfig tuning;
    tuning.seed = derive_seed(seed, kDriverSeed);
    tuning.poll_interval = sim::duration::milliseconds(10);
    driver_ = workload::WorkloadDriver::for_routed(*router_, traffic, tuning,
                                                   collector_);
  }

  sim::Simulator& simulator() override { return plane_->simulator(); }
  void start() override { driver_->start(); }

  void advance(sim::SimTime span) override {
    if (!observed_) {
      plane_->run_for(span);
      return;
    }
    // Observation is polled from the run loop, never from an event,
    // once per Monitor record interval.
    for (sim::SimTime done = 0; done < span; done += kPollInterval) {
      plane_->run_for(kPollInterval);
      SpanScope trace(probes_.spans, "obs.poll");
      metered(probes_.obs_poll, [this] {
        monitor_->poll();
        netstate_->poll();
      });
    }
  }

  void stop_issuing() override { driver_->stop(); }

  bool settled() override {
    const auto& rs = router_->stats();
    return rs.completed + rs.failed + rs.rejected >= rs.submitted &&
           router_->deferred_pending() == 0;
  }

  void finish() override {
    collector_.end(plane_->simulator().now());
    if (!observed_) return;
    SpanScope trace(probes_.spans, "obs.finish");
    metered(probes_.obs_finish, [this] {
      monitor_->finish();
      netstate_->finish();
      obs::RunReportOptions ro;
      ro.title = "flow_observed (dragonfly32x32, flow plane)";
      report_ = obs::render_run_report(plane_->simulator(), *edge_stats_,
                                       collector_, graph_.get(), ro);
    });
  }

  Outcome outcome() override {
    Outcome out;
    const auto& rs = router_->stats();
    const auto& fs = plane_->stats();
    out.requests = rs.submitted;
    out.pairs = rs.pairs_delivered;
    out.failed = rs.failed + rs.rejected + collector_.open_evicted();
    collector_outcome(collector_, 0, out);
    // Latency from Router submission, not the Collector's (admission).
    out.latencies = measured_->latencies().samples();
    out.latency_count = measured_->latencies().count();
    require(out, out.latency_count == rs.completed,
            "one latency per completed request");
    require(out, rs.submitted == rs.completed + rs.failed + rs.rejected,
            "settled router: submitted == completed + failed + rejected");
    require(out, fs.pairs_delivered == rs.pairs_delivered &&
                     driver_->pairs_matched() == rs.pairs_delivered,
            "plane deliveries == router deliveries == driver deliveries");
    require(out, driver_->requests_issued() == rs.submitted,
            "driver issued == router submitted");
    out.counters["flow.requests"] = static_cast<double>(fs.requests);
    out.counters["flow.attempts"] = static_cast<double>(fs.attempts);
    out.counters["flow.attempts_per_pair"] =
        ratio(static_cast<double>(fs.attempts),
              static_cast<double>(fs.pairs_delivered));
    out.counters["router.submitted"] = static_cast<double>(rs.submitted);
    out.counters["router.admitted"] = static_cast<double>(rs.admitted);
    out.counters["router.blocked"] = static_cast<double>(rs.blocked);
    out.counters["router.blocked_ratio"] =
        ratio(static_cast<double>(rs.blocked), static_cast<double>(rs.submitted));
    out.counters["router.deferred"] = static_cast<double>(rs.deferred);
    out.counters["router.admission_wait_mean_s"] =
        collector_.admission_wait().mean();
    if (!observed_) return out;
    out.counters["obs.monitor_records"] =
        static_cast<double>(monitor_->intervals());
    out.counters["obs.netstate_records"] =
        static_cast<double>(netstate_->intervals());
    // The observation output itself is part of the trajectory.
    out.counters["obs.monitor_jsonl_fnv"] =
        static_cast<double>(fnv1a(monitor_->jsonl()) >> 11);
    out.counters["obs.netstate_jsonl_fnv"] =
        static_cast<double>(fnv1a(netstate_->jsonl()) >> 11);
    out.counters["obs.report_fnv"] = static_cast<double>(fnv1a(report_) >> 11);
    return out;
  }

 private:
  Probes probes_;
  bool observed_;
  std::unique_ptr<routing::Graph> graph_;
  metrics::Collector collector_;
  std::unique_ptr<netlayer::FlowPlane> plane_;
  std::unique_ptr<MeasuredPlane> measured_;
  std::unique_ptr<routing::Router> router_;
  std::unique_ptr<metrics::EdgeStats> edge_stats_;
  std::unique_ptr<obs::Monitor> monitor_;
  std::unique_ptr<obs::NetState> netstate_;
  std::unique_ptr<workload::WorkloadDriver> driver_;
  std::string report_;
};

}  // namespace

const std::vector<WorkloadSpec>& workload_specs() {
  using sim::duration::milliseconds;
  // Every replication has >= 1000 slices, so its slice p99 has >= 10
  // slices beyond it. A run holds about --seconds / rep_cost_s
  // replications (perfbench/README.md has the rationale).
  static const std::vector<WorkloadSpec> specs = {
      {"chain_swap", milliseconds(4), 1000, 0, 2.0,
       [](std::uint64_t seed, const Probes& p) -> std::unique_ptr<Workload> {
         return std::make_unique<ChainSwap>(seed, p);
       }},
      {"flow_observed", milliseconds(1000), 1000, 1000, 4.4,
       [](std::uint64_t seed, const Probes& p) -> std::unique_ptr<Workload> {
         return std::make_unique<FlowWorkload>(seed, p, true);
       }},
      {"flow_spread", milliseconds(10), 1000, 100000, 2.5,
       [](std::uint64_t seed, const Probes& p) -> std::unique_ptr<Workload> {
         return std::make_unique<FlowWorkload>(seed, p, false);
       }},
  };
  return specs;
}

}  // namespace perfbench
