// The benchmark's workloads and what one run of a world yields.
//
// A workload is an ExperimentConfig plus an optional crash plan. The same
// description builds the untraced world (moonshot::Experiment, the program
// as users run it) and the traced world (traced_world.hpp). Both are driven
// by drive() in simulated-second slices, so their scheduler fingerprints and
// outcomes can be compared exactly.
#pragma once

#include <algorithm>
#include <chrono>
#include <ctime>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "harness/experiment.hpp"

namespace perfbench {

/// One honest node crash-stops at the start of slice `crash_at_s` and is
/// rebuilt from its write-ahead log at the start of slice `recover_at_s`.
struct CrashPlan {
  moonshot::NodeId node = 0;
  int crash_at_s = 0;
  int recover_at_s = 0;
};

struct Workload {
  std::string name;
  moonshot::ExperimentConfig cfg;
  std::optional<CrashPlan> crash;
};

std::vector<std::string> workload_names();
/// The named workload with `seed` filled in; nullopt for an unknown name.
std::optional<Workload> find_workload(std::string_view name, std::uint64_t seed);

/// Everything about a run that is fixed by the seed. Two runs of one world
/// must produce equal outcomes, and so must its untraced and traced builds.
struct SimOutcome {
  std::uint64_t fingerprint = 0;
  std::uint64_t events = 0;
  std::uint64_t committed_blocks = 0;
  std::uint64_t latency_samples = 0;
  double blocks_per_s = 0;
  double commit_latency_p50_ms = 0;
  double commit_latency_p90_ms = 0;
  double max_commit_gap_ms = 0;
  double tx_latency_p90_ms = 0;
  std::uint64_t tx_submitted = 0;
  std::uint64_t tx_committed = 0;

  bool operator==(const SimOutcome&) const = default;
};

/// Simulated seconds a client transaction is given to commit before the run
/// ends. A transaction waits at most one block period for its block (under
/// 2.1 s on every workload, sim_max_commit_gap_ms) and then λ for the block's
/// quorum commit; one that arrives later is still in flight, not failed.
inline constexpr int kTxGraceS = 5;

/// Client transactions of the workload's seed that arrive at least
/// kTxGraceS before the end of the run: the operations a run is judged on.
std::uint64_t settled_tx(const Workload& w);

/// Nearest-rank percentile (q in (0, 1]) of an unsorted sample.
double percentile(std::vector<double> v, double q);

/// Per-layer work counts read from a finished world.
struct LayerCounts {
  moonshot::NodeCounters nodes;  // summed over the final node instances
  moonshot::net::NetworkStats net;
  std::uint64_t wal_appends = 0;
  std::uint64_t wal_syncs = 0;
  std::uint64_t wal_bytes = 0;
};

/// Wall-clock profile of one driven world.
struct LoopTiming {
  double loop_s = 0;             // start() through the last slice
  double loop_cpu_s = 0;         // process CPU time over the same span
  std::vector<double> slice_s;   // wall seconds of each simulated second
  std::size_t pending_peak = 0;  // max Scheduler::pending() between slices
  double recover_s = 0;          // the durable recovery call, when planned
};

inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

inline double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// Starts `world` and runs it for the workload's duration in simulated
/// seconds, applying the crash plan between slices. `World` is
/// moonshot::Experiment or TracedWorld.
template <class World>
LoopTiming drive(World& world, const Workload& w) {
  using moonshot::TimePoint;
  LoopTiming t;
  const auto t0 = std::chrono::steady_clock::now();
  const double cpu0 = process_cpu_s();
  world.start();
  const auto secs = std::chrono::duration_cast<std::chrono::seconds>(w.cfg.duration).count();
  for (std::int64_t s = 0; s < secs; ++s) {
    if (w.crash && s == w.crash->crash_at_s) world.crash_node(w.crash->node);
    if (w.crash && s == w.crash->recover_at_s) {
      const auto r0 = std::chrono::steady_clock::now();
      world.recover_node(w.crash->node, moonshot::RecoveryMode::kDurable);
      t.recover_s = seconds_since(r0);
    }
    const auto s0 = std::chrono::steady_clock::now();
    world.scheduler().run_until(TimePoint::zero() + std::chrono::seconds(s + 1));
    t.slice_s.push_back(seconds_since(s0));
    t.pending_peak = std::max(t.pending_peak, world.scheduler().pending());
  }
  t.loop_s = seconds_since(t0);
  t.loop_cpu_s = process_cpu_s() - cpu0;
  return t;
}

/// The seed-determined outcome of a driven world.
template <class World>
SimOutcome outcome_of(World& world) {
  const moonshot::ExperimentResult r = world.result();
  std::vector<double> lat;
  for (const auto d : world.metrics().commit_latencies(r.quorum)) {
    lat.push_back(moonshot::to_ms(d));
  }
  SimOutcome o;
  o.fingerprint = world.scheduler().fingerprint();
  o.events = r.events;
  o.committed_blocks = r.summary.committed_blocks;
  o.latency_samples = lat.size();
  o.blocks_per_s = r.summary.blocks_per_sec;
  o.commit_latency_p50_ms = percentile(lat, 0.5);
  o.commit_latency_p90_ms = percentile(lat, 0.9);
  o.max_commit_gap_ms = r.summary.max_block_period_ms;
  o.tx_latency_p90_ms = r.tx.p90_e2e_ms;
  o.tx_submitted = r.tx.submitted;
  o.tx_committed = r.tx.committed;
  return o;
}

/// Output checks on a driven world; returns one line per failed check.
template <class World>
std::vector<std::string> check_world(World& world, const Workload& w, const SimOutcome& o) {
  std::vector<std::string> failures;
  std::vector<const moonshot::CommitLog*> logs;
  moonshot::Height top = 0;
  for (moonshot::NodeId id = 0; id < world.node_count(); ++id) {
    if (world.is_faulty(id)) continue;
    logs.push_back(&world.node(id).commit_log());
    top = std::max(top, world.node(id).commit_log().last_height());
  }
  if (!moonshot::commit_logs_consistent(logs)) failures.push_back("honest commit logs diverge");
  if (o.committed_blocks == 0) failures.push_back("no block committed by a quorum");
  // p90 needs at least ten samples above it.
  if (o.latency_samples < 100) {
    failures.push_back("only " + std::to_string(o.latency_samples) +
                       " commit-latency samples; p90 needs 100");
  }
  if (o.tx_committed == 0) failures.push_back("no client transaction committed");
  if (w.crash) {
    const moonshot::Height h = world.node(w.crash->node).commit_log().last_height();
    // Catching up fully: within one block of the most advanced honest node.
    if (h + 1 < top) {
      failures.push_back("recovered node " + std::to_string(w.crash->node) +
                         " stopped at height " + std::to_string(h) + " of " +
                         std::to_string(top));
    }
  }
  return failures;
}

template <class World>
LayerCounts layer_counts(World& world) {
  LayerCounts c;
  for (moonshot::NodeId id = 0; id < world.node_count(); ++id) {
    const moonshot::NodeCounters n = world.node(id).counters();
    c.nodes.timeouts_fired += n.timeouts_fired;
    c.nodes.view_changes += n.view_changes;
    c.nodes.timeout_retransmits += n.timeout_retransmits;
    c.nodes.cert_cache_hits += n.cert_cache_hits;
    c.nodes.cert_cache_misses += n.cert_cache_misses;
    if (const moonshot::wal::Wal* wal = world.wal_of(id)) {
      c.wal_appends += wal->stats().appends;
      c.wal_syncs += wal->stats().syncs;
      c.wal_bytes += wal->stats().bytes_appended;
    }
  }
  c.net = world.network().stats();
  return c;
}

/// One untraced world, as users run it: moonshot::Experiment.
struct UntracedRun {
  double setup_s = 0;
  LoopTiming loop;
  SimOutcome sim;
  LayerCounts counts;
  std::vector<std::string> failures;
};

/// Builds the workload's Experiment (timed as set-up), drives it and checks
/// it.
UntracedRun run_untraced(const Workload& w);

/// Wall time to build the workload's Experiment, up to start().
double time_setup(const Workload& w);

}  // namespace perfbench
