#include "workloads.hpp"

#include <cmath>

namespace perfbench {

using namespace moonshot;

namespace {

// All three run the aws5 Table II WAN (the NetworkConfig default: 5% jitter,
// 10 Gbps) with Δ = 500 ms. Durations leave at least 100 quorum-committed
// blocks, so the p90 commit latency has ten samples above it.
ExperimentConfig base_config(std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.seed = seed;
  cfg.delta = milliseconds(500);
  return cfg;
}

}  // namespace

std::vector<std::string> workload_names() {
  return {"pm-n200-happy", "pm-n16-ed25519", "cm-n100-faults"};
}

std::optional<Workload> find_workload(std::string_view name, std::uint64_t seed) {
  Workload w{std::string(name), base_config(seed), std::nullopt};
  ExperimentConfig& c = w.cfg;
  if (name == "pm-n200-happy") {
    // Fig. 6's largest scale: O(n^2) vote multicast makes the simulator core,
    // the network model and the protocol handlers the cost.
    c.protocol = ProtocolKind::kPipelinedMoonshot;
    c.n = 200;
    c.duration = seconds(15);
    c.tx_rate = 1000;
  } else if (name == "pm-n16-ed25519") {
    // Real signatures, verified: crypto is nearly all of the wall clock, and
    // 180 kB blocks make λ bandwidth-bound.
    c.protocol = ProtocolKind::kPipelinedMoonshot;
    c.n = 16;
    c.payload_size = 180'000;
    c.use_ed25519 = true;
    c.verify_signatures = true;
    c.duration = seconds(15);
    c.tx_rate = 1000;
  } else if (name == "cm-n100-faults") {
    // Fig. 9: f' = 32 crash-silent leaders under schedule WJ, a WAL on every
    // honest node, and one honest node that crashes and recovers from its
    // log. f' = 33 would leave the crashed honest node's quorum short.
    c.protocol = ProtocolKind::kCommitMoonshot;
    c.n = 100;
    c.crashed = 32;
    c.schedule = ScheduleKind::kWJ;
    c.enable_wal = true;
    c.recovery = RecoveryMode::kDurable;
    c.duration = seconds(120);
    c.tx_rate = 200;
    w.crash = CrashPlan{1, 40, 60};
  } else {
    return std::nullopt;
  }
  return w;
}

std::uint64_t settled_tx(const Workload& w) {
  // A fresh tracker draws the same seeded arrival times as the world's; the
  // commit threshold does not affect arrivals.
  TxTracker arrivals(w.cfg.tx_rate, 1, w.cfg.seed);
  return arrivals.summarize(w.cfg.duration - seconds(kTxGraceS)).submitted;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double time_setup(const Workload& w) {
  const auto t0 = std::chrono::steady_clock::now();
  Experiment exp(w.cfg);
  return seconds_since(t0);
}

UntracedRun run_untraced(const Workload& w) {
  UntracedRun run;
  const auto t0 = std::chrono::steady_clock::now();
  Experiment exp(w.cfg);
  run.setup_s = seconds_since(t0);
  run.loop = drive(exp, w);
  run.sim = outcome_of(exp);
  run.counts = layer_counts(exp);
  run.failures = check_world(exp, w, run.sim);
  return run;
}

}  // namespace perfbench
