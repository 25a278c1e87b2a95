// Determinism goldens: pinned scheduler fingerprints and event counts for a
// few small fixed worlds, plus one model-checker exploration. Refactors of
// the simulator core (scheduler, network model, accumulators) must leave
// every value here unchanged; a changed value means the execution order or
// the event set changed, which is a behaviour change, not a speed-up.
//
// The worlds cover the paths that feed the event queue: multicast fan-out,
// self-deliveries, timers and their cancellation, chaos partitions, drops,
// duplication and delay spikes, crash with durable WAL recovery, jitter,
// reorder stress and the pre-GST adversary.
#include <gtest/gtest.h>

#include "chaos/engine.hpp"
#include "chaos/runner.hpp"
#include "chaos/schedule.hpp"
#include "harness/experiment.hpp"
#include "mc/explorer.hpp"

namespace moonshot {
namespace {

struct Pinned {
  std::uint64_t fingerprint;
  std::uint64_t events;
};

Pinned drive(Experiment& e, Duration d) {
  e.start();
  e.scheduler().run_until(TimePoint::zero() + d);
  return {e.scheduler().fingerprint(), e.scheduler().events_executed()};
}

TEST(GoldenFingerprint, PipelinedMoonshotN16) {
  ExperimentConfig cfg;
  cfg.protocol = ProtocolKind::kPipelinedMoonshot;
  cfg.n = 16;
  cfg.duration = seconds(3);
  cfg.seed = 21;
  cfg.tx_rate = 200;
  Experiment e(cfg);
  const Pinned p = drive(e, cfg.duration);
  EXPECT_EQ(p.fingerprint, 0xcbba52dd0c46e223ull);
  EXPECT_EQ(p.events, 22782u);
}

TEST(GoldenFingerprint, CommitMoonshotN16ChaosDurableRecovery) {
  const auto schedule = chaos::FaultSchedule::parse(
      "part(300-900;0,1,2,3,4|5,6,7,8,9,10,11,12,13,14,15);"
      "crash(1000-2200;n=2;m=durable);drop(400-1600;p=20);dup(500-1500;p=30);"
      "delay(1200-1800;d=40)");
  ASSERT_TRUE(schedule.has_value());
  ExperimentConfig cfg;
  cfg.protocol = ProtocolKind::kCommitMoonshot;
  cfg.n = 16;
  cfg.duration = seconds(4);
  cfg.seed = 22;
  cfg.enable_wal = true;
  cfg.recovery = RecoveryMode::kDurable;
  Experiment e(cfg);
  chaos::ChaosEngine engine(e, *schedule, cfg.seed);
  engine.arm();
  const Pinned p = drive(e, cfg.duration);
  EXPECT_EQ(p.fingerprint, 0x1546f73dba63857ull);
  EXPECT_EQ(p.events, 23654u);
  EXPECT_TRUE(e.ever_recovered(2));

  // The chaos runner's replay digest folds the same fingerprint with the
  // commit logs and metrics.
  chaos::ChaosRunConfig rc;
  rc.protocol = ProtocolKind::kCommitMoonshot;
  rc.n = 16;
  rc.duration = seconds(4);
  rc.seed = 22;
  rc.schedule = *schedule;
  const chaos::ChaosReport report = chaos::run_chaos(rc);
  EXPECT_TRUE(report.ok()) << report.failure();
  EXPECT_EQ(report.digest, 0xa729a156a6e41258ull);
}

TEST(GoldenFingerprint, JolteonReorderAndPreGstAdversary) {
  ExperimentConfig cfg;
  cfg.protocol = ProtocolKind::kJolteon;
  cfg.n = 16;
  cfg.crashed = 2;
  cfg.duration = seconds(6);
  cfg.seed = 23;
  cfg.net.jitter = 0.2;
  cfg.net.reorder_extra = milliseconds(30);
  cfg.net.gst = TimePoint::zero() + milliseconds(600);
  cfg.delta = milliseconds(200);
  Experiment e(cfg);
  const Pinned p = drive(e, cfg.duration);
  EXPECT_EQ(p.fingerprint, 0xc039330d1b8e2fe0ull);
  EXPECT_EQ(p.events, 1479u);
}

TEST(GoldenFingerprint, ModelCheckerExhaustiveN4) {
  mc::McConfig cfg = mc::smoke_config(ProtocolKind::kPipelinedMoonshot);
  cfg.max_traces = 60;  // values recorded on the pre-lane scheduler
  const mc::McResult r = mc::explore(cfg);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.stats.traces, 60u);
  EXPECT_EQ(r.stats.choices, 570u);
  EXPECT_EQ(r.stats.events, 123973u);
  EXPECT_EQ(r.stats.states_deduped, 0u);
  EXPECT_EQ(r.stats.sleep_skips, 121u);
}

}  // namespace
}  // namespace moonshot
