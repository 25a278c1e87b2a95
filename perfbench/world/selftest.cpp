// The benchmark's own tests: span self-time arithmetic, and determinism of
// the untraced and traced worlds on small versions of the workloads.
#include <gtest/gtest.h>

#include "traced_world.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

std::uint64_t g_fake_ns = 0;
std::uint64_t fake_clock() { return g_fake_ns; }

TEST(SpanStack, SelfTimeIsDurationMinusChildSpans) {
  g_fake_ns = 0;
  SpanStack spans(&fake_clock);
  spans.enter(Layer::kConsensus);  // t = 0
  g_fake_ns = 10;
  spans.enter(Layer::kNet);  // t = 10
  g_fake_ns = 20;
  spans.enter(Layer::kCrypto);  // t = 20
  g_fake_ns = 30;
  spans.exit();  // crypto: 10
  g_fake_ns = 40;
  spans.exit();  // net: 30, of which 10 in crypto
  g_fake_ns = 50;
  spans.enter(Layer::kCrypto);  // t = 50, a direct child of consensus
  g_fake_ns = 55;
  spans.exit();  // crypto: 5
  g_fake_ns = 100;
  spans.exit();  // consensus: 100, of which 30 in net and 5 in crypto
  EXPECT_EQ(spans.depth(), 0u);

  const LayerStats& cons = spans.stats(Layer::kConsensus);
  const LayerStats& net = spans.stats(Layer::kNet);
  const LayerStats& crypto = spans.stats(Layer::kCrypto);
  EXPECT_EQ(cons.calls, 1u);
  EXPECT_EQ(cons.total_ns, 100u);
  EXPECT_EQ(cons.self_ns, 65u);
  EXPECT_EQ(net.total_ns, 30u);
  EXPECT_EQ(net.self_ns, 20u);
  EXPECT_EQ(crypto.calls, 2u);
  EXPECT_EQ(crypto.total_ns, 15u);
  EXPECT_EQ(crypto.self_ns, 15u);
  // Self times partition the outermost span.
  EXPECT_EQ(cons.self_ns + net.self_ns + crypto.self_ns, cons.total_ns);
  // Log2 buckets: 100 ns has bit width 7, 30 ns 5, 10 and 5 ns 4 and 3.
  EXPECT_EQ(cons.hist[7], 1u);
  EXPECT_EQ(net.hist[5], 1u);
  EXPECT_EQ(crypto.hist[4], 1u);
  EXPECT_EQ(crypto.hist[3], 1u);
}

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(percentile(v, 0.5), 50);
  EXPECT_EQ(percentile(v, 0.9), 90);  // ten samples above it
  EXPECT_EQ(percentile({7}, 0.9), 7);
  EXPECT_EQ(percentile({}, 0.9), 0);
}

// Small worlds with each workload's shape, cheap enough for a unit test.
Workload small_pm(std::uint64_t seed, bool ed25519) {
  Workload w = *find_workload(ed25519 ? "pm-n16-ed25519" : "pm-n200-happy", seed);
  w.cfg.n = ed25519 ? 4 : 10;
  w.cfg.duration = std::chrono::seconds(3);
  return w;
}

Workload small_cm(std::uint64_t seed) {
  Workload w = *find_workload("cm-n100-faults", seed);
  w.cfg.n = 10;
  w.cfg.crashed = 2;
  w.cfg.duration = std::chrono::seconds(12);
  w.crash = CrashPlan{1, 3, 6};
  return w;
}

TEST(Determinism, SameSeedRepeatsAndAnotherSeedDiffers) {
  const UntracedRun a = run_untraced(small_pm(1, false));
  const UntracedRun b = run_untraced(small_pm(1, false));
  const UntracedRun c = run_untraced(small_pm(2, false));
  EXPECT_GT(a.sim.committed_blocks, 0u);
  EXPECT_EQ(a.sim, b.sim);
  EXPECT_EQ(a.sim.fingerprint, b.sim.fingerprint);
  EXPECT_NE(a.sim.fingerprint, c.sim.fingerprint);
}

TEST(Operations, SettledTransactionsAreTheWorldsEarliestArrivals) {
  const Workload w = small_cm(6);
  const UntracedRun u = run_untraced(w);
  // The fresh tracker regenerates the world's own arrivals.
  Workload longer = w;
  longer.cfg.duration += std::chrono::seconds(kTxGraceS);
  EXPECT_EQ(settled_tx(longer), u.sim.tx_submitted);
  const std::uint64_t settled = settled_tx(w);
  EXPECT_GT(settled, 0u);
  EXPECT_LT(settled, u.sim.tx_submitted);
  EXPECT_GE(u.sim.tx_committed, settled);
}

void expect_traced_matches(const Workload& w) {
  const UntracedRun u = run_untraced(w);
  SpanStack spans;
  CryptoCounts crypto;
  TracedWorld traced(w.cfg, spans, crypto);
  drive(traced, w);
  EXPECT_EQ(outcome_of(traced), u.sim) << w.name;
  EXPECT_GT(spans.stats(Layer::kConsensus).calls, 0u);
  EXPECT_GT(spans.stats(Layer::kNet).calls, 0u);
  EXPECT_GT(spans.stats(Layer::kLedger).calls, 0u);
  EXPECT_GT(crypto.sign_calls, 0u);
  EXPECT_EQ(spans.depth(), 0u);
}

TEST(TracedWorld, ReproducesTheUntracedExperiment) {
  expect_traced_matches(small_pm(3, false));
}

TEST(TracedWorld, ReproducesVerifiedEd25519) {
  const Workload w = small_pm(4, true);
  expect_traced_matches(w);
  SpanStack spans;
  CryptoCounts crypto;
  TracedWorld traced(w.cfg, spans, crypto);
  drive(traced, w);
  EXPECT_GT(crypto.verify_calls + crypto.batch_calls, 0u);
}

TEST(TracedWorld, ReproducesCrashAndDurableRecovery) {
  const Workload w = small_cm(5);
  expect_traced_matches(w);
  const UntracedRun u = run_untraced(w);
  EXPECT_GT(u.loop.recover_s, 0.0);
  EXPECT_GT(u.counts.wal_appends, 0u);
}

}  // namespace
}  // namespace perfbench
