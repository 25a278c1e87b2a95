// The per-view table of certified blocks: dense window for honest views, a
// small fallback map for views named off the wire, first-wins everywhere.
#include "consensus/qc_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "consensus/moonshot/pipelined_moonshot.hpp"
#include "harness/experiment.hpp"

namespace moonshot {
namespace {

class QcTableTest : public ::testing::Test {
 protected:
  QcTableTest() : gen_(ValidatorSet::generate(4, crypto::fast_scheme(), 1)) {}

  /// A block for `view`; a different `salt` gives a conflicting sibling.
  static BlockId block_at(View view, std::uint64_t salt = 0) {
    return Block::create(view, 1, Block::genesis()->id(), Payload::synthetic(10, salt + 1))->id();
  }

  QcPtr qc_at(View view, std::uint64_t salt = 0) {
    const BlockId block = block_at(view, salt);
    std::vector<Vote> votes;
    for (NodeId i = 0; i < 3; ++i)
      votes.push_back(Vote::make(VoteKind::kNormal, view, block, i, gen_.private_keys[i],
                                 gen_.set->scheme()));
    return QuorumCert::assemble(votes, 1, *gen_.set);
  }

  ValidatorSet::Generated gen_;
};

TEST_F(QcTableTest, FirstCertificateForAViewWins) {
  QcTable t;
  const BlockId a = block_at(3);
  const BlockId b = block_at(3, 1);
  ASSERT_NE(a, b);
  EXPECT_EQ(t.find(3), nullptr);
  auto [rec, inserted] = t.insert(3, a);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(rec, a);
  auto [rec2, inserted2] = t.insert(3, b);
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(rec2, a);
  ASSERT_NE(t.find(3), nullptr);
  EXPECT_EQ(*t.find(3), a);
  EXPECT_EQ(t.find(2), nullptr);
  EXPECT_EQ(t.find(4), nullptr);
}

TEST_F(QcTableTest, DenseViewsStayInTheWindow) {
  QcTable t;
  for (View v = 1; v <= 300; ++v) t.insert(v, block_at(v));
  EXPECT_EQ(t.window_size(), 300u);
  EXPECT_EQ(t.sparse_size(), 0u);
  for (View v = 1; v <= 300; ++v) {
    ASSERT_NE(t.find(v), nullptr);
    EXPECT_EQ(*t.find(v), block_at(v));
  }
}

TEST_F(QcTableTest, FarViewOffTheWireDoesNotGrowTheWindow) {
  QcTable t;
  for (View v = 1; v <= 10; ++v) t.insert(v, block_at(v));
  const View far = View{1} << 40;
  const BlockId block = block_at(far);
  EXPECT_TRUE(t.insert(far, block).second);
  ASSERT_NE(t.find(far), nullptr);
  EXPECT_EQ(*t.find(far), block);
  EXPECT_EQ(t.window_size(), 10u);
  EXPECT_EQ(t.sparse_size(), 1u);
  EXPECT_FALSE(t.insert(far, block_at(far, 1)).second);  // first wins in the fallback too
  // Honest views keep landing in the window.
  t.insert(11, block_at(11));
  EXPECT_EQ(t.window_size(), 11u);
  EXPECT_EQ(*t.find(far), block);
}

TEST_F(QcTableTest, WindowGrowthAbsorbsFallbackEntries) {
  QcTable t;
  t.insert(5, block_at(5));
  const View ahead = 5 + QcTable::kMaxStride + 10;
  const BlockId early = block_at(ahead);
  t.insert(ahead, early);
  EXPECT_EQ(t.sparse_size(), 1u);
  for (View v = 6; v <= ahead + 1; ++v) {
    if (v == ahead) {
      EXPECT_FALSE(t.insert(v, block_at(v, 1)).second);  // already recorded
    } else {
      t.insert(v, block_at(v));
    }
  }
  EXPECT_EQ(t.sparse_size(), 0u);
  ASSERT_NE(t.find(ahead), nullptr);
  EXPECT_EQ(*t.find(ahead), early);
  EXPECT_EQ(t.window_size(), ahead + 2 - 5);
}

TEST_F(QcTableTest, ViewsBelowTheFirstRecordedOneUseTheFallback) {
  QcTable t;
  t.insert(100, block_at(100));
  const BlockId old = block_at(7);
  EXPECT_TRUE(t.insert(7, old).second);
  ASSERT_NE(t.find(7), nullptr);
  EXPECT_EQ(*t.find(7), old);
  EXPECT_EQ(t.window_size(), 1u);
  EXPECT_EQ(t.sparse_size(), 1u);
}

/// Exposes the certificate lookup of a real protocol node.
class ProbeNode : public PipelinedMoonshotNode {
 public:
  using PipelinedMoonshotNode::PipelinedMoonshotNode;
  using BaseNode::qc_for_view;
};

class NullNetwork final : public net::INetwork {
 public:
  void multicast(NodeId, MessagePtr) override {}
  void unicast(NodeId, NodeId, MessagePtr) override {}
};

TEST_F(QcTableTest, NodeRecordsAndReturnsAFarViewCertificate) {
  NullNetwork net;
  sim::Scheduler sched;
  NodeContext ctx;
  ctx.id = 3;
  ctx.validators = gen_.set;
  ctx.priv = gen_.private_keys[3];
  ctx.network = &net;
  ctx.sched = &sched;
  ctx.leaders = std::make_shared<const RoundRobinSchedule>(4);
  ctx.delta = milliseconds(100);
  ctx.verify_signatures = true;
  ProbeNode node(std::move(ctx));
  node.start();

  const View far = View{1} << 40;
  const QcPtr qc = qc_at(far);
  node.handle(0, make_message<CertMsg>(qc, NodeId{0}));
  ASSERT_NE(node.qc_for_view(far), nullptr);
  EXPECT_EQ(*node.qc_for_view(far), qc->block);
  EXPECT_EQ(node.current_view(), far + 1);
  EXPECT_EQ(node.qc_for_view(far - 1), nullptr);
}

// The table keeps block ids, not certificates, so a certificate lives only
// while something still holds it: a node's lock, a message in flight or a
// TC (the network's wire-size memo holds messages weakly). Over a run of a
// few hundred views every certificate seen on the wire must therefore be
// freed once those holders have moved on.
TEST(CertificateLifetime, SettledCertificatesAreFreed) {
  ExperimentConfig cfg;
  cfg.protocol = ProtocolKind::kPipelinedMoonshot;
  cfg.n = 4;
  cfg.delta = milliseconds(500);
  cfg.duration = seconds(3);
  cfg.seed = 7;
  cfg.net.matrix = net::LatencyMatrix::uniform(milliseconds(10), 1);
  cfg.net.regions_used = 1;
  cfg.net.jitter = 0.0;
  cfg.net.adversarial_before_gst = false;
  Experiment e(cfg);

  // A weak reference for every sighting of a certificate on the wire.
  std::vector<std::pair<View, std::weak_ptr<const QuorumCert>>> seen;
  auto note = [&](const QcPtr& qc) {
    if (qc && !qc->is_genesis()) seen.emplace_back(qc->view, qc);
  };
  auto note_tc = [&](const TcPtr& tc) {
    if (tc) note(tc->high_qc);
  };
  e.network().set_tap([&](NodeId, const Message& m) {
    std::visit(
        [&](const auto& msg) {
          using T = std::decay_t<decltype(msg)>;
          if constexpr (std::is_same_v<T, ProposalMsg> || std::is_same_v<T, FbProposalMsg>) {
            note(msg.justify);
            note_tc(msg.tc);
          } else if constexpr (std::is_same_v<T, CertMsg>) {
            note(msg.qc);
          } else if constexpr (std::is_same_v<T, TcMsg>) {
            note_tc(msg.tc);
          } else if constexpr (std::is_same_v<T, StatusMsg>) {
            note(msg.lock);
          } else if constexpr (std::is_same_v<T, TimeoutMsgWrap>) {
            note(msg.timeout.high_qc);
          }
        },
        m);
  });
  const ExperimentResult r = e.run();
  ASSERT_GT(r.max_view, 200u);
  ASSERT_GT(seen.size(), 200u);

  // Locks, the leader's remembered proposal and the messages still queued
  // reach back a few views (three in this world).
  const View horizon = 4;
  std::set<const QuorumCert*> alive;
  View oldest_alive = r.max_view;
  for (const auto& [view, weak] : seen) {
    const QcPtr qc = weak.lock();
    if (!qc) continue;
    alive.insert(qc.get());
    oldest_alive = std::min(oldest_alive, view);
  }
  EXPECT_GE(oldest_alive + horizon, r.max_view)
      << "the certificate for view " << oldest_alive << " outlived its holders";
  EXPECT_LE(alive.size(), horizon * cfg.n);
}

}  // namespace
}  // namespace moonshot
