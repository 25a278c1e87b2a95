// The per-view certificate table: dense window for honest views, a small
// fallback map for views named off the wire, first-wins everywhere.
#include "consensus/qc_table.hpp"

#include <gtest/gtest.h>

#include "consensus/moonshot/pipelined_moonshot.hpp"

namespace moonshot {
namespace {

class QcTableTest : public ::testing::Test {
 protected:
  QcTableTest() : gen_(ValidatorSet::generate(4, crypto::fast_scheme(), 1)) {}

  QcPtr qc_at(View view, std::uint64_t salt = 0) {
    const auto block =
        Block::create(view, 1, Block::genesis()->id(), Payload::synthetic(10, salt + 1));
    std::vector<Vote> votes;
    for (NodeId i = 0; i < 3; ++i)
      votes.push_back(Vote::make(VoteKind::kNormal, view, block->id(), i, gen_.private_keys[i],
                                 gen_.set->scheme()));
    return QuorumCert::assemble(votes, 1, *gen_.set);
  }

  ValidatorSet::Generated gen_;
};

TEST_F(QcTableTest, FirstCertificateForAViewWins) {
  QcTable t;
  const QcPtr a = qc_at(3);
  const QcPtr b = qc_at(3, 1);
  EXPECT_EQ(t.find(3), nullptr);
  auto [rec, inserted] = t.insert(a);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(rec, a);
  auto [rec2, inserted2] = t.insert(b);
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(rec2, a);
  EXPECT_EQ(t.find(3), a);
  EXPECT_EQ(t.find(2), nullptr);
  EXPECT_EQ(t.find(4), nullptr);
}

TEST_F(QcTableTest, DenseViewsStayInTheWindow) {
  QcTable t;
  for (View v = 1; v <= 300; ++v) t.insert(qc_at(v));
  EXPECT_EQ(t.window_size(), 300u);
  EXPECT_EQ(t.sparse_size(), 0u);
  for (View v = 1; v <= 300; ++v) EXPECT_EQ(t.find(v)->view, v);
}

TEST_F(QcTableTest, FarViewOffTheWireDoesNotGrowTheWindow) {
  QcTable t;
  for (View v = 1; v <= 10; ++v) t.insert(qc_at(v));
  const View far = View{1} << 40;
  const QcPtr qc = qc_at(far);
  EXPECT_TRUE(t.insert(qc).second);
  EXPECT_EQ(t.find(far), qc);
  EXPECT_EQ(t.window_size(), 10u);
  EXPECT_EQ(t.sparse_size(), 1u);
  EXPECT_FALSE(t.insert(qc_at(far, 1)).second);  // first wins in the fallback too
  // Honest views keep landing in the window.
  t.insert(qc_at(11));
  EXPECT_EQ(t.window_size(), 11u);
  EXPECT_EQ(t.find(far), qc);
}

TEST_F(QcTableTest, WindowGrowthAbsorbsFallbackEntries) {
  QcTable t;
  t.insert(qc_at(5));
  const View ahead = 5 + QcTable::kMaxStride + 10;
  const QcPtr early = qc_at(ahead);
  t.insert(early);
  EXPECT_EQ(t.sparse_size(), 1u);
  for (View v = 6; v <= ahead + 1; ++v) {
    if (v == ahead) {
      EXPECT_FALSE(t.insert(qc_at(v, 1)).second);  // already recorded
    } else {
      t.insert(qc_at(v));
    }
  }
  EXPECT_EQ(t.sparse_size(), 0u);
  EXPECT_EQ(t.find(ahead), early);
  EXPECT_EQ(t.window_size(), ahead + 2 - 5);
}

TEST_F(QcTableTest, ViewsBelowTheFirstRecordedOneUseTheFallback) {
  QcTable t;
  t.insert(qc_at(100));
  const QcPtr old = qc_at(7);
  EXPECT_TRUE(t.insert(old).second);
  EXPECT_EQ(t.find(7), old);
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
  EXPECT_EQ(node.qc_for_view(far), qc);
  EXPECT_EQ(node.current_view(), far + 1);
  EXPECT_EQ(node.qc_for_view(far - 1), nullptr);
}

}  // namespace
}  // namespace moonshot
