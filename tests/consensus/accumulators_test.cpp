#include "consensus/accumulators.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "types/cert_cache.hpp"

namespace moonshot {
namespace {

class AccumulatorTest : public ::testing::Test {
 protected:
  AccumulatorTest() : gen_(ValidatorSet::generate(4, crypto::fast_scheme(), 1)) {
    block_ = Block::create(1, 1, Block::genesis()->id(), Payload::synthetic(10, 1));
  }
  Vote vote_from(NodeId id, VoteKind kind = VoteKind::kNormal, View view = 1) {
    return Vote::make(kind, view, block_->id(), id, gen_.private_keys[id],
                      gen_.set->scheme());
  }
  TimeoutMsg timeout_from(NodeId id, View view) {
    return TimeoutMsg::make(view, id, nullptr, gen_.private_keys[id], gen_.set->scheme());
  }
  ValidatorSet::Generated gen_;
  BlockPtr block_;
};

TEST_F(AccumulatorTest, EmitsQcAtQuorum) {
  VoteAccumulator acc(gen_.set, true);
  EXPECT_EQ(acc.add(vote_from(0), 1), nullptr);
  EXPECT_EQ(acc.add(vote_from(1), 1), nullptr);
  const auto qc = acc.add(vote_from(2), 1);
  ASSERT_NE(qc, nullptr);
  EXPECT_EQ(qc->voters.size(), 3u);
  EXPECT_EQ(qc->height, 1u);
}

TEST_F(AccumulatorTest, HeightIsAskedForOnlyByTheQuorumVote) {
  VoteAccumulator acc(gen_.set, true);
  std::vector<BlockId> asked;
  const auto height_of = [&](const BlockId& block) {
    asked.push_back(block);
    return Height{7};
  };
  EXPECT_EQ(acc.add(vote_from(0), height_of), nullptr);
  EXPECT_EQ(acc.add(vote_from(0), height_of), nullptr);  // duplicate
  EXPECT_EQ(acc.add(vote_from(1), height_of), nullptr);
  EXPECT_TRUE(asked.empty());
  const auto qc = acc.add(vote_from(2), height_of);
  ASSERT_NE(qc, nullptr);
  EXPECT_EQ(qc->height, 7u);
  EXPECT_EQ(acc.add(vote_from(3), height_of), nullptr);  // past quorum
  EXPECT_EQ(asked, std::vector<BlockId>{block_->id()});
}

TEST_F(AccumulatorTest, EmitsOnlyOnce) {
  VoteAccumulator acc(gen_.set, true);
  acc.add(vote_from(0), 1);
  acc.add(vote_from(1), 1);
  ASSERT_NE(acc.add(vote_from(2), 1), nullptr);
  EXPECT_EQ(acc.add(vote_from(3), 1), nullptr);  // past quorum: no re-emit
}

TEST_F(AccumulatorTest, IgnoresDuplicateVoter) {
  VoteAccumulator acc(gen_.set, true);
  acc.add(vote_from(0), 1);
  acc.add(vote_from(0), 1);
  acc.add(vote_from(0), 1);
  EXPECT_EQ(acc.count(1, VoteKind::kNormal, block_->id()), 1u);
}

TEST_F(AccumulatorTest, RejectsInvalidSignature) {
  VoteAccumulator acc(gen_.set, true);
  auto v = vote_from(0);
  v.sig.data[0] ^= 1;
  acc.add(v, 1);
  EXPECT_EQ(acc.count(1, VoteKind::kNormal, block_->id()), 0u);
}

TEST_F(AccumulatorTest, SkipsSignatureCheckWhenDisabled) {
  VoteAccumulator acc(gen_.set, false);
  auto v = vote_from(0);
  v.sig.data[0] ^= 1;
  acc.add(v, 1);
  EXPECT_EQ(acc.count(1, VoteKind::kNormal, block_->id()), 1u);
}

TEST_F(AccumulatorTest, KindsAccumulateSeparately) {
  // 2 normal + 2 optimistic votes for the same block: no certificate.
  VoteAccumulator acc(gen_.set, true);
  EXPECT_EQ(acc.add(vote_from(0, VoteKind::kNormal), 1), nullptr);
  EXPECT_EQ(acc.add(vote_from(1, VoteKind::kNormal), 1), nullptr);
  EXPECT_EQ(acc.add(vote_from(2, VoteKind::kOptimistic), 1), nullptr);
  EXPECT_EQ(acc.add(vote_from(3, VoteKind::kOptimistic), 1), nullptr);
  // A third optimistic vote completes the optimistic certificate.
  const auto qc = acc.add(vote_from(0, VoteKind::kOptimistic), 1);
  ASSERT_NE(qc, nullptr);
  EXPECT_EQ(qc->kind, VoteKind::kOptimistic);
}

TEST_F(AccumulatorTest, PruneDropsOldViews) {
  VoteAccumulator acc(gen_.set, true);
  acc.add(vote_from(0, VoteKind::kNormal, 1), 1);
  acc.add(vote_from(0, VoteKind::kNormal, 5), 1);
  acc.prune_below(3);
  EXPECT_EQ(acc.count(1, VoteKind::kNormal, block_->id()), 0u);
  EXPECT_EQ(acc.count(5, VoteKind::kNormal, block_->id()), 1u);
}

TEST_F(AccumulatorTest, TimeoutThresholds) {
  TimeoutAccumulator acc(gen_.set, true);
  auto r = acc.add(timeout_from(0, 2));
  EXPECT_FALSE(r.reached_f_plus_1);
  EXPECT_EQ(r.tc, nullptr);
  r = acc.add(timeout_from(1, 2));  // f+1 = 2
  EXPECT_TRUE(r.reached_f_plus_1);
  EXPECT_EQ(r.tc, nullptr);
  r = acc.add(timeout_from(2, 2));  // quorum = 3
  EXPECT_FALSE(r.reached_f_plus_1);  // one-shot
  ASSERT_NE(r.tc, nullptr);
  EXPECT_EQ(r.tc->view, 2u);
  r = acc.add(timeout_from(3, 2));
  EXPECT_EQ(r.tc, nullptr);  // one-shot
}

TEST_F(AccumulatorTest, TimeoutDuplicateSenderIgnored) {
  TimeoutAccumulator acc(gen_.set, true);
  acc.add(timeout_from(0, 2));
  const auto r = acc.add(timeout_from(0, 2));
  EXPECT_FALSE(r.reached_f_plus_1);
  EXPECT_EQ(acc.count(2), 1u);
}

TEST_F(AccumulatorTest, DuplicateVoteSkipsSignatureCheck) {
  // Dedupe happens before verification: a replay with a corrupted signature
  // is dropped as a duplicate, and the original vote survives.
  VoteAccumulator acc(gen_.set, true);
  acc.add(vote_from(0), 1);
  auto replay = vote_from(0);
  replay.sig.data[0] ^= 1;  // would fail verification if it were checked
  EXPECT_EQ(acc.add(replay, 1), nullptr);
  EXPECT_EQ(acc.count(1, VoteKind::kNormal, block_->id()), 1u);
}

TEST_F(AccumulatorTest, CountsEquivocations) {
  VoteAccumulator acc(gen_.set, true);
  const auto other =
      Block::create(1, 1, Block::genesis()->id(), Payload::synthetic(20, 2));
  acc.add(vote_from(0), 1);
  acc.add(vote_from(1), 1);
  EXPECT_EQ(acc.equivocations_seen(), 0u);
  // Node 0 votes again in view 1, same kind, different block: equivocation.
  const auto eq = Vote::make(VoteKind::kNormal, 1, other->id(), 0,
                             gen_.private_keys[0], gen_.set->scheme());
  acc.add(eq, 1);
  EXPECT_EQ(acc.equivocations_seen(), 1u);
  // The equivocating vote still counts toward its own block's bucket.
  EXPECT_EQ(acc.count(1, VoteKind::kNormal, other->id()), 1u);
  EXPECT_EQ(acc.count(1, VoteKind::kNormal, block_->id()), 2u);
  // Different kinds for different blocks are not equivocation.
  acc.add(vote_from(2, VoteKind::kOptimistic), 1);
  EXPECT_EQ(acc.equivocations_seen(), 1u);
}

TEST_F(AccumulatorTest, DuplicateTimeoutSkipsSignatureCheck) {
  TimeoutAccumulator acc(gen_.set, true);
  acc.add(timeout_from(0, 2));
  auto replay = timeout_from(0, 2);
  replay.sig.data[0] ^= 1;
  const auto r = acc.add(replay);
  EXPECT_FALSE(r.reached_f_plus_1);
  EXPECT_EQ(acc.count(2), 1u);
}

TEST_F(AccumulatorTest, TimeoutLockValidationUsesCertCache) {
  // Timeouts carrying the same lock should verify its signatures once.
  const auto ed = ValidatorSet::generate(4, crypto::ed25519_scheme(), 5);
  std::vector<Vote> votes;
  for (NodeId i = 0; i < ed.set->quorum_size(); ++i)
    votes.push_back(Vote::make(VoteKind::kNormal, 1, block_->id(), i,
                               ed.private_keys[i], ed.set->scheme()));
  const auto qc = QuorumCert::assemble(votes, 1, *ed.set);
  ASSERT_TRUE(qc);

  TimeoutAccumulator acc(ed.set, true);
  CertVerifyCache cache;
  acc.set_cert_cache(&cache);
  for (NodeId i = 0; i < 3; ++i)
    acc.add(TimeoutMsg::make(2, i, qc, ed.private_keys[i], ed.set->scheme()));
  EXPECT_EQ(acc.count(2), 3u);
  EXPECT_EQ(cache.stats().insertions, 1u);  // lock verified exactly once
  EXPECT_EQ(cache.stats().hits, 2u);        // the other two timeouts hit
}

TEST_F(AccumulatorTest, ConflictingTimeoutFirstWins) {
  // Node 0 first claims no lock, then re-times-out claiming a view-1 lock.
  // The first message is pinned: swapping retroactively would let the sender
  // rewrite an already-emitted TC's high-QC.
  std::vector<Vote> votes;
  for (NodeId i = 0; i < 3; ++i) votes.push_back(vote_from(i));
  const QcPtr lock = QuorumCert::assemble(votes, 1, *gen_.set);
  ASSERT_TRUE(lock);

  TimeoutAccumulator acc(gen_.set, true);
  acc.add(timeout_from(0, 2));  // no lock
  const auto conflict = TimeoutMsg::make(2, 0, lock, gen_.private_keys[0],
                                         gen_.set->scheme());
  const auto r = acc.add(conflict);
  EXPECT_FALSE(r.reached_f_plus_1);
  EXPECT_EQ(r.tc, nullptr);
  EXPECT_EQ(acc.count(2), 1u);
  EXPECT_EQ(acc.equivocations_seen(), 1u);
  EXPECT_EQ(acc.duplicates_dropped(), 0u);

  // The TC assembled after two more honest timeouts carries the pinned
  // no-lock entry for node 0, not the conflicting lock.
  acc.add(timeout_from(1, 2));
  const auto done = acc.add(timeout_from(2, 2));
  ASSERT_NE(done.tc, nullptr);
  EXPECT_EQ(done.tc->high_qc, nullptr);
  EXPECT_EQ(done.tc->high_qc_view(), 0u);
}

TEST_F(AccumulatorTest, ConflictingTimeoutCountedOncePerSender) {
  std::vector<Vote> votes;
  for (NodeId i = 0; i < 3; ++i) votes.push_back(vote_from(i));
  const QcPtr lock = QuorumCert::assemble(votes, 1, *gen_.set);
  ASSERT_TRUE(lock);

  TimeoutAccumulator acc(gen_.set, true);
  acc.add(timeout_from(0, 2));
  const auto conflict = TimeoutMsg::make(2, 0, lock, gen_.private_keys[0],
                                         gen_.set->scheme());
  // A TimeoutEquivocator spamming the same conflict is one equivocation, not
  // one per message.
  acc.add(conflict);
  acc.add(conflict);
  acc.add(conflict);
  EXPECT_EQ(acc.equivocations_seen(), 1u);
  // A second sender conflicting is its own piece of evidence.
  acc.add(timeout_from(1, 2));
  acc.add(TimeoutMsg::make(2, 1, lock, gen_.private_keys[1], gen_.set->scheme()));
  EXPECT_EQ(acc.equivocations_seen(), 2u);
}

TEST_F(AccumulatorTest, ExactTimeoutResendIsDuplicateNotEquivocation) {
  TimeoutAccumulator acc(gen_.set, true);
  acc.add(timeout_from(0, 2));
  acc.add(timeout_from(0, 2));  // identical lock view: pacemaker retransmit
  acc.add(timeout_from(0, 2));
  EXPECT_EQ(acc.equivocations_seen(), 0u);
  EXPECT_EQ(acc.duplicates_dropped(), 2u);
  EXPECT_EQ(acc.count(2), 1u);
}

TEST_F(AccumulatorTest, TimeoutViewsIndependent) {
  TimeoutAccumulator acc(gen_.set, true);
  acc.add(timeout_from(0, 2));
  acc.add(timeout_from(1, 3));
  EXPECT_EQ(acc.count(2), 1u);
  EXPECT_EQ(acc.count(3), 1u);
}

// --- flat per-view tables -------------------------------------------------------

TEST_F(AccumulatorTest, EquivocationAndDuplicateCountersAcrossKinds) {
  VoteAccumulator acc(gen_.set, true);
  const auto b = Block::create(1, 1, Block::genesis()->id(), Payload::synthetic(20, 2));
  const auto c = Block::create(1, 1, Block::genesis()->id(), Payload::synthetic(30, 3));
  auto from0 = [&](VoteKind kind, const BlockPtr& block) {
    return Vote::make(kind, 1, block->id(), 0, gen_.private_keys[0], gen_.set->scheme());
  };
  acc.add(from0(VoteKind::kNormal, block_), 1);
  acc.add(from0(VoteKind::kNormal, block_), 1);      // exact re-send
  acc.add(from0(VoteKind::kOptimistic, block_), 1);  // other kind: not a conflict
  EXPECT_EQ(acc.duplicates_dropped(), 1u);
  EXPECT_EQ(acc.equivocations_seen(), 0u);
  acc.add(from0(VoteKind::kNormal, b), 1);  // conflicts with the first normal vote
  acc.add(from0(VoteKind::kNormal, b), 1);  // re-send of the conflicting vote
  acc.add(from0(VoteKind::kNormal, c), 1);  // every further block counts again
  EXPECT_EQ(acc.equivocations_seen(), 2u);
  EXPECT_EQ(acc.duplicates_dropped(), 2u);
  acc.add(from0(VoteKind::kOptimistic, b), 1);  // conflicts within its own kind
  acc.add(from0(VoteKind::kFallback, c), 1);    // first fallback vote
  acc.add(from0(VoteKind::kCommit, c), 1);      // first commit vote
  acc.add(from0(VoteKind::kCommit, block_), 1);
  EXPECT_EQ(acc.equivocations_seen(), 4u);
  // A conflicting vote with a bad signature is neither counted nor stored.
  auto forged = Vote::make(VoteKind::kFallback, 1, b->id(), 0, gen_.private_keys[0],
                           gen_.set->scheme());
  forged.sig.data[0] ^= 1;
  acc.add(forged, 1);
  EXPECT_EQ(acc.equivocations_seen(), 4u);
  EXPECT_EQ(acc.count(1, VoteKind::kFallback, b->id()), 0u);
  // Each (kind, block) bucket holds the voter once.
  EXPECT_EQ(acc.count(1, VoteKind::kNormal, block_->id()), 1u);
  EXPECT_EQ(acc.count(1, VoteKind::kNormal, b->id()), 1u);
  EXPECT_EQ(acc.count(1, VoteKind::kNormal, c->id()), 1u);
  EXPECT_EQ(acc.count(1, VoteKind::kCommit, block_->id()), 1u);
}

TEST_F(AccumulatorTest, LateVotesAfterQuorumAreNeitherDuplicatesNorCounted) {
  VoteAccumulator acc(gen_.set, true);
  for (NodeId i = 0; i < 2; ++i) acc.add(vote_from(i), 1);
  ASSERT_NE(acc.add(vote_from(2), 1), nullptr);
  EXPECT_EQ(acc.add(vote_from(3), 1), nullptr);  // late
  EXPECT_EQ(acc.add(vote_from(0), 1), nullptr);  // late re-send
  EXPECT_EQ(acc.duplicates_dropped(), 0u);
  EXPECT_EQ(acc.count(1, VoteKind::kNormal, block_->id()), 3u);
}

// A bucket lets go of its votes once the certificate is assembled; the count
// it reports, the certificate's contents and the other buckets of the view
// must not notice.
TEST_F(AccumulatorTest, CountKeepsTheQuorumAfterEmission) {
  const auto gen = ValidatorSet::generate(200, crypto::fast_scheme(), 3);
  const std::size_t quorum = gen.set->quorum_size();
  const auto other = Block::create(1, 1, Block::genesis()->id(), Payload::synthetic(20, 2));
  auto vote = [&](NodeId i, const BlockPtr& block) {
    return Vote::make(VoteKind::kNormal, 1, block->id(), i, gen.private_keys[i],
                      gen.set->scheme());
  };
  VoteAccumulator acc(gen.set, true);
  acc.add(vote(199, other), 1);  // a second bucket in the same view
  QcPtr qc;
  for (NodeId i = 0; i < quorum; ++i) {
    EXPECT_EQ(qc, nullptr);
    qc = acc.add(vote(i, block_), 1);
  }
  ASSERT_NE(qc, nullptr);
  EXPECT_EQ(acc.count(1, VoteKind::kNormal, block_->id()), quorum);
  ASSERT_EQ(qc->voters.size(), quorum);
  for (NodeId i = 0; i < quorum; ++i) EXPECT_EQ(qc->voters[i], i);
  EXPECT_TRUE(qc->validate(*gen.set));
  // Late votes after the release change nothing.
  for (NodeId i = static_cast<NodeId>(quorum); i < 199; ++i)
    EXPECT_EQ(acc.add(vote(i, block_), 1), nullptr);
  EXPECT_EQ(acc.count(1, VoteKind::kNormal, block_->id()), quorum);
  EXPECT_EQ(acc.duplicates_dropped(), 0u);
  // The other bucket keeps accumulating.
  acc.add(vote(0, other), 1);
  EXPECT_EQ(acc.count(1, VoteKind::kNormal, other->id()), 2u);
}

TEST_F(AccumulatorTest, VoterIdsOnBitsetWordEdges) {
  for (const std::size_t n : {64u, 65u, 200u}) {
    SCOPED_TRACE(n);
    const auto gen = ValidatorSet::generate(n, crypto::fast_scheme(), 7);
    const auto other = Block::create(1, 1, Block::genesis()->id(), Payload::synthetic(20, 2));
    auto vote = [&](NodeId i, const BlockPtr& block) {
      return Vote::make(VoteKind::kNormal, 1, block->id(), i, gen.private_keys[i],
                        gen.set->scheme());
    };
    VoteAccumulator acc(gen.set, true);
    std::vector<NodeId> edges = {0, 62, 63, static_cast<NodeId>(n - 1)};
    if (n > 64) edges.push_back(64);
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    for (NodeId i : edges) {
      acc.add(vote(i, block_), 1);
      acc.add(vote(i, block_), 1);  // duplicate caught at the edge bit
      acc.add(vote(i, other), 1);   // equivocation caught at the edge slot
    }
    EXPECT_EQ(acc.count(1, VoteKind::kNormal, block_->id()), edges.size());
    EXPECT_EQ(acc.count(1, VoteKind::kNormal, other->id()), edges.size());
    EXPECT_EQ(acc.duplicates_dropped(), edges.size());
    EXPECT_EQ(acc.equivocations_seen(), edges.size());
    Vote outsider = vote(0, block_);
    outsider.voter = static_cast<NodeId>(n);  // one past the last validator
    EXPECT_EQ(acc.add(outsider, 1), nullptr);
    // The rest of the quorum completes the certificate exactly once.
    QcPtr qc;
    for (NodeId i = 0; i < n && !qc; ++i) qc = acc.add(vote(i, block_), 1);
    ASSERT_NE(qc, nullptr);
    EXPECT_EQ(qc->voters.size(), gen.set->quorum_size());
    EXPECT_EQ(acc.count(1, VoteKind::kNormal, block_->id()), gen.set->quorum_size());

    TimeoutAccumulator tacc(gen.set, true);
    for (NodeId i : edges) {
      tacc.add(TimeoutMsg::make(2, i, nullptr, gen.private_keys[i], gen.set->scheme()));
      tacc.add(TimeoutMsg::make(2, i, nullptr, gen.private_keys[i], gen.set->scheme()));
      tacc.add(TimeoutMsg::make(2, i, qc, gen.private_keys[i], gen.set->scheme()));
      tacc.add(TimeoutMsg::make(2, i, qc, gen.private_keys[i], gen.set->scheme()));
    }
    EXPECT_EQ(tacc.count(2), edges.size());
    EXPECT_EQ(tacc.duplicates_dropped(), edges.size());
    EXPECT_EQ(tacc.equivocations_seen(), edges.size());
  }
}

TEST_F(AccumulatorTest, PruneThenReAddStartsFresh) {
  VoteAccumulator acc(gen_.set, true);
  acc.add(vote_from(0), 1);
  acc.add(vote_from(1), 1);
  acc.add(vote_from(0, VoteKind::kNormal, 4), 1);
  acc.prune_below(2);
  EXPECT_EQ(acc.count(1, VoteKind::kNormal, block_->id()), 0u);
  EXPECT_EQ(acc.count(4, VoteKind::kNormal, block_->id()), 1u);
  // A pruned view's votes are accepted again as new, not as duplicates.
  EXPECT_EQ(acc.add(vote_from(0), 1), nullptr);
  EXPECT_EQ(acc.duplicates_dropped(), 0u);
  EXPECT_EQ(acc.count(1, VoteKind::kNormal, block_->id()), 1u);
  acc.add(vote_from(1), 1);
  EXPECT_NE(acc.add(vote_from(2), 1), nullptr);
  EXPECT_EQ(acc.count(4, VoteKind::kNormal, block_->id()), 1u);

  TimeoutAccumulator tacc(gen_.set, true);
  tacc.add(timeout_from(0, 2));
  tacc.add(timeout_from(0, 5));
  tacc.prune_below(3);
  EXPECT_EQ(tacc.count(2), 0u);
  EXPECT_EQ(tacc.count(5), 1u);
  tacc.add(timeout_from(0, 2));
  EXPECT_EQ(tacc.count(2), 1u);
  EXPECT_EQ(tacc.duplicates_dropped(), 0u);
}

TEST_F(AccumulatorTest, CountReportsUnknownKeysAsZero) {
  VoteAccumulator acc(gen_.set, true);
  EXPECT_EQ(acc.count(1, VoteKind::kNormal, block_->id()), 0u);
  acc.add(vote_from(0), 1);
  EXPECT_EQ(acc.count(1, VoteKind::kNormal, block_->id()), 1u);
  EXPECT_EQ(acc.count(1, VoteKind::kOptimistic, block_->id()), 0u);
  EXPECT_EQ(acc.count(1, VoteKind::kNormal, Block::genesis()->id()), 0u);
  EXPECT_EQ(acc.count(2, VoteKind::kNormal, block_->id()), 0u);
  TimeoutAccumulator tacc(gen_.set, true);
  EXPECT_EQ(tacc.count(7), 0u);
}

}  // namespace
}  // namespace moonshot
