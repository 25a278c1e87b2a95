#include "ledger/commit_log.hpp"

#include <gtest/gtest.h>

namespace moonshot {
namespace {

BlockPtr make_child(const BlockPtr& parent, View view) {
  return Block::create(view, parent->height() + 1, parent->id(),
                       Payload::synthetic(10, view));
}

TEST(CommitLog, CommitsInOrder) {
  CommitLog log;
  const auto b1 = make_child(Block::genesis(), 1);
  const auto b2 = make_child(b1, 2);
  log.commit(b1, TimePoint{100});
  log.commit(b2, TimePoint{200});
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.last_height(), 2u);
  EXPECT_EQ(log.last_id(), b2->id());
  EXPECT_TRUE(log.is_committed(*b1));
  EXPECT_TRUE(log.is_committed(*b2));
  EXPECT_FALSE(log.is_committed(*make_child(b2, 3)));  // above the log's tip
}

TEST(CommitLog, SiblingAtACommittedHeightIsNotCommitted) {
  CommitLog log;
  const auto b1 = make_child(Block::genesis(), 1);
  const auto b2 = make_child(b1, 2);
  log.commit(b1, TimePoint{});
  log.commit(b2, TimePoint{});
  const auto sibling1 = make_child(Block::genesis(), 5);  // height 1, other view
  const auto sibling2 = make_child(b1, 6);                 // height 2, same parent as b2
  ASSERT_EQ(sibling1->height(), b1->height());
  ASSERT_EQ(sibling2->height(), b2->height());
  EXPECT_FALSE(log.is_committed(*sibling1));
  EXPECT_FALSE(log.is_committed(*sibling2));
  EXPECT_TRUE(log.is_committed(*b1));
}

TEST(CommitLog, GenesisImplicitlyCommitted) {
  CommitLog log;
  EXPECT_TRUE(log.is_committed(*Block::genesis()));
  // A height-0 block other than genesis is not genesis.
  EXPECT_FALSE(log.is_committed(*Block::create(1, 0, Block::genesis()->id(), Payload{})));
  EXPECT_EQ(log.last_id(), Block::genesis()->id());
  log.commit(Block::genesis(), TimePoint{});  // no-op
  EXPECT_EQ(log.size(), 0u);
}

TEST(CommitLog, CallbackFires) {
  CommitLog log;
  std::vector<Height> seen;
  log.add_callback([&](const BlockPtr& b, TimePoint) { seen.push_back(b->height()); });
  const auto b1 = make_child(Block::genesis(), 1);
  log.commit(b1, TimePoint{});
  log.commit(make_child(b1, 2), TimePoint{});
  EXPECT_EQ(seen, (std::vector<Height>{1, 2}));
}

TEST(CommitLogDeathTest, HeightGapAborts) {
  CommitLog log;
  const auto b1 = make_child(Block::genesis(), 1);
  const auto b2 = make_child(b1, 2);
  EXPECT_DEATH(log.commit(b2, TimePoint{}), "height");
}

TEST(CommitLogDeathTest, ForkAborts) {
  CommitLog log;
  const auto b1a = make_child(Block::genesis(), 1);
  const auto b1b = make_child(Block::genesis(), 2);  // sibling at height 1
  const auto b2b = make_child(b1b, 3);
  log.commit(b1a, TimePoint{});
  EXPECT_DEATH(log.commit(b2b, TimePoint{}), "extend");
}

TEST(CommitLog, ConsistencyCheckAcceptsPrefixes) {
  CommitLog a, b;
  const auto b1 = make_child(Block::genesis(), 1);
  const auto b2 = make_child(b1, 2);
  a.commit(b1, TimePoint{});
  a.commit(b2, TimePoint{});
  b.commit(b1, TimePoint{});  // b is a prefix of a
  EXPECT_TRUE(commit_logs_consistent({&a, &b}));
}

TEST(CommitLog, ConsistencyCheckDetectsFork) {
  CommitLog a, b;
  const auto b1a = make_child(Block::genesis(), 1);
  const auto b1b = make_child(Block::genesis(), 2);
  a.commit(b1a, TimePoint{});
  b.commit(b1b, TimePoint{});
  EXPECT_FALSE(commit_logs_consistent({&a, &b}));
}

TEST(CommitLog, ConsistencyCheckEmptyLogs) {
  CommitLog a, b;
  EXPECT_TRUE(commit_logs_consistent({&a, &b}));
  EXPECT_TRUE(commit_logs_consistent({}));
}

}  // namespace
}  // namespace moonshot
