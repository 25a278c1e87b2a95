// The totally ordered log of committed blocks.
//
// Enforces the structural invariant that each committed block directly
// extends the previously committed one. A violation here means the consensus
// implementation above it is unsafe, so it aborts loudly (BFT safety must
// hold for f ≤ ⌊(n-1)/3⌋ faults regardless of adversary behaviour).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "support/time.hpp"
#include "types/block.hpp"

namespace moonshot {

class CommitLog {
 public:
  using CommitCallback = std::function<void(const BlockPtr&, TimePoint)>;

  /// What commit() does when a block does not directly extend the last
  /// committed block. kAbort (default) crashes the process — in production a
  /// fork below the commit frontier is unrecoverable. kRecord latches
  /// fork_detected() and drops the block instead: the model checker and the
  /// mutation-validation harness need broken commit rules to surface as a
  /// *reportable* violation, not a dead process.
  enum class ForkPolicy { kAbort, kRecord };

  /// Appends `block` at commit time `when`. Aborts if the block does not
  /// directly extend the last committed block. Committing genesis is a no-op
  /// (it is implicitly committed at position 0).
  void commit(const BlockPtr& block, TimePoint when);

  void set_fork_policy(ForkPolicy p) { fork_policy_ = p; }

  /// True iff a conflicting commit was attempted under ForkPolicy::kRecord.
  bool fork_detected() const { return fork_detected_; }
  const std::string& fork_detail() const { return fork_detail_; }

  /// True if this block has already been committed: it is genesis, or the
  /// log holds it at its height. Answered by position, so the log keeps no
  /// id index beside the blocks themselves.
  bool is_committed(const Block& block) const;

  Height last_height() const {
    return blocks_.empty() ? 0 : blocks_.back()->height();
  }
  const BlockId& last_id() const {
    return blocks_.empty() ? Block::genesis()->id() : blocks_.back()->id();
  }
  const std::vector<BlockPtr>& blocks() const { return blocks_; }
  std::size_t size() const { return blocks_.size(); }

  /// Registers a listener invoked for every committed block (metrics, state
  /// machines). Multiple listeners run in registration order.
  void add_callback(CommitCallback cb) { callbacks_.push_back(std::move(cb)); }

 private:
  std::vector<BlockPtr> blocks_;  // excludes genesis; blocks_[i] has height i+1
  std::vector<CommitCallback> callbacks_;
  ForkPolicy fork_policy_ = ForkPolicy::kAbort;
  bool fork_detected_ = false;
  std::string fork_detail_;
};

/// Cross-node safety check: all logs must be prefix-comparable (no two nodes
/// commit different blocks at the same height). Returns true iff consistent.
bool commit_logs_consistent(const std::vector<const CommitLog*>& logs);

}  // namespace moonshot
