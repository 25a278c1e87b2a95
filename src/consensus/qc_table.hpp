// The per-view table behind BaseNode's commit rule: which block, if any, was
// certified in each view.
//
// An entry is the certified BlockId and a presence flag, about 33 B per
// view. The commit rule and the protocols' duplicate checks read only the
// certified block, so the table keeps no certificate: a QuorumCert is freed
// as soon as its last holder (a lock, a message in flight, a TC) drops it.
//
// Honest views are dense and monotone, so entries live in a vector indexed
// by view - base, where base is the first view recorded (a restored node
// starts its window where its log resumes). A received certificate can name
// any view, though, and no allocation may scale with a number taken off the
// wire: a view below base or more than kMaxStride past the window's end goes
// to a small fallback map instead, and moves into the window when the window
// grows to reach it, so one insert grows the window by at most kMaxStride
// slots. Lookups stay correct either way; a node whose views jump by more
// than kMaxStride just keeps paying map lookups for them. The first block
// recorded for a view wins.
#pragma once

#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "types/block.hpp"

namespace moonshot {

class QcTable {
 public:
  /// How far past its end the window may grow in one step.
  static constexpr View kMaxStride = 1024;

  /// The block certified in `v`, or nullptr.
  const BlockId* find(View v) const {
    if (v >= base_ && v - base_ < window_.size()) {
      const auto& slot = window_[v - base_];
      return slot ? &*slot : nullptr;
    }
    if (sparse_.empty()) return nullptr;
    auto it = sparse_.find(v);
    return it == sparse_.end() ? nullptr : &it->second;
  }

  /// Records `block` as certified in `v` unless a block is already recorded
  /// for the view. Returns the block now recorded and whether it is `block`.
  std::pair<const BlockId&, bool> insert(View v, const BlockId& block) {
    if (const BlockId* known = find(v)) return {*known, false};
    if (window_.empty() && sparse_.empty()) base_ = v;
    if (v < base_ || v - base_ >= window_.size() + kMaxStride) {
      return {sparse_.emplace(v, block).first->second, true};
    }
    if (v - base_ >= window_.size()) grow(v - base_ + 1);
    return {window_[v - base_].emplace(block), true};
  }

  /// Views held in the window and in the fallback map (memory diagnostics).
  std::size_t window_size() const { return window_.size(); }
  std::size_t sparse_size() const { return sparse_.size(); }

 private:
  void grow(std::size_t size) {
    window_.resize(size);
    // Fallback entries the window now covers move in, so find() need not
    // consult the map for in-window views.
    auto it = sparse_.lower_bound(base_);
    while (it != sparse_.end() && it->first - base_ < window_.size()) {
      window_[it->first - base_] = it->second;
      it = sparse_.erase(it);
    }
  }

  View base_ = 0;
  std::vector<std::optional<BlockId>> window_;  // window_[v - base_]
  std::map<View, BlockId> sparse_;
};

}  // namespace moonshot
