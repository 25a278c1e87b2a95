// The per-view certificate table behind BaseNode's commit rule.
//
// Honest views are dense and monotone, so certificates live in a vector
// indexed by view - base, where base is the first view recorded (a restored
// node starts its window where its log resumes). A received certificate can
// name any view, though, and no allocation may scale with a number taken off
// the wire: a view below base or more than kMaxStride past the window's end
// goes to a small fallback map instead, and moves into the window when the
// window grows to reach it, so one insert grows the window by at most
// kMaxStride slots. Lookups stay correct either way; a node whose views jump
// by more than kMaxStride just keeps paying map lookups for them. Entries are
// never removed, and the first certificate recorded for a view wins.
#pragma once

#include <map>
#include <utility>
#include <vector>

#include "types/certs.hpp"

namespace moonshot {

class QcTable {
 public:
  /// How far past its end the window may grow in one step.
  static constexpr View kMaxStride = 1024;

  /// The certificate recorded for `v`, or nullptr.
  const QcPtr& find(View v) const {
    if (v >= base_ && v - base_ < window_.size()) return window_[v - base_];
    if (sparse_.empty()) return kNone;
    auto it = sparse_.find(v);
    return it == sparse_.end() ? kNone : it->second;
  }

  /// Records `qc` for its view unless one is already there. Returns the
  /// certificate now recorded for the view and whether it is `qc`.
  std::pair<const QcPtr&, bool> insert(const QcPtr& qc) {
    const View v = qc->view;
    if (const QcPtr& known = find(v)) return {known, false};
    if (window_.empty() && sparse_.empty()) base_ = v;
    if (v < base_ || v - base_ >= window_.size() + kMaxStride) {
      return {sparse_.emplace(v, qc).first->second, true};
    }
    if (v - base_ >= window_.size()) grow(v - base_ + 1);
    return {window_[v - base_] = qc, true};
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
      window_[it->first - base_] = std::move(it->second);
      it = sparse_.erase(it);
    }
  }

  inline static const QcPtr kNone{};
  View base_ = 0;
  std::vector<QcPtr> window_;  // window_[v - base_]
  std::map<View, QcPtr> sparse_;
};

}  // namespace moonshot
