// Vote and timeout accumulation: collecting quorums into certificates.
//
// Every node runs these locally because Moonshot multicasts votes — there is
// no designated aggregator. Accumulators deduplicate by sender, reject
// invalid signatures, emit each certificate exactly once, and prune state
// for old views as the node advances.
//
// Deduplication runs BEFORE signature verification: a vote or timeout from a
// sender already counted for that key is dropped without touching the
// (expensive) signature path, so replayed traffic costs a bit test rather
// than a curve operation.
//
// State is flat: a node holds only the few views it has not pruned yet, each
// in a vector sorted by view, and per-view voter state is indexed by
// validator id (bitsets and small arrays) rather than kept in node-based
// maps. A vote bucket lets go of its votes once it has assembled the
// certificate: the emitted certificate carries them, and what stays until the
// view is pruned is the dedupe bitset and the count.
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "types/certs.hpp"
#include "types/validator_set.hpp"
#include "types/vote.hpp"

namespace moonshot {

/// One bit per validator index.
class VoterBits {
 public:
  explicit VoterBits(std::size_t n = 0) : words_((n + 63) / 64) {}
  bool test(NodeId i) const { return (words_[i / 64] >> (i % 64)) & 1u; }
  void set(NodeId i) { words_[i / 64] |= std::uint64_t{1} << (i % 64); }

 private:
  std::vector<std::uint64_t> words_;
};

/// Per-view entries in a vector sorted by view. Lookups binary-search a few
/// contiguous entries; nothing is sized by the view number itself, so a view
/// taken off the wire costs one entry however large it is.
template <class T>
class ByView {
 public:
  const T* find(View v) const {
    auto it = lower(entries_, v);
    return it != entries_.end() && it->first == v ? &it->second : nullptr;
  }
  /// The entry for `v`, created by `make()` if absent.
  template <class Make>
  T& get(View v, Make make) {
    auto it = lower(entries_, v);
    if (it == entries_.end() || it->first != v) it = entries_.emplace(it, v, make());
    return it->second;
  }
  void prune_below(View v) { entries_.erase(entries_.begin(), lower(entries_, v)); }

 private:
  using Entry = std::pair<View, T>;
  template <class Self>
  static auto lower(Self& entries, View v) {
    return std::lower_bound(entries.begin(), entries.end(), v,
                            [](const Entry& e, View x) { return e.first < x; });
  }
  std::vector<Entry> entries_;
};

/// Accumulates votes per (view, kind, block). add() returns a certificate
/// the first time a quorum is reached for that key, nullptr otherwise.
class VoteAccumulator {
 public:
  VoteAccumulator(ValidatorSetPtr validators, bool verify_signatures,
                  bool aggregate_certificates = false)
      : validators_(std::move(validators)),
        verify_(verify_signatures),
        aggregate_(aggregate_certificates) {}

  /// Feeds one vote. `height_of(vote.block)` is the height of the voted
  /// block if known to the caller (metadata stored in the certificate), 0
  /// otherwise. It is called only by the vote that completes a quorum, so a
  /// caller's lookup runs once per certificate, not once per vote.
  template <class HeightOf>
    requires std::is_invocable_r_v<Height, HeightOf&, const BlockId&>
  QcPtr add(const Vote& vote, HeightOf&& height_of) {
    Bucket* full = admit(vote);
    return full ? emit(*full, height_of(vote.block)) : nullptr;
  }
  /// As above, with the height known up front.
  QcPtr add(const Vote& vote, Height block_height) {
    return add(vote, [block_height](const BlockId&) { return block_height; });
  }

  /// Number of distinct voters collected for a key (testing/diagnostics);
  /// after emission this stays the quorum it reached.
  std::size_t count(View view, VoteKind kind, const BlockId& block) const;

  /// Number of equivocations observed: votes whose (view, kind, voter) was
  /// already seen for a DIFFERENT block. Such votes are still counted toward
  /// their own block's quorum (safety does not depend on suppressing them —
  /// quorum intersection does the work); the counter is diagnostic evidence
  /// of Byzantine behaviour.
  std::uint64_t equivocations_seen() const { return equivocations_seen_; }

  /// Exact re-sends dropped by the dedupe fast path: same (view, kind,
  /// block, voter) seen again. Benign under retransmission, but a spike is
  /// evidence of replayed traffic.
  std::uint64_t duplicates_dropped() const { return duplicates_dropped_; }

  /// Drops all state for views < `view`.
  void prune_below(View view) { by_view_.prune_below(view); }

 private:
  struct Bucket {
    VoteKind kind;
    BlockId block;
    VoterBits voters;         // dedupe
    std::vector<Vote> votes;  // distinct voters, in arrival order; freed at quorum
    std::size_t count = 0;    // distinct voters counted, kept after the release
    bool emitted = false;
  };
  struct PerView {
    std::vector<Bucket> buckets;  // the few (kind, block) pairs seen
    // first[kind * n + voter]: 1 + index of the bucket the voter first voted
    // into with that kind this view, 0 if none — the equivocation probe.
    std::vector<std::uint32_t> first;
  };

  /// Counts `vote` into its bucket; returns the bucket if this vote brought
  /// it to quorum (marked emitted), nullptr otherwise.
  Bucket* admit(const Vote& vote);
  /// Assembles the bucket's certificate and frees its votes.
  QcPtr emit(Bucket& bucket, Height block_height);

  ValidatorSetPtr validators_;
  bool verify_;
  bool aggregate_;
  ByView<PerView> by_view_;
  std::uint64_t equivocations_seen_ = 0;
  std::uint64_t duplicates_dropped_ = 0;
};

/// Accumulates timeout messages per view. Emits two one-shot events per
/// view: the f+1 threshold (evidence at least one honest node timed out —
/// the Bracha amplification trigger) and the quorum TC.
class TimeoutAccumulator {
 public:
  TimeoutAccumulator(ValidatorSetPtr validators, bool verify_signatures)
      : validators_(std::move(validators)), verify_(verify_signatures) {}

  struct Result {
    bool reached_f_plus_1 = false;  // true the first time f+1 distinct senders seen
    TcPtr tc;                       // non-null the first time a quorum is reached
  };

  Result add(const TimeoutMsg& timeout);

  /// Installs a verified-certificate cache consulted when validating the
  /// locks attached to incoming timeouts (2f+1 timeouts usually carry the
  /// same few QCs). Borrowed pointer; must outlive the accumulator.
  void set_cert_cache(CertVerifyCache* cache) { cert_cache_ = cache; }

  std::size_t count(View view) const {
    const Bucket* b = by_view_.find(view);
    return b ? b->timeouts.size() : 0;
  }
  void prune_below(View view) { by_view_.prune_below(view); }

  /// Conflicting timeouts observed: a second timeout from an already-counted
  /// sender for the same view carrying a DIFFERENT high-QC view. The first
  /// message wins (it may already be embedded in an emitted TC; swapping
  /// retroactively would let the sender rewrite certificates); the conflict
  /// is counted exactly once per (view, sender) as adversary evidence.
  std::uint64_t equivocations_seen() const { return equivocations_seen_; }
  /// Exact re-sends from an already-counted sender (identical high-QC view):
  /// legitimate pacemaker retransmission, dropped by the dedupe fast path.
  std::uint64_t duplicates_dropped() const { return duplicates_dropped_; }

 private:
  struct Bucket {
    std::vector<TimeoutMsg> timeouts;  // distinct senders, in arrival order
    std::vector<std::uint32_t> slot;   // sender -> 1 + index in timeouts, 0 = none
    VoterBits equivocators;            // senders already counted as conflicting
    bool f1_emitted = false;
    bool tc_emitted = false;
  };

  ValidatorSetPtr validators_;
  bool verify_;
  CertVerifyCache* cert_cache_ = nullptr;
  ByView<Bucket> by_view_;
  std::uint64_t equivocations_seen_ = 0;
  std::uint64_t duplicates_dropped_ = 0;
};

}  // namespace moonshot
