#include "consensus/accumulators.hpp"

#include "support/mutations.hpp"

namespace moonshot {

namespace {
constexpr std::size_t kVoteKinds = static_cast<std::size_t>(VoteKind::kCommit) + 1;

// kCertQuorumFPlusOne weakens the certificate threshold from 2f+1 to f+1 —
// below quorum intersection, so two conflicting certificates can coexist in
// one view without any equivocating voter.
std::size_t cert_threshold(const ValidatorSet& validators) {
  if (mutation_on(Mutation::kCertQuorumFPlusOne)) return validators.honest_evidence_size();
  return validators.quorum_size();
}
}  // namespace

VoteAccumulator::Bucket* VoteAccumulator::admit(const Vote& vote) {
  if (!validators_->contains(vote.voter)) return nullptr;
  const std::size_t n = validators_->size();

  // Dedupe first: replays never reach signature verification.
  PerView& pv = by_view_.get(
      vote.view, [&] { return PerView{{}, std::vector<std::uint32_t>(kVoteKinds * n)}; });
  auto it = std::find_if(pv.buckets.begin(), pv.buckets.end(), [&](const Bucket& b) {
    return b.kind == vote.kind && b.block == vote.block;
  });
  if (it == pv.buckets.end()) {
    it = pv.buckets.insert(it, Bucket{vote.kind, vote.block, VoterBits(n), {}, 0, false});
    it->votes.reserve(cert_threshold(*validators_));  // a bucket stops growing at quorum
  }
  Bucket& bucket = *it;
  if (bucket.emitted) return nullptr;
  if (bucket.voters.test(vote.voter)) {
    ++duplicates_dropped_;
    return nullptr;
  }

  if (verify_ && !vote.verify(*validators_)) return nullptr;

  const auto index = static_cast<std::uint32_t>(it - pv.buckets.begin()) + 1;
  std::uint32_t& first = pv.first[static_cast<std::size_t>(vote.kind) * n + vote.voter];
  if (first == 0) first = index;
  else if (first != index) ++equivocations_seen_;
  bucket.voters.set(vote.voter);
  bucket.votes.push_back(vote);
  ++bucket.count;

  if (bucket.count < cert_threshold(*validators_)) return nullptr;
  bucket.emitted = true;
  return &bucket;
}

QcPtr VoteAccumulator::emit(Bucket& bucket, Height block_height) {
  QcPtr qc = QuorumCert::assemble(bucket.votes, block_height, *validators_, aggregate_);
  // The certificate carries the votes now: free them, keep the count.
  // Move-assign, since `votes = {}` would keep the capacity.
  bucket.votes = std::vector<Vote>();
  return qc;
}

std::size_t VoteAccumulator::count(View view, VoteKind kind, const BlockId& block) const {
  const PerView* pv = by_view_.find(view);
  if (!pv) return 0;
  for (const Bucket& b : pv->buckets)
    if (b.kind == kind && b.block == block) return b.count;
  return 0;
}

TimeoutAccumulator::Result TimeoutAccumulator::add(const TimeoutMsg& timeout) {
  Result result;
  if (!validators_->contains(timeout.sender)) return result;
  const std::size_t n = validators_->size();

  // Dedupe first: replays never reach signature verification. First-wins:
  // the counted message may already be embedded in an emitted TC, so a later
  // conflicting one must not replace it — it is only *counted* (once per
  // (view, sender)) as equivocation evidence.
  Bucket& bucket = by_view_.get(timeout.view, [&] {
    Bucket b{{}, std::vector<std::uint32_t>(n), VoterBits(n), false, false};
    b.timeouts.reserve(validators_->quorum_size());
    return b;
  });
  if (const std::uint32_t seen = bucket.slot[timeout.sender]) {
    const TimeoutMsg& t = bucket.timeouts[seen - 1];
    const View seen_lock = t.high_qc ? t.high_qc->view : 0;
    const View new_lock = timeout.high_qc ? timeout.high_qc->view : 0;
    if (seen_lock == new_lock) {
      ++duplicates_dropped_;
    } else if (!bucket.equivocators.test(timeout.sender)) {
      bucket.equivocators.set(timeout.sender);
      ++equivocations_seen_;
    }
    return result;
  }

  if (!timeout.verify(*validators_, verify_, cert_cache_)) return result;
  bucket.timeouts.push_back(timeout);
  bucket.slot[timeout.sender] = static_cast<std::uint32_t>(bucket.timeouts.size());

  if (!bucket.f1_emitted && bucket.timeouts.size() >= validators_->honest_evidence_size()) {
    bucket.f1_emitted = true;
    result.reached_f_plus_1 = true;
  }
  if (!bucket.tc_emitted && bucket.timeouts.size() >= validators_->quorum_size()) {
    bucket.tc_emitted = true;
    result.tc = TimeoutCert::assemble(bucket.timeouts, *validators_);
  }
  return result;
}

}  // namespace moonshot
