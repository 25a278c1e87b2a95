// The traced world: the world moonshot::Experiment builds, assembled here
// from the same public constructors, with timing decorators at each layer's
// entry points:
//   net        an INetwork wrapper around SimNetwork (multicast, unicast);
//   consensus  the SimNetwork DeliverFn calling IConsensusNode::handle, and
//              IConsensusNode::start;
//   crypto     a SignatureScheme wrapper handed to ValidatorSet::generate;
//   ledger     the CommitLog callbacks (metrics and transaction tracking);
//   wal        the durable recovery replay.
// The decorators only time and count, so the traced world must reproduce the
// untraced Experiment's scheduler fingerprint and outcome exactly. It covers
// what the benchmark's workloads use: no adversaries, tracer or registry.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "harness/experiment.hpp"
#include "spans.hpp"

namespace perfbench {

struct CryptoCounts {
  std::uint64_t sign_calls = 0;
  std::uint64_t verify_calls = 0;
  std::uint64_t batch_calls = 0;
  std::uint64_t batch_items = 0;
};

class TracedWorld {
 public:
  /// `spans` and `crypto` must outlive the world.
  TracedWorld(moonshot::ExperimentConfig cfg, SpanStack& spans, CryptoCounts& crypto);
  TracedWorld(const TracedWorld&) = delete;
  TracedWorld& operator=(const TracedWorld&) = delete;

  void start();
  void crash_node(moonshot::NodeId id);
  /// Only RecoveryMode::kDurable is supported.
  void recover_node(moonshot::NodeId id, moonshot::RecoveryMode mode);
  moonshot::ExperimentResult result();

  moonshot::sim::Scheduler& scheduler() { return sched_; }
  moonshot::net::SimNetwork& network() { return *network_; }
  moonshot::MetricsCollector& metrics() { return metrics_; }
  moonshot::IConsensusNode& node(moonshot::NodeId id) { return *nodes_.at(id); }
  std::size_t node_count() const { return nodes_.size(); }
  bool is_faulty(moonshot::NodeId id) const { return id + cfg_.crashed >= cfg_.n; }
  moonshot::wal::Wal* wal_of(moonshot::NodeId id) {
    return id < wals_.size() ? wals_[id].get() : nullptr;
  }

 private:
  std::unique_ptr<moonshot::IConsensusNode> make_node(moonshot::NodeId id);
  void attach_commit_hook(moonshot::IConsensusNode& node, moonshot::NodeId id);

  moonshot::ExperimentConfig cfg_;
  SpanStack& spans_;
  moonshot::sim::Scheduler sched_;
  std::unique_ptr<moonshot::net::SimNetwork> network_;
  std::unique_ptr<moonshot::net::INetwork> timed_network_;
  moonshot::ValidatorSetPtr validators_;
  std::vector<moonshot::crypto::PrivateKey> private_keys_;
  moonshot::LeaderSchedulePtr leaders_;
  moonshot::PayloadSource payloads_;
  std::vector<std::unique_ptr<moonshot::wal::Wal>> wals_;
  std::vector<std::unique_ptr<moonshot::IConsensusNode>> nodes_;
  std::vector<std::unique_ptr<moonshot::IConsensusNode>> retired_;
  std::vector<char> down_;
  moonshot::MetricsCollector metrics_;
  std::unique_ptr<moonshot::TxTracker> tx_tracker_;
  bool started_ = false;
};

}  // namespace perfbench
