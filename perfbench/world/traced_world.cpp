#include "traced_world.hpp"

#include <stdexcept>

#include "consensus/moonshot/commit_moonshot.hpp"
#include "consensus/moonshot/pipelined_moonshot.hpp"
#include "wal/wal.hpp"

namespace perfbench {

using namespace moonshot;

namespace {

class TimedNetwork final : public net::INetwork {
 public:
  TimedNetwork(net::INetwork& inner, SpanStack& spans) : inner_(inner), spans_(spans) {}

  void multicast(NodeId from, MessagePtr m) override {
    Span span(spans_, Layer::kNet);
    inner_.multicast(from, std::move(m));
  }
  void unicast(NodeId from, NodeId to, MessagePtr m) override {
    Span span(spans_, Layer::kNet);
    inner_.unicast(from, to, std::move(m));
  }

 private:
  net::INetwork& inner_;
  SpanStack& spans_;
};

class TimedScheme final : public crypto::SignatureScheme {
 public:
  TimedScheme(std::shared_ptr<const crypto::SignatureScheme> inner, SpanStack& spans,
              CryptoCounts& counts)
      : inner_(std::move(inner)), spans_(spans), counts_(counts) {}

  crypto::KeyPair derive_keypair(std::uint64_t seed) const override {
    return inner_->derive_keypair(seed);
  }
  crypto::Signature sign(const crypto::PrivateKey& priv, BytesView message) const override {
    Span span(spans_, Layer::kCrypto);
    ++counts_.sign_calls;
    return inner_->sign(priv, message);
  }
  bool verify(const crypto::PublicKey& pub, BytesView message,
              const crypto::Signature& sig) const override {
    Span span(spans_, Layer::kCrypto);
    ++counts_.verify_calls;
    return inner_->verify(pub, message, sig);
  }
  // The name enters the validator-set digest, so it must be the inner one.
  std::string name() const override { return inner_->name(); }
  bool verify_batch(const std::vector<crypto::BatchItem>& items,
                    std::vector<std::size_t>* bad) const override {
    Span span(spans_, Layer::kCrypto);
    ++counts_.batch_calls;
    counts_.batch_items += items.size();
    return inner_->verify_batch(items, bad);
  }
  bool supports_aggregation() const override { return inner_->supports_aggregation(); }
  crypto::Signature aggregate(BytesView message,
                              const std::vector<crypto::Signature>& sigs) const override {
    Span span(spans_, Layer::kCrypto);
    return inner_->aggregate(message, sigs);
  }
  bool verify_aggregate(const std::vector<crypto::PublicKey>& pubs, BytesView message,
                        const crypto::Signature& agg) const override {
    Span span(spans_, Layer::kCrypto);
    ++counts_.verify_calls;
    return inner_->verify_aggregate(pubs, message, agg);
  }

 private:
  std::shared_ptr<const crypto::SignatureScheme> inner_;
  SpanStack& spans_;
  CryptoCounts& counts_;
};

}  // namespace

// Mirrors Experiment::Experiment step by step: the order of construction is
// part of what makes the two worlds schedule identical events.
TracedWorld::TracedWorld(ExperimentConfig cfg, SpanStack& spans, CryptoCounts& crypto)
    : cfg_(std::move(cfg)), spans_(spans) {
  if (cfg_.fault_kind != FaultKind::kCrash || !cfg_.adversaries.empty() ||
      !cfg_.leader_order.empty() || cfg_.tracer || cfg_.registry || cfg_.payload_source ||
      cfg_.tolerant_commit_log) {
    throw std::invalid_argument("TracedWorld: configuration outside the benchmark's workloads");
  }
  down_.assign(cfg_.n, 0);

  cfg_.net.seed = cfg_.seed;
  cfg_.net.delta = cfg_.delta;
  network_ = std::make_unique<net::SimNetwork>(
      sched_, cfg_.n, cfg_.net, [this](NodeId to, NodeId from, const MessagePtr& m) {
        if (is_faulty(to) || down_[to]) return;
        Span span(spans_, Layer::kConsensus);
        nodes_[to]->handle(from, m);
      });
  timed_network_ = std::make_unique<TimedNetwork>(*network_, spans_);

  auto scheme = std::make_shared<const TimedScheme>(
      cfg_.use_ed25519 ? crypto::ed25519_scheme() : crypto::fast_scheme(), spans_, crypto);
  auto generated = ValidatorSet::generate(cfg_.n, std::move(scheme), cfg_.seed);
  validators_ = generated.set;
  private_keys_ = std::move(generated.private_keys);

  if (cfg_.tx_rate > 0) {
    tx_tracker_ =
        std::make_unique<TxTracker>(cfg_.tx_rate, validators_->quorum_size(), cfg_.seed);
  }

  std::vector<NodeId> byzantine;
  for (std::size_t i = cfg_.n - cfg_.crashed; i < cfg_.n; ++i)
    byzantine.push_back(static_cast<NodeId>(i));
  switch (cfg_.schedule) {
    case ScheduleKind::kRoundRobin:
      leaders_ = std::make_shared<const RoundRobinSchedule>(cfg_.n);
      break;
    case ScheduleKind::kB: leaders_ = make_schedule_b(cfg_.n, byzantine); break;
    case ScheduleKind::kWM: leaders_ = make_schedule_wm(cfg_.n, byzantine); break;
    case ScheduleKind::kWJ: leaders_ = make_schedule_wj(cfg_.n, byzantine); break;
  }

  const std::uint64_t payload_size = cfg_.payload_size;
  const std::uint64_t seed = cfg_.seed;
  payloads_ = [payload_size, seed](View v) {
    return Payload::synthetic(payload_size, seed * 0x100000000ull + v);
  };

  if (cfg_.enable_wal) {
    wals_.resize(cfg_.n);
    for (NodeId id = 0; id < cfg_.n; ++id) {
      wals_[id] = std::make_unique<wal::Wal>(id, &sched_, cfg_.seed, cfg_.wal);
    }
  }

  nodes_.reserve(cfg_.n);
  for (NodeId id = 0; id < cfg_.n; ++id) {
    auto node = make_node(id);
    attach_commit_hook(*node, id);
    nodes_.push_back(std::move(node));
  }
  for (NodeId b : byzantine) network_->silence(b);
}

std::unique_ptr<IConsensusNode> TracedWorld::make_node(NodeId id) {
  NodeContext ctx;
  ctx.id = id;
  ctx.validators = validators_;
  ctx.priv = private_keys_[id];
  ctx.network = timed_network_.get();
  ctx.sched = &sched_;
  ctx.leaders = leaders_;
  ctx.delta = cfg_.delta;
  ctx.payload_for_view = payloads_;
  ctx.on_block_created = [this](const BlockPtr& b, TimePoint t) {
    metrics_.on_created(b, t);
    if (tx_tracker_) tx_tracker_->on_block_created(b, t);
  };
  ctx.verify_signatures = cfg_.verify_signatures;
  ctx.enable_opt_proposal = cfg_.enable_opt_proposal;
  ctx.multicast_votes = cfg_.multicast_votes;
  ctx.timeout_backoff = cfg_.timeout_backoff;
  ctx.timeout_backoff_cap = cfg_.timeout_backoff_cap;
  ctx.timeout_jitter_pct = cfg_.timeout_jitter_pct;
  ctx.backoff_reset_on_progress = cfg_.backoff_reset_on_progress;
  ctx.seed = cfg_.seed;
  ctx.aggregate_certificates =
      cfg_.aggregate_certificates && validators_->scheme().supports_aggregation();
  ctx.lso_mode = cfg_.lso_mode;
  ctx.wal = wal_of(id);
  switch (cfg_.protocol) {
    case ProtocolKind::kPipelinedMoonshot:
      return std::make_unique<PipelinedMoonshotNode>(std::move(ctx));
    case ProtocolKind::kCommitMoonshot:
      return std::make_unique<CommitMoonshotNode>(std::move(ctx));
    default:
      throw std::invalid_argument("TracedWorld: protocol outside the benchmark's workloads");
  }
}

void TracedWorld::attach_commit_hook(IConsensusNode& node, NodeId id) {
  node.commit_log_mutable().add_callback([this, id](const BlockPtr& b, TimePoint t) {
    Span span(spans_, Layer::kLedger);
    metrics_.on_committed(id, b, t);
    if (tx_tracker_) tx_tracker_->on_block_committed(id, b, t);
  });
}

void TracedWorld::start() {
  if (started_) return;
  started_ = true;
  for (NodeId id = 0; id < cfg_.n; ++id) {
    if (is_faulty(id) || down_[id]) continue;
    Span span(spans_, Layer::kConsensus);
    nodes_[id]->start();
  }
}

void TracedWorld::crash_node(NodeId id) {
  if (is_faulty(id) || down_.at(id)) return;
  down_[id] = 1;
  network_->silence(id);
  nodes_[id]->halt();
  if (wal::Wal* wal = wal_of(id)) wal->crash();
}

void TracedWorld::recover_node(NodeId id, RecoveryMode mode) {
  if (mode != RecoveryMode::kDurable || wal_of(id) == nullptr) {
    throw std::invalid_argument("TracedWorld: only durable recovery with a WAL is supported");
  }
  if (!down_.at(id)) return;
  auto fresh = make_node(id);
  {
    Span span(spans_, Layer::kWal);
    fresh->restore_from_wal(wal_of(id)->replay());
  }
  attach_commit_hook(*fresh, id);
  retired_.push_back(std::move(nodes_[id]));
  nodes_[id] = std::move(fresh);
  down_[id] = 0;
  network_->unsilence(id);
  if (started_) {
    Span span(spans_, Layer::kConsensus);
    nodes_[id]->start();
  }
}

ExperimentResult TracedWorld::result() {
  ExperimentResult r;
  r.quorum = validators_->quorum_size();
  r.summary = metrics_.summarize(r.quorum, cfg_.duration);
  r.net_stats = network_->stats();
  r.events = sched_.events_executed();
  std::vector<const CommitLog*> logs;
  for (NodeId id = 0; id < cfg_.n; ++id) {
    if (is_faulty(id)) continue;
    r.max_view = std::max(r.max_view, nodes_[id]->current_view());
    logs.push_back(&nodes_[id]->commit_log());
  }
  r.logs_consistent = commit_logs_consistent(logs);
  if (tx_tracker_) r.tx = tx_tracker_->summarize(cfg_.duration);
  return r;
}

}  // namespace perfbench
