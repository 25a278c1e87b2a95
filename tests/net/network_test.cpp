#include "net/network.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "sim/scheduler.hpp"

namespace moonshot::net {
namespace {

MessagePtr tiny_message(NodeId sender) {
  return make_message<CertMsg>(QuorumCert::genesis_qc(), sender);
}

MessagePtr big_message(NodeId sender, std::uint64_t payload) {
  auto block = Block::create(1, 1, Block::genesis()->id(), Payload::synthetic(payload, 1));
  return make_message<ProposalMsg>(block, QuorumCert::genesis_qc(), nullptr, sender);
}

struct Capture {
  struct Delivery {
    NodeId to, from;
    TimePoint at;
  };
  std::vector<Delivery> deliveries;
};

NetworkConfig base_config(Duration one_way) {
  NetworkConfig cfg;
  cfg.matrix = LatencyMatrix::uniform(one_way, 1);
  cfg.regions_used = 1;
  cfg.jitter = 0.0;
  cfg.proc_base = Duration(0);
  cfg.proc_sig = Duration(0);
  cfg.proc_cert = Duration(0);
  cfg.proc_per_kb = Duration(0);
  cfg.adversarial_before_gst = false;
  return cfg;
}

TEST(SimNetwork, UnicastArrivesAfterPropagation) {
  sim::Scheduler sched;
  Capture cap;
  SimNetwork net(sched, 3, base_config(milliseconds(10)),
                 [&](NodeId to, NodeId from, const MessagePtr&) {
                   cap.deliveries.push_back({to, from, sched.now()});
                 });
  net.unicast(0, 1, tiny_message(0));
  sched.run_all();
  ASSERT_EQ(cap.deliveries.size(), 1u);
  EXPECT_EQ(cap.deliveries[0].to, 1u);
  // ~10ms propagation plus serialization of a small message.
  EXPECT_GE(cap.deliveries[0].at.ns, Duration(milliseconds(10)).count());
  EXPECT_LT(cap.deliveries[0].at.ns, Duration(milliseconds(11)).count());
}

TEST(SimNetwork, MulticastReachesAllIncludingSelf) {
  sim::Scheduler sched;
  Capture cap;
  SimNetwork net(sched, 4, base_config(milliseconds(5)),
                 [&](NodeId to, NodeId from, const MessagePtr&) {
                   cap.deliveries.push_back({to, from, sched.now()});
                 });
  net.multicast(2, tiny_message(2));
  sched.run_all();
  ASSERT_EQ(cap.deliveries.size(), 4u);
  // Self-delivery is immediate.
  EXPECT_EQ(cap.deliveries[0].to, 2u);
  EXPECT_EQ(cap.deliveries[0].at.ns, 0);
}

TEST(SimNetwork, BandwidthSerializesLargeMessages) {
  sim::Scheduler sched;
  Capture cap;
  auto cfg = base_config(milliseconds(0));
  cfg.bandwidth_bps = 8e6;  // 1 MB/s
  SimNetwork net(sched, 3, cfg, [&](NodeId to, NodeId from, const MessagePtr&) {
    cap.deliveries.push_back({to, from, sched.now()});
  });
  // 1 MB payload through 1 MB/s: ~1s egress per copy + ~1s ingress.
  net.unicast(0, 1, big_message(0, 1000000));
  sched.run_all();
  ASSERT_EQ(cap.deliveries.size(), 1u);
  const double secs = static_cast<double>(cap.deliveries[0].at.ns) / 1e9;
  EXPECT_NEAR(secs, 2.0, 0.1);  // egress + ingress serialization
}

TEST(SimNetwork, EgressFifoDelaysSecondMessage) {
  sim::Scheduler sched;
  Capture cap;
  auto cfg = base_config(milliseconds(0));
  cfg.bandwidth_bps = 8e6;
  SimNetwork net(sched, 3, cfg, [&](NodeId to, NodeId from, const MessagePtr&) {
    cap.deliveries.push_back({to, from, sched.now()});
  });
  net.unicast(0, 1, big_message(0, 1000000));
  net.unicast(0, 2, tiny_message(0));  // queued behind the big one
  sched.run_all();
  ASSERT_EQ(cap.deliveries.size(), 2u);
  // The tiny message cannot leave node 0 before the big one finished (~1s).
  TimePoint tiny_at{};
  for (const auto& d : cap.deliveries)
    if (d.to == 2) tiny_at = d.at;
  EXPECT_GT(tiny_at.ns, static_cast<std::int64_t>(0.9e9));
}

TEST(SimNetwork, SilencedNodeDropsTraffic) {
  sim::Scheduler sched;
  Capture cap;
  SimNetwork net(sched, 3, base_config(milliseconds(1)),
                 [&](NodeId to, NodeId from, const MessagePtr&) {
                   cap.deliveries.push_back({to, from, sched.now()});
                 });
  net.silence(1);
  net.multicast(1, tiny_message(1));  // from silenced: nothing
  net.unicast(0, 1, tiny_message(0));  // to silenced: dropped
  net.unicast(0, 2, tiny_message(0));  // unaffected
  sched.run_all();
  ASSERT_EQ(cap.deliveries.size(), 1u);
  EXPECT_EQ(cap.deliveries[0].to, 2u);
  EXPECT_GT(net.stats().messages_dropped, 0u);
}

TEST(SimNetwork, DropFilterPartitions) {
  sim::Scheduler sched;
  Capture cap;
  SimNetwork net(sched, 4, base_config(milliseconds(1)),
                 [&](NodeId to, NodeId from, const MessagePtr&) {
                   cap.deliveries.push_back({to, from, sched.now()});
                 });
  // Partition {0,1} | {2,3}.
  net.faults().add(std::make_shared<PredicateFault>([](NodeId from, NodeId to, const Message&) {
    return (from < 2) != (to < 2);
  }));
  net.multicast(0, tiny_message(0));
  sched.run_all();
  // Self + node 1 only.
  EXPECT_EQ(cap.deliveries.size(), 2u);
}

TEST(SimNetwork, PreGstAdversaryDelaysButDeliversByGstPlusDelta) {
  sim::Scheduler sched;
  Capture cap;
  auto cfg = base_config(milliseconds(1));
  cfg.adversarial_before_gst = true;
  cfg.gst = TimePoint{seconds(2).count()};
  cfg.delta = milliseconds(500);
  SimNetwork net(sched, 2, cfg, [&](NodeId to, NodeId from, const MessagePtr&) {
    cap.deliveries.push_back({to, from, sched.now()});
  });
  for (int i = 0; i < 20; ++i) net.unicast(0, 1, tiny_message(0));
  sched.run_all();
  ASSERT_EQ(cap.deliveries.size(), 20u);
  bool any_delayed = false;
  for (const auto& d : cap.deliveries) {
    EXPECT_LE(d.at.ns, (cfg.gst + cfg.delta).ns);  // partial synchrony bound
    if (d.at.ns > Duration(milliseconds(100)).count()) any_delayed = true;
  }
  EXPECT_TRUE(any_delayed);  // adversary actually used its power
}

TEST(SimNetwork, JitterIsDeterministicPerSeed) {
  auto run = [](std::uint64_t seed) {
    sim::Scheduler sched;
    std::vector<std::int64_t> times;
    auto cfg = base_config(milliseconds(10));
    cfg.jitter = 0.1;
    cfg.seed = seed;
    SimNetwork net(sched, 2, cfg, [&](NodeId, NodeId, const MessagePtr&) {
      times.push_back(sched.now().ns);
    });
    for (int i = 0; i < 5; ++i) net.unicast(0, 1, tiny_message(0));
    sched.run_all();
    return times;
  };
  EXPECT_EQ(run(1), run(1));
  EXPECT_NE(run(1), run(2));
}

TEST(SimNetwork, StatsCountMessages) {
  sim::Scheduler sched;
  SimNetwork net(sched, 3, base_config(milliseconds(1)),
                 [](NodeId, NodeId, const MessagePtr&) {});
  net.multicast(0, tiny_message(0));
  sched.run_all();
  EXPECT_EQ(net.stats().messages_sent, 3u);  // self + 2 peers
  EXPECT_EQ(net.stats().messages_delivered, 2u);  // peers (self not counted)
  EXPECT_GT(net.stats().bytes_sent, 0u);
}

// Records, for every point-to-point copy, the fate the faults ahead of it in
// the chain decided: the copies a receiver should get, in send order.
class CopyLog final : public ILinkFault {
 public:
  using Entry = std::pair<NodeId, std::size_t>;  // (from, wire type)
  explicit CopyLog(std::size_t n) : expected(n) {}
  void apply(NodeId from, NodeId to, const Message& m, TimePoint, FaultVerdict& v) override {
    if (v.drop) return;
    for (int i = 0; i <= v.duplicates; ++i) expected[to].emplace_back(from, m.index());
  }
  std::vector<std::vector<Entry>> expected;
};

TEST(SimNetwork, EachReceiverGetsItsCopiesInSendOrderUnderEveryPerturbation) {
  // The receive pipeline's busy-until watermark serializes every receiver's
  // copies: whatever jitter, reorder stress, the pre-GST adversary or a
  // delay/duplication fault does to a copy's arrival, a receiver processes
  // its copies in the order they were sent, at non-decreasing times.
  // Self-deliveries bypass the pipeline and keep their own send order.
  constexpr std::size_t n = 7;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    sim::Scheduler sched;
    NetworkConfig cfg;
    cfg.matrix = LatencyMatrix::aws5();
    cfg.jitter = 0.3;
    cfg.reorder_extra = milliseconds(40);
    cfg.gst = TimePoint::zero() + milliseconds(300);
    cfg.delta = milliseconds(200);
    cfg.seed = seed;
    std::vector<std::vector<CopyLog::Entry>> got(n);
    std::vector<CopyLog::Entry> self_sent, self_got;
    std::vector<TimePoint> last(n, TimePoint::zero());
    Prng prng(seed);
    int budget = 400;
    SimNetwork* netp = nullptr;
    auto send = [&](NodeId from) {
      if (budget-- <= 0) return;
      const MessagePtr m =
          prng.next_u64() % 3 == 0 ? big_message(from, 4000) : tiny_message(from);
      const bool multicast = prng.next_u64() % 2 == 0;
      const auto to = static_cast<NodeId>(prng.next_u64() % n);
      if (multicast || to == from) self_sent.emplace_back(from, m->index());
      if (multicast) netp->multicast(from, m);
      else netp->unicast(from, to, m);
    };
    SimNetwork net(sched, n, cfg, [&](NodeId to, NodeId from, const MessagePtr& m) {
      EXPECT_GE(sched.now(), last[to]) << "seed " << seed;
      last[to] = sched.now();
      (to == from ? self_got : got[to]).emplace_back(from, m->index());
      if (prng.next_u64() % 4 != 0) send(to);
    });
    netp = &net;
    auto dup = std::make_shared<LinkChaosFault>(LinkChaosFault::Kind::kDuplicate, 0.2,
                                                Duration(0), std::vector<Link>{}, seed);
    auto delay = std::make_shared<LinkChaosFault>(LinkChaosFault::Kind::kDelay, 0.3,
                                                  milliseconds(25), std::vector<Link>{}, seed);
    auto drop = std::make_shared<LinkChaosFault>(LinkChaosFault::Kind::kDrop, 0.1,
                                                 Duration(0), std::vector<Link>{}, seed);
    auto log = std::make_shared<CopyLog>(n);
    net.faults().add(dup);
    net.faults().add(delay);
    net.faults().add(drop);
    net.faults().add(log);
    for (NodeId i = 0; i < n; ++i) send(i);
    sched.run_all();
    for (NodeId to = 0; to < n; ++to)
      EXPECT_EQ(got[to], log->expected[to]) << "receiver " << to << ", seed " << seed;
    EXPECT_EQ(self_got, self_sent) << "seed " << seed;
    EXPECT_GT(net.stats().messages_duplicated, 0u);
  }
}

// --- per-send link terms ---------------------------------------------------------

// Delivery time of every copy of one multicast from `from`, in a fresh network
// (idle NICs), indexed by receiver.
std::vector<std::int64_t> multicast_arrivals(const NetworkConfig& cfg, std::size_t n, NodeId from,
                                             const MessagePtr& m) {
  sim::Scheduler sched;
  std::vector<std::int64_t> at(n, -1);
  SimNetwork net(sched, n, cfg,
                 [&](NodeId to, NodeId, const MessagePtr&) { at[to] = sched.now().ns; });
  net.multicast(from, m);
  sched.run_all();
  return at;
}

// The closed form of one copy's delivery with jitter and processing off: the
// copy leaves the sender's NIC after k serializations (copies go out in id
// order), propagates one way, pays the TCP-window term
// ⌊wire·8 / min(bw, window·8/rtt)·1e9⌋ with rtt twice the one-way time, and
// takes one more serialization through the receiver's NIC.
std::int64_t closed_form_arrival(const NetworkConfig& cfg, std::size_t n, NodeId from, NodeId to,
                                 std::uint64_t wire) {
  const RegionAssignment regions(n, std::min(cfg.regions_used, cfg.matrix.regions()),
                                 cfg.interleave_regions);
  const std::int64_t ser = static_cast<std::int64_t>(static_cast<double>(wire) * 8.0 /
                                                     cfg.bandwidth_bps * 1e9);
  const std::int64_t k = to < from ? to + 1 : to;
  const std::int64_t one_way =
      cfg.matrix.one_way(regions.region_of(from), regions.region_of(to)).count();
  const double rtt_s = 2.0 * static_cast<double>(one_way) / 1e9;
  std::int64_t window = 0;
  if (cfg.tcp_window_bytes > 0 && rtt_s > 0) {
    const double stream_bps =
        std::min(cfg.bandwidth_bps, static_cast<double>(cfg.tcp_window_bytes) * 8.0 / rtt_s);
    window = static_cast<std::int64_t>(
        std::floor(static_cast<double>(wire) * 8.0 / stream_bps * 1e9));
  }
  return k * ser + one_way + window + ser;
}

void expect_closed_form(const NetworkConfig& cfg, std::size_t n, const std::string& label) {
  for (NodeId from = 0; from < n; ++from) {
    const MessagePtr m = big_message(from, 1000000);
    const std::uint64_t wire = message_wire_size(*m);
    const auto at = multicast_arrivals(cfg, n, from, m);
    EXPECT_EQ(at[from], 0) << label;  // self-delivery: immediate and free
    for (NodeId to = 0; to < n; ++to) {
      if (to == from) continue;
      EXPECT_EQ(at[to], closed_form_arrival(cfg, n, from, to, wire))
          << label << ": " << from << " -> " << to;
    }
  }
}

NetworkConfig window_config() {
  auto cfg = base_config(milliseconds(0));
  cfg.matrix = LatencyMatrix::aws5();
  cfg.regions_used = 5;
  return cfg;
}

TEST(SimNetwork, TcpWindowTermMatchesClosedFormForEveryRegionPair) {
  // Two nodes per region, so every ordered region pair, same-region ones
  // included, carries a 1 MB proposal.
  const auto cfg = window_config();
  ASSERT_EQ(cfg.tcp_window_bytes, 2u * 1024 * 1024);
  expect_closed_form(cfg, 10, "aws5");
  // On the longest link the window, not the NIC, sets the pace: eu-north-1
  // (nodes 4, 5) to ap-southeast-2 (nodes 8, 9) adds about 130 ms to a 1 MB
  // proposal whose serialization takes 0.8 ms.
  const auto at = multicast_arrivals(cfg, 10, 4, big_message(4, 1000000));
  EXPECT_GT(at[8], (cfg.matrix.one_way(2, 4) + milliseconds(120)).count());
}

TEST(SimNetwork, TcpWindowTermVariants) {
  auto no_window = window_config();
  no_window.tcp_window_bytes = 0;
  expect_closed_form(no_window, 10, "no window");

  auto zero_latency = window_config();
  zero_latency.matrix = LatencyMatrix::uniform(Duration(0), 5);
  expect_closed_form(zero_latency, 10, "zero latency");  // rtt 0: no window term

  auto interleaved = window_config();
  interleaved.interleave_regions = true;
  expect_closed_form(interleaved, 7, "interleaved");

  auto three_regions = window_config();
  three_regions.regions_used = 3;
  expect_closed_form(three_regions, 8, "3 of 5 regions");
}

// --- held messages -----------------------------------------------------------------

TEST(SimNetwork, MulticastHoldsTheMessageOnceAndReleasesIt) {
  sim::Scheduler sched;
  SimNetwork net(sched, 5, base_config(milliseconds(1)),
                 [](NodeId, NodeId, const MessagePtr&) {});
  const MessagePtr m = tiny_message(0);
  net.multicast(0, m);
  EXPECT_EQ(m.use_count(), 2);  // one reference for all five copies
  sched.run_all();
  EXPECT_EQ(net.stats().messages_delivered, 4u);
  EXPECT_EQ(m.use_count(), 1);
}

TEST(SimNetwork, UnicastToSilencedNodeReleasesAtOnce) {
  sim::Scheduler sched;
  SimNetwork net(sched, 3, base_config(milliseconds(1)),
                 [](NodeId, NodeId, const MessagePtr&) {});
  net.silence(1);
  const MessagePtr m = tiny_message(0);
  net.unicast(0, 1, m);
  EXPECT_EQ(m.use_count(), 1);  // no copy in flight
  sched.run_all();
  EXPECT_EQ(m.use_count(), 1);
  EXPECT_EQ(net.stats().messages_dropped, 1u);
}

TEST(SimNetwork, DroppedAndDuplicatedCopiesRelease) {
  for (const auto kind : {LinkChaosFault::Kind::kDrop, LinkChaosFault::Kind::kDuplicate}) {
    sim::Scheduler sched;
    std::size_t delivered = 0;
    SimNetwork net(sched, 4, base_config(milliseconds(1)),
                   [&](NodeId, NodeId, const MessagePtr&) { ++delivered; });
    net.faults().add(std::make_shared<LinkChaosFault>(kind, 1.0, Duration(0),
                                                      std::vector<Link>{}, 1));
    const MessagePtr m = tiny_message(0);
    net.multicast(0, m);
    sched.run_all();
    EXPECT_EQ(m.use_count(), 1);
    // Self + every peer copy twice, or self alone.
    EXPECT_EQ(delivered, kind == LinkChaosFault::Kind::kDrop ? 1u : 7u);
  }
}

TEST(SimNetwork, CopiesRunOutOfOrderRelease) {
  // The model checker runs lane records in any order through run_task().
  sim::Scheduler sched;
  std::vector<NodeId> order;
  SimNetwork net(sched, 4, base_config(milliseconds(1)),
                 [&](NodeId to, NodeId, const MessagePtr&) { order.push_back(to); });
  const MessagePtr a = tiny_message(0);
  const MessagePtr b = tiny_message(1);
  net.multicast(0, a);
  net.unicast(1, 2, b);
  net.unicast(1, 2, b);
  sched.run_internal();  // the self-delivery
  EXPECT_EQ(a.use_count(), 2);
  EXPECT_EQ(b.use_count(), 3);  // two sends, each held once
  for (auto f = sched.frontier(); !f.empty(); f = sched.frontier())
    ASSERT_TRUE(sched.run_task(f.back().id));  // latest first
  EXPECT_EQ(order.size(), 6u);
  EXPECT_EQ(a.use_count(), 1);
  EXPECT_EQ(b.use_count(), 1);
}

}  // namespace
}  // namespace moonshot::net
