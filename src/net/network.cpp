#include "net/network.hpp"

#include <algorithm>

#include "obs/registry.hpp"

namespace moonshot::net {

// The obs layer mirrors the wire-type order of the Message variant so it can
// label counters without depending on types/messages.hpp internals. Catch a
// drifting variant at compile time.
static_assert(std::variant_size_v<Message> == obs::kMessageTypeCount,
              "obs::kMessageTypeCount / message_type_label() must mirror the Message variant");
static_assert(std::variant_size_v<Message> <= UINT8_MAX,
              "a lane record's tag holds the wire type in 8 bits");

SimNetwork::SimNetwork(sim::Scheduler& sched, std::size_t n, NetworkConfig cfg,
                       DeliverFn deliver)
    : sched_(sched),
      cfg_(std::move(cfg)),
      regions_(n, std::min(cfg_.regions_used, cfg_.matrix.regions()), cfg_.interleave_regions),
      deliver_(std::move(deliver)),
      prng_(cfg_.seed ^ 0x6e657477u),
      egress_free_(n, TimePoint::zero()),
      ingress_free_(n, TimePoint::zero()),
      silenced_(n, false),
      lanes_(n + 1, sim::kNoLane) {
  region_.reserve(n);
  for (NodeId id = 0; id < n; ++id) region_.push_back(regions_.region_of(id));
  const std::size_t r = regions_.regions();
  window_.resize(r);
  for (RegionId a = 0; a < r; ++a) {
    for (RegionId b = 0; b < r; ++b) {
      // TCP windowing: a single stream sustains at most window/RTT, so a
      // message takes an extra size/(window/RTT) beyond propagation —
      // negligible for votes, dominant for multi-megabyte proposals on
      // long-RTT links.
      const Duration base = cfg_.matrix.one_way(a, b);
      const double rtt_s = 2.0 * static_cast<double>(base.count()) / 1e9;
      one_way_.push_back(base);
      stream_bps_.push_back(
          cfg_.tcp_window_bytes > 0 && rtt_s > 0
              ? std::min(cfg_.bandwidth_bps,
                         static_cast<double>(cfg_.tcp_window_bytes) * 8.0 / rtt_s)
              : 0.0);
    }
  }
}

Duration SimNetwork::proc_cost(const Message& m, std::uint64_t wire_size) const {
  Duration c = cfg_.proc_base;
  std::visit(
      [&](const auto& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, VoteMsg>) {
          c = c + cfg_.proc_sig;
        } else if constexpr (std::is_same_v<T, TimeoutMsgWrap>) {
          c = c + cfg_.proc_sig + (msg.timeout.high_qc ? cfg_.proc_cert : Duration(0));
        } else if constexpr (std::is_same_v<T, ProposalMsg> || std::is_same_v<T, FbProposalMsg> ||
                             std::is_same_v<T, CertMsg> || std::is_same_v<T, TcMsg> ||
                             std::is_same_v<T, StatusMsg>) {
          c = c + cfg_.proc_cert;
        }
        // OptProposalMsg carries no certificate: base cost only.
        (void)msg;
      },
      m);
  c = c + Duration(static_cast<std::int64_t>(
          static_cast<double>(cfg_.proc_per_kb.count()) * (static_cast<double>(wire_size) / 1024.0)));
  return c;
}

Duration SimNetwork::serialization(std::uint64_t wire_size) const {
  return Duration(static_cast<std::int64_t>(static_cast<double>(wire_size) * 8.0 /
                                            cfg_.bandwidth_bps * 1e9));
}

Duration SimNetwork::rx_cost(const Message& m, std::uint64_t wire_size) const {
  return serialization(wire_size) + proc_cost(m, wire_size);
}

SimNetwork::Fanout SimNetwork::begin_send(NodeId from, MessagePtr m, std::uint64_t wire) {
  std::uint32_t h = free_held_;
  if (h == kNoHeld) {
    h = static_cast<std::uint32_t>(held_.size());
    held_.emplace_back();
  } else {
    free_held_ = held_[h].next_free;
  }
  const std::size_t row = region_[from] * window_.size();
  const Fanout f{from, h, static_cast<std::uint8_t>(m->index()), wire, rx_cost(*m, wire),
                 &one_way_[row]};
  held_[h].msg = std::move(m);
  held_[h].wire = wire;
  for (std::size_t b = 0; b < window_.size(); ++b) {
    const double stream_bps = stream_bps_[row + b];
    window_[b] = stream_bps > 0 ? Duration(static_cast<std::int64_t>(
                                      static_cast<double>(wire) * 8.0 / stream_bps * 1e9))
                                : Duration(0);
  }
  return f;
}

void SimNetwork::end_send(const Fanout& f) {
  if (held_[f.held].copies == 0) release(f.held);
}

void SimNetwork::release(std::uint32_t h) {
  held_[h].msg.reset();
  held_[h].next_free = free_held_;
  free_held_ = h;
}

void SimNetwork::deliver_self(const Fanout& f) {
  stats_.messages_sent++;
  enqueue(egress_free_.size(), sched_.now(),
          sim::EventTag{sim::EventTag::Kind::kInternal, f.type, f.from, f.from}, f.held);
}

void SimNetwork::multicast(NodeId from, MessagePtr m) {
  if (silenced_.at(from)) return;
  if (tap_) tap_(from, *m);
  const std::uint64_t wire = wire_memo_.size_of(m);
  if (tracer_) {
    tracer_->record(from, obs::EventKind::kMsgSent, 0, m->index(), wire, kNoNode);
  }
  const Fanout f = begin_send(from, std::move(m), wire);
  const std::size_t n = egress_free_.size();

  deliver_self(f);  // first, immediate and free (local shortcut)

  // The NIC serializes the n-1 copies back-to-back.
  TimePoint egress = std::max(sched_.now(), egress_free_[from]);
  const Duration ser = serialization(wire);
  for (NodeId to = 0; to < n; ++to) {
    if (to == from) continue;
    egress = egress + ser;
    send_one(f, to, egress);
  }
  egress_free_[from] = egress;
  end_send(f);
}

void SimNetwork::unicast(NodeId from, NodeId to, MessagePtr m) {
  if (silenced_.at(from)) return;
  if (tap_) tap_(from, *m);
  const std::uint64_t wire = wire_memo_.size_of(m);
  if (tracer_) {
    tracer_->record(from, obs::EventKind::kMsgSent, 0, m->index(), wire, to);
  }
  const Fanout f = begin_send(from, std::move(m), wire);
  if (to == from) {
    deliver_self(f);
  } else {
    const TimePoint egress = std::max(sched_.now(), egress_free_[from]) + serialization(wire);
    egress_free_[from] = egress;
    send_one(f, to, egress);
  }
  end_send(f);
}

void SimNetwork::send_one(const Fanout& f, NodeId to, TimePoint egress_done) {
  stats_.messages_sent++;
  stats_.bytes_sent += f.wire;

  if (silenced_.at(to)) {
    stats_.messages_dropped++;
    if (tracer_) tracer_->record(to, obs::EventKind::kMsgDropped, 0, f.type, f.wire, f.from);
    return;
  }

  FaultVerdict verdict;
  if (!faults_.empty()) verdict = faults_.apply(f.from, to, *held_[f.held].msg, sched_.now());
  if (verdict.drop) {
    stats_.messages_dropped++;
    if (tracer_) tracer_->record(to, obs::EventKind::kMsgDropped, 0, f.type, f.wire, f.from);
    return;
  }

  deliver_copy(f, to, egress_done, verdict.extra_delay);
  for (int dup = 0; dup < verdict.duplicates; ++dup) {
    stats_.messages_duplicated++;
    deliver_copy(f, to, egress_done, verdict.extra_delay);
  }
}

void SimNetwork::deliver_copy(const Fanout& f, NodeId to, TimePoint egress_done,
                              Duration extra_delay) {
  // Propagation with jitter, plus the TCP-window term priced for this send.
  const RegionId region = region_[to];
  const double j = 1.0 + cfg_.jitter * (2.0 * prng_.next_double() - 1.0);
  TimePoint arrival = egress_done + extra_delay +
      Duration(static_cast<std::int64_t>(static_cast<double>(f.one_way[region].count()) * j));
  arrival = arrival + window_[region];

  // Reorder stress: per-message random extra delay (defeats per-link FIFO).
  if (cfg_.reorder_extra.count() > 0) {
    arrival = arrival + Duration(static_cast<std::int64_t>(
                            prng_.next_double() *
                            static_cast<double>(cfg_.reorder_extra.count())));
  }

  // Partial synchrony: the adversary may hold pre-GST messages, but must
  // deliver by GST + Δ.
  if (cfg_.adversarial_before_gst && sched_.now() < cfg_.gst) {
    const TimePoint bound = cfg_.gst + cfg_.delta;
    if (arrival < bound) {
      const std::int64_t span = (bound - arrival).count();
      arrival = arrival + Duration(static_cast<std::int64_t>(
                              prng_.next_double() * static_cast<double>(span)));
    }
  }

  // Receive pipeline: FIFO through the destination NIC + processing. We
  // don't know the future ingress state at `arrival`, so we approximate
  // the FIFO by tracking the pipeline's busy-until watermark.
  const TimePoint start = std::max(arrival, ingress_free_[to]);
  const TimePoint done = start + f.rx;
  ingress_free_[to] = done;

  // Tagged as a delivery choice point: the model checker (src/mc/) reorders
  // these events freely; normal runs execute them in (time, seq) order.
  enqueue(to, done, sim::EventTag::delivery(to, f.from, f.type), f.held);
}

void SimNetwork::enqueue(std::size_t lane, TimePoint at, sim::EventTag tag, std::uint32_t held) {
  sim::LaneId& id = lanes_[lane];
  if (id == sim::kNoLane)
    id = sched_.open_lane([this, lane](sim::LaneEvent& copy) { receive(lane, copy); });
  ++held_[held].copies;
  sched_.append(id, sim::LaneEvent{at, 0, tag, held});
}

void SimNetwork::receive(std::size_t lane, const sim::LaneEvent& copy) {
  const NodeId from = copy.tag.peer;
  const NodeId to = lane == egress_free_.size() ? from : static_cast<NodeId>(lane);
  // A reference into the deque: a handler that sends grows held_ without
  // moving this slot, and only the release below can free it.
  Held& held = held_[copy.aux];
  if (to != from) {
    stats_.messages_delivered++;
    if (tracer_)
      tracer_->record(to, obs::EventKind::kMsgDelivered, 0, copy.tag.type, held.wire, from);
  }
  deliver_(to, from, held.msg);
  if (--held.copies == 0) release(copy.aux);
}

void SimNetwork::export_metrics(obs::Registry& reg,
                                const std::string& protocol) const {
  const obs::MetricLabels labels{{"protocol", protocol}};
  reg.counter("net_messages_sent_total", "Messages handed to the network",
              labels)
      .set(stats_.messages_sent);
  reg.counter("net_bytes_sent_total", "Wire bytes handed to the network",
              labels)
      .set(stats_.bytes_sent);
  reg.counter("net_messages_delivered_total", "Messages delivered", labels)
      .set(stats_.messages_delivered);
  reg.counter("net_messages_dropped_total",
              "Messages dropped by faults or partitions", labels)
      .set(stats_.messages_dropped);
  reg.counter("net_messages_duplicated_total",
              "Extra copies injected by duplication faults", labels)
      .set(stats_.messages_duplicated);
}

}  // namespace moonshot::net
