#include "harness/metrics.hpp"

namespace moonshot {

MetricsCollector::BlockStat& MetricsCollector::sighted(const BlockPtr& block,
                                                        TimePoint when) {
  auto& stat = blocks_[block->id()];
  if (!stat.has_created) {
    stat.has_created = true;
    stat.created = when;
    stat.payload_bytes = block->payload().wire_size();
    stat.height = block->height();
    stat.view = block->view();
  }
  return stat;
}

void MetricsCollector::on_created(const BlockPtr& block, TimePoint when) {
  sighted(block, when);
}

void MetricsCollector::on_committed(NodeId /*node*/, const BlockPtr& block, TimePoint when) {
  // A block committed by a node that never saw the creation hook (possible
  // only if the creator is Byzantine or metrics attached late) takes its
  // first commit as creation, so latency stays well-defined.
  sighted(block, when).commits.push_back(when);  // nodes commit a block at most once
}

std::vector<MetricsCollector::QuorumCommit> MetricsCollector::quorum_commits(
    std::size_t threshold) const {
  std::vector<QuorumCommit> out;
  std::vector<TimePoint> commits;
  for (const auto& [id, stat] : blocks_) {
    if (stat.commits.size() < threshold) continue;
    commits.assign(stat.commits.begin(), stat.commits.end());
    std::nth_element(commits.begin(),
                     commits.begin() + static_cast<std::ptrdiff_t>(threshold - 1),
                     commits.end());
    out.push_back({&stat, commits[threshold - 1] - stat.created});
  }
  return out;
}

MetricsCollector::Summary MetricsCollector::summarize(std::size_t threshold,
                                                      Duration run_duration) const {
  Summary s;
  std::vector<double> latencies;
  std::vector<std::pair<Height, TimePoint>> created_at;  // threshold-committed
  for (const QuorumCommit& q : quorum_commits(threshold)) {
    s.committed_blocks++;
    s.committed_payload_bytes += q.stat->payload_bytes;
    s.max_committed_height = std::max(s.max_committed_height, q.stat->height);
    latencies.push_back(to_ms(q.latency));
    created_at.emplace_back(q.stat->height, q.stat->created);
  }

  // Block period ω: gaps between creation times of consecutive committed
  // heights. A height gap (no threshold commit in between) breaks the pair
  // so timeouts don't contaminate the min/max.
  std::sort(created_at.begin(), created_at.end());
  for (std::size_t i = 1; i < created_at.size(); ++i) {
    if (created_at[i].first != created_at[i - 1].first + 1) continue;
    const double gap = to_ms(created_at[i].second - created_at[i - 1].second);
    if (s.max_block_period_ms == 0.0 && s.min_block_period_ms == 0.0) {
      s.min_block_period_ms = s.max_block_period_ms = gap;
    } else {
      s.min_block_period_ms = std::min(s.min_block_period_ms, gap);
      s.max_block_period_ms = std::max(s.max_block_period_ms, gap);
    }
  }
  const double secs = to_seconds(run_duration);
  if (secs > 0) {
    s.blocks_per_sec = static_cast<double>(s.committed_blocks) / secs;
    s.transfer_rate_bps = static_cast<double>(s.committed_payload_bytes) / secs;
  }
  if (!latencies.empty()) {
    double sum = 0;
    for (double l : latencies) sum += l;
    s.avg_latency_ms = sum / static_cast<double>(latencies.size());
    std::sort(latencies.begin(), latencies.end());
    s.p50_latency_ms = latencies[latencies.size() / 2];
    s.p90_latency_ms = latencies[latencies.size() * 9 / 10];
    s.p99_latency_ms = latencies[std::min(latencies.size() - 1, latencies.size() * 99 / 100)];
  }
  return s;
}

std::vector<Duration> MetricsCollector::commit_latencies(
    std::size_t threshold) const {
  std::vector<Duration> out;
  for (const QuorumCommit& q : quorum_commits(threshold)) out.push_back(q.latency);
  return out;
}

std::vector<std::pair<View, Duration>> MetricsCollector::per_view_latencies(
    std::size_t threshold) const {
  std::vector<std::pair<View, Duration>> out;
  for (const QuorumCommit& q : quorum_commits(threshold))
    out.emplace_back(q.stat->view, q.latency);
  return out;
}

}  // namespace moonshot
