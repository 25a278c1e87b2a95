// In-memory span accumulation for the traced run.
//
// The traced world times every call into a layer's public entry points. A
// span is opened around the call and closed when it returns; spans nest
// (a handle() that multicasts opens a net span inside its consensus span).
// For each layer the stack keeps a call count, the summed span duration, the
// summed self time (duration minus the time covered by child spans), and a
// log2-bucket histogram of span durations. Nothing is kept per call: the
// n = 200 world delivers ~11M messages.
#pragma once

#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

enum class Layer : std::uint8_t { kNet, kConsensus, kCrypto, kLedger, kWal, kCount };
inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);

inline const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kNet: return "net";
    case Layer::kConsensus: return "consensus";
    case Layer::kCrypto: return "crypto";
    case Layer::kLedger: return "ledger";
    case Layer::kWal: return "wal";
    case Layer::kCount: break;
  }
  return "?";
}

inline std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

struct LayerStats {
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
  /// hist[b] counts spans whose duration d has bit width b (d in [2^(b-1), 2^b)).
  std::array<std::uint64_t, 65> hist{};
};

class SpanStack {
 public:
  using Clock = std::uint64_t (*)();

  /// `clock` returns nanoseconds; tests substitute a fake one.
  explicit SpanStack(Clock clock = &steady_ns) : clock_(clock) { frames_.reserve(16); }

  void enter(Layer layer) { frames_.push_back(Frame{layer, clock_(), 0}); }

  void exit() {
    const Frame f = frames_.back();
    frames_.pop_back();
    const std::uint64_t dur = clock_() - f.start_ns;
    LayerStats& s = stats_[static_cast<std::size_t>(f.layer)];
    ++s.calls;
    s.total_ns += dur;
    s.self_ns += dur - f.child_ns;
    ++s.hist[std::bit_width(dur)];
    if (!frames_.empty()) frames_.back().child_ns += dur;
  }

  const LayerStats& stats(Layer layer) const { return stats_[static_cast<std::size_t>(layer)]; }
  std::size_t depth() const { return frames_.size(); }

 private:
  struct Frame {
    Layer layer;
    std::uint64_t start_ns;
    std::uint64_t child_ns;
  };

  Clock clock_;
  std::vector<Frame> frames_;
  std::array<LayerStats, kLayerCount> stats_{};
};

/// Scoped span.
class Span {
 public:
  Span(SpanStack& stack, Layer layer) : stack_(stack) { stack_.enter(layer); }
  ~Span() { stack_.exit(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanStack& stack_;
};

}  // namespace perfbench
