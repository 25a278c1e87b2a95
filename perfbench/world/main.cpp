// perfbench_world: runs one benchmark workload and prints its result.
//
//   perfbench_world --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// --trace 0 runs the untraced world (moonshot::Experiment) again and again
// while another repeat fits in S wall seconds (at least once), times the
// world's set-up alone before and after, and reports the end-to-end metrics.
// --trace 1 runs it once, then the traced world once, checks that both
// reproduce the same execution, and reports the per-layer metrics; the
// per-layer span histograms go to --trace-out. Progress goes to stderr; the
// last line of stdout is the result object. Exit status: 0 when every check
// passed, 1 when a check failed, 2 on a usage error.
#include <sys/resource.h>

#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "traced_world.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

void print_result(const Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              r.correct ? "true" : "false", r.attempted, r.failed);
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}", i ? ", " : "", m.name.c_str(),
                v, m.unit);
  }
  std::printf("}}\n");
}

constexpr double kSetupWarmupS = 0.5;
constexpr double kSetupWindowS = 0.5;
constexpr double kSetupQuantile = 0.1;

/// Wall times of the workload's set-up, built again and again for `secs`.
std::vector<double> time_setups(const Workload& w, double secs) {
  std::vector<double> out;
  const auto t0 = std::chrono::steady_clock::now();
  do {
    out.push_back(time_setup(w));
  } while (seconds_since(t0) < secs);
  return out;
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double sim_seconds(const Workload& w) { return moonshot::to_seconds(w.cfg.duration); }

void report_failures(const char* what, const std::vector<std::string>& failures) {
  for (const auto& f : failures) {
    std::fprintf(stderr, "CHECK FAILED (%s): %s\n", what, f.c_str());
  }
}

/// The operations are the client transactions that arrive at least kTxGraceS
/// before the end of the run (settled_tx). Each joins the first block created
/// after it arrives and blocks commit in height order, so while no created
/// block is abandoned the committed transactions are the earliest arrivals,
/// and the shortfall of committed below settled ones is the number of
/// settled transactions that did not commit. All of a world's operations
/// fail when its checks do.
void count_operations(Result& r, const SimOutcome& o, std::uint64_t settled, bool world_ok) {
  r.attempted += settled;
  r.failed += world_ok ? settled - std::min(settled, o.tx_committed) : settled;
}

void log_run(const char* what, const UntracedRun& run, const Workload& w) {
  std::fprintf(stderr,
               "%s: setup %.4f s, loop %.3f s (cpu %.3f s) for %.0f s simulated, %" PRIu64
               " events, %" PRIu64 " blocks, %" PRIu64 " of %" PRIu64
               " tx committed, fingerprint %016" PRIx64 "\n",
               what, run.setup_s, run.loop.loop_s, run.loop.loop_cpu_s, sim_seconds(w),
               run.sim.events, run.sim.committed_blocks, run.sim.tx_committed,
               run.sim.tx_submitted, run.sim.fingerprint);
}

int run_plain(const Workload& w, double budget_s) {
  Result r;
  // Set-up takes under a millisecond. It is timed alone again and again in
  // two windows, before the worlds and after them. The first set-ups of a
  // process grow its heap and run up to half again as slow, so a warm-up of
  // untimed set-ups comes first. The shared host switches between a fast and
  // a slow state, about 1.8x apart, for seconds at a time. The median of a
  // run's set-ups then lands on whichever state held most of its windows, so
  // the median over runs jumps between the two. The 10th percentile reads
  // the fast state unless nearly all of both windows were slow.
  time_setups(w, kSetupWarmupS);
  std::vector<double> setup = time_setups(w, kSetupWindowS);

  const std::uint64_t settled = settled_tx(w);
  std::vector<UntracedRun> runs;
  const auto t0 = std::chrono::steady_clock::now();
  do {
    runs.push_back(run_untraced(w));
    const UntracedRun& run = runs.back();
    log_run("untraced", run, w);
    std::vector<std::string> failures = run.failures;
    if (!(run.sim == runs.front().sim)) failures.push_back("repeat of the same seed diverged");
    report_failures("untraced", failures);
    r.correct = r.correct && failures.empty();
    count_operations(r, run.sim, settled, failures.empty());
    // Start another repeat only if it should end within the budget, so a run
    // measures whole worlds without overrunning the budget by most of one.
  } while (seconds_since(t0) + runs.back().setup_s + runs.back().loop.loop_s <= budget_s);

  const std::vector<double> after = time_setups(w, kSetupWindowS);
  setup.insert(setup.end(), after.begin(), after.end());
  const double setup_s = percentile(setup, kSetupQuantile);
  std::fprintf(stderr, "set-up: p10 %.6f s, median %.6f s of %zu\n", setup_s, median(setup),
               setup.size());

  std::vector<double> wall_per_sim;
  for (const auto& run : runs) wall_per_sim.push_back(run.loop.loop_s / sim_seconds(w));
  const SimOutcome& o = runs.front().sim;
  r.metrics = {
      {"wall_s_per_sim_s", median(wall_per_sim), "s/s"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"sim_commit_latency_p50_ms", o.commit_latency_p50_ms, "ms"},
      {"sim_commit_latency_p90_ms", o.commit_latency_p90_ms, "ms"},
      {"sim_blocks_per_s", o.blocks_per_s, "1/s"},
      {"sim_max_commit_gap_ms", o.max_commit_gap_ms, "ms"},
      {"sim_tx_latency_p90_ms", o.tx_latency_p90_ms, "ms"},
  };
  print_result(r);
  return r.correct ? 0 : 1;
}

void write_spans(const char* path, const Workload& w, const SpanStack& spans, double loop_s,
                 double sim_self_s) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s: %s\n", path, std::strerror(errno));
    return;
  }
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"loop_s\": %.9g,\n",
               w.name.c_str(), w.cfg.seed, loop_s);
  std::fprintf(f, " \"layers\": {\"sim\": {\"self_s\": %.9g}", sim_self_s);
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    const auto layer = static_cast<Layer>(i);
    const LayerStats& s = spans.stats(layer);
    std::fprintf(f,
                 ",\n  \"%s\": {\"calls\": %" PRIu64 ", \"total_s\": %.9g, \"self_s\": %.9g, "
                 "\"hist_ns_upper\": {",
                 layer_name(layer), s.calls, static_cast<double>(s.total_ns) / 1e9,
                 static_cast<double>(s.self_ns) / 1e9);
    bool first = true;
    for (std::size_t b = 0; b < s.hist.size(); ++b) {
      if (s.hist[b] == 0) continue;
      // Bucket b holds durations below 2^b ns.
      std::fprintf(f, "%s\"%.0f\": %" PRIu64, first ? "" : ", ",
                   std::ldexp(1.0, static_cast<int>(b)), s.hist[b]);
      first = false;
    }
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "}}\n");
  std::fclose(f);
}

int run_traced(const Workload& w, const char* trace_out) {
  Result r;
  const UntracedRun u = run_untraced(w);
  log_run("untraced", u, w);

  SpanStack spans;
  CryptoCounts crypto;
  TracedWorld traced(w.cfg, spans, crypto);
  const LoopTiming tl = drive(traced, w);
  const SimOutcome to = outcome_of(traced);
  std::fprintf(stderr, "traced: loop %.3f s, %" PRIu64 " events, fingerprint %016" PRIx64 "\n",
               tl.loop_s, to.events, to.fingerprint);

  std::vector<std::string> failures = u.failures;
  for (auto& f : check_world(traced, w, to)) failures.push_back("traced: " + f);
  if (!(to == u.sim)) failures.push_back("traced world diverged from the untraced Experiment");
  report_failures("traced", failures);
  r.correct = failures.empty();
  count_operations(r, u.sim, settled_tx(w), r.correct);

  const auto secs = [](std::uint64_t ns) { return static_cast<double>(ns) / 1e9; };
  double covered_s = 0;
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    covered_s += secs(spans.stats(static_cast<Layer>(i)).self_ns);
  }
  const double sim_self_s = tl.loop_s - covered_s;
  if (trace_out) write_spans(trace_out, w, spans, tl.loop_s, sim_self_s);

  const LayerCounts& c = u.counts;
  const double blocks = static_cast<double>(std::max<std::uint64_t>(u.sim.committed_blocks, 1));
  const auto per_block = [&](std::uint64_t v) { return static_cast<double>(v) / blocks; };
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  const std::uint64_t lookups = c.nodes.cert_cache_hits + c.nodes.cert_cache_misses;
  const LayerStats& net = spans.stats(Layer::kNet);
  const LayerStats& cons = spans.stats(Layer::kConsensus);
  const LayerStats& cry = spans.stats(Layer::kCrypto);
  const LayerStats& ledger = spans.stats(Layer::kLedger);
  const auto& slices = u.loop.slice_s;
  r.metrics = {
      {"sim.events", count(u.sim.events), "count"},
      {"sim.events_per_wall_s", count(u.sim.events) / u.loop.loop_s, "1/s"},
      {"sim.self_s", sim_self_s, "s"},
      {"sim.pending_peak", count(u.loop.pending_peak), "count"},
      {"net.send_self_s", secs(net.self_ns), "s"},
      {"net.send_calls", count(net.calls), "count"},
      {"net.msgs_per_block", per_block(c.net.messages_sent), "msgs/block"},
      {"net.bytes_per_block", per_block(c.net.bytes_sent), "B/block"},
      {"net.msgs_dropped", count(c.net.messages_dropped), "count"},
      {"consensus.handle_self_s", secs(cons.self_ns), "s"},
      {"consensus.handle_calls", count(cons.calls), "count"},
      {"consensus.timeouts_fired", count(c.nodes.timeouts_fired), "count"},
      {"consensus.view_changes", count(c.nodes.view_changes), "count"},
      {"consensus.timeout_retransmits", count(c.nodes.timeout_retransmits), "count"},
      {"types.cert_cache_hit_ratio",
       lookups ? count(c.nodes.cert_cache_hits) / count(lookups) : 0.0, "ratio"},
      {"types.cert_cache_lookups", count(lookups), "count"},
      {"crypto.self_s", secs(cry.self_ns), "s"},
      {"crypto.sign_calls", count(crypto.sign_calls), "count"},
      {"crypto.verify_calls", count(crypto.verify_calls), "count"},
      {"crypto.batch_calls", count(crypto.batch_calls), "count"},
      {"crypto.batch_items", count(crypto.batch_items), "count"},
      {"ledger.commit_hook_s", secs(ledger.self_ns), "s"},
      {"ledger.commits", count(ledger.calls), "count"},
      {"wal.appends_per_block", per_block(c.wal_appends), "count/block"},
      {"wal.syncs_per_block", per_block(c.wal_syncs), "count/block"},
      {"wal.bytes_per_block", per_block(c.wal_bytes), "B/block"},
      {"wal.recover_s", u.loop.recover_s, "s"},
      // The first slice includes start-up; the second is the first steady one.
      {"harness.slice_wall_growth", slices.size() > 1 ? slices.back() / slices[1] : 1.0, "ratio"},
      {"trace.overhead_frac", (tl.loop_s - u.loop.loop_s) / u.loop.loop_s, "ratio"},
      {"trace.loop_s", tl.loop_s, "s"},
  };
  print_result(r);
  return r.correct ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_world --workload NAME --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\nworkloads:");
  for (const auto& n : workload_names()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const char* workload = nullptr;
  const char* trace_out = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      trace = std::atoi(v);
    } else if (a == "--trace-out") {
      trace_out = v;
    } else {
      return usage();
    }
  }
  if (!workload || seconds <= 0 || (trace != 0 && trace != 1)) return usage();
  const auto w = find_workload(workload, seed);
  if (!w) return usage();
  return trace ? run_traced(*w, trace_out) : run_plain(*w, seconds);
}
