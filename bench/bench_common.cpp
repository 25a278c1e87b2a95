#include "bench_common.hpp"

#include <cstring>

#include "exec/line_sink.hpp"
#include "exec/world_runner.hpp"
#include "support/json.hpp"

namespace moonshot::bench {

Options Options::parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) opt.mode = Mode::kFull;
    if (std::strcmp(argv[i], "--quick") == 0) opt.mode = Mode::kQuick;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) opt.json_path = argv[++i];
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      opt.jobs = exec::parse_jobs(argv[++i]);
      if (opt.jobs == 0) opt.jobs = 1;  // malformed value: stay sequential
    }
  }
  return opt;
}

const char* mode_name(Options::Mode mode) {
  switch (mode) {
    case Options::Mode::kQuick: return "quick";
    case Options::Mode::kDefault: return "default";
    case Options::Mode::kFull: return "full";
  }
  return "?";
}

JsonReport::JsonReport(std::string bench, const Options& opt)
    : bench_(std::move(bench)), mode_(mode_name(opt.mode)), path_(opt.json_path) {}

JsonReport& JsonReport::row() {
  rows_.emplace_back();
  return *this;
}

void JsonReport::append(const char* key, const std::string& encoded) {
  if (rows_.empty()) rows_.emplace_back();
  std::string& r = rows_.back();
  if (!r.empty()) r += ", ";
  r += '"';
  r += json_escape(key);
  r += "\": ";
  r += encoded;
}

JsonReport& JsonReport::add(const char* key, double v) {
  char buf[40];
  if (v != v || v == 1.0 / 0.0 || v == -1.0 / 0.0) {
    std::snprintf(buf, sizeof buf, "null");  // JSON has no NaN/Inf
  } else {
    std::snprintf(buf, sizeof buf, "%.10g", v);
  }
  append(key, buf);
  return *this;
}

JsonReport& JsonReport::add(const char* key, const char* v) {
  append(key, "\"" + json_escape(v) + "\"");
  return *this;
}

JsonReport& JsonReport::add(const char* key, bool v) {
  append(key, v ? "true" : "false");
  return *this;
}

bool JsonReport::write() const {
  if (path_.empty()) return true;
  std::FILE* f = std::fopen(path_.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "[json] cannot open %s for writing\n", path_.c_str());
    return false;
  }
  std::fprintf(f, "{\"bench\": \"%s\", \"mode\": \"%s\", \"rows\": [\n",
               json_escape(bench_).c_str(), mode_.c_str());
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    std::fprintf(f, "  {%s}%s\n", rows_[i].c_str(), i + 1 < rows_.size() ? "," : "");
  }
  std::fprintf(f, "]");
  if (!registry_.empty()) {
    // One JSON object per metric series, same shape as the registry's JSONL
    // snapshot lines.
    std::fprintf(f, ",\n\"metrics\": [\n%s]",
                 jsonl_as_array_elements(registry_.snapshot_jsonl(), "  ").c_str());
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::fprintf(stderr, "[json] wrote %zu row(s) to %s\n", rows_.size(), path_.c_str());

  if (!registry_.empty()) {
    const std::string prom_path = path_ + ".prom";
    std::FILE* pf = std::fopen(prom_path.c_str(), "w");
    if (!pf) {
      std::fprintf(stderr, "[json] cannot open %s for writing\n", prom_path.c_str());
      return false;
    }
    const std::string text = registry_.prometheus_text();
    std::fwrite(text.data(), 1, text.size(), pf);
    std::fclose(pf);
    std::fprintf(stderr, "[json] wrote metrics exposition to %s\n", prom_path.c_str());
  }
  return true;
}

Duration duration_for(std::size_t n, const Options& opt) {
  double base_s;
  if (n <= 10) base_s = 20;
  else if (n <= 50) base_s = 15;
  else if (n <= 100) base_s = 12;
  else base_s = 6;
  return Duration(static_cast<std::int64_t>(base_s * opt.duration_scale() * 1e9));
}

ExperimentConfig wan_config(ProtocolKind p, std::size_t n, std::uint64_t payload,
                            std::uint64_t seed, const Options& opt) {
  ExperimentConfig cfg;
  cfg.protocol = p;
  cfg.n = n;
  cfg.payload_size = payload;
  cfg.delta = milliseconds(500);  // Δ used by the paper's failure runs
  cfg.duration = duration_for(n, opt);
  cfg.seed = seed;
  cfg.net.matrix = net::LatencyMatrix::aws5();
  cfg.net.regions_used = 5;
  cfg.net.jitter = 0.05;
  cfg.net.adversarial_before_gst = false;
  return cfg;
}

ExperimentConfig ideal_config(ProtocolKind p, std::size_t n, Duration delta_one_way,
                              std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.protocol = p;
  cfg.n = n;
  cfg.payload_size = 0;
  cfg.delta = milliseconds(500);
  cfg.duration = seconds(10);
  cfg.seed = seed;
  cfg.net.matrix = net::LatencyMatrix::uniform(delta_one_way, 1);
  cfg.net.regions_used = 1;
  cfg.net.jitter = 0.0;
  cfg.net.proc_base = Duration(0);
  cfg.net.proc_sig = Duration(0);
  cfg.net.proc_cert = Duration(0);
  cfg.net.proc_per_kb = Duration(0);
  cfg.net.adversarial_before_gst = false;
  return cfg;
}

void run_world_tasks(const Options& opt, std::size_t count, obs::Registry* registry,
                     const std::function<void(std::size_t, obs::Registry*)>& fn) {
  if (count == 0) return;
  if (opt.jobs <= 1 || count == 1) {
    // The sequential reference: every task writes straight into the shared
    // registry, in order. The parallel path below must reproduce this.
    for (std::size_t i = 0; i < count; ++i) fn(i, registry);
    return;
  }
  std::vector<obs::Registry> parts(registry ? count : 0);
  exec::LineSink& sink = exec::LineSink::instance();
  const bool was_tagged = sink.set_tagged(true);
  exec::run_worlds(opt.jobs, count, [&](std::size_t i) {
    fn(i, registry ? &parts[i] : nullptr);
  });
  sink.set_tagged(was_tagged);
  if (registry) {
    for (const obs::Registry& part : parts) registry->merge_from(part);
  }
}

std::vector<GridCell> run_happy_grid(const std::vector<ProtocolKind>& protocols,
                                     const std::vector<std::size_t>& sizes,
                                     const std::vector<std::uint64_t>& payloads,
                                     const Options& opt,
                                     obs::Registry* registry) {
  struct Combo {
    std::size_t n;
    std::uint64_t payload;
    ProtocolKind p;
  };
  std::vector<Combo> combos;
  for (const std::size_t n : sizes)
    for (const std::uint64_t payload : payloads)
      for (const ProtocolKind p : protocols) combos.push_back(Combo{n, payload, p});

  std::vector<GridCell> grid(combos.size());
  run_world_tasks(opt, combos.size(), registry,
                  [&](std::size_t i, obs::Registry* reg) {
    const Combo& c = combos[i];
    GridCell cell;
    cell.protocol = c.p;
    cell.n = c.n;
    cell.payload = c.payload;
    for (int s = 0; s < opt.seeds(); ++s) {
      ExperimentConfig cfg = wan_config(c.p, c.n, c.payload, 1 + s, opt);
      cfg.registry = reg;
      const auto result = run_experiment(cfg);
      cell.blocks_per_sec += result.summary.blocks_per_sec;
      cell.latency_ms += result.summary.avg_latency_ms;
      cell.transfer_bps += result.summary.transfer_rate_bps;
      cell.consistent = cell.consistent && result.logs_consistent;
    }
    const double k = opt.seeds();
    cell.blocks_per_sec /= k;
    cell.latency_ms /= k;
    cell.transfer_bps /= k;
    exec::LineSink::instance().line(
        i, "  [grid] %-2s n=%-3zu p=%-8s  %6.2f blk/s  %8.1f ms%s\n",
        protocol_tag(c.p), c.n, payload_label(c.payload).c_str(),
        cell.blocks_per_sec, cell.latency_ms,
        cell.consistent ? "" : "  *** INCONSISTENT ***");
    grid[i] = cell;
  });
  return grid;
}

const GridCell* find_cell(const std::vector<GridCell>& grid, ProtocolKind p, std::size_t n,
                          std::uint64_t payload) {
  for (const auto& c : grid)
    if (c.protocol == p && c.n == n && c.payload == payload) return &c;
  return nullptr;
}

std::string payload_label(std::uint64_t bytes) {
  char buf[32];
  if (bytes == 0) return "empty";
  if (bytes < 1000000) {
    std::snprintf(buf, sizeof(buf), "%.1fkB", static_cast<double>(bytes) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1fMB", static_cast<double>(bytes) / 1e6);
  }
  return buf;
}

}  // namespace moonshot::bench
