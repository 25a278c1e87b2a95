#include "obs/registry.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "support/json.hpp"

namespace moonshot::obs {
namespace {

// Prometheus text-format label value escaping: backslash, double quote and
// newline only (JSON snapshots use json_escape instead).
std::string prometheus_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  // Prefer the shortest representation that round-trips.
  for (int prec = 1; prec < 17; ++prec) {
    char shorter[64];
    std::snprintf(shorter, sizeof shorter, "%.*g", prec, v);
    if (std::strtod(shorter, nullptr) == v) return shorter;
  }
  return buf;
}

std::string label_block(const MetricLabels& labels,
                        const char* extra_key = nullptr,
                        const std::string& extra_value = {}) {
  if (labels.empty() && extra_key == nullptr) return {};
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k + "=\"" + prometheus_escape(v) + "\"";
  }
  if (extra_key != nullptr) {
    if (!first) out += ',';
    out += std::string(extra_key) + "=\"" + prometheus_escape(extra_value) + "\"";
  }
  out += '}';
  return out;
}

std::string labels_json(const MetricLabels& labels) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += "\"" + json_escape(k) + "\":\"" + json_escape(v) + "\"";
  }
  out += '}';
  return out;
}

const char* type_name(MetricType t) {
  switch (t) {
    case MetricType::kCounter: return "counter";
    case MetricType::kGauge: return "gauge";
    case MetricType::kHistogram: return "histogram";
  }
  return "untyped";
}

}  // namespace

std::vector<std::int64_t> default_latency_bounds() {
  std::vector<std::int64_t> bounds;
  for (std::int64_t ms : {1, 2, 5, 10, 20, 50, 100, 200, 500,
                          1000, 2000, 5000, 10000}) {
    bounds.push_back(ms * 1'000'000);
  }
  return bounds;
}

HistogramMetric::HistogramMetric(std::vector<std::int64_t> bounds_ns)
    : bounds_(std::move(bounds_ns)), counts_(bounds_.size() + 1, 0) {}

void HistogramMetric::reset() {
  hist_.clear();
  counts_.assign(counts_.size(), 0);
  sum_ = 0;
}

void HistogramMetric::observe(std::int64_t ns) {
  hist_.record(ns);
  sum_ += ns;
  std::size_t i = 0;
  while (i < bounds_.size() && ns > bounds_[i]) ++i;
  ++counts_[i];
}

Registry::Family& Registry::family(const std::string& name,
                                   const std::string& help, MetricType type) {
  auto it = index_.find(name);
  if (it != index_.end()) return families_[it->second];
  index_.emplace(name, families_.size());
  families_.push_back(Family{name, help, type, {}});
  return families_.back();
}

Registry::Series& Registry::series(Family& fam, const MetricLabels& labels) {
  MetricLabels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  for (auto& s : fam.series) {
    if (s.labels == sorted) return s;
  }
  fam.series.push_back(Series{sorted, {}, {}, {}});
  return fam.series.back();
}

Counter& Registry::counter(const std::string& name, const std::string& help,
                           const MetricLabels& labels) {
  return series(family(name, help, MetricType::kCounter), labels).counter;
}

Gauge& Registry::gauge(const std::string& name, const std::string& help,
                       const MetricLabels& labels) {
  return series(family(name, help, MetricType::kGauge), labels).gauge;
}

HistogramMetric& Registry::histogram(const std::string& name,
                                     const std::string& help,
                                     const MetricLabels& labels,
                                     std::vector<std::int64_t> bounds_ns) {
  Series& s = series(family(name, help, MetricType::kHistogram), labels);
  if (s.hist.empty()) {
    if (bounds_ns.empty()) bounds_ns = default_latency_bounds();
    s.hist.emplace_back(std::move(bounds_ns));
  }
  return s.hist.front();
}

std::string Registry::prometheus_text() const {
  std::string out;
  char buf[160];
  for (const Family& fam : families_) {
    out += "# HELP " + fam.name + " " + fam.help + "\n";
    out += "# TYPE " + fam.name + " " + std::string(type_name(fam.type)) + "\n";
    // Series were inserted with sorted labels; order them for stable output.
    std::vector<const Series*> ordered;
    ordered.reserve(fam.series.size());
    for (const Series& s : fam.series) ordered.push_back(&s);
    std::sort(ordered.begin(), ordered.end(),
              [](const Series* a, const Series* b) {
                return a->labels < b->labels;
              });
    for (const Series* s : ordered) {
      switch (fam.type) {
        case MetricType::kCounter:
          std::snprintf(buf, sizeof buf, " %" PRIu64 "\n", s->counter.value());
          out += fam.name + label_block(s->labels) + buf;
          break;
        case MetricType::kGauge:
          out += fam.name + label_block(s->labels) + " " +
                 fmt_double(s->gauge.value()) + "\n";
          break;
        case MetricType::kHistogram: {
          if (s->hist.empty()) break;
          const HistogramMetric& h = s->hist.front();
          std::uint64_t cum = 0;
          for (std::size_t i = 0; i < h.bounds().size(); ++i) {
            cum += h.bucket_counts()[i];
            const double le = static_cast<double>(h.bounds()[i]) / 1e9;
            std::snprintf(buf, sizeof buf, " %" PRIu64 "\n", cum);
            out += fam.name + "_bucket" +
                   label_block(s->labels, "le", fmt_double(le)) + buf;
          }
          cum += h.bucket_counts().back();
          std::snprintf(buf, sizeof buf, " %" PRIu64 "\n", cum);
          out += fam.name + "_bucket" + label_block(s->labels, "le", "+Inf") +
                 buf;
          out += fam.name + "_sum" + label_block(s->labels) + " " +
                 fmt_double(static_cast<double>(h.sum()) / 1e9) + "\n";
          std::snprintf(buf, sizeof buf, " %" PRIu64 "\n", h.count());
          out += fam.name + "_count" + label_block(s->labels) + buf;
          break;
        }
      }
    }
  }
  return out;
}

void Registry::append_snapshot_jsonl(std::string& out) const {
  char buf[256];
  for (const Family& fam : families_) {
    for (const Series& s : fam.series) {
      std::snprintf(buf, sizeof buf,
                    "{\"t\":%lld,\"name\":\"%s\",\"type\":\"%s\",\"labels\":",
                    static_cast<long long>(now_.ns), fam.name.c_str(),
                    type_name(fam.type));
      out += buf;
      out += labels_json(s.labels);
      switch (fam.type) {
        case MetricType::kCounter:
          std::snprintf(buf, sizeof buf, ",\"value\":%" PRIu64 "}\n",
                        s.counter.value());
          out += buf;
          break;
        case MetricType::kGauge:
          out += ",\"value\":" + fmt_double(s.gauge.value()) + "}\n";
          break;
        case MetricType::kHistogram: {
          if (s.hist.empty()) {
            out += ",\"count\":0}\n";
            break;
          }
          const Histogram& h = s.hist.front().hist();
          std::snprintf(buf, sizeof buf,
                        ",\"count\":%" PRIu64
                        ",\"sum\":%lld,\"min\":%lld,\"max\":%lld"
                        ",\"p50\":%lld,\"p90\":%lld,\"p99\":%lld}\n",
                        h.count(),
                        static_cast<long long>(s.hist.front().sum()),
                        static_cast<long long>(h.min()),
                        static_cast<long long>(h.max()),
                        static_cast<long long>(h.percentile(0.50)),
                        static_cast<long long>(h.percentile(0.90)),
                        static_cast<long long>(h.percentile(0.99)));
          out += buf;
          break;
        }
      }
    }
  }
}

std::string Registry::snapshot_jsonl() const {
  std::string out;
  append_snapshot_jsonl(out);
  return out;
}

void Registry::merge_from(const Registry& other) {
  for (const Family& ofam : other.families_) {
    Family& fam = family(ofam.name, ofam.help, ofam.type);
    for (const Series& os : ofam.series) {
      Series& s = series(fam, os.labels);
      switch (ofam.type) {
        case MetricType::kCounter:
          s.counter.set(os.counter.value());
          break;
        case MetricType::kGauge:
          s.gauge.set(os.gauge.value());
          break;
        case MetricType::kHistogram:
          // Exporters reset-then-republish the full distribution each
          // snapshot, so the later world's histogram replaces wholesale —
          // exactly what sequential export into a shared series produced.
          s.hist = os.hist;
          break;
      }
    }
  }
  if (!other.empty()) now_ = other.now_;
}

void Registry::clear() {
  families_.clear();
  index_.clear();
}

}  // namespace moonshot::obs
