#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "obs/json.h"

namespace perfbench {

namespace {

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  for (Metric& m : metrics_)
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  metrics_.push_back({name, value, unit});
}

void Report::info(const std::string& name, double value,
                  const std::string& unit) {
  infos_.push_back({name, value, unit});
}

void Report::select(
    const std::vector<std::pair<std::string, std::string>>& names) {
  std::vector<Metric> kept;
  for (const auto& [name, unit] : names) {
    Metric m{name, 0.0, unit};
    for (const Metric& have : metrics_)
      if (have.name == name) m.value = have.value;
    kept.push_back(m);
  }
  for (const Metric& have : metrics_) {
    bool listed = false;
    for (const auto& n : names) listed = listed || n.first == have.name;
    if (!listed) infos_.push_back(have);
  }
  metrics_ = std::move(kept);
}

void Report::stamp(const std::string& key, const std::string& value) {
  stamps_.emplace_back(key, value);
}

void Report::check(bool ok, const std::string& why) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  // The first few reasons are enough to debug; the count says the rest.
  if (errors_.size() < 20) errors_.push_back(why);
}

void Report::print() const {
  hbct::JsonWriter st;
  st.begin_object().key("stamp").begin_object();
  for (const auto& [k, v] : stamps_) st.kv(k, std::string_view(v));
  st.end_object().end_object();
  std::printf("%s\n", st.str().c_str());
  for (const std::string& e : errors_) std::printf("FAILED: %s\n", e.c_str());
  for (const Metric& m : infos_)
    std::printf("  %-44s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  for (const Metric& m : metrics_)
    std::printf("* %-44s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i) out += ", ";
    out += "\"" + hbct::json_escape(m.name) + "\": {\"value\": " +
           num(m.value) + ", \"unit\": \"" + hbct::json_escape(m.unit) +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  std::size_t idx = rank <= 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  if (idx >= v.size()) idx = v.size() - 1;
  return v[idx];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double highest_supported_quantile(std::size_t n) {
  for (double q : {0.999, 0.99, 0.95, 0.9, 0.75})
    if (static_cast<double>(n) * (1.0 - q) >= 10.0) return q;
  return 0.5;
}

void print_timing(const std::string& name, const std::vector<double>& v,
                  const std::string& unit) {
  const double q = highest_supported_quantile(v.size());
  std::printf("  %-44s p50=%.6g p%g=%.6g max=%.6g %s (n=%zu)\n", name.c_str(),
              percentile(v, 0.5), q * 100, percentile(v, q),
              v.empty() ? 0.0 : *std::max_element(v.begin(), v.end()),
              unit.c_str(), v.size());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

int thread_count() {
  int n = 0;
  std::error_code ec;
  for (auto it = std::filesystem::directory_iterator("/proc/self/task", ec);
       !ec && it != std::filesystem::directory_iterator(); it.increment(ec))
    ++n;
  return n;
}

void ThreadWatch::sample() { peak_ = std::max(peak_, thread_count()); }

int SpanLog::name(const std::string& n) {
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == n) return static_cast<int>(i);
  names_.push_back(n);
  agg_.emplace_back();
  return static_cast<int>(names_.size() - 1);
}

std::uint32_t SpanLog::open_root(int name_id, std::int64_t start) {
  roots_.push_back({name_id, start, start, 0, 0});
  return static_cast<std::uint32_t>(roots_.size() - 1);
}

void SpanLog::close_root(std::uint32_t id, std::int64_t end) {
  roots_[id].end = end;
  Agg& a = agg_[static_cast<std::size_t>(roots_[id].name_id)];
  ++a.count;
  a.total_ns += end - roots_[id].start;
}

void SpanLog::calibrate() {
  // The median of several short batches, so one preemption does not skew it.
  constexpr int kSpans = 5'000;
  const int id = name("calibration.empty");
  const std::size_t raw_before = raw_.size();
  std::vector<double> in;
  for (int batch = 0; batch < 9; ++batch) {
    const std::uint32_t root = open_root(name("calibration"), now_ns());
    for (int i = 0; i < kSpans; ++i) timed(this, id, root, [] {});
    close_root(root, now_ns());
    in.push_back(static_cast<double>(roots_[root].children_ns) / kSpans);
  }
  in_ns_ = median(in);
  // Keep the calibration out of the written trace; its totals stay.
  recorded_ -= static_cast<std::int64_t>(raw_.size() - raw_before);
  raw_.resize(raw_before);
}

bool SpanLog::write(const std::string& path) const {
  std::error_code ec;
  const std::filesystem::path p(path);
  if (p.has_parent_path())
    std::filesystem::create_directories(p.parent_path(), ec);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  const std::int64_t base = roots_.empty() ? 0 : roots_.front().start;
  const auto us = [base](std::int64_t t) {
    return static_cast<double>(t - base) / 1000.0;
  };
  const auto label = [this](int id) {
    return std::string_view(names_[static_cast<std::size_t>(id)]);
  };
  hbct::JsonWriter w;
  w.begin_object().key("traceEvents").begin_array();
  for (std::size_t i = 0; i < roots_.size(); ++i) {
    const Root& r = roots_[i];
    w.begin_object()
        .kv("name", label(r.name_id))
        .kv("ph", "X")
        .kv("pid", std::int64_t{1})
        .kv("tid", static_cast<std::int64_t>(i))
        .kv("ts", us(r.start))
        .kv("dur", static_cast<double>(r.end - r.start) / 1000.0)
        .end_object();
  }
  for (const Raw& s : raw_) {
    w.begin_object()
        .kv("name", label(s.name_id))
        .kv("ph", "X")
        .kv("pid", std::int64_t{1})
        .kv("tid", static_cast<std::int64_t>(s.parent))
        .kv("ts", us(s.start))
        .kv("dur", static_cast<double>(s.end - s.start) / 1000.0)
        .end_object();
  }
  w.end_array();
  w.key("spanTotals").begin_object();
  for (std::size_t i = 0; i < names_.size(); ++i) {
    w.key(names_[i]).begin_object();
    w.kv("count", agg_[i].count);
    w.kv("total_ns", agg_[i].total_ns);
    w.end_object();
  }
  w.end_object();
  w.kv("rawSpansDropped",
       recorded_ - static_cast<std::int64_t>(raw_.size()));
  w.end_object();
  out << w.str() << "\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
