// Shared plumbing of the repository benchmark: command-line arguments, the
// result document, exact percentiles, process probes (peak RSS, thread
// count) and the in-memory span log of traced runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Source revision stamped into the result (git commit or tree digest).
  std::string commit = "unknown";
  /// Where a traced run writes its span log; empty = do not write.
  std::string trace_out;
};

/// One named measurement with its unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class Report {
 public:
  /// Adds a metric to the final JSON line (and prints it).
  void metric(const std::string& name, double value, const std::string& unit);
  /// Prints a figure that is not part of the final JSON line.
  void info(const std::string& name, double value, const std::string& unit);
  /// Orders the JSON metrics as `names` lists them; a listed metric the run
  /// did not measure reads 0, an unlisted one is printed but not reported.
  void select(const std::vector<std::pair<std::string, std::string>>& names);
  /// Prints a labelled stamp value.
  void stamp(const std::string& key, const std::string& value);

  /// Counts one checked operation; a failed one records `why`.
  void check(bool ok, const std::string& why);
  void fail(const std::string& why) { check(false, why); }

  bool correct() const { return failed_ == 0; }
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }

  /// Prints the stamp line, the human-readable table and, last, the
  /// one-line JSON result.
  void print() const;

 private:
  std::vector<Metric> metrics_;
  std::vector<Metric> infos_;
  std::vector<std::pair<std::string, std::string>> stamps_;
  std::vector<std::string> errors_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// The highest percentile (as a fraction, from 0.99 downwards in the
/// 0.999/0.99/0.95/0.9/0.75/0.5 ladder) that leaves at least ten samples
/// above it; 0.5 when the sample is too small for any of them.
double highest_supported_quantile(std::size_t n);

/// Prints "<name>: p50=... pXX=... max=... n=..." for a timing sample.
void print_timing(const std::string& name, const std::vector<double>& v,
                  const std::string& unit);

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();
/// Live threads of this process (entries of /proc/self/task).
int thread_count();

/// Tracks the highest thread count seen at the sampling points.
class ThreadWatch {
 public:
  void sample();
  int peak() const { return peak_; }

 private:
  int peak_ = 0;
};

/// In-memory span log for traced runs. Spans carry a name, a parent span
/// and start/end timestamps; per-name totals are kept for every span, raw
/// spans up to a cap for the file written at the end.
class SpanLog {
 public:
  static constexpr std::size_t kRawCap = 200'000;

  int name(const std::string& n);
  /// Opens a root span (a replay); returns its id.
  std::uint32_t open_root(int name_id, std::int64_t start);
  void close_root(std::uint32_t id, std::int64_t end);
  /// Records a finished child span of `parent`.
  void record(int name_id, std::uint32_t parent, std::int64_t start,
              std::int64_t end) {
    Agg& a = agg_[static_cast<std::size_t>(name_id)];
    ++a.count;
    a.total_ns += end - start;
    roots_[parent].children_ns += end - start;
    ++roots_[parent].children;
    ++recorded_;
    if (raw_.size() < kRawCap)
      raw_.push_back({name_id, parent, start, end});
  }

  /// Measures the clock time a span holds beyond the call it times. Call
  /// once before the replays.
  void calibrate();

  std::int64_t total_ns(int name_id) const {
    return agg_[static_cast<std::size_t>(name_id)].total_ns;
  }
  /// Total time of the spans of `name_id` less the clock reads they hold.
  double self_ns(int name_id) const {
    return static_cast<double>(total_ns(name_id)) -
           static_cast<double>(count(name_id)) * in_ns_;
  }
  std::int64_t count(int name_id) const {
    return agg_[static_cast<std::size_t>(name_id)].count;
  }
  std::int64_t root_wall_ns(std::uint32_t id) const {
    return roots_[id].end - roots_[id].start;
  }
  /// Self-time of the root's children: their time less the clock reads
  /// they hold.
  double root_self_ns(std::uint32_t id) const {
    return static_cast<double>(roots_[id].children_ns) -
           static_cast<double>(roots_[id].children) * in_ns_;
  }

  /// Writes the spans as a Chrome trace; false on IO failure.
  bool write(const std::string& path) const;

 private:
  struct Agg {
    std::int64_t count = 0;
    std::int64_t total_ns = 0;
  };
  struct Root {
    int name_id = 0;
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::int64_t children_ns = 0;
    std::int64_t children = 0;
  };
  struct Raw {
    int name_id;
    std::uint32_t parent;
    std::int64_t start;
    std::int64_t end;
  };
  std::vector<std::string> names_;
  std::vector<Agg> agg_;
  std::vector<Root> roots_;
  std::vector<Raw> raw_;
  std::int64_t recorded_ = 0;
  double in_ns_ = 0;  // per span: clock time inside the recorded interval
};

/// Times one call into a child span of `root` when `log` is non-null.
template <typename F>
auto timed(SpanLog* log, int name_id, std::uint32_t root, F&& f) {
  if (log == nullptr) return f();
  const std::int64_t t0 = now_ns();
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    log->record(name_id, root, t0, now_ns());
  } else {
    auto r = f();
    log->record(name_id, root, t0, now_ns());
    return r;
  }
}

/// Workload entry points; each fills the report (trace=false: end-to-end
/// metrics, trace=true: per-layer metrics).
void run_stream_mixed(const Args& args, Report& rep);
void run_stream_wide(const Args& args, Report& rep);
void run_offline_check(const Args& args, Report& rep);

/// End-to-end metric names and units every untraced run prints.
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();
/// Per-layer metric names and units every traced run prints; a workload
/// that does not exercise a layer reports 0 for it.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// Detection routes the offline battery is known to take, mapped onto the
/// metric-name alphabet; other routes are folded into "other".
const std::vector<std::string>& detect_routes();
std::string route_key(const std::string& algorithm);

}  // namespace perfbench
