// hbct repository benchmark: argument parsing and the workload dispatch.
//
//   hbct_perfbench --workload <stream-mixed|stream-wide|offline-check>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--commit <rev>] [--trace-out <file>]
//
// Prints a stamp line, a human-readable table, and as the last line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits 1 when
// any output was wrong, 2 on bad arguments.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common.h"

namespace perfbench {

// fire_p50_us and fire_p99_us are measured and printed but not part of the
// JSON line: on the 4-vCPU reference guest the host's load moves them beyond
// any usable bound (stream-mixed fire_p50_us read 146-236 us over five
// back-to-back runs of the same build, p99 spread 0.73 of its median).
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"setup_s", "s"},
      {"events_per_s", "1/s"},
      {"check_s", "s"},
      {"peak_rss_mb", "MiB"},
  };
  return m;
}

const std::vector<std::string>& detect_routes() {
  static const std::vector<std::string> r = {
      "A2-ag-linear", "ef-disjunctive-scan", "equilevel-scan", "stable-final",
      "stable-initial", "state-eval", "other"};
  return r;
}

std::string route_key(const std::string& algorithm) {
  std::string k = algorithm.substr(0, algorithm.find_first_of("( "));
  for (char& ch : k)
    if (!std::isalnum(static_cast<unsigned char>(ch)) && ch != '-' &&
        ch != '_' && ch != '.')
      ch = '_';
  for (const std::string& r : detect_routes())
    if (r == k) return k;
  return "other";
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m = [] {
    std::vector<std::pair<std::string, std::string>> v = {
        {"serve.queue_wait_us.p50", "us"},
        {"serve.queue_wait_us.p99", "us"},
        {"serve.backlog_peak_records", "count"},
        {"serve.post_ns.p50", "ns"},
        {"serve.session_ingest_ns_per_event", "ns"},
        {"serve.pool_efficiency", "ratio"},
        {"serve.gen_late_us.p99", "us"},
        {"wire.decode_ns_per_record", "ns"},
        {"online.append_ns_per_event", "ns"},
        {"online.round_ns_per_event", "ns"},
        {"online.step.conjunctive_ns_per_event", "ns"},
        {"online.step.disjunctive_ns_per_event", "ns"},
        {"online.step.invariant_ns_per_event", "ns"},
        {"online.step.stable_ns_per_event", "ns"},
        {"online.step.until_ns_per_event", "ns"},
        {"online.evals_per_event", "count"},
        {"online.cut_steps_per_event", "count"},
        {"online.until_inc_evals", "count"},
        {"online.until_dec_evals", "count"},
        {"online.poll_ns", "ns"},
        {"online.gc_ns_per_round", "ns"},
        {"online.gc_reclaimed_share", "ratio"},
        {"online.resident_peak_events", "count"},
        {"online.watch_state_bytes_peak", "bytes"},
        {"ingest.mtrace_ns_per_event", "ns"},
        {"ingest.bytes_per_event", "bytes"},
        {"ctl.parse_ns_per_query", "ns"},
        {"analysis.optimize_ns_per_query", "ns"},
        {"analysis.rerouted_share", "ratio"},
    };
    for (const std::string& r : detect_routes()) {
      v.emplace_back("detect." + r + ".ns", "ns");
      v.emplace_back("detect." + r + ".evals", "count");
      v.emplace_back("detect." + r + ".steps", "count");
    }
    v.emplace_back("obs.trace_overhead", "ratio");
    v.emplace_back("obs.reconciled_share", "ratio");
    return v;
  }();
  return m;
}

namespace {

bool parse_args(int argc, char** argv, Args* a) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end != v.c_str() && *end == '\0';
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
      have_seconds = end != v.c_str() && *end == '\0' && a->seconds > 0;
    } else if (k == "--trace") {
      have_trace = v == "0" || v == "1";
      a->trace = v == "1";
    } else if (k == "--commit") {
      a->commit = v;
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && have_workload && have_seed && have_seconds &&
         have_trace;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  if (!parse_args(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: %s --workload "
                 "<stream-mixed|stream-wide|offline-check> --seed <n> "
                 "--seconds <s> --trace <0|1> [--commit <rev>] "
                 "[--trace-out <file>]\n",
                 argv[0]);
    return 2;
  }
  Report rep;
  rep.stamp("workload", a.workload);
  rep.stamp("seed", std::to_string(a.seed));
  rep.stamp("trace", a.trace ? "1" : "0");
  rep.stamp("nproc", std::to_string(std::thread::hardware_concurrency()));
  rep.stamp("build_type", PERFBENCH_BUILD_TYPE);
  rep.stamp("compiler", PERFBENCH_COMPILER);
  rep.stamp("commit", a.commit);
  if (a.workload == "stream-mixed") {
    run_stream_mixed(a, rep);
  } else if (a.workload == "stream-wide") {
    run_stream_wide(a, rep);
  } else if (a.workload == "offline-check") {
    run_offline_check(a, rep);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  rep.info("failed_share",
           static_cast<double>(rep.failed()) /
               static_cast<double>(std::max<std::int64_t>(1, rep.attempted())),
           "ratio");
  rep.select(a.trace ? per_layer_metrics() : end_to_end_metrics());
  rep.print();
  return rep.correct() ? 0 : 1;
}
