// offline-check: the recorded-trace user's path. Set-up builds the six
// corpus scenarios at stress scale and serializes them to hbct-mtrace bytes;
// each pass loads them back with mtrace_from_bytes and runs every
// stress-safe battery cell. Cells whose rendering parses as CTL go through
// ctl::evaluate_query with the serve layer's registration default
// (OptimizeMode::kApply); the others (equilevel, intransit atoms) go through
// predicate-level detect(). Every verdict is checked against the cell's
// construction-proved expectation and its witness re-certified.
//
// The traced run then makes three more passes that time the load, parse,
// optimize and detect calls one at a time (the same steps evaluate_query
// takes internally).
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "analysis/optimize.h"
#include "common.h"
#include "corpus/golden.h"
#include "corpus/scenario.h"
#include "ctl/compile.h"
#include "ctl/parser.h"
#include "poset/mtrace.h"

namespace perfbench {
namespace {

using namespace hbct;
using namespace hbct::corpus;

/// Stress-scale options per registry scenario: about 0.5M events in total.
CorpusOptions stress_options(const std::string& name, std::uint64_t seed) {
  if (name == "mpi_barrier") return {128, 60, seed};
  if (name == "mpi_alltoall") return {128, 500, seed};
  if (name == "peterson" || name == "peterson_bug") return {2, 10'000, seed};
  if (name == "election") return {128, 30, seed};
  return {128, 150, seed};  // replication
}

std::string render(const BatteryCell& cell) {
  if (cell.op == Op::kEU || cell.op == Op::kAU)
    return std::string(cell.op == Op::kEU ? "E[" : "A[") +
           cell.pred->describe() + " U " + cell.until_q->describe() + "]";
  return std::string(to_string(cell.op)) + "(" + cell.pred->describe() + ")";
}

struct Cell {
  BatteryCell cell;
  std::string text;
  bool parses = false;
};

struct Loaded {
  std::string name;
  std::string bytes;
  std::int64_t events = 0;
  std::vector<Cell> cells;
};

std::vector<Loaded> build_corpus(std::uint64_t seed) {
  std::vector<Loaded> out;
  for (const ScenarioSpec& spec : scenario_registry()) {
    Scenario s = spec.build(stress_options(spec.name, seed));
    Loaded l;
    l.name = spec.name;
    l.events = s.computation.total_events();
    l.bytes = mtrace_to_string(s.computation);
    for (BatteryCell& b : s.battery) {
      if (!b.stress_safe) continue;
      Cell c;
      c.text = render(b);
      c.parses = ctl::parse_query(c.text).ok;
      c.cell = std::move(b);
      l.cells.push_back(std::move(c));
    }
    out.push_back(std::move(l));
  }
  return out;
}

const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kHolds: return "holds";
    case Verdict::kFails: return "fails";
    default: return "unknown";
  }
}

void check_verdict(const Computation& c, const Loaded& l, const Cell& cell,
                   bool ok, const std::string& error, const DetectResult& r,
                   Report& rep) {
  const bool good = ok && r.verdict == cell.cell.expect &&
                    witness_certifies(c, cell.cell, r);
  const std::string what =
      ok ? std::string("got ") + verdict_name(r.verdict) + " via " +
               r.algorithm + ", expected " + verdict_name(cell.cell.expect)
         : "error " + error;
  rep.check(good, l.name + "/" + cell.cell.name + ": " + what);
}

/// Loads one scenario's bytes and checks every cell the way a user does:
/// CTL text through evaluate_query, the rest through detect(). Each cell's
/// verdict latency goes to `cell_us` when it is set.
void check_scenario(const Loaded& l, const DispatchOptions& opt, Report& rep,
                    std::vector<double>* cell_us) {
  MtraceLoadResult view = mtrace_from_bytes(l.bytes);
  rep.check(view.ok, l.name + ": mtrace load failed: " + view.error);
  if (!view.ok) return;
  const Computation& c = view.computation;
  for (const Cell& cell : l.cells) {
    const std::int64_t c0 = now_ns();
    DetectResult r;
    bool ok = true;
    std::string error;
    if (cell.parses) {
      ctl::EvalResult e = ctl::evaluate_query(c, cell.text, opt);
      ok = e.ok;
      error = std::move(e.error);
      r = std::move(e.result);
    } else {
      r = detect(c, cell.cell.op, cell.cell.pred, cell.cell.until_q);
    }
    if (cell_us != nullptr)
      cell_us->push_back(static_cast<double>(now_ns() - c0) / 1000.0);
    check_verdict(c, l, cell, ok, error, r, rep);
  }
}

/// Per-route totals of the traced passes.
struct RouteTally {
  std::int64_t calls = 0;
  std::int64_t ns = 0;
  std::uint64_t evals = 0;
  std::uint64_t steps = 0;
};

/// check_scenario with the load, parse, optimize and detect calls each in a
/// span: the steps evaluate_query takes internally, made one at a time.
class TracedCheck {
 public:
  TracedCheck(SpanLog& log, const DispatchOptions& opt)
      : log_(log),
        opt_(opt),
        load_id_(log.name("ingest.mtrace")),
        parse_id_(log.name("ctl.parse")),
        opt_id_(log.name("analysis.optimize")),
        detect_id_(log.name("detect")) {}

  void run(const Loaded& l, std::uint32_t root, Report& rep) {
    MtraceLoadResult view = timed(
        &log_, load_id_, root, [&] { return mtrace_from_bytes(l.bytes); });
    if (!view.ok) {
      rep.fail(l.name + ": mtrace load failed: " + view.error);
      return;
    }
    const Computation& c = view.computation;
    for (const Cell& cell : l.cells) {
      DetectResult r;
      bool ok = true;
      std::string error;
      std::int64_t d0 = 0, d1 = 0;
      if (cell.parses) {
        const ctl::ParseResult parsed = timed(&log_, parse_id_, root, [&] {
          return ctl::parse_query(cell.text);
        });
        const ctl::OptimizeOutcome oc = timed(&log_, opt_id_, root, [&] {
          return ctl::optimize_query(c, parsed.query, opt_.allow_exponential);
        });
        if (oc.plan_before.substr(0, oc.plan_before.find(' ')) !=
            oc.plan_after.substr(0, oc.plan_after.find(' ')))
          ++rerouted_;
        // What evaluate_query runs under kApply: the chosen form with the
        // optimizer's compiled (possibly class-refined) operands.
        const ctl::Query& q = oc.changed ? oc.query : parsed.query;
        d0 = now_ns();
        PredicatePtr p = oc.p, qp = oc.q;
        if (!p) {
          const ctl::CompileResult cp = ctl::compile_state(q.p);
          ok = cp.ok;
          error = cp.error;
          p = cp.pred;
        }
        if (ok && q.temporal && !qp && (q.op == Op::kEU || q.op == Op::kAU)) {
          const ctl::CompileResult cq = ctl::compile_state(q.q);
          ok = cq.ok;
          error = cq.error;
          qp = cq.pred;
        }
        if (ok && q.temporal) {
          r = detect(c, q.op, p, qp, opt_);
        } else if (ok) {
          r.verdict = p->eval(c, c.initial_cut()) ? Verdict::kHolds
                                                  : Verdict::kFails;
          r.algorithm = "state-eval(initial)";
          r.stats.predicate_evals = 1;
        }
        d1 = now_ns();
      } else {
        d0 = now_ns();
        r = detect(c, cell.cell.op, cell.cell.pred, cell.cell.until_q);
        d1 = now_ns();
      }
      log_.record(detect_id_, root, d0, d1);
      RouteTally& t = routes_[route_key(r.algorithm)];
      ++t.calls;
      t.ns += d1 - d0;
      t.evals += r.stats.predicate_evals;
      t.steps += r.stats.cut_steps;
      check_verdict(c, l, cell, ok, error, r, rep);
    }
  }

  int load_id() const { return load_id_; }
  int parse_id() const { return parse_id_; }
  int opt_id() const { return opt_id_; }
  std::int64_t rerouted() const { return rerouted_; }
  const std::map<std::string, RouteTally>& routes() const { return routes_; }

 private:
  SpanLog& log_;
  const DispatchOptions& opt_;
  int load_id_, parse_id_, opt_id_, detect_id_;
  std::map<std::string, RouteTally> routes_;
  std::int64_t rerouted_ = 0;
};

}  // namespace

void run_offline_check(const Args& a, Report& rep) {
  ThreadWatch threads;
  std::vector<double> setup_s;
  std::vector<Loaded> corpus;
  for (int i = 0; i < 5; ++i) {
    corpus.clear();  // one corpus resident at a time
    const std::int64_t t0 = now_ns();
    corpus = build_corpus(a.seed);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  std::int64_t events = 0, bytes = 0;
  std::size_t ncells = 0, ntext = 0;
  for (const Loaded& l : corpus) {
    rep.info("events." + l.name, static_cast<double>(l.events), "count");
    events += l.events;
    bytes += static_cast<std::int64_t>(l.bytes.size());
    ncells += l.cells.size();
    for (const Cell& c : l.cells) ntext += c.parses ? 1 : 0;
  }
  rep.stamp("corpus_events", std::to_string(events));
  rep.stamp("cells", std::to_string(ncells) + " (" + std::to_string(ntext) +
                         " as CTL text)");
  print_timing("setup", setup_s, "s");

  DispatchOptions eval_opt;
  eval_opt.optimize = OptimizeMode::kApply;
  // The first pass is a warm-up: its verdicts are checked, its times
  // dropped (the first loads fault in the allocator's memory).
  std::vector<double> pass_s, cell_us;
  double measured = 0;
  for (int pass = 0; pass < 4 || measured < a.seconds; ++pass) {
    const std::int64_t t0 = now_ns();
    for (const Loaded& l : corpus) check_scenario(l, eval_opt, rep, &cell_us);
    const double wall = static_cast<double>(now_ns() - t0) / 1e9;
    threads.sample();
    if (pass == 0) {
      cell_us.clear();
      continue;
    }
    pass_s.push_back(wall);
    measured += wall;
  }
  rep.stamp("threads_peak", std::to_string(threads.peak()));
  rep.check(threads.peak() <= 1, "offline-check ran more than one thread");
  print_timing("pass", pass_s, "s");
  print_timing("cell verdict latency", cell_us, "us");
  rep.info("passes", static_cast<double>(pass_s.size()), "count");

  if (!a.trace) {
    // The mean pass: the host's speed moves from pass to pass by 20% and
    // more, and the whole run's average reads steadier than a median.
    const double check_s = measured / static_cast<double>(pass_s.size());
    rep.metric("setup_s", median(setup_s), "s");
    rep.metric("events_per_s", static_cast<double>(events) / check_s, "1/s");
    rep.metric("fire_p50_us", percentile(cell_us, 0.5), "us");
    rep.metric("fire_p99_us", percentile(cell_us, 0.99), "us");
    rep.metric("check_s", check_s, "s");
    rep.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    return;
  }

  // Traced passes: each scenario runs untraced, then traced, so the pair
  // sees the same host. Per-layer figures are totals over the passes
  // divided by their calls.
  constexpr int kTracedPasses = 3;
  SpanLog log;
  log.calibrate();
  TracedCheck traced(log, eval_opt);
  std::vector<double> self_share, layers_share, overhead;
  for (int pass = 0; pass < kTracedPasses; ++pass) {
    double plain_ns = 0, traced_ns = 0, self_ns = 0;
    for (const Loaded& l : corpus) {
      const std::int64_t t0 = now_ns();
      check_scenario(l, eval_opt, rep, nullptr);
      plain_ns += static_cast<double>(now_ns() - t0);
      const std::uint32_t root =
          log.open_root(log.name("scenario." + l.name), now_ns());
      traced.run(l, root, rep);
      log.close_root(root, now_ns());
      const double wall = static_cast<double>(log.root_wall_ns(root));
      traced_ns += wall;
      self_ns += log.root_self_ns(root);
    }
    self_share.push_back(self_ns / traced_ns);
    // The layers' self-times against the untraced run of the same
    // scenarios, which makes those calls inside evaluate_query and detect().
    layers_share.push_back(self_ns / plain_ns);
    overhead.push_back(traced_ns / plain_ns);
  }

  const auto per = [](double total, double n) { return total / n; };
  const double nev = static_cast<double>(events) * kTracedPasses;
  const double nq = static_cast<double>(ntext) * kTracedPasses;
  rep.metric("ingest.mtrace_ns_per_event",
             per(log.self_ns(traced.load_id()), nev), "ns");
  rep.metric("ingest.bytes_per_event",
             per(static_cast<double>(bytes), static_cast<double>(events)),
             "bytes");
  rep.metric("ctl.parse_ns_per_query", per(log.self_ns(traced.parse_id()), nq),
             "ns");
  rep.metric("analysis.optimize_ns_per_query",
             per(log.self_ns(traced.opt_id()), nq), "ns");
  rep.metric("analysis.rerouted_share",
             per(static_cast<double>(traced.rerouted()), nq), "ratio");
  for (const auto& [route, t] : traced.routes()) {
    const double n = static_cast<double>(t.calls);
    const std::string key = "detect." + route;
    rep.metric(key + ".ns", per(static_cast<double>(t.ns), n), "ns");
    rep.metric(key + ".evals", per(static_cast<double>(t.evals), n), "count");
    rep.metric(key + ".steps", per(static_cast<double>(t.steps), n), "count");
  }
  // Reconciliation: each share's median within [0.9, 1.1] or the run fails.
  double worst = 1.0;
  for (const auto& [what, shares] :
       {std::pair{"self_vs_wall", self_share},
        std::pair{"layers_vs_untraced", layers_share}}) {
    const double share = median(shares);
    rep.info(std::string("obs.reconciled.") + what, share, "ratio");
    if (std::abs(share - 1.0) > std::abs(worst - 1.0)) worst = share;
    rep.check(share >= 0.9 && share <= 1.1, std::string("reconciliation: ") +
                                                what + " at " +
                                                std::to_string(share));
  }
  rep.metric("obs.reconciled_share", worst, "ratio");
  rep.metric("obs.trace_overhead", median(overhead), "ratio");
  if (!a.trace_out.empty() && !log.write(a.trace_out))
    std::fprintf(stderr, "could not write %s\n", a.trace_out.c_str());
}

}  // namespace perfbench
