// Test-side references for the online monitor's event-driven scheduling.
//
//  - StepAllReference: the evaluation loop the monitor used before wake
//    lists — every event steps every conjunctive, invariant and disjunctive
//    watch over every process. It runs against the completed computation,
//    reading only positions inside the simulated frozen limits (the values
//    there are final), and records fires and work the way the monitor does.
//  - fire_oracle_*: the first prefix whose frozen limits cover a watch's
//    least witness, derived from offline detection alone.
//  - wide_watches: dozens of random two-process conjunctive, disjunctive and
//    invariant watches, registered on a monitor and on a reference alike.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "online/monitor.h"
#include "predicate/conjunctive.h"
#include "predicate/disjunctive.h"
#include "predicate/local.h"
#include "util/rng.h"

namespace hbct {
namespace online_ref {

inline std::size_t sz(std::int32_t v) { return static_cast<std::size_t>(v); }

/// The frozen limits after each prefix of `ref`'s linearization: row k is
/// the monitor's frozen cut once k events have arrived (row 0 is the
/// registration round). The final row is the thawed cut finish() sees.
inline std::vector<Cut> frozen_rows(const Computation& ref) {
  const std::int32_t n = ref.num_procs();
  std::vector<Cut> rows;
  Cut count(sz(n));
  const auto frozen = [&] {
    Cut f(sz(n));
    for (ProcId i = 0; i < n; ++i)
      f[sz(i)] = count[sz(i)] > 0 ? count[sz(i)] - 1 : 0;
    return f;
  };
  rows.push_back(frozen());
  for (const EventId& eid : ref.linearization()) {
    ++count[sz(eid.proc)];
    rows.push_back(frozen());
  }
  rows.push_back(count);
  return rows;
}

/// at_event of a fire in row `k` of frozen_rows (the finish row reports
/// the whole stream's length, like the last event's row).
inline std::int64_t at_event_of_row(const std::vector<Cut>& rows,
                                    std::int64_t k) {
  return std::min(k, static_cast<std::int64_t>(rows.size()) - 2);
}

/// Conjunctive (and invariant) watches fire with the least satisfying cut
/// W in the first row whose frozen limits cover W. Returns the row.
inline std::int64_t fire_oracle_conj(const std::vector<Cut>& rows,
                                     const Cut& least) {
  for (std::size_t k = 0; k < rows.size(); ++k)
    if (least.subset_of(rows[k])) return static_cast<std::int64_t>(k);
  return -1;
}

struct DisjOracle {
  std::int64_t row = -1;  // -1: never fires
  Cut cut;
};

/// A disjunctive watch fires at the first prefix in which some disjunct's
/// first true position is frozen; when several are (registration, finish)
/// the lowest process wins, at its first true position.
inline DisjOracle fire_oracle_disj(const Computation& ref,
                                   const std::vector<Cut>& rows,
                                   const DisjunctivePredicate& p) {
  std::vector<std::pair<ProcId, EventIndex>> first;
  for (const auto& l : p.locals())
    for (EventIndex pos = 0; pos <= ref.num_events(l->proc()); ++pos)
      if (l->eval_local(ref, pos)) {
        first.emplace_back(l->proc(), pos);
        break;
      }
  DisjOracle out;
  for (std::size_t k = 0; k < rows.size(); ++k)
    for (const auto& [i, pos] : first)  // sorted by process
      if (pos <= rows[k][sz(i)]) {
        out.row = static_cast<std::int64_t>(k);
        out.cut = pos == 0 ? ref.initial_cut() : ref.join_irreducible_of(i, pos);
        return out;
      }
  return out;
}

/// The step-all loop (see the file comment). Watch ids are assigned in
/// registration order from 0, as the monitor does.
class StepAllReference {
 public:
  struct Fire {
    WatchId watch;
    std::int64_t at_event;
    Cut cut;
  };

  explicit StepAllReference(const Computation& ref)
      : ref_(ref), frozen_(sz(ref.num_procs())), count_(sz(ref.num_procs())) {}

  WatchId watch_conj(ConjunctivePredicatePtr p) {
    Conj w;
    w.id = next_id_++;
    w.pred = std::move(p);
    w.cand.assign(sz(ref_.num_procs()), -1);
    w.scan.assign(sz(ref_.num_procs()), 0);
    conj_.push_back(std::move(w));
    step_conj(conj_.back());
    return conj_.back().id;
  }
  WatchId watch_invariant(const DisjunctivePredicatePtr& p) {
    return watch_conj(as_conjunctive(p->negate()));
  }
  WatchId watch_disj(DisjunctivePredicatePtr p) {
    Disj w;
    w.id = next_id_++;
    w.pred = std::move(p);
    w.scan.assign(sz(ref_.num_procs()), 0);
    disj_.push_back(std::move(w));
    step_disj(disj_.back());
    return disj_.back().id;
  }

  /// The next event of `ref`'s linearization arrived on proc i.
  void on_event(ProcId i) {
    ++events_;
    ++count_[sz(i)];
    frozen_[sz(i)] = count_[sz(i)] - 1;
    round();
  }
  void finish() {
    frozen_ = count_;
    round();
  }

  const std::vector<Fire>& fires() const { return fires_; }
  /// Conjunctive/invariant evaluations and GW repair steps.
  std::int64_t conj_evals = 0;
  std::int64_t cut_steps = 0;
  /// Disjunctive evaluations on processes with a disjunct, and elsewhere
  /// (vacuously false: the positions the event-driven monitor skips).
  std::int64_t disj_support_evals = 0;
  std::int64_t disj_other_evals = 0;

 private:
  struct Conj {
    WatchId id;
    ConjunctivePredicatePtr pred;
    bool done = false;
    std::vector<EventIndex> cand, scan;
  };
  struct Disj {
    WatchId id;
    DisjunctivePredicatePtr pred;
    bool done = false;
    std::vector<EventIndex> scan;
  };

  void round() {
    for (Conj& w : conj_) step_conj(w);
    for (Disj& w : disj_) step_disj(w);
  }

  void step_conj(Conj& w) {
    if (w.done) return;
    const std::int32_t n = ref_.num_procs();
    const auto advance = [&](ProcId i) {
      auto& pos = w.scan[sz(i)];
      while (w.cand[sz(i)] < 0 && pos <= frozen_[sz(i)]) {
        ++conj_evals;
        if (w.pred->eval_local(ref_, i, pos)) w.cand[sz(i)] = pos;
        ++pos;
      }
      return w.cand[sz(i)] >= 0;
    };
    bool changed = true;
    while (changed) {
      changed = false;
      bool stuck = false;
      for (ProcId i = 0; i < n; ++i)
        if (!advance(i)) stuck = true;
      if (stuck) return;
      for (ProcId i = 0; i < n && !changed; ++i) {
        if (w.cand[sz(i)] == 0) continue;
        const VClockView vc = ref_.vclock(i, w.cand[sz(i)]);
        for (ProcId j = 0; j < n; ++j) {
          if (j == i || vc[sz(j)] <= w.cand[sz(j)]) continue;
          ++cut_steps;
          w.scan[sz(j)] = std::max(w.scan[sz(j)], vc[sz(j)]);
          w.cand[sz(j)] = -1;
          changed = true;
          break;
        }
      }
    }
    Cut cut(sz(n));
    for (ProcId i = 0; i < n; ++i) cut[sz(i)] = w.cand[sz(i)];
    w.done = true;
    fires_.push_back({w.id, events_, std::move(cut)});
  }

  void step_disj(Disj& w) {
    if (w.done) return;
    for (ProcId i = 0; i < ref_.num_procs(); ++i) {
      const bool support = w.pred->local_for(i) != nullptr;
      for (auto& pos = w.scan[sz(i)]; pos <= frozen_[sz(i)]; ++pos) {
        ++(support ? disj_support_evals : disj_other_evals);
        if (!w.pred->eval_local(ref_, i, pos)) continue;
        w.done = true;
        fires_.push_back({w.id, events_,
                          pos == 0 ? ref_.initial_cut()
                                   : ref_.join_irreducible_of(i, pos)});
        return;
      }
    }
  }

  const Computation& ref_;
  Cut frozen_;
  Cut count_;
  std::int64_t events_ = 0;
  WatchId next_id_ = 0;
  std::vector<Conj> conj_;
  std::vector<Disj> disj_;
  std::vector<Fire> fires_;
};

/// One random watch of a WideWatches set.
struct WideWatch {
  WatchKind kind;
  ConjunctivePredicatePtr conj;  // kConjunctive
  DisjunctivePredicatePtr disj;  // kDisjunctive, kInvariant
};

/// `count` random watches over two distinct processes each, the classes
/// interleaved at random; deterministic in `seed`.
inline std::vector<WideWatch> wide_watches(std::int32_t num_procs, int count,
                                           std::uint64_t seed) {
  Rng rng(seed * 7919 + 17);
  const auto local = [&](ProcId p) {
    return var_cmp(p, rng.next_bool() ? "v0" : "v1",
                   static_cast<Cmp>(rng.next_below(6)), rng.next_in(0, 9));
  };
  std::vector<WideWatch> out;
  for (int k = 0; k < count; ++k) {
    const auto a = static_cast<ProcId>(rng.next_below(sz(num_procs)));
    auto b = static_cast<ProcId>(rng.next_below(sz(num_procs) - 1));
    if (b >= a) ++b;
    WideWatch w;
    switch (rng.next_below(3)) {
      case 0:
        w.kind = WatchKind::kConjunctive;
        w.conj = make_conjunctive({local(a), local(b)});
        break;
      case 1:
        w.kind = WatchKind::kDisjunctive;
        w.disj = make_disjunctive({local(a), local(b)});
        break;
      default:
        w.kind = WatchKind::kInvariant;
        w.disj = make_disjunctive({local(a), local(b)});
        break;
    }
    out.push_back(std::move(w));
  }
  return out;
}

inline WatchId register_on(OnlineMonitor& m, const WideWatch& w) {
  switch (w.kind) {
    case WatchKind::kConjunctive: return m.watch_possibly(w.conj);
    case WatchKind::kDisjunctive: return m.watch_possibly(w.disj);
    default: return m.watch_invariant(w.disj);
  }
}

inline WatchId register_on(StepAllReference& r, const WideWatch& w) {
  switch (w.kind) {
    case WatchKind::kConjunctive: return r.watch_conj(w.conj);
    case WatchKind::kDisjunctive: return r.watch_disj(w.disj);
    default: return r.watch_invariant(w.disj);
  }
}

/// Initializes a monitor's variables and initial values from `ref`, then
/// registers `watches` in order.
inline void arm(OnlineMonitor& m, const Computation& ref,
                const std::vector<WideWatch>& watches) {
  for (VarId v = 0; v < ref.num_vars(); ++v) m.var(ref.var_name(v));
  for (ProcId i = 0; i < ref.num_procs(); ++i)
    for (VarId v = 0; v < ref.num_vars(); ++v)
      m.set_initial(i, v, ref.value_at(i, v, 0));
  for (const WideWatch& w : watches) register_on(m, w);
}

/// Streams `ref`'s events into `m`, calling `each` after every event, and
/// returns every fire in poll order. Does not finish the stream.
template <typename Each>
std::vector<WatchFire> stream_events(OnlineMonitor& m, const Computation& ref,
                                     Each each) {
  std::vector<WatchFire> fires = m.poll();
  std::vector<MsgId> msg(sz(ref.num_messages()), kNoMsg);
  for (const EventId& eid : ref.linearization()) {
    const Event& ev = ref.event(eid);
    switch (ev.kind) {
      case EventKind::kInternal:
        m.internal(eid.proc);
        break;
      case EventKind::kSend:
        msg[sz(ev.msg)] = m.send(eid.proc, ev.peer);
        break;
      case EventKind::kReceive:
        m.receive(eid.proc, msg[sz(ev.msg)]);
        break;
    }
    for (const Assignment& a : ev.writes)
      m.write(eid.proc, ref.var_name(a.var), a.value);
    each();
    for (WatchFire& f : m.poll()) fires.push_back(std::move(f));
  }
  return fires;
}

/// stream_events, then finish(): every fire of the whole stream.
template <typename Each>
std::vector<WatchFire> stream_into(OnlineMonitor& m, const Computation& ref,
                                   Each each) {
  std::vector<WatchFire> fires = stream_events(m, ref, each);
  m.finish();
  for (WatchFire& f : m.poll()) fires.push_back(std::move(f));
  return fires;
}

inline std::vector<WatchFire> stream_into(OnlineMonitor& m,
                                          const Computation& ref) {
  return stream_into(m, ref, [] {});
}

/// Expects `fires` to equal the step-all reference's, in order.
inline void expect_reference_fires(const std::vector<WatchFire>& fires,
                                   const StepAllReference& r) {
  ASSERT_EQ(fires.size(), r.fires().size());
  for (std::size_t k = 0; k < fires.size(); ++k) {
    const auto& want = r.fires()[k];
    EXPECT_EQ(fires[k].watch, want.watch) << "fire " << k;
    EXPECT_EQ(fires[k].at_event, want.at_event) << "watch " << want.watch;
    EXPECT_EQ(fires[k].cut, want.cut) << "watch " << want.watch;
    EXPECT_EQ(fires[k].verdict, Verdict::kHolds) << "watch " << want.watch;
  }
}

/// Runs the step-all reference over `ref` with `watches` registered.
inline StepAllReference run_reference(const Computation& ref,
                                      const std::vector<WideWatch>& watches) {
  StepAllReference r(ref);
  for (const WideWatch& w : watches) register_on(r, w);
  for (const EventId& eid : ref.linearization()) r.on_event(eid.proc);
  r.finish();
  return r;
}

}  // namespace online_ref
}  // namespace hbct
