// Online predicate detection — the paper's "future work" realized for the
// classes where online algorithms are known:
//
//  - possibly(conjunctive): incremental Garg–Waldecker weak detection. The
//    candidate cut advances as events stream in; the watch fires the moment
//    the observed prefix contains a satisfying consistent cut, and the
//    fired cut is the *least* satisfying cut (it never changes later,
//    because new events only extend the order upward).
//  - possibly(disjunctive): fire on the first local position satisfying a
//    disjunct.
//  - invariant(disjunctive): AG(p) violations are EF(¬p) hits with ¬p
//    conjunctive — the same incremental machinery, reporting the violating
//    cut.
//  - stable predicates: evaluated on the current frontier after each event;
//    once true they stay true, so the first hit decides EF (= AF).
//
// All verdicts are *prefix-stable*: once fired they remain correct for
// every extension of the computation.
//
// Freeze rule: a process's newest event may still receive variable writes
// (writes are fed after the event, as in the builder API), so watches only
// evaluate local states up to each process's second-newest event; the tail
// thaws when the next event of that process arrives, or when finish()
// declares the stream complete. This keeps every fired verdict valid
// regardless of how late the writes trail their events.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/audit.h"
#include "detect/budget.h"
#include "detect/until_inc.h"
#include "online/appender.h"
#include "predicate/conjunctive.h"
#include "predicate/disjunctive.h"
#include "util/stats.h"

namespace hbct {

using WatchId = std::int32_t;

/// The algorithmic class a watch runs under — the label observability
/// aggregates by (per-class fire counters/latency histograms in the serve
/// layer, per-class SLOs, bench_watch's mixed-class rows). Bounded, fixed
/// cardinality by construction.
enum class WatchKind : std::uint8_t {
  kConjunctive,  // watch_possibly(conjunctive)
  kInvariant,    // watch_invariant (AG via the conjunctive machinery)
  kDisjunctive,  // watch_possibly(disjunctive)
  kStable,       // watch_stable (channel/relational predicates ride here)
  kUntil,        // watch_until (streaming A3)
};
const char* to_string(WatchKind k);

struct WatchFire {
  WatchId watch = -1;
  /// The verdict this fire reports. Most watches only fire positively;
  /// until-watches also fire when the verdict becomes definitively false
  /// (I_q is known and no p-path reaches it — stable under extensions).
  /// Under a monitor budget (set_budget) a watch may also fire with
  /// kUnknown: the evaluation was cut short and `bound` says why.
  Verdict verdict = Verdict::kHolds;
  BoundReason bound = BoundReason::kNone;
  /// verdict == kHolds, kept for ergonomic positive-fire checks.
  bool holds = true;
  /// The cut exhibiting the watched condition (satisfying cut, violating
  /// cut, I_q for until-watches, or the frontier for stable watches).
  Cut cut;
  /// Sequence number of the event (1-based index into the observation)
  /// whose arrival triggered the fire; 0 when fired at registration.
  std::int64_t at_event = 0;
  /// Class of the watch that fired (== watch_class(watch)).
  WatchKind kind = WatchKind::kConjunctive;
  std::string description;
};

class OnlineMonitor {
 public:
  explicit OnlineMonitor(std::int32_t num_procs);

  // ---- Event feed (same contract as OnlineAppender) -----------------------
  VarId var(std::string_view name) { return app_.var(name); }
  void set_initial(ProcId i, VarId v, std::int64_t value) {
    app_.set_initial(i, v, value);
  }
  void internal(ProcId i);
  MsgId send(ProcId from, ProcId to);
  void receive(ProcId to, MsgId m);
  /// Writes apply to the latest event of proc i (call before the next
  /// event of that process, as with OnlineAppender).
  void write(ProcId i, std::string_view name, std::int64_t value);

  // ---- Guarded feed (serve layer / untrusted streams) ---------------------
  // AppendError instead of asserting; kFinished after finish(). A rejected
  // feed leaves the computation and every watch untouched.
  AppendError try_set_initial(ProcId i, VarId v, std::int64_t value);
  AppendError try_internal(ProcId i);
  AppendError try_send(ProcId from, ProcId to, MsgId* out = nullptr);
  AppendError try_receive(ProcId to, MsgId m);
  AppendError try_write(ProcId i, VarId v, std::int64_t value);

  /// Declares the stream complete: no further events or writes. Unfreezes
  /// the per-process tail events (see below) so every watch reaches its
  /// final verdict. When the final evaluation round trips the budget, the
  /// still-undecided watches fire with Verdict::kUnknown instead of staying
  /// silent. Idempotent.
  void finish();

  /// Caps the work (predicate evaluations + cut steps, shared across all
  /// watches) each event's evaluation round may perform, plus deadline and
  /// cancellation. A watch whose step runs out of budget simply suspends —
  /// its incremental state is resumable — and retries on the next event
  /// with a fresh work allowance. Default: unlimited.
  void set_budget(const Budget& b) { budget_ = b; }
  const Budget& budget() const { return budget_; }

  // ---- Watches -------------------------------------------------------------
  /// EF(p), p conjunctive. Fires once with the least satisfying cut.
  WatchId watch_possibly(ConjunctivePredicatePtr p);
  /// EF(p), p disjunctive. Fires once with a witness cut J(e).
  WatchId watch_possibly(DisjunctivePredicatePtr p);
  /// AG(p), p disjunctive: fires on violation with the violating cut.
  WatchId watch_invariant(DisjunctivePredicatePtr p);
  /// Stable p: fires when the frontier first satisfies p.
  WatchId watch_stable(PredicatePtr p);

  /// E[p U q], p conjunctive, q linear: streaming A3. The Chase–Garg walk
  /// toward I_q resumes as events arrive; once I_q lies inside the observed
  /// prefix the verdict is decided (Theorem 7 depends only on events below
  /// I_q) and the watch fires with holds = true or false. Prefix-stable
  /// both ways.
  WatchId watch_until(ConjunctivePredicatePtr p, PredicatePtr q);

  /// Audits every registered watch's predicates against the computation
  /// observed so far (analysis/audit.h). Each incremental algorithm is only
  /// prefix-stable because of a class claim — conjunctive/disjunctive
  /// structure, stability, and (load-bearing for streaming A3) the linear
  /// class and forbidden() oracle of until-watch q operands. Returns E1xx
  /// findings with messages prefixed by the watch id; empty means every
  /// claim held on the observed prefix. Read-only; safe between events.
  std::vector<Diagnostic> audit_watches(const AuditOptions& opt = {}) const;

  // ---- Prefix garbage collection ------------------------------------------

  /// Per-process minimum position any live watch may still need to read.
  /// Starts at the frozen limits and is pulled down by every undecided
  /// watch: a conjunctive watch needs its candidate/scan positions on every
  /// process (a vacuous conjunct's candidate still takes part in the GW
  /// repair), a disjunctive watch its scan positions on the processes it
  /// has a disjunct on and nothing elsewhere (it never reads the others),
  /// and an until watch its q-walk candidate and EG-table scan floors
  /// (incremental mode — the decision replays off the table, so the
  /// already-scanned prefix is never re-read; DESIGN.md §18) or the whole
  /// prefix below I_q (batch mode, where Theorem 7's decision re-reads the
  /// entire sub-computation under the walk target). Monotone nondecreasing
  /// over the session's lifetime.
  Cut min_watch_frontier() const;

  /// Reclaims the computation prefix below the min-watch frontier (lowered
  /// to the greatest consistent cut under it). Verdicts, fire order and
  /// witness cuts are unaffected — the collected prefix is exactly the part
  /// no live watch can reference again. Returns events reclaimed.
  std::int64_t collect_prefix();

  std::int64_t resident_events() const { return app_.resident_events(); }

  /// Cumulative watch-evaluation work, including the incremental until
  /// counters (until_inc_evals = feed-time table advances, until_dec_evals
  /// = decision-time lazy extensions). The serve layer absorbs deltas of
  /// this into its metrics registry.
  const DetectStats& work() const { return work_; }

  /// Approximate heap footprint of all live watch state (scan vectors,
  /// candidate cuts, incremental until tables) — the serve layer's
  /// watch-state sizing gauge.
  std::size_t watch_state_bytes() const;

  /// Drains the fires triggered since the last poll.
  std::vector<WatchFire> poll();

  /// True when watch `w` has fired (whether or not polled yet).
  bool fired(WatchId w) const;

  /// The class `w` was registered under.
  WatchKind watch_class(WatchId w) const;

  const Computation& computation() const { return app_.computation(); }
  Cut current_cut() const { return app_.current_cut(); }
  std::int64_t events_seen() const { return computation().total_events(); }

 private:
  struct ConjWatch {
    WatchId id;
    std::uint32_t slot;  // index in conj_ (the wake lists hold slots)
    ConjunctivePredicatePtr pred;
    bool violation_of_invariant;  // reporting flavor
    bool done = false;
    /// Number of processes with cand < 0: the watch's stuck set is empty
    /// exactly when this is 0, and only then can the GW repair fire it.
    std::int32_t unset = 0;
    /// Candidate position per process; -1 = no true position found yet.
    std::vector<EventIndex> cand;
    /// Next position to test per process.
    std::vector<EventIndex> scan;
    /// listed[i]: the watch is on conj_wake_[i]. An entry may outlive the
    /// stuck state that put it there; it is dropped when i's list is next
    /// walked.
    std::vector<bool> listed;
  };
  struct DisjWatch {
    WatchId id;
    DisjunctivePredicatePtr pred;
    bool done = false;
    /// Next untested position per disjunct, in pred->locals() order (one
    /// disjunct per process, sorted by process).
    std::vector<EventIndex> scan;
  };
  struct StableWatch {
    WatchId id;
    PredicatePtr pred;
    bool done = false;
  };
  struct UntilWatch {
    WatchId id;
    ConjunctivePredicatePtr p;
    PredicatePtr q;
    bool done = false;
    bool started = false;
    /// Incremental mode, latched from until_inc_enabled() at registration
    /// (flipping the global toggle mid-session is unsupported, as with the
    /// cursor toggle): the EG(p) table advances at feed time and the
    /// Theorem-7 decision replays off it, so the fire costs O(frontier)
    /// new work instead of a prefix sweep. Also selects the tighter GC pin
    /// in min_watch_frontier.
    bool inc = false;
    Cut cand;    // Chase-Garg frontier toward I_q
    EgPrefixState eg;  // incremental EG(p) decision state (inc mode)
  };

  /// Largest local position of proc i whose state can no longer change.
  EventIndex frozen_limit(ProcId i) const {
    return frozen_[static_cast<std::size_t>(i)];
  }

  /// Applies the event just appended on proc i: refreezes i's tail and
  /// runs one evaluation round. The round steps the conjunctive and
  /// invariant watches stuck on i and the disjunctive watches with a
  /// disjunct on i — no other scanning watch has a newly frozen position
  /// to read — plus every stable and until watch. After a round whose
  /// budget tripped, the next round steps every live watch instead, which
  /// catches up the watches the tripped round left half-stepped. DESIGN.md
  /// §19 states the wake rule and why it reproduces stepping every watch.
  void on_event(ProcId i);
  /// One evaluation round under a fresh budget allowance: woken < 0 (or a
  /// pending catch-up) steps every live watch, otherwise only the watches
  /// woken by an event on `woken`. Returns the round's bound reason
  /// (kNone when it completed).
  BoundReason run_round(ProcId woken);
  /// Steps the scanning watches on proc i's wake lists, in registration
  /// order, and drops the entries that no longer belong there.
  void step_woken(ProcId i);
  /// Registration round: steps one new watch under a fresh allowance.
  template <typename Step>
  void registration_round(Step step);
  /// Registers a conjunctive or invariant watch (p is the predicate the
  /// GW machinery searches for) and lists it on its stuck set.
  WatchId add_conj(ConjunctivePredicatePtr p, WatchKind kind);
  /// Puts conj_[slot] on proc j's wake list (kept sorted by slot, so a
  /// round fires in registration order).
  void list_conj(std::uint32_t slot, ProcId j);
  /// woken < 0: advance every process (registration, finish, catch-up);
  /// otherwise only `woken`, the one process with new frozen positions.
  void step_conj(ConjWatch& w, ProcId woken);
  void step_disj(DisjWatch& w);
  void step_stable(StableWatch& w);
  void step_until(UntilWatch& w);
  void fire(WatchId id, Cut cut, const std::string& what,
            Verdict verdict = Verdict::kHolds,
            BoundReason bound = BoundReason::kNone);
  /// Budget checkpoint for the current evaluation round (always true when
  /// no round tracker is active, i.e. during unbudgeted use).
  bool round_ok() { return round_ == nullptr || round_->ok(); }

  OnlineAppender app_;
  std::vector<ConjWatch> conj_;
  std::vector<DisjWatch> disj_;
  std::vector<StableWatch> stable_;
  std::vector<UntilWatch> until_;
  /// Per-process wake lists of conj_ / disj_ slots, ascending. A
  /// conjunctive or invariant watch is listed on every process in its
  /// stuck set (cand < 0); a disjunctive watch on every process it has a
  /// disjunct on. Fired watches drop out when the list is next walked.
  std::vector<std::vector<std::uint32_t>> conj_wake_;
  std::vector<std::vector<std::uint32_t>> disj_wake_;
  /// frozen_limit() of every process, updated as events arrive: the cut
  /// stable watches evaluate on and until watches feed their EG table to.
  Cut frozen_;
  /// The previous round tripped its budget: the next one steps every watch.
  bool catch_up_ = false;
  std::vector<WatchFire> pending_;
  std::vector<bool> fired_;
  std::vector<WatchKind> kinds_;  // indexed by WatchId
  WatchId next_id_ = 0;
  bool finished_ = false;
  Budget budget_;
  /// Cumulative watch-evaluation work; each round's tracker is based here.
  DetectStats work_;
  BudgetTracker* round_ = nullptr;
};

}  // namespace hbct
