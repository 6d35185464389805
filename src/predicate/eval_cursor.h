// Incremental predicate evaluation over an in-place lattice walk.
//
// The lattice walks (A1's retreat walk, A2's irreducible scan, the
// Chase–Garg advancement loops) evaluate a fixed predicate at a sequence of
// cuts that differ in one (or a few) components. Re-evaluating from scratch
// costs O(predicate size) per step and, for the structured predicate
// classes, repeats work the step cannot have changed. An EvalCursor binds a
// predicate to one walker-owned Cut and maintains its truth value under
// component updates:
//
//   * local / conjunctive / disjunctive — per-process truth bits plus a
//     false/true count: O(1) per component update;
//   * relational sums and differences — a running signed sum over the
//     precomputed variable timelines: O(terms on the moved process);
//   * channel bounds — cached send/receive counts, moved by the crossed
//     event: O(1) per one-event step;
//   * and / or — updates forwarded to all children, truth short-circuited
//     lazily in value(): O(children) per update;
//   * everything else — a scratch fallback that re-runs Predicate::eval,
//     bit-identical by construction.
//
// Contract: the cursor stores a pointer to the bound cut, so the cut must
// outlive the cursor and keep its address (walkers mutate it in place).
// After changing component i the walker calls on_update(i, old_pos) —
// arbitrary jumps are allowed, and the cut may be *transiently
// inconsistent* between the updates of a multi-component seek; cursors
// therefore only read per-process state (positions, timelines, prefix
// counters) in on_update and defer any cross-process conclusion to
// value(), which is only called at consistent cuts.
#pragma once

#include <memory>

#include "poset/computation.h"
#include "poset/cut.h"

namespace hbct {

class EvalCursor {
 public:
  EvalCursor(const Computation& c, const Cut& g) : c_(&c), g_(&g) {}
  virtual ~EvalCursor() = default;

  EvalCursor(const EvalCursor&) = delete;
  EvalCursor& operator=(const EvalCursor&) = delete;

  /// Called after the bound cut's component i changed from old_pos to its
  /// current value cut()[i].
  virtual void on_update(ProcId i, EventIndex old_pos) = 0;

  /// Truth of the predicate at the bound cut (which must be consistent).
  virtual bool value() = 0;

  /// True when on_update maintains value() incrementally. Compound cursors
  /// report the conjunction over their children; the scratch fallback
  /// reports false.
  virtual bool incremental() const { return true; }

  const Computation& comp() const { return *c_; }
  const Cut& cut() const { return *g_; }

 private:
  const Computation* c_;
  const Cut* g_;
};

using EvalCursorPtr = std::unique_ptr<EvalCursor>;

}  // namespace hbct
