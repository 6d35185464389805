// Tests for the online module: the incremental appender must agree with
// the batch builder event-for-event, and every online watch verdict must
// match offline detection on the final computation — including the fired
// witness cuts and the earliest-prefix property.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "detect/brute_force.h"
#include "detect/conjunctive_gw.h"
#include "detect/disjunctive.h"
#include "detect/ef_linear.h"
#include "detect/until.h"
#include "online/appender.h"
#include "online/monitor.h"
#include "online_reference.h"
#include "poset/generate.h"
#include "predicate/channel.h"
#include "util/rng.h"

namespace hbct {
namespace {

// ---- Appender vs batch builder -------------------------------------------------

/// Replays a finished computation through the online appender and checks
/// every table matches after *each* event.
void replay_and_check(const Computation& ref) {
  OnlineAppender app(ref.num_procs());
  for (VarId v = 0; v < ref.num_vars(); ++v) app.var(ref.var_name(v));
  for (ProcId i = 0; i < ref.num_procs(); ++i)
    for (VarId v = 0; v < ref.num_vars(); ++v)
      app.set_initial(i, v, ref.value_at(i, v, 0));

  std::vector<MsgId> msg_map(static_cast<std::size_t>(ref.num_messages()),
                             kNoMsg);
  for (const EventId& eid : ref.linearization()) {
    const Event& ev = ref.event(eid);
    switch (ev.kind) {
      case EventKind::kInternal:
        app.internal(eid.proc);
        break;
      case EventKind::kSend:
        msg_map[static_cast<std::size_t>(ev.msg)] =
            app.send(eid.proc, ev.peer);
        break;
      case EventKind::kReceive:
        app.receive(eid.proc, msg_map[static_cast<std::size_t>(ev.msg)]);
        break;
    }
    for (const Assignment& a : ev.writes)
      app.write(eid.proc, ref.var_name(a.var), a.value);

    // Incremental invariants after every event.
    const Computation& c = app.computation();
    ASSERT_EQ(c.vclock(eid), ref.vclock(eid));
    ASSERT_TRUE(c.is_consistent(c.final_cut()));
  }

  const Computation& c = app.computation();
  c.validate();
  ASSERT_EQ(c.total_events(), ref.total_events());
  for (ProcId i = 0; i < ref.num_procs(); ++i) {
    for (EventIndex k = 1; k <= ref.num_events(i); ++k) {
      EXPECT_EQ(c.vclock(i, k), ref.vclock(i, k));
      EXPECT_EQ(c.reverse_vclock(i, k), ref.reverse_vclock(i, k));
    }
    for (VarId v = 0; v < ref.num_vars(); ++v)
      for (EventIndex k = 0; k <= ref.num_events(i); ++k)
        EXPECT_EQ(c.value_at(i, v, k), ref.value_at(i, v, k));
    for (ProcId j = 0; j < ref.num_procs(); ++j)
      EXPECT_EQ(c.in_transit(i, j, c.final_cut()),
                ref.in_transit(i, j, ref.final_cut()));
  }
}

class OnlineReplay : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OnlineReplay, AppenderMatchesBatchBuilder) {
  GenOptions opt;
  opt.num_procs = 4;
  opt.events_per_proc = 10;
  opt.p_send = 0.35;
  opt.seed = GetParam();
  replay_and_check(generate_random(opt));
}

INSTANTIATE_TEST_SUITE_P(Seeds, OnlineReplay,
                         ::testing::Range<std::uint64_t>(1, 31));

TEST(OnlineAppender, MidRunVariableRegistration) {
  OnlineAppender app(2);
  app.internal(0);
  VarId x = app.var("x");
  EXPECT_EQ(app.computation().value_at(0, x, 0), 0);
  EXPECT_EQ(app.computation().value_at(0, x, 1), 0);  // backfilled
  app.internal(0);
  app.write(0, x, 5);
  EXPECT_EQ(app.computation().value_at(0, x, 2), 5);
}

TEST(OnlineAppender, ReverseClocksRecomputedAfterAppend) {
  OnlineAppender app(2);
  app.internal(0);
  const Computation& c = app.computation();
  EXPECT_EQ(c.reverse_vclock(0, 1)[0], 1);  // forces lazy computation
  app.internal(0);                          // invalidates
  EXPECT_EQ(c.reverse_vclock(0, 1)[0], 2);
  EXPECT_EQ(c.reverse_vclock(0, 2)[0], 1);
  MsgId m = app.send(0, 1);
  app.receive(1, m);
  EXPECT_EQ(c.reverse_vclock(0, 3)[1], 1);  // the receive is above the send
}

// ---- Monitor watches vs offline detection ---------------------------------------

/// Drives the monitor with a random computation's events and cross-checks
/// every watch against offline detection on the full computation.
class OnlineWatch : public ::testing::TestWithParam<std::uint64_t> {};

struct Feed {
  OnlineMonitor monitor;
  explicit Feed(const Computation& ref) : monitor(ref.num_procs()) {
    for (VarId v = 0; v < ref.num_vars(); ++v) monitor.var(ref.var_name(v));
    for (ProcId i = 0; i < ref.num_procs(); ++i)
      for (VarId v = 0; v < ref.num_vars(); ++v)
        monitor.set_initial(i, v, ref.value_at(i, v, 0));
  }
  void run(const Computation& ref) {
    std::vector<MsgId> msg_map(static_cast<std::size_t>(ref.num_messages()),
                               kNoMsg);
    for (const EventId& eid : ref.linearization()) {
      const Event& ev = ref.event(eid);
      switch (ev.kind) {
        case EventKind::kInternal:
          monitor.internal(eid.proc);
          break;
        case EventKind::kSend:
          msg_map[static_cast<std::size_t>(ev.msg)] =
              monitor.send(eid.proc, ev.peer);
          break;
        case EventKind::kReceive:
          monitor.receive(eid.proc,
                          msg_map[static_cast<std::size_t>(ev.msg)]);
          break;
      }
      for (const Assignment& a : ev.writes)
        monitor.write(eid.proc, ref.var_name(a.var), a.value);
    }
    monitor.finish();  // thaw the tails: the stream is complete
  }
};

TEST_P(OnlineWatch, ConjunctivePossiblyMatchesOffline) {
  GenOptions opt;
  opt.num_procs = 3;
  opt.events_per_proc = 8;
  opt.seed = GetParam();
  Computation ref = generate_random(opt);
  Rng rng(GetParam() * 11 + 3);

  for (int round = 0; round < 4; ++round) {
    std::vector<LocalPredicatePtr> ls;
    const std::size_t m = 1 + rng.next_below(3);
    for (std::size_t i = 0; i < m; ++i)
      ls.push_back(var_cmp(static_cast<ProcId>(rng.next_below(3)),
                           rng.next_bool() ? "v0" : "v1",
                           static_cast<Cmp>(rng.next_below(6)),
                           rng.next_in(0, 5)));
    auto p = make_conjunctive(std::move(ls));

    Feed feed(ref);
    WatchId w = feed.monitor.watch_possibly(p);
    feed.run(ref);

    DetectResult offline = detect_ef_conjunctive(ref, *p);
    ASSERT_EQ(feed.monitor.fired(w), offline.holds()) << p->describe();
    if (offline.holds()) {
      auto fires = feed.monitor.poll();
      ASSERT_EQ(fires.size(), 1u);
      // The online fire reports the same least satisfying cut.
      EXPECT_EQ(fires[0].cut, *offline.witness_cut) << p->describe();
      EXPECT_TRUE(p->eval(feed.monitor.computation(), fires[0].cut));
    }
  }
}

TEST_P(OnlineWatch, DisjunctivePossiblyAndInvariant) {
  GenOptions opt;
  opt.num_procs = 3;
  opt.events_per_proc = 8;
  opt.seed = GetParam() + 100;
  Computation ref = generate_random(opt);
  Rng rng(GetParam() * 13 + 5);

  for (int round = 0; round < 4; ++round) {
    std::vector<LocalPredicatePtr> ls;
    const std::size_t m = 1 + rng.next_below(3);
    for (std::size_t i = 0; i < m; ++i)
      ls.push_back(var_cmp(static_cast<ProcId>(rng.next_below(3)),
                           rng.next_bool() ? "v0" : "v1",
                           static_cast<Cmp>(rng.next_below(6)),
                           rng.next_in(0, 5)));
    auto p = make_disjunctive(std::move(ls));

    Feed feed(ref);
    WatchId possibly = feed.monitor.watch_possibly(p);
    WatchId invariant = feed.monitor.watch_invariant(p);
    feed.run(ref);

    EXPECT_EQ(feed.monitor.fired(possibly),
              detect_ef_disjunctive(ref, *p).holds())
        << p->describe();
    DetectResult ag = detect_ag_disjunctive(ref, *p);
    EXPECT_EQ(feed.monitor.fired(invariant), !ag.holds()) << p->describe();
    if (!ag.holds()) {
      for (const auto& f : feed.monitor.poll())
        if (f.watch == invariant) {
          EXPECT_FALSE(p->eval(feed.monitor.computation(), f.cut));
          EXPECT_EQ(f.cut, *ag.witness_cut);  // both are the least violation
        }
    }
  }
}

TEST_P(OnlineWatch, StableFiresAtEarliestPrefix) {
  GenOptions opt;
  opt.num_procs = 3;
  opt.events_per_proc = 6;
  opt.seed = GetParam() + 200;
  Computation ref = generate_random(opt);

  const std::int64_t threshold = 9;
  auto p = make_stable(
      [threshold](const Computation&, const Cut& g) {
        return g.total() >= threshold;
      },
      "progress");

  Feed feed(ref);
  WatchId w = feed.monitor.watch_stable(p);
  feed.run(ref);
  ASSERT_TRUE(feed.monitor.fired(w));
  auto fires = feed.monitor.poll();
  ASSERT_EQ(fires.size(), 1u);
  // The freeze rule delays the fire until the frozen frontier reaches the
  // threshold, but the fired cut itself crosses it exactly, and the fire
  // cannot precede the threshold'th event.
  EXPECT_GE(fires[0].at_event, threshold);
  EXPECT_GE(fires[0].cut.total(), threshold);
  EXPECT_TRUE(p->eval(feed.monitor.computation(), fires[0].cut));
}

TEST_P(OnlineWatch, ConjunctiveFiresAtEarliestPossiblePrefix) {
  // The fire event index must be the first prefix whose offline EF holds.
  GenOptions opt;
  opt.num_procs = 3;
  opt.events_per_proc = 6;
  opt.seed = GetParam() + 300;
  Computation ref = generate_random(opt);
  auto p = make_conjunctive({var_cmp(0, "v0", Cmp::kGe, 3),
                             var_cmp(1, "v0", Cmp::kGe, 3)});

  Feed feed(ref);
  WatchId w = feed.monitor.watch_possibly(p);
  feed.run(ref);

  DetectResult offline = detect_ef_conjunctive(ref, *p);
  ASSERT_EQ(feed.monitor.fired(w), offline.holds());
  if (!offline.holds()) return;
  auto fires = feed.monitor.poll();
  ASSERT_EQ(fires.size(), 1u);

  // The fired cut is the least satisfying cut, and the fire can only
  // happen once the whole witness (plus the freeze lag) has streamed in.
  EXPECT_EQ(fires[0].cut, *offline.witness_cut);
  EXPECT_GE(fires[0].at_event, offline.witness_cut->total());
}

TEST_P(OnlineWatch, UntilWatchMatchesOfflineA3) {
  GenOptions opt;
  opt.num_procs = 3;
  opt.events_per_proc = 8;
  opt.seed = GetParam() + 400;
  Computation ref = generate_random(opt);
  Rng rng(GetParam() * 17 + 9);

  for (int round = 0; round < 4; ++round) {
    auto p = make_conjunctive(
        {var_cmp(static_cast<ProcId>(rng.next_below(3)), "v0", Cmp::kLe,
                 rng.next_in(3, 9)),
         var_cmp(static_cast<ProcId>(rng.next_below(3)), "v1", Cmp::kLe,
                 rng.next_in(3, 9))});
    // Linear q with a real advancement walk: progress + channel emptiness.
    PredicatePtr q = make_and(
        PredicatePtr(progress_ge(static_cast<ProcId>(rng.next_below(3)),
                                 static_cast<EventIndex>(rng.next_in(1, 7)))),
        all_channels_empty());

    Feed feed(ref);
    WatchId w = feed.monitor.watch_until(p, q);
    feed.run(ref);

    DetectResult offline = detect_eu(ref, *p, *q);
    // The watch resolves iff I_q exists in the completed computation;
    // when q is never satisfied the watch stays pending (correct: a longer
    // run could still satisfy it).
    DetectStats st;
    auto iq = least_satisfying_cut(ref, *q, st);
    ASSERT_EQ(feed.monitor.fired(w), iq.has_value()) << q->describe();
    if (!iq) {
      EXPECT_FALSE(offline.holds());
      continue;
    }
    auto fires = feed.monitor.poll();
    ASSERT_EQ(fires.size(), 1u);
    EXPECT_EQ(fires[0].holds, offline.holds())
        << "p=" << p->describe() << " q=" << q->describe();
    EXPECT_EQ(fires[0].cut, *iq);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OnlineWatch,
                         ::testing::Range<std::uint64_t>(1, 31));

TEST(OnlineMonitor, WatchRegisteredMidRunSeesHistory) {
  OnlineMonitor m(2);
  m.var("x");
  m.internal(0);
  m.write(0, "x", 7);
  m.internal(1);
  // Register after the satisfying state already happened.
  WatchId w = m.watch_possibly(
      make_conjunctive({var_cmp(0, "x", Cmp::kEq, 7)}));
  // The tail of P0 is still mutable; the verdict lands once the stream
  // finishes (or P0 produces another event).
  m.finish();
  EXPECT_TRUE(m.fired(w));
  auto fires = m.poll();
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_EQ(fires[0].cut, Cut({1, 0}));
}

TEST(OnlineMonitor, TailThawsOnNextEventWithoutFinish) {
  OnlineMonitor m(2);
  m.var("x");
  m.internal(0);
  m.write(0, "x", 7);
  WatchId w = m.watch_possibly(
      make_conjunctive({var_cmp(0, "x", Cmp::kEq, 7)}));
  EXPECT_FALSE(m.fired(w));  // frozen: the write could still change
  m.internal(0);             // new event freezes the previous one
  EXPECT_TRUE(m.fired(w));
  EXPECT_EQ(m.poll()[0].cut, Cut({1, 0}));
}

TEST(OnlineMonitor, InvariantViolationByLateWrite) {
  OnlineMonitor m(2);
  m.var("ok");
  m.set_initial(0, m.var("ok"), 1);
  m.set_initial(1, m.var("ok"), 1);
  auto inv = make_disjunctive({var_cmp(0, "ok", Cmp::kEq, 1),
                               var_cmp(1, "ok", Cmp::kEq, 1)});
  WatchId w = m.watch_invariant(inv);
  m.internal(0);
  EXPECT_FALSE(m.fired(w));
  m.write(0, "ok", 0);  // still fine: P1 holds the disjunct
  EXPECT_FALSE(m.fired(w));
  m.internal(1);
  m.write(1, "ok", 0);  // now both can be 0 concurrently
  m.finish();
  EXPECT_TRUE(m.fired(w));
  auto fires = m.poll();
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_EQ(fires[0].cut, Cut({1, 1}));
}

TEST(OnlineMonitor, FreezeRulePreventsPrematureFiring) {
  // Without the freeze rule this would fire spuriously: the event arrives
  // with the carried value satisfying the predicate, then the write breaks
  // it again.
  OnlineMonitor m(2);
  m.var("x");
  m.set_initial(0, m.var("x"), 7);
  WatchId w = m.watch_possibly(make_conjunctive(
      {var_cmp(0, "x", Cmp::kEq, 7), progress_ge(0, 1)}));
  m.internal(0);        // carried value: x == 7 at position 1 ... for now
  m.write(0, "x", 0);   // the event actually set x = 0
  m.finish();
  EXPECT_FALSE(m.fired(w));
}

// ---- Event-driven scheduling: exact fire timing ----------------------------------

/// A dozen-plus processes with dozens of two-process watches on one monitor:
/// every watch wakes on a few processes only, so a wake-list bug that
/// delays a fire to a later event (or to finish()) changes its at_event.
Computation wide_computation(std::uint64_t seed) {
  GenOptions opt;
  opt.num_procs = 12 + static_cast<std::int32_t>(seed % 5);
  opt.events_per_proc = 10;
  opt.p_send = 0.3;
  opt.seed = seed;
  return generate_random(opt);
}

class WakeListDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WakeListDifferential, FiresAndWorkMatchTheStepAllLoop) {
  const Computation ref = wide_computation(GetParam());
  const auto watches = online_ref::wide_watches(ref.num_procs(), 36, GetParam());
  OnlineMonitor m(ref.num_procs());
  online_ref::arm(m, ref, watches);
  const std::vector<WatchFire> fires = online_ref::stream_into(m, ref);

  const auto r = online_ref::run_reference(ref, watches);
  online_ref::expect_reference_fires(fires, r);
  // Conjunctive work is unchanged; disjunctive work drops by exactly the
  // positions on processes a watch has no disjunct on.
  EXPECT_EQ(m.work().cut_steps, r.cut_steps);
  EXPECT_EQ(m.work().predicate_evals, r.conj_evals + r.disj_support_evals);
  EXPECT_GT(r.disj_other_evals, 0);
}

TEST_P(WakeListDifferential, FiresAtTheFirstPrefixCoveringTheWitness) {
  const Computation ref = wide_computation(GetParam());
  const auto watches = online_ref::wide_watches(ref.num_procs(), 36, GetParam());
  OnlineMonitor m(ref.num_procs());
  online_ref::arm(m, ref, watches);
  const std::vector<WatchFire> fires = online_ref::stream_into(m, ref);

  // The oracle comes from offline detection alone. Within one round the
  // monitor fires conjunctive and invariant watches before disjunctive
  // ones, each in registration order; registration fires (row 0) come in
  // registration order.
  const std::vector<Cut> rows = online_ref::frozen_rows(ref);
  struct Expected {
    std::int64_t row;
    int group;
    WatchId id;
    Cut cut;
  };
  std::vector<Expected> expected;
  for (std::size_t k = 0; k < watches.size(); ++k) {
    const online_ref::WideWatch& w = watches[k];
    const auto id = static_cast<WatchId>(k);
    if (w.kind == WatchKind::kDisjunctive) {
      const auto o = online_ref::fire_oracle_disj(ref, rows, *w.disj);
      if (o.row >= 0) expected.push_back({o.row, o.row == 0 ? 0 : 1, id, o.cut});
      continue;
    }
    const ConjunctivePredicatePtr p = w.kind == WatchKind::kConjunctive
                                          ? w.conj
                                          : as_conjunctive(w.disj->negate());
    const DetectResult off = detect_ef_conjunctive(ref, *p);
    if (off.verdict != Verdict::kHolds) continue;
    expected.push_back(
        {online_ref::fire_oracle_conj(rows, *off.witness_cut), 0, id,
         *off.witness_cut});
  }
  std::sort(expected.begin(), expected.end(),
            [](const Expected& a, const Expected& b) {
              return std::tie(a.row, a.group, a.id) <
                     std::tie(b.row, b.group, b.id);
            });
  ASSERT_EQ(fires.size(), expected.size());
  std::size_t mid_stream = 0;
  for (std::size_t k = 0; k < fires.size(); ++k) {
    const Expected& e = expected[k];
    EXPECT_EQ(fires[k].watch, e.id) << "fire " << k;
    EXPECT_EQ(fires[k].at_event, online_ref::at_event_of_row(rows, e.row))
        << "watch " << e.id;
    EXPECT_EQ(fires[k].cut, e.cut) << "watch " << e.id;
    if (e.row > 0 && e.row + 1 < static_cast<std::int64_t>(rows.size()))
      ++mid_stream;
  }
  EXPECT_GT(mid_stream, 0u) << "no fire landed between registration and finish";
}

TEST_P(WakeListDifferential, TinyRoundBudgetsStaySoundAndCatchUp) {
  const Computation ref = wide_computation(GetParam());
  const auto watches = online_ref::wide_watches(ref.num_procs(), 36, GetParam());
  OnlineMonitor plain(ref.num_procs());
  online_ref::arm(plain, ref, watches);
  std::vector<const WatchFire*> want(watches.size(), nullptr);
  const std::vector<WatchFire> plain_fires = online_ref::stream_into(plain, ref);
  for (const WatchFire& f : plain_fires) want[static_cast<std::size_t>(f.watch)] = &f;

  // Tiny round budgets over the first half of the stream, then none: the
  // first unbudgeted round steps every watch, after which every fire lands
  // exactly where the unbudgeted run's does.
  const std::int64_t lift = ref.total_events() / 2;
  for (const std::int64_t max_work : {1, 4, 16}) {
    OnlineMonitor m(ref.num_procs());
    Budget b;
    b.max_work = max_work;
    m.set_budget(b);
    online_ref::arm(m, ref, watches);
    std::int64_t seen = 0;
    const std::vector<WatchFire> fires = online_ref::stream_into(m, ref, [&] {
      if (++seen == lift) m.set_budget(Budget{});
    });
    std::vector<const WatchFire*> got(watches.size(), nullptr);
    for (const WatchFire& f : fires) {
      const auto k = static_cast<std::size_t>(f.watch);
      ASSERT_EQ(got[k], nullptr) << "watch " << k << " fired twice";
      got[k] = &f;
      // Every definite verdict is sound, and none precedes the unbudgeted
      // run's.
      ASSERT_NE(want[k], nullptr) << "watch " << k << " budget " << max_work;
      EXPECT_EQ(f.verdict, Verdict::kHolds);
      EXPECT_GE(f.at_event, want[k]->at_event) << "watch " << k;
      if (f.at_event > lift) {
        EXPECT_EQ(f.at_event, std::max(want[k]->at_event, lift + 1))
            << "watch " << k << " budget " << max_work;
      }
    }
    // The final verdicts equal the unbudgeted run's.
    for (std::size_t k = 0; k < watches.size(); ++k) {
      ASSERT_EQ(got[k] != nullptr, want[k] != nullptr)
          << "watch " << k << " budget " << max_work;
      if (got[k] == nullptr) continue;
      EXPECT_EQ(got[k]->verdict, want[k]->verdict);
      if (watches[k].kind != WatchKind::kDisjunctive) {
        // The least satisfying (or violating) cut is unique.
        EXPECT_EQ(got[k]->cut, want[k]->cut) << "watch " << k;
        continue;
      }
      // A disjunctive witness is the first true position the scan meets,
      // which depends on when the watch got its budget: any is sound.
      const Cut& g = got[k]->cut;
      EXPECT_TRUE(ref.is_consistent(g)) << "watch " << k;
      EXPECT_TRUE(watches[k].disj->eval(ref, g)) << "watch " << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WakeListDifferential,
                         ::testing::Range<std::uint64_t>(1, 41));

TEST(OnlineMonitor, RepairStallOnAnUnreadProcessFiresOnItsNextEvent) {
  // The watch reads P0 and P1 only. P0's candidate was caused by P2's send,
  // so the GW repair makes the watch wait for P2's position 1 to freeze.
  // The fire must land on P2's next event, not on a later event of the
  // processes the predicate reads, nor at finish().
  OnlineMonitor m(3);
  m.var("x");
  m.var("y");
  const WatchId w = m.watch_possibly(make_conjunctive(
      {var_cmp(0, "x", Cmp::kEq, 1), var_cmp(1, "y", Cmp::kEq, 1)}));
  m.internal(1);
  m.write(1, "y", 1);
  m.internal(1);  // freezes P1's position 1
  const MsgId msg = m.send(2, 0);
  m.receive(0, msg);
  m.write(0, "x", 1);
  m.internal(0);  // freezes P0's position 1, whose clock demands P2 >= 1
  EXPECT_FALSE(m.fired(w));
  for (int k = 0; k < 4; ++k) {
    m.internal(0);
    m.internal(1);
  }
  EXPECT_FALSE(m.fired(w)) << "fired before P2's send froze";
  m.internal(2);
  ASSERT_TRUE(m.fired(w));
  const auto fires = m.poll();
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_EQ(fires[0].at_event, m.events_seen());
  EXPECT_EQ(fires[0].cut, Cut({1, 1, 1}));
}

}  // namespace
}  // namespace hbct
