// Channel counters agree across the three storage modes, and appending does
// not allocate per event for clocks or channel bookkeeping.
//
//   1. For sim/ workloads, random computations and the corpus at golden
//      scale, sends_up_to, recvs_up_to, channel_active and in_transit read
//      the same values from
//        - the builder's computation (sparse channel logs),
//        - an OnlineAppender fed the same linearization, with
//          collect_prefix at random consistent cuts (resident positions
//          only; trimmed log entries still count),
//        - the zero-copy mtrace view of the builder's computation (dense
//          on-disk tables),
//      at every position of every ordered process pair.
//   2. The mtrace bytes of every golden-scale corpus scenario hash to the
//      digests the dense-table writer produced, so expanding the logs on
//      write keeps the on-disk format byte for byte.
//   3. operator-new calls per appended event stay flat from 4 to 32 to 128
//      processes on message-heavy traffic.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "alloc_hook.h"
#include "corpus/scenario.h"
#include "online/appender.h"
#include "poset/generate.h"
#include "poset/mtrace.h"
#include "sim/workloads.h"
#include "util/rng.h"

namespace hbct {
namespace {

std::size_t sz(std::int32_t v) { return static_cast<std::size_t>(v); }

corpus::CorpusOptions golden_options() {
  corpus::CorpusOptions o;
  o.procs = 4;
  o.scale = 3;
  o.seed = 2002;
  return o;
}

/// Every counter of `got` at its resident positions equals `want`'s. `got`
/// may hold a prefix of `want` (an appender mid-stream): positions are
/// absolute and a prefix count depends only on earlier events.
void expect_same_counters(const Computation& want, const Computation& got,
                          const std::string& where) {
  const ProcId n = want.num_procs();
  ASSERT_EQ(got.num_procs(), n) << where;
  for (ProcId i = 0; i < n; ++i)
    for (ProcId j = 0; j < n; ++j) {
      if (i == j) continue;
      const EventIndex last = got.num_events(i);
      EXPECT_EQ(got.channel_active(i, j), want.sends_up_to(i, j, last) > 0)
          << where << " active " << i << "->" << j;
      for (EventIndex k = got.trimmed(i); k <= last; ++k) {
        ASSERT_EQ(got.sends_up_to(i, j, k), want.sends_up_to(i, j, k))
            << where << " sends " << i << "->" << j << " @" << k;
        ASSERT_EQ(got.recvs_up_to(i, j, k), want.recvs_up_to(i, j, k))
            << where << " recvs " << i << "<-" << j << " @" << k;
      }
    }
}

/// in_transit on every ordered pair at `g` (consistent in both).
void expect_same_in_transit(const Computation& want, const Computation& got,
                            const Cut& g, const std::string& where) {
  for (ProcId i = 0; i < want.num_procs(); ++i)
    for (ProcId j = 0; j < want.num_procs(); ++j) {
      if (i == j) continue;
      ASSERT_EQ(got.in_transit(i, j, g), want.in_transit(i, j, g))
          << where << " in_transit " << i << "->" << j << " at "
          << g.to_string();
    }
}

/// The cuts after each prefix of the linearization: all consistent.
std::vector<Cut> linearization_cuts(const Computation& c) {
  std::vector<Cut> cuts{c.initial_cut()};
  Cut g = c.initial_cut();
  for (const EventId& e : c.linearization()) {
    ++g[sz(e.proc)];
    cuts.push_back(g);
  }
  return cuts;
}

Cut join(const Cut& a, const Cut& b) {
  Cut j = a;
  for (std::size_t k = 0; k < j.size(); ++k) j[k] = std::max(a[k], b[k]);
  return j;
}

/// A random consistent cut between `lo` and `hi` (both consistent,
/// lo <= hi): the join of `lo` with a random linearization prefix of the
/// events below `hi`.
Cut random_cut_between(const Computation& c, const Cut& lo, const Cut& hi,
                       Rng& rng) {
  Cut g = c.initial_cut();
  std::vector<Cut> below;
  for (const EventId& e : c.linearization()) {
    if (e.index > hi[sz(e.proc)]) break;  // a prefix of the order only
    ++g[sz(e.proc)];
    below.push_back(g);
  }
  if (below.empty()) return lo;
  return join(lo, below[rng.next_below(below.size())]);
}

/// The three-mode differential for one computation.
void check_storage_modes(const Computation& ref, std::uint64_t seed,
                         const std::string& where) {
  // mtrace view of the builder's computation.
  MtraceLoadResult view = mtrace_from_bytes(mtrace_to_string(ref));
  ASSERT_TRUE(view.ok) << where << ": " << view.error;
  ASSERT_TRUE(view.computation.is_view());
  expect_same_counters(ref, view.computation, where + " view");
  for (const Cut& g : linearization_cuts(ref))
    expect_same_in_transit(ref, view.computation, g, where + " view");

  // OnlineAppender over the same linearization, collecting at random
  // consistent cuts between the previous collection and the frontier.
  Rng rng(seed * 7919 + 17);
  OnlineAppender app(ref.num_procs());
  std::vector<MsgId> msg_map(static_cast<std::size_t>(ref.num_messages()),
                             kNoMsg);
  Cut trim = ref.initial_cut();
  std::int64_t fed = 0;
  const std::int64_t gc_every =
      std::max<std::int64_t>(1, ref.total_events() / 5);
  for (const EventId& eid : ref.linearization()) {
    const Event& ev = ref.event(eid);
    switch (ev.kind) {
      case EventKind::kInternal:
        app.internal(eid.proc);
        break;
      case EventKind::kSend:
        msg_map[sz(ev.msg)] = app.send(eid.proc, ev.peer);
        break;
      case EventKind::kReceive:
        app.receive(eid.proc, msg_map[sz(ev.msg)]);
        break;
    }
    if (++fed % gc_every == 0) {
      trim = random_cut_between(ref, trim, app.current_cut(), rng);
      app.collect_prefix(trim);
      expect_same_counters(ref, app.computation(),
                           where + " online@" + std::to_string(fed));
    }
  }
  const Computation& online = app.computation();
  ASSERT_EQ(online.total_events(), ref.total_events()) << where;
  expect_same_counters(ref, online, where + " online");
  for (ProcId i = 0; i < ref.num_procs(); ++i)
    for (ProcId j = 0; j < ref.num_procs(); ++j)
      EXPECT_EQ(online.channel_active(i, j), ref.channel_active(i, j))
          << where << " final active " << i << "->" << j;
  // in_transit needs resident positions: lift every linearization cut above
  // the last trim cut (a join of consistent cuts is consistent).
  for (const Cut& g : linearization_cuts(ref))
    expect_same_in_transit(ref, online, join(trim, g), where + " online");
}

// ---- 1. Three-mode differential --------------------------------------------

class OnlineChannelLogSim : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OnlineChannelLogSim, CountersAgreeAcrossStorageModes) {
  const std::uint64_t seed = GetParam();
  sim::SimOptions o;
  o.seed = seed;
  o.fifo = seed % 2 == 0;
  const std::int32_t n = 3 + static_cast<std::int32_t>(seed % 4);
  Computation c;
  switch (seed % 5) {
    case 0: c = sim::make_random_mixer(n, 12, 2, 0.5).run(o); break;
    case 1: c = sim::make_ra_mutex(n, 2).run(o); break;
    case 2: c = sim::make_barrier(n, 3).run(o); break;
    case 3: c = sim::make_two_phase_commit(n, 2, 0.3, false).run(o); break;
    default: c = sim::make_token_mutex(n, 2, seed % 3 == 0).run(o); break;
  }
  check_storage_modes(c, seed, "sim seed " + std::to_string(seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, OnlineChannelLogSim,
                         ::testing::Range<std::uint64_t>(1, 41));

class OnlineChannelLogRandom
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OnlineChannelLogRandom, CountersAgreeAcrossStorageModes) {
  const std::uint64_t seed = GetParam();
  GenOptions opt;
  opt.num_procs = 2 + static_cast<std::int32_t>(seed % 5);
  opt.events_per_proc = 6 + static_cast<std::int32_t>(seed % 11);
  opt.p_send = 0.2 + 0.1 * static_cast<double>(seed % 5);
  opt.fifo = seed % 3 != 0;
  opt.seed = seed;
  check_storage_modes(generate_random(opt), seed,
                      "random seed " + std::to_string(seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, OnlineChannelLogRandom,
                         ::testing::Range<std::uint64_t>(1, 41));

TEST(OnlineChannelLog, CorpusCountersAgreeAcrossStorageModes) {
  std::uint64_t seed = 1;
  for (const corpus::ScenarioSpec& spec : corpus::scenario_registry())
    check_storage_modes(spec.build(golden_options()).computation, seed++,
                        spec.name);
}

// ---- 2. mtrace bytes -------------------------------------------------------

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

TEST(OnlineChannelLog, MtraceBytesMatchDenseTableWriter) {
  // FNV-1a 64 of mtrace_to_string at golden scale, recorded from the writer
  // that kept dense per-position channel tables in memory. The log-backed
  // writer must reproduce these bytes exactly.
  struct Pin {
    const char* name;
    std::uint64_t digest;
    std::size_t bytes;
  };
  const Pin pins[] = {
      {"mpi_barrier", 0x1e406fb7361264d5ull, 3696},
      {"mpi_alltoall", 0x1ca2d30dc5ee9f57ull, 2448},
      {"peterson", 0xb680c1ae32210956ull, 5224},
      {"peterson_bug", 0x02eb54957a75aa05ull, 5224},
      {"election", 0x405efec0b92ebd79ull, 3528},
      {"replication", 0xb5df8c9326542ba0ull, 4696},
  };
  ASSERT_EQ(std::size(pins), corpus::scenario_registry().size());
  for (const Pin& pin : pins) {
    const std::string bytes = mtrace_to_string(
        corpus::build_scenario(pin.name, golden_options()).computation);
    EXPECT_EQ(bytes.size(), pin.bytes) << pin.name;
    EXPECT_EQ(fnv1a64(bytes), pin.digest) << pin.name;
  }
}

// ---- 3. Allocation pin -----------------------------------------------------

/// operator-new calls per appended event over `rounds` rounds of
/// message-heavy ring traffic on n processes: every process sends to one of
/// its next three neighbours, receives what its predecessor sent it, then
/// performs an internal step. Events per process are the same at every
/// width, so amortized vector growth costs the same per event.
double allocs_per_event(std::int32_t n, std::int32_t rounds,
                        double* send_share) {
  OnlineAppender app(n);
  std::vector<MsgId> sent(sz(n), kNoMsg);
  std::int64_t events = 0, sends = 0;
  testhooks::AllocCountScope scope;
  for (std::int32_t r = 0; r < rounds; ++r) {
    for (ProcId i = 0; i < n; ++i) {
      const ProcId to = (i + 1 + r % 3) % n;
      sent[sz(i)] = app.send(i, to);
    }
    for (ProcId i = 0; i < n; ++i) {
      const ProcId from = ((i - 1 - r % 3) % n + n) % n;
      app.receive(i, sent[sz(from)]);
    }
    for (ProcId i = 0; i < n; ++i) app.internal(i);
    events += 3 * n;
    sends += n;
  }
  *send_share = static_cast<double>(sends) / static_cast<double>(events);
  return static_cast<double>(scope.count()) / static_cast<double>(events);
}

TEST(OnlineChannelLog, AppendAllocationsFlatInWidth) {
  // What may still allocate per event: the in-flight map node of each send
  // (one per message, stays as it is), Event::writes (unused here) and the
  // amortized growth of the per-process vectors and logs. The clock row is
  // written in place and a send or receive pushes one log entry, so the
  // per-event count neither includes a clock temporary nor grows with the
  // number of processes.
  const std::int32_t rounds = 150;
  double share = 0;
  const double at4 = allocs_per_event(4, rounds, &share);
  const double at32 = allocs_per_event(32, rounds, &share);
  const double at128 = allocs_per_event(128, rounds, &share);
  for (const double a : {at4, at32, at128})
    EXPECT_LT(a, share + 0.25) << "4: " << at4 << " 32: " << at32
                               << " 128: " << at128;
  EXPECT_LE(at32, at4 + 0.05) << "4: " << at4 << " 32: " << at32;
  EXPECT_LE(at128, at4 + 0.05) << "4: " << at4 << " 128: " << at128;
}

}  // namespace
}  // namespace hbct
