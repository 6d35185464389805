// Stream workloads: seeded wire streams served by serve::StreamingService.
//
// stream-mixed  open loop, 2-process sessions, one or more watches of every
//               class; measures fire latency from each chunk's due time.
// stream-wide   closed loop, 32-process sessions with message-heavy traffic
//               and hundreds of 2-process conjunctive/disjunctive watches;
//               measures throughput at saturation.
//
// Every expected fire (verdict, at_event, witness cut) is derived from the
// generator's own model of the stream — per-process event sequence numbers,
// variable values and vector clocks recorded while the stream is built —
// using the documented monitor semantics: a local state becomes visible
// when the next event of its process arrives (the freeze rule), a
// conjunctive watch fires with the least satisfying consistent cut once all
// of it is visible, a stable watch fires on the first visible frontier that
// satisfies it, and an until watch decides once I_q is visible.
//
// The traced run adds single-threaded replays of one session's bytes
// through each layer's public calls (wire decoder, appender, monitor with
// all or one class of watches, Session), timing one call at a time.
#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <thread>
#include <unordered_map>

#include "common.h"
#include "obs/metrics.h"
#include "online/appender.h"
#include "online/monitor.h"
#include "predicate/channel.h"
#include "predicate/conjunctive.h"
#include "predicate/disjunctive.h"
#include "predicate/local.h"
#include "predicate/predicate.h"
#include "predicate/relational.h"
#include "serve/service.h"
#include "serve/session.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using namespace hbct;
using serve::SessionId;
using serve::SessionState;
using serve::StreamingService;

// ---- Workload shape -------------------------------------------------------

/// Offered load of stream-mixed, events/s summed over its sessions. The mix
/// sustained 200k-250k events/s on the 4-vCPU reference guest in calm
/// periods and under 150k while the host was loaded; 100k keeps the open
/// loop valid in both.
constexpr double kMixedOfferedRate = 100'000;
constexpr int kMixedSessions = 36;
constexpr std::int64_t kMixedRounds = 2'000;  // ~2.5 events per round
/// Events per posted chunk. With 16 the fire latency was mostly the wake-up
/// of an idle pool worker's vCPU, which the host's load moved by up to 1.7x
/// between runs; at 64 it is mostly the decode and monitor work on the
/// events ahead of the deciding one in its chunk.
constexpr std::int64_t kMixedChunkEvents = 64;

constexpr int kWideSessions = 6;
constexpr std::int32_t kWideProcs = 32;
constexpr std::int64_t kWideEvents = 20'000;
constexpr std::int64_t kWideChunkEvents = 32;
constexpr std::int64_t kWideWindowChunks = 4;

/// Rounds of layer replays in a traced run (figures are their medians), and
/// the events they replay: whole sessions, the first ones, until this many.
constexpr int kReplayRounds = 3;
constexpr std::int64_t kReplayMinEvents = 40'000;
/// Events per block of the interleaved layer replays (see replay_stream).
constexpr std::int64_t kReplayBlockEvents = 512;

/// The service's fire-latency objective.
constexpr double kSloUs = 250.0;
/// Session::collect cadence (SessionConfig default), mirrored by replays.
constexpr std::int64_t kGcInterval = serve::SessionConfig{}.gc_interval_events;

int worker_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 1 ? static_cast<int>(hw) - 1 : 1;
}

// ---- Streams and their expected fires --------------------------------------

/// Watch groups as the per-class replays arm them (channel and relational
/// watches ride watch_stable and are grouped with it).
enum class Cls : int { kConj, kDisj, kInv, kStable, kUntil };
constexpr int kNumCls = 5;
const char* cls_name(Cls c) {
  switch (c) {
    case Cls::kConj: return "conjunctive";
    case Cls::kDisj: return "disjunctive";
    case Cls::kInv: return "invariant";
    case Cls::kStable: return "stable";
    case Cls::kUntil: return "until";
  }
  return "?";
}

struct WatchSpec {
  Cls cls = Cls::kConj;
  WatchKind kind = WatchKind::kConjunctive;
  std::function<WatchId(OnlineMonitor&)> arm;
  bool fires = false;
  Verdict verdict = Verdict::kHolds;
  std::int64_t at_event = 0;
  Cut cut;
};

using Records = std::vector<std::vector<wire::Record>>;  // per chunk

/// A generated session stream: its records, cut into chunks, and the watches
/// with the fires they must produce. Built once per run; each pass encodes
/// the records afresh.
struct Stream {
  std::int32_t nprocs = 0;
  std::vector<std::string> vars;
  Records chunks;
  std::vector<std::int64_t> cum_events;   // events in chunks [0, k]
  std::vector<std::int64_t> cum_records;  // records in chunks [0, k]
  std::vector<WatchSpec> watches;

  std::int64_t events() const { return cum_events.back(); }
  std::int64_t records() const { return cum_records.back(); }
  std::int64_t chunk_events(std::size_t k) const {
    return cum_events[k] - (k ? cum_events[k - 1] : 0);
  }
  std::int64_t chunk_records(std::size_t k) const {
    return cum_records[k] - (k ? cum_records[k - 1] : 0);
  }
  /// Index of the chunk holding event number `seq` (1-based).
  std::size_t chunk_of(std::int64_t seq) const {
    return static_cast<std::size_t>(
        std::lower_bound(cum_events.begin(), cum_events.end(), seq) -
        cum_events.begin());
  }
};

/// Cuts records into chunks of `chunk_events` events. A chunk is closed
/// lazily, when the next event arrives, so the end-of-stream record always
/// shares the chunk of the last event.
class ChunkWriter {
 public:
  ChunkWriter(Stream& s, std::int64_t chunk_events)
      : s_(s), chunk_events_(chunk_events) {}

  void head(wire::Record r) {
    buf_.push_back(std::move(r));
    ++recs_;
  }
  void event(wire::Record r) {
    if (in_chunk_ == chunk_events_) flush();
    buf_.push_back(std::move(r));
    ++recs_;
    ++events_;
    ++in_chunk_;
  }
  void end() {
    wire::Record e;
    e.kind = wire::Record::Kind::kEnd;
    buf_.push_back(std::move(e));
    ++recs_;
    flush();
  }

 private:
  void flush() {
    s_.chunks.push_back(std::exchange(buf_, {}));
    s_.cum_events.push_back(events_);
    s_.cum_records.push_back(recs_);
    in_chunk_ = 0;
  }

  Stream& s_;
  std::int64_t chunk_events_;
  std::vector<wire::Record> buf_;
  std::int64_t recs_ = 0;
  std::int64_t events_ = 0;
  std::int64_t in_chunk_ = 0;
};

/// The stream's wire bytes, one string per chunk.
std::vector<std::string> encode(const Stream& s) {
  std::vector<std::string> out(s.chunks.size());
  for (std::size_t k = 0; k < s.chunks.size(); ++k)
    for (const wire::Record& r : s.chunks[k]) wire::encode_record(out[k], r);
  return out;
}

wire::Record rec(wire::Record::Kind k, std::int32_t proc) {
  wire::Record r;
  r.kind = k;
  r.proc = proc;
  return r;
}

/// Per-process event sequence numbers: seq[p][k] is the global (1-based)
/// number of process p's k-th event; seq[p][0] = 0 stands for the initial
/// state.
struct SeqModel {
  std::vector<std::vector<std::int64_t>> seq;
  std::int64_t total = 0;

  /// The event at which local state (p, k) becomes visible to watches: the
  /// arrival of p's next event, or end of stream when there is none.
  std::int64_t freeze(std::int32_t p, std::int64_t k) const {
    if (k == 0) return 0;
    const auto& s = seq[static_cast<std::size_t>(p)];
    return k + 1 < static_cast<std::int64_t>(s.size())
               ? s[static_cast<std::size_t>(k + 1)]
               : total;
  }
  /// First event at which every component of `g` is visible.
  std::int64_t freeze(const Cut& g) const {
    std::int64_t at = 0;
    for (std::size_t p = 0; p < g.size(); ++p)
      at = std::max(at, freeze(static_cast<std::int32_t>(p), g[p]));
    return at;
  }
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : g_(seed) {}
  std::uint64_t below(std::uint64_t n) { return g_() % n; }
  double unit() { return static_cast<double>(g_() >> 11) * 0x1.0p-53; }

 private:
  std::mt19937_64 g_;
};

std::uint64_t session_seed(std::uint64_t seed, int session,
                           std::uint64_t salt) {
  return seed * 0x9E3779B97F4A7C15ull +
         static_cast<std::uint64_t>(session) * 0xBF58476D1CE4E5B9ull + salt;
}

/// stream-mixed session: P0 sends message r carrying x (strictly increasing
/// by 1 or 2), P1 receives message r - lag and sets y to the x it carries;
/// either process sometimes runs an internal event. x and y are monotone
/// and the channel 0->1 holds about `lag` messages after warm-up.
Stream make_mixed(std::uint64_t seed, int session) {
  Rng rng(session_seed(seed, session, 1));
  const std::int64_t lag = 24 + static_cast<std::int64_t>(rng.below(48));
  Stream st;
  st.nprocs = 2;
  st.vars = {"x", "y"};
  ChunkWriter w(st, kMixedChunkEvents);
  {
    wire::Record r = rec(wire::Record::Kind::kProcs, 0);
    r.nprocs = 2;
    w.head(r);
    for (const std::string& v : st.vars) {
      wire::Record vr = rec(wire::Record::Kind::kVar, 0);
      vr.name = v;
      w.head(vr);
    }
    for (std::int32_t p = 0; p < 2; ++p) {
      wire::Record in = rec(wire::Record::Kind::kInit, p);
      in.var = static_cast<std::uint32_t>(p);
      in.value = 0;
      w.head(in);
    }
  }

  SeqModel m;
  m.seq.assign(2, {0});
  std::vector<std::int64_t> x_at{0}, y_at{0}, dep0{0};  // per position
  std::vector<std::int64_t> sends_upto{0}, recvs_upto{0};
  std::vector<std::int64_t> send_pos, send_x, recv_pos;
  std::vector<std::int8_t> proc_of{-1};
  std::int64_t seq = 0, x = 0;
  const auto p0_event = [&](bool is_send) {
    m.seq[0].push_back(++seq);
    x_at.push_back(x);
    sends_upto.push_back(sends_upto.back() + (is_send ? 1 : 0));
    proc_of.push_back(0);
  };
  const auto p1_event = [&](std::int64_t y, std::int64_t dep, bool is_recv) {
    m.seq[1].push_back(++seq);
    y_at.push_back(y);
    dep0.push_back(dep);
    recvs_upto.push_back(recvs_upto.back() + (is_recv ? 1 : 0));
    proc_of.push_back(1);
  };
  for (std::int64_t r = 0; r < kMixedRounds; ++r) {
    if (rng.below(4) == 0) {
      w.event(rec(wire::Record::Kind::kInternal, 0));
      p0_event(false);
    }
    x += 1 + static_cast<std::int64_t>(rng.below(2));
    wire::Record s = rec(wire::Record::Kind::kSend, 0);
    s.peer = 1;
    s.msg = static_cast<std::uint64_t>(r);
    s.writes.push_back({0, x});
    w.event(s);
    p0_event(true);
    send_pos.push_back(static_cast<std::int64_t>(m.seq[0].size()) - 1);
    send_x.push_back(x);
    if (rng.below(4) == 0) {
      w.event(rec(wire::Record::Kind::kInternal, 1));
      p1_event(y_at.back(), dep0.back(), false);
    }
    if (r >= lag) {
      const std::int64_t msg = r - lag;
      wire::Record v = rec(wire::Record::Kind::kRecv, 1);
      v.msg = static_cast<std::uint64_t>(msg);
      v.writes.push_back({1, send_x[static_cast<std::size_t>(msg)]});
      w.event(v);
      p1_event(send_x[static_cast<std::size_t>(msg)],
               send_pos[static_cast<std::size_t>(msg)], true);
      recv_pos.push_back(static_cast<std::int64_t>(m.seq[1].size()) - 1);
    }
  }
  w.end();
  m.total = seq;

  const auto at = [](const std::vector<std::int64_t>& v, std::int64_t i) {
    return v[static_cast<std::size_t>(i)];
  };
  // Staggered deciding thresholds: the j-th of k watches of a class decides
  // around fraction 0.05 + 0.85 (j + u) / k of its range, u uniform.
  const auto stagger = [&](int j, int k, std::int64_t range) {
    const double f = 0.05 + 0.85 * (j + rng.unit()) / k;
    return std::max<std::int64_t>(
        1, static_cast<std::int64_t>(f * static_cast<double>(range)));
  };
  const std::int64_t received = static_cast<std::int64_t>(recv_pos.size());
  const auto cut2 = [](std::int64_t a, std::int64_t b) {
    return Cut(std::vector<std::int32_t>{static_cast<std::int32_t>(a),
                                         static_cast<std::int32_t>(b)});
  };
  // Message i as a cut: its send on P0 and its receive on P1.
  const auto msg_cut = [&](std::int64_t i) {
    return cut2(at(send_pos, i), at(recv_pos, i));
  };
  const auto xv = [](Cmp op, std::int64_t k) { return var_cmp(0, "x", op, k); };
  const auto yv = [](Cmp op, std::int64_t k) { return var_cmp(1, "y", op, k); };
  using Arm = std::function<WatchId(OnlineMonitor&)>;
  const auto add = [&](Cls cls, WatchKind kind, Arm arm) -> WatchSpec& {
    WatchSpec ws;
    ws.cls = cls;
    ws.kind = kind;
    ws.arm = std::move(arm);
    st.watches.push_back(std::move(ws));
    return st.watches.back();
  };
  const auto decide = [](WatchSpec& ws, Verdict v, std::int64_t at_event,
                         Cut cut) {
    ws.fires = true;
    ws.verdict = v;
    ws.at_event = at_event;
    ws.cut = std::move(cut);
  };

  // Conjunctive EF(x == v && y == v): the unique satisfying cut is (send of
  // the message carrying v, its receive), consistent by construction.
  for (int j = 0; j < 4; ++j) {
    const std::int64_t i = stagger(j, 4, received);
    const std::int64_t v = at(send_x, i);
    const auto p = make_conjunctive({xv(Cmp::kEq, v), yv(Cmp::kEq, v)});
    decide(add(Cls::kConj, WatchKind::kConjunctive,
               [p](OnlineMonitor& mon) { return mon.watch_possibly(p); }),
           Verdict::kHolds, m.freeze(msg_cut(i)), msg_cut(i));
  }
  // Disjunctive EF(x == v || y == u): fires at the first of the two local
  // states to become visible, with that event's causal past as witness.
  for (int j = 0; j < 4; ++j) {
    const std::int64_t i1 = stagger(j, 4, received);
    const std::int64_t back = static_cast<std::int64_t>(
        rng.below(static_cast<std::uint64_t>(2 * lag)));
    const std::int64_t i2 = std::max<std::int64_t>(0, i1 - back);
    const std::int64_t f0 = m.freeze(0, at(send_pos, i1));
    const std::int64_t f1 = m.freeze(1, at(recv_pos, i2));
    const auto p = make_disjunctive(
        {xv(Cmp::kEq, at(send_x, i1)), yv(Cmp::kEq, at(send_x, i2))});
    decide(add(Cls::kDisj, WatchKind::kDisjunctive,
               [p](OnlineMonitor& mon) { return mon.watch_possibly(p); }),
           Verdict::kHolds, std::min(f0, f1),
           f0 <= f1 ? cut2(at(send_pos, i1), 0) : msg_cut(i2));
  }
  // Invariant AG(x < v || y < v): violated at the least cut with x >= v and
  // y >= v, which is the send/receive pair of the first message with x >= v.
  for (int j = 0; j < 4; ++j) {
    const std::int64_t i = stagger(j, 4, received);
    const std::int64_t v = at(send_x, i);
    const auto p = make_disjunctive({xv(Cmp::kLt, v), yv(Cmp::kLt, v)});
    decide(add(Cls::kInv, WatchKind::kInvariant,
               [p](OnlineMonitor& mon) { return mon.watch_invariant(p); }),
           Verdict::kHolds, m.freeze(msg_cut(i)), msg_cut(i));
  }
  // Stable, channel and relational watches fire on the first visible
  // frontier (each process's second-newest position) that satisfies them.
  using FrontierTest = std::function<bool(std::int64_t, std::int64_t)>;
  const auto stable_watch = [&](PredicatePtr pred, const FrontierTest& holds) {
    WatchSpec& ws =
        add(Cls::kStable, WatchKind::kStable,
            [pred](OnlineMonitor& mon) { return mon.watch_stable(pred); });
    std::int64_t n0 = 0, n1 = 0;
    for (std::int64_t s = 1; s <= m.total; ++s) {
      (proc_of[static_cast<std::size_t>(s)] == 0 ? n0 : n1) += 1;
      const std::int64_t f0 = std::max<std::int64_t>(0, n0 - 1);
      const std::int64_t f1 = std::max<std::int64_t>(0, n1 - 1);
      if (holds(f0, f1)) {
        decide(ws, Verdict::kHolds, s, cut2(f0, f1));
        return;
      }
    }
  };
  for (int j = 0; j < 3; ++j) {
    const std::int64_t k = stagger(j, 3, m.total);
    stable_watch(make_stable([k](const Computation&,
                                 const Cut& g) { return g.total() >= k; },
                             "progress>=" + std::to_string(k)),
                 [k](std::int64_t f0, std::int64_t f1) {
                   return f0 + f1 >= k;
                 });
  }
  for (int j = 0; j < 3; ++j) {
    const std::int64_t k = 1 + (lag - 2) * (j + 1) / 4;
    stable_watch(channel_bound_ge(0, 1, static_cast<std::int32_t>(k)),
                 [&, k](std::int64_t f0, std::int64_t f1) {
                   return at(sends_upto, f0) - at(recvs_upto, f1) >= k;
                 });
  }
  for (int j = 0; j < 3; ++j) {
    const std::int64_t k = stagger(j, 3, x_at.back() + y_at.back());
    stable_watch(sum_ge({{0, "x"}, {1, "y"}}, k),
                 [&, k](std::int64_t f0, std::int64_t f1) {
                   return at(x_at, f0) + at(y_at, f1) >= k;
                 });
  }
  // Until E[x <= c U progress(P1) >= k]: I_q is the causal past of P1's
  // k-th event. Every path to a q-cut passes through a cut whose P0 part is
  // I_q's, so the verdict holds iff x there is <= c; c sits on either side
  // of that boundary.
  for (int j = 0; j < 8; ++j) {
    const std::int64_t k = at(recv_pos, stagger(j / 2, 4, received));
    const Cut iq = cut2(at(dep0, k), k);
    const bool holds = j % 2 == 0;
    const std::int64_t c = at(x_at, at(dep0, k)) - (holds ? 0 : 1);
    const auto p = make_conjunctive({xv(Cmp::kLe, c)});
    const PredicatePtr q = progress_ge(1, static_cast<EventIndex>(k));
    decide(add(Cls::kUntil, WatchKind::kUntil,
               [p, q](OnlineMonitor& mon) { return mon.watch_until(p, q); }),
           holds ? Verdict::kHolds : Verdict::kFails, m.freeze(iq), iq);
  }

  // Never-deciding watches of every class: they must stay silent.
  const auto conj = [&](ConjunctivePredicatePtr p) {
    add(Cls::kConj, WatchKind::kConjunctive,
        [p](OnlineMonitor& mon) { return mon.watch_possibly(p); });
  };
  conj(make_conjunctive({xv(Cmp::kLt, 0), yv(Cmp::kLt, 0)}));
  conj(make_conjunctive({xv(Cmp::kEq, -1), yv(Cmp::kEq, -2)}));
  const auto disj = make_disjunctive({xv(Cmp::kLt, 0), yv(Cmp::kLt, 0)});
  add(Cls::kDisj, WatchKind::kDisjunctive,
      [disj](OnlineMonitor& mon) { return mon.watch_possibly(disj); });
  const auto inv = make_disjunctive({xv(Cmp::kGe, 0), yv(Cmp::kGe, -1)});
  add(Cls::kInv, WatchKind::kInvariant,
      [inv](OnlineMonitor& mon) { return mon.watch_invariant(inv); });
  for (PredicatePtr p :
       {make_stable([](const Computation&, const Cut&) { return false; },
                    "never"),
        channel_bound_ge(0, 1, 1 << 30),
        sum_ge({{0, "x"}, {1, "y"}}, std::int64_t{1} << 60)})
    add(Cls::kStable, WatchKind::kStable,
        [p](OnlineMonitor& mon) { return mon.watch_stable(p); });
  const auto up = make_conjunctive({xv(Cmp::kGe, 0)});
  const PredicatePtr never_q = progress_ge(1, 1 << 30);
  add(Cls::kUntil, WatchKind::kUntil, [up, never_q](OnlineMonitor& mon) {
    return mon.watch_until(up, never_q);
  });
  return st;
}

/// stream-wide session: kWideProcs processes, each event on a random
/// process: a receive of a random pending inbound message (45%, forced when
/// more than 8 are pending), else a send to a random peer (80%) or an
/// internal event. Every event writes c = the process's event count.
/// Watches: conjunctive and disjunctive pairs "c@Pi >= a (&&|) c@Pj >= b";
/// most decide at staggered points, a quarter never do (thresholds past the
/// stream), including the conjunctive ones whose untouched processes pin
/// prefix GC at the initial state.
Stream make_wide(std::uint64_t seed, int session) {
  Rng rng(session_seed(seed, session, 2));
  const std::int32_t n = kWideProcs;
  const std::size_t nz = static_cast<std::size_t>(n);
  const std::int64_t per_proc = kWideEvents / n;

  struct Pair {
    bool conj;
    std::int32_t i, j;
    std::int64_t a, b;
  };
  std::vector<Pair> pairs;
  const auto proc_pair = [&](std::int32_t* i, std::int32_t* j) {
    *i = static_cast<std::int32_t>(rng.below(nz));
    *j = static_cast<std::int32_t>(rng.below(nz - 1));
    if (*j >= *i) ++*j;
  };
  const auto threshold = [&](int idx, int k) {
    const double f = 0.05 + 0.8 * (idx + rng.unit()) / k;
    return std::max<std::int64_t>(
        1, static_cast<std::int64_t>(f * static_cast<double>(per_proc)));
  };
  constexpr int kDeciding = 96, kSilent = 32;
  for (bool conj : {true, false}) {
    for (int d = 0; d < kDeciding; ++d) {
      Pair p{conj, 0, 0, threshold(d, kDeciding), 0};
      proc_pair(&p.i, &p.j);
      // The partner threshold lands near the first one so both matter.
      const std::int64_t jitter = static_cast<std::int64_t>(
          rng.below(static_cast<std::uint64_t>(per_proc / 8)));
      p.b = std::max<std::int64_t>(1, p.a + jitter - per_proc / 16);
      pairs.push_back(p);
    }
    for (int d = 0; d < kSilent; ++d) {
      Pair p{conj, 0, 0, per_proc * 4, per_proc * 4};
      proc_pair(&p.i, &p.j);
      pairs.push_back(p);
    }
  }
  const auto key = [](std::int32_t p, std::int64_t k) {
    return (static_cast<std::uint64_t>(p) << 40) |
           static_cast<std::uint64_t>(k);
  };
  std::unordered_map<std::uint64_t, std::vector<std::int32_t>> clocks;
  for (const Pair& p : pairs) {
    clocks.emplace(key(p.i, p.a), std::vector<std::int32_t>{});
    clocks.emplace(key(p.j, p.b), std::vector<std::int32_t>{});
  }

  Stream st;
  st.nprocs = n;
  st.vars = {"c"};
  ChunkWriter w(st, kWideChunkEvents);
  {
    wire::Record r = rec(wire::Record::Kind::kProcs, 0);
    r.nprocs = n;
    w.head(r);
    wire::Record vr = rec(wire::Record::Kind::kVar, 0);
    vr.name = "c";
    w.head(vr);
    for (std::int32_t p = 0; p < n; ++p) {
      wire::Record in = rec(wire::Record::Kind::kInit, p);
      in.var = 0;
      in.value = 0;
      w.head(in);
    }
  }
  struct Msg {
    std::uint64_t id;
    std::vector<std::int32_t> vc;
  };
  std::vector<std::vector<std::int32_t>> vc(nz,
                                            std::vector<std::int32_t>(nz, 0));
  std::vector<std::vector<Msg>> pending(nz);
  SeqModel m;
  m.seq.assign(nz, {0});
  std::uint64_t next_msg = 0;
  for (std::int64_t s = 1; s <= kWideEvents; ++s) {
    const std::int32_t i = static_cast<std::int32_t>(rng.below(nz));
    const std::size_t iz = static_cast<std::size_t>(i);
    auto& in = pending[iz];
    auto& my = vc[iz];
    wire::Record r;
    if (!in.empty() && (rng.below(100) < 45 || in.size() > 8)) {
      const std::size_t k = rng.below(in.size());
      Msg msg = std::move(in[k]);
      in[k] = std::move(in.back());
      in.pop_back();
      for (std::size_t q = 0; q < nz; ++q) my[q] = std::max(my[q], msg.vc[q]);
      ++my[iz];
      r = rec(wire::Record::Kind::kRecv, i);
      r.msg = msg.id;
    } else if (rng.below(100) < 80) {
      std::int32_t j = static_cast<std::int32_t>(rng.below(nz - 1));
      if (j >= i) ++j;
      ++my[iz];
      r = rec(wire::Record::Kind::kSend, i);
      r.peer = j;
      r.msg = next_msg;
      pending[static_cast<std::size_t>(j)].push_back({next_msg++, my});
    } else {
      ++my[iz];
      r = rec(wire::Record::Kind::kInternal, i);
    }
    r.writes.push_back({0, my[iz]});
    w.event(r);
    m.seq[iz].push_back(s);
    auto it = clocks.find(key(i, my[iz]));
    if (it != clocks.end()) it->second = my;
  }
  w.end();
  m.total = kWideEvents;

  for (const Pair& p : pairs) {
    const auto& ci = clocks[key(p.i, p.a)];
    const auto& cj = clocks[key(p.j, p.b)];
    WatchSpec ws;
    ws.cls = p.conj ? Cls::kConj : Cls::kDisj;
    ws.kind = p.conj ? WatchKind::kConjunctive : WatchKind::kDisjunctive;
    const LocalPredicatePtr li = var_cmp(p.i, "c", Cmp::kGe, p.a);
    const LocalPredicatePtr lj = var_cmp(p.j, "c", Cmp::kGe, p.b);
    if (p.conj) {
      const auto pred = make_conjunctive({li, lj});
      ws.arm = [pred](OnlineMonitor& mon) { return mon.watch_possibly(pred); };
      // The least consistent cut holding both thresholds is the join of the
      // two events' causal pasts.
      if (!ci.empty() && !cj.empty()) {
        Cut g(nz);
        for (std::size_t q = 0; q < nz; ++q) g[q] = std::max(ci[q], cj[q]);
        ws.fires = true;
        ws.at_event = m.freeze(g);
        ws.cut = g;
      }
    } else {
      const auto pred = make_disjunctive({li, lj});
      ws.arm = [pred](OnlineMonitor& mon) { return mon.watch_possibly(pred); };
      const std::int64_t never = m.total + 1;
      const std::int64_t fi = ci.empty() ? never : m.freeze(p.i, p.a);
      const std::int64_t fj = cj.empty() ? never : m.freeze(p.j, p.b);
      if (std::min(fi, fj) != never) {
        ws.fires = true;
        ws.at_event = std::min(fi, fj);
        // Both visible at once only at end of stream, where the monitor
        // scans processes in index order.
        ws.cut = Cut(fi < fj || (fi == fj && p.i < p.j) ? ci : cj);
      }
    }
    st.watches.push_back(std::move(ws));
  }
  return st;
}

/// Registers the stream's variables and watches in spec order (so a
/// WatchId equals its spec index); `mask` selects watch groups.
bool arm_watches(const Stream& s, OnlineMonitor& mon, unsigned mask = ~0u) {
  for (const std::string& v : s.vars) mon.var(v);
  bool ok = true;
  WatchId expect = 0;
  for (const WatchSpec& w : s.watches) {
    if ((mask & (1u << static_cast<int>(w.cls))) == 0) continue;
    ok = ok && w.arm(mon) == expect++;
  }
  return ok;
}

/// Checks one fire against its spec; `where` labels failures.
bool fire_ok(const Stream& s, const WatchFire& f, std::vector<char>& seen,
             Report& rep, const std::string& where) {
  if (f.watch < 0 || static_cast<std::size_t>(f.watch) >= s.watches.size()) {
    rep.fail(where + ": fire of unknown watch " + std::to_string(f.watch));
    return false;
  }
  const WatchSpec& w = s.watches[static_cast<std::size_t>(f.watch)];
  char& once = seen[static_cast<std::size_t>(f.watch)];
  const bool ok = w.fires && !once && f.verdict == w.verdict &&
                  f.at_event == w.at_event && f.cut == w.cut &&
                  f.kind == w.kind;
  once = 1;
  rep.check(ok, where + ": watch " + std::to_string(f.watch) + " (" +
                    cls_name(w.cls) + ") fired at event " +
                    std::to_string(f.at_event) + " cut " + f.cut.to_string() +
                    "; expected " +
                    (w.fires ? "event " + std::to_string(w.at_event) +
                                   " cut " + w.cut.to_string()
                             : std::string("silence")));
  return ok;
}

/// Counts every watch that should have fired but did not, and every silent
/// watch, as one checked operation each.
void check_silence(const Stream& s, const std::vector<char>& seen, Report& rep,
                   const std::string& where) {
  for (std::size_t i = 0; i < s.watches.size(); ++i) {
    if (seen[i]) continue;
    rep.check(!s.watches[i].fires,
              where + ": watch " + std::to_string(i) + " (" +
                  cls_name(s.watches[i].cls) +
                  ") never fired; expected event " +
                  std::to_string(s.watches[i].at_event));
  }
}

std::int64_t expected_fires(const Stream& s) {
  std::int64_t n = 0;
  for (const WatchSpec& w : s.watches) n += w.fires ? 1 : 0;
  return n;
}

// ---- Service runs -----------------------------------------------------------

/// One session on its own service; every lane's service runs on the
/// benchmark's pool. A service per session lets each fire_sample be
/// attributed to its session.
struct Lane {
  const Stream* stream = nullptr;
  /// (emission instant, ns since the record's apply began), one per fire,
  /// written only by this session's pump.
  std::vector<std::pair<std::int64_t, std::uint64_t>> samples;
  /// Per chunk: the due instant (open loop) or post instant (closed loop).
  std::vector<std::int64_t> due;
  std::size_t next_chunk = 0;
  std::size_t done_chunks = 0;
  /// Declared last: destroyed first, so no pump outlives `samples`.
  std::unique_ptr<StreamingService> svc;
  SessionId sid = 0;
};

std::vector<std::unique_ptr<Lane>> open_lanes(
    const std::vector<Stream>& streams, ThreadPool& pool, Report& rep) {
  std::vector<std::unique_ptr<Lane>> lanes;
  for (const Stream& s : streams) {
    auto lane = std::make_unique<Lane>();
    Lane* l = lane.get();
    l->stream = &s;
    l->due.assign(s.chunks.size(), 0);
    l->samples.reserve(s.watches.size());
    serve::ServiceOptions opt;
    opt.pool = &pool;
    opt.fire_sample = [l](WatchKind, std::uint64_t ns) {
      l->samples.emplace_back(now_ns(), ns);
    };
    l->svc = std::make_unique<StreamingService>(opt);
    serve::SessionConfig cfg;
    cfg.num_procs = s.nprocs;
    bool armed = false;
    l->sid = l->svc->open(
        cfg, [&](OnlineMonitor& mon) { armed = arm_watches(s, mon); });
    if (!armed) rep.fail("watch registration returned unexpected ids");
    lanes.push_back(std::move(lane));
  }
  return lanes;
}

struct FireTally {
  std::vector<double> latency_us;
  std::vector<double> queue_us;
  std::int64_t expected = 0;
  std::int64_t in_slo = 0;

  void merge(const FireTally& o) {
    latency_us.insert(latency_us.end(), o.latency_us.begin(),
                      o.latency_us.end());
    queue_us.insert(queue_us.end(), o.queue_us.begin(), o.queue_us.end());
    expected += o.expected;
    in_slo += o.in_slo;
  }
};

/// Polls the lane's fires after drain and checks them; correct fires add
/// their latency (emission - due of the chunk holding at_event).
void check_lane(Lane& lane, Report& rep, FireTally& t,
                const std::string& where) {
  const Stream& s = *lane.stream;
  const SessionState state = lane.svc->state(lane.sid);
  rep.check(state == SessionState::kFinished,
            where + ": session ended " + serve::to_string(state) + " " +
                lane.svc->error(lane.sid));
  const std::vector<WatchFire> fires = lane.svc->poll(lane.sid);
  rep.check(fires.size() == lane.samples.size(),
            where + ": " + std::to_string(fires.size()) + " fires but " +
                std::to_string(lane.samples.size()) + " latency samples");
  std::vector<char> seen(s.watches.size(), 0);
  t.expected += expected_fires(s);
  for (std::size_t i = 0; i < fires.size(); ++i) {
    const WatchFire& f = fires[i];
    if (!fire_ok(s, f, seen, rep, where) || i >= lane.samples.size()) continue;
    const std::int64_t due = lane.due[s.chunk_of(f.at_event)];
    const auto [emit, apply_ns] = lane.samples[i];
    const double lat = static_cast<double>(emit - due) / 1000.0;
    t.latency_us.push_back(lat);
    const std::int64_t applied_at = emit - static_cast<std::int64_t>(apply_ns);
    t.queue_us.push_back(static_cast<double>(applied_at - due) / 1000.0);
    if (lat <= kSloUs) ++t.in_slo;
  }
  check_silence(s, seen, rep, where);
}

/// Sleeps until steady-clock instant `t` (ns). The generator sleeps rather
/// than spins: on a 4-core box a fourth busy thread gets the pool workers
/// preempted for milliseconds at a time.
void wait_until(std::int64_t t) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(t / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(t % 1'000'000'000);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

/// What the service passes of a run measured.
struct ServiceRun {
  std::vector<double> setup_s;
  std::vector<double> pass_s;
  std::int64_t events = 0;  // summed over the passes in pass_s
  double wall_s = 0;        // the same
  std::vector<double> gen_late_us;
  std::vector<double> post_ns;
  std::int64_t backlog_peak = 0;
  double backlog_growth = 0;  // worst pass, records
  bool backlog_growing = false;
  FireTally fires;
  /// Fire-latency p99 of each pass (over its own fires).
  std::vector<double> pass_p99_us;
};

enum class Loop { kOpen, kClosed };

/// Runs passes (set up fresh sessions, stream them through, drain, check)
/// until `seconds` of streaming have been measured, at least three passes
/// after a warm-up pass whose outputs are checked but whose figures are
/// dropped (its first allocations and cold caches read 30-50% slow).
ServiceRun run_service(const std::string& workload, Loop loop,
                       const std::vector<Stream>& streams, double seconds,
                       ThreadPool& pool, ThreadWatch& threads, Report& rep) {
  ServiceRun out;
  // Records applied across every service (serve.records in the global
  // registry), read without taking any session lock.
  Counter& applied_records = MetricsRegistry::global().counter("serve.records");
  const auto applied_since = [&](std::uint64_t base) {
    return static_cast<std::int64_t>(applied_records.value() - base);
  };
  double measured = 0;
  for (int pass = 0; pass < 4 || measured < seconds; ++pass) {
    // Set-up: encode every stream, open its service and session, register
    // its watches. The streams and their expected fires were built once,
    // before the first pass.
    const std::int64_t t_setup = now_ns();
    std::vector<std::vector<std::string>> bytes;
    for (const Stream& s : streams) bytes.push_back(encode(s));
    auto lanes = open_lanes(streams, pool, rep);
    out.setup_s.push_back(static_cast<double>(now_ns() - t_setup) / 1e9);
    threads.sample();

    std::int64_t events = 0;
    for (const Stream& s : streams) events += s.events();
    const std::int64_t start = now_ns() + 200'000;
    if (loop == Loop::kOpen) {
      // Chunks go out k-major across sessions at the offered rate.
      std::vector<std::pair<std::size_t, std::size_t>> order;
      for (std::size_t k = 0;; ++k) {
        bool any = false;
        for (std::size_t s = 0; s < lanes.size(); ++s)
          if (k < streams[s].chunks.size()) {
            order.emplace_back(s, k);
            any = true;
          }
        if (!any) break;
      }
      const double ns_per_event = 1e9 / kMixedOfferedRate;
      const std::uint64_t rec0 = applied_records.value();
      std::int64_t posted = 0;
      std::vector<std::pair<std::int64_t, std::int64_t>> backlog;
      std::int64_t next_tick = start;
      std::int64_t emitted = 0;
      wait_until(start);
      for (const auto& [s, k] : order) {
        Lane& lane = *lanes[s];
        const Stream& st = *lane.stream;
        const std::int64_t due =
            start + static_cast<std::int64_t>(static_cast<double>(emitted) *
                                              ns_per_event);
        emitted += st.chunk_events(k);
        wait_until(due);
        const std::int64_t t = now_ns();
        lane.due[k] = due;
        lane.svc->post(lane.sid, std::move(bytes[s][k]));
        out.post_ns.push_back(static_cast<double>(now_ns() - t));
        out.gen_late_us.push_back(static_cast<double>(t - due) / 1000.0);
        posted += st.chunk_records(k);
        if (t >= next_tick) {
          const std::int64_t b = posted - applied_since(rec0);
          backlog.emplace_back(t, b);
          out.backlog_peak = std::max(out.backlog_peak, b);
          next_tick = t + 1'000'000;
          if (backlog.size() % 16 == 0) threads.sample();
        }
      }
      const std::int64_t end_sched = now_ns();
      // Open-loop honesty: compare the backlog's second and last quarter.
      if (backlog.size() >= 8) {
        const std::int64_t span = end_sched - start;
        double q2 = 0, q4 = 0;
        int n2 = 0, n4 = 0;
        for (const auto& [t, b] : backlog) {
          const double f =
              static_cast<double>(t - start) / static_cast<double>(span);
          if (f >= 0.25 && f < 0.5) q2 += static_cast<double>(b), ++n2;
          if (f >= 0.75) q4 += static_cast<double>(b), ++n4;
        }
        const double growth = (n4 ? q4 / n4 : 0) - (n2 ? q2 / n2 : 0);
        out.backlog_growth = std::max(out.backlog_growth, growth);
        if (growth > 8.0 * kMixedChunkEvents) out.backlog_growing = true;
      }
    } else {
      // Closed loop: each session keeps kWideWindowChunks chunks in flight,
      // learning what was applied from stats(sid).records.
      const std::uint64_t rec0 = applied_records.value();
      std::int64_t posted = 0, next_tick = start, ticks = 0;
      wait_until(start);
      for (;;) {
        bool pending = false, posted_any = false;
        for (std::size_t s = 0; s < lanes.size(); ++s) {
          Lane& lane = *lanes[s];
          const Stream& st = *lane.stream;
          if (lane.next_chunk >= st.chunks.size()) continue;
          pending = true;
          const std::int64_t applied = lane.svc->stats(lane.sid).records;
          while (lane.done_chunks < lane.next_chunk &&
                 st.cum_records[lane.done_chunks] <= applied)
            ++lane.done_chunks;
          while (lane.next_chunk < st.chunks.size() &&
                 lane.next_chunk - lane.done_chunks <
                     static_cast<std::size_t>(kWideWindowChunks)) {
            const std::int64_t t = now_ns();
            lane.due[lane.next_chunk] = t;
            lane.svc->post(lane.sid, std::move(bytes[s][lane.next_chunk]));
            out.post_ns.push_back(static_cast<double>(now_ns() - t));
            posted += st.chunk_records(lane.next_chunk);
            ++lane.next_chunk;
            posted_any = true;
          }
        }
        if (!pending) break;
        const std::int64_t t = now_ns();
        if (t >= next_tick) {
          const std::int64_t b = posted - applied_since(rec0);
          out.backlog_peak = std::max(out.backlog_peak, b);
          next_tick = t + 1'000'000;
          if (++ticks % 16 == 0) threads.sample();
        }
        if (!posted_any)
          std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
    }
    for (auto& lane : lanes) lane->svc->drain();
    const std::int64_t end = now_ns();
    threads.sample();
    const double wall = static_cast<double>(end - start) / 1e9;
    out.pass_s.push_back(wall);
    out.events += events;
    out.wall_s += wall;
    measured += wall;
    FireTally pass_fires;
    for (std::size_t s = 0; s < lanes.size(); ++s)
      check_lane(*lanes[s], rep, pass_fires,
                 workload + " pass " + std::to_string(pass) + " session " +
                     std::to_string(s));
    out.pass_p99_us.push_back(percentile(pass_fires.latency_us, 0.99));
    out.fires.merge(pass_fires);
    for (auto& lane : lanes) lane->svc->close(lane->sid);
    if (pass == 0) {
      out = ServiceRun{};
      measured = 0;
    }
  }
  return out;
}

// ---- Traced replays -------------------------------------------------------

/// Applies decoded records to a bare layer (OnlineAppender or OnlineMonitor)
/// the way Session::apply does: wire variable indices and message ids map
/// onto the layer's own, and writes follow their event.
class Feed {
 public:
  /// False when the layer rejects the record; *is_event is set for events.
  template <class Layer>
  bool apply(Layer& l, const wire::Record& r, bool* is_event) {
    using Kind = wire::Record::Kind;
    *is_event = false;
    AppendError e = AppendError::kNone;
    switch (r.kind) {
      case Kind::kProcs:
        return true;
      case Kind::kEnd:
        if constexpr (requires { l.finish(); }) l.finish();
        return true;
      case Kind::kVar:
        vars_.push_back(l.var(r.name));
        return true;
      case Kind::kInit:
        return r.var < vars_.size() &&
               l.try_set_initial(r.proc, vars_[r.var], r.value) ==
                   AppendError::kNone;
      case Kind::kInternal:
        e = l.try_internal(r.proc);
        break;
      case Kind::kSend: {
        MsgId m = kNoMsg;
        e = l.try_send(r.proc, r.peer, &m);
        msgs_[r.msg] = m;
        break;
      }
      case Kind::kRecv: {
        auto it = msgs_.find(r.msg);
        if (it == msgs_.end()) return false;
        e = l.try_receive(r.proc, it->second);
        msgs_.erase(it);
        break;
      }
    }
    if (e != AppendError::kNone) return false;
    *is_event = true;
    for (const wire::WireWrite& w : r.writes)
      if (w.var >= vars_.size() ||
          l.try_write(r.proc, vars_[w.var], w.value) != AppendError::kNone)
        return false;
    return true;
  }

 private:
  std::vector<VarId> vars_;
  std::unordered_map<std::uint64_t, MsgId> msgs_;
};

bool same_record(const wire::Record& a, const wire::Record& b) {
  return a.kind == b.kind && a.nprocs == b.nprocs && a.name == b.name &&
         a.proc == b.proc && a.var == b.var && a.value == b.value &&
         a.peer == b.peer && a.msg == b.msg && a.writes == b.writes &&
         a.label == b.label;
}

/// A bare OnlineMonitor armed with one or every watch group, fed the
/// decoded records the way Session::apply feeds its own.
struct MonitorLane {
  explicit MonitorLane(std::int32_t nprocs) : mon(nprocs) {}
  bool full = false;  // every group armed
  OnlineMonitor mon;
  Feed feed;
  int feed_id = 0, poll_id = 0, gc_id = 0;
  std::vector<char> seen;
  std::int64_t since_gc = 0;
};

/// What a round of replays adds up to besides its span totals.
struct ReplayTally {
  std::int64_t events = 0;
  std::int64_t records = 0;
  DetectStats work;  // monitors with every group armed
  std::int64_t gc_rounds = 0;
  std::int64_t reclaimed = 0;
  std::int64_t resident_peak = 0;
  std::int64_t watch_bytes_peak = 0;
  std::int64_t traced_ns = 0;  // wall time of the traced replay's blocks
  std::int64_t plain_ns = 0;   // the same for the untraced replay
};

/// Every layer's consumer of one replayed stream: the wire decoder, a bare
/// OnlineAppender, an OnlineMonitor with every watch, one OnlineMonitor per
/// watch group present, and a serve::Session. With a span log, each
/// layer's calls on a chunk form one span.
class LayerSet {
 public:
  LayerSet(const Stream& s, SpanLog* log, Report& rep)
      : s_(s), log_(log), app_(s.nprocs), session_(1, session_config(s)) {
    decode_id_ = id("wire.decode");
    append_id_ = id("online.append");
    add_monitor(~0u, "", rep);
    bool present[kNumCls] = {};
    for (const WatchSpec& w : s.watches)
      present[static_cast<int>(w.cls)] = true;
    for (int c = 0; c < kNumCls; ++c)
      if (present[c])
        add_monitor(1u << c, std::string(".") + cls_name(static_cast<Cls>(c)),
                    rep);
    rep.check(arm_watches(s, session_.monitor()),
              "session replay watch registration");
    // The service times every fire into its latency histogram; so does this.
    session_.set_fire_histogram(&reg_.histogram("serve.fire_latency.ns"));
    ingest_id_ = id("serve.ingest");
    session_poll_id_ = id("serve.poll");
  }

  /// Feeds chunks [k0, k1) of `bytes` to each layer in turn, a chunk per
  /// call. With `check`, the decoded records and the full monitor's fires
  /// are checked.
  void step(const std::vector<std::string>& bytes, std::size_t k0,
            std::size_t k1, std::uint32_t root, bool check, ReplayTally& t,
            Report& rep) {
    recs_.resize(k1 - k0);
    for (std::size_t k = k0; k < k1; ++k) {
      std::vector<wire::Record>& recs = recs_[k - k0];
      recs.clear();
      timed(log_, decode_id_, root, [&] {
        dec_.feed(bytes[k]);
        wire::Record r;
        for (;;) {
          const wire::Decoder::Status st = dec_.next(&r);
          if (st != wire::Decoder::Status::kRecord) {
            decoded_ = decoded_ && st == wire::Decoder::Status::kNeedMore;
            return;
          }
          recs.push_back(std::move(r));
          r = wire::Record();
        }
      });
      if (check)
        same_ = same_ && std::equal(recs.begin(), recs.end(),
                                    s_.chunks[k].begin(), s_.chunks[k].end(),
                                    same_record);
    }
    bool ev = false;
    for (const auto& recs : recs_)
      timed(log_, append_id_, root, [&] {
        for (const wire::Record& r : recs)
          fed_ = fed_ && app_feed_.apply(app_, r, &ev);
      });
    for (auto& m : mons_) {
      for (const auto& recs : recs_) {
        timed(log_, m->feed_id, root, [&] {
          for (const wire::Record& r : recs) {
            fed_ = fed_ && m->feed.apply(m->mon, r, &ev);
            if (ev) ++m->since_gc;
          }
        });
        const std::vector<WatchFire> fires =
            timed(log_, m->poll_id, root, [&] { return m->mon.poll(); });
        if (check && m->full)
          for (const WatchFire& f : fires)
            fire_ok(s_, f, m->seen, rep, "monitor replay");
        // Prefix GC at the Session's cadence.
        if (m->since_gc < kGcInterval) continue;
        m->since_gc = 0;
        if (m->full) {
          t.resident_peak =
              std::max(t.resident_peak, m->mon.resident_events());
          t.watch_bytes_peak =
              std::max(t.watch_bytes_peak,
                       static_cast<std::int64_t>(m->mon.watch_state_bytes()));
        }
        const std::int64_t reclaimed = timed(
            log_, m->gc_id, root, [&] { return m->mon.collect_prefix(); });
        if (m->full) {
          t.reclaimed += reclaimed;
          ++t.gc_rounds;
        }
      }
    }
    for (std::size_t k = k0; k < k1; ++k) {
      timed(log_, ingest_id_, root, [&] { return session_.ingest(bytes[k]); });
      session_fires_ += static_cast<std::int64_t>(
          timed(log_, session_poll_id_, root, [&] { return session_.poll(); })
              .size());
    }
  }

  /// Checks the end state once every chunk was fed.
  void finish(bool check, ReplayTally& t, Report& rep) {
    rep.check(decoded_, "decode replay: " + dec_.error());
    rep.check(fed_, "layer replay rejected a record");
    if (check) {
      rep.check(same_, "decode replay: records differ from those encoded");
      check_silence(s_, mons_.front()->seen, rep, "monitor replay");
    }
    rep.check(session_.state() == SessionState::kFinished &&
                  session_fires_ == expected_fires(s_),
              "session replay: state " +
                  std::string(serve::to_string(session_.state())) + ", " +
                  std::to_string(session_fires_) + " fires");
    t.events += s_.events();
    t.records += s_.records();
    t.work += mons_.front()->mon.work();
  }

 private:
  static serve::SessionConfig session_config(const Stream& s) {
    serve::SessionConfig cfg;
    cfg.num_procs = s.nprocs;
    return cfg;
  }
  int id(const std::string& n) { return log_ != nullptr ? log_->name(n) : 0; }
  void add_monitor(unsigned mask, const std::string& tag, Report& rep) {
    auto m = std::make_unique<MonitorLane>(s_.nprocs);
    m->full = tag.empty();
    rep.check(arm_watches(s_, m->mon, mask), "replay watch registration");
    m->feed_id = id("online.feed" + tag);
    m->poll_id = id("online.poll" + tag);
    m->gc_id = id("online.gc" + tag);
    m->seen.assign(s_.watches.size(), 0);
    mons_.push_back(std::move(m));
  }

  const Stream& s_;
  SpanLog* log_;
  wire::Decoder dec_;
  std::vector<std::vector<wire::Record>> recs_;  // the block's, per chunk
  OnlineAppender app_;
  Feed app_feed_;
  std::vector<std::unique_ptr<MonitorLane>> mons_;
  MetricsRegistry reg_;
  serve::Session session_;
  int decode_id_ = 0, append_id_ = 0, ingest_id_ = 0, session_poll_id_ = 0;
  bool decoded_ = true, same_ = true, fed_ = true;
  std::int64_t session_fires_ = 0;
};

/// Replays one stream through every layer twice over, in blocks of about
/// kReplayBlockEvents events: a traced LayerSet and an untraced one take
/// turns on each block, and within a set each layer takes the block in
/// turn. Blocks are short next to the host's slow moments, which so fall on
/// every layer, and on both sets, alike: the figures taken as differences
/// between layers, the check against the Session and the traced/untraced
/// ratio do not depend on when each layer happened to run. They are long
/// enough for each layer to run with its own state in cache.
void replay_stream(const Stream& s, const std::vector<std::string>& bytes,
                   SpanLog& log, std::uint32_t root, bool check,
                   ReplayTally& t, Report& rep) {
  LayerSet traced(s, &log, rep), plain(s, nullptr, rep);
  ReplayTally unused;
  for (std::size_t k0 = 0; k0 < bytes.size();) {
    std::size_t k1 = k0 + 1;
    while (k1 < bytes.size() &&
           s.cum_events[k1 - 1] - (k0 ? s.cum_events[k0 - 1] : 0) <
               kReplayBlockEvents)
      ++k1;
    const std::int64_t t0 = now_ns();
    traced.step(bytes, k0, k1, root, check, t, rep);
    const std::int64_t t1 = now_ns();
    plain.step(bytes, k0, k1, 0, false, unused, rep);
    t.traced_ns += t1 - t0;
    t.plain_ns += now_ns() - t1;
    k0 = k1;
  }
  traced.finish(check, t, rep);
  plain.finish(false, unused, rep);
}

/// The per-layer figures of one round of replays, added to `out`.
void round_figures(SpanLog& log, std::uint32_t root, const ReplayTally& t,
                   int workers, double service_events_per_s,
                   std::map<std::string, std::vector<double>>& out) {
  const double ev = static_cast<double>(t.events);
  const auto put = [&](const std::string& name, double v) {
    out[name].push_back(v);
  };
  const auto per = [](double total, std::int64_t n) {
    return total / static_cast<double>(std::max<std::int64_t>(1, n));
  };
  const auto self = [&](const std::string& name) {
    return log.self_ns(log.name(name));
  };
  const double append_ns = self("online.append");
  for (int c = 0; c < kNumCls; ++c) {
    const std::string tag = std::string(".") + cls_name(static_cast<Cls>(c));
    const int feed_id = log.name("online.feed" + tag);
    put("online.step" + tag + "_ns_per_event",
        log.count(feed_id) > 0 ? (log.self_ns(feed_id) - append_ns) / ev : 0);
  }
  const double ingest_ns = self("serve.ingest");
  put("serve.session_ingest_ns_per_event", ingest_ns / ev);
  put("serve.pool_efficiency",
      service_events_per_s / (workers * ev / (ingest_ns / 1e9)));
  put("wire.decode_ns_per_record",
      self("wire.decode") / static_cast<double>(t.records));
  put("online.append_ns_per_event", append_ns / ev);
  put("online.round_ns_per_event", (self("online.feed") - append_ns) / ev);
  put("online.evals_per_event",
      static_cast<double>(t.work.predicate_evals) / ev);
  put("online.cut_steps_per_event", static_cast<double>(t.work.cut_steps) / ev);
  put("online.until_inc_evals", static_cast<double>(t.work.until_inc_evals));
  put("online.until_dec_evals", static_cast<double>(t.work.until_dec_evals));
  put("online.poll_ns",
      per(self("online.poll"), log.count(log.name("online.poll"))));
  put("online.gc_ns_per_round", per(self("online.gc"), t.gc_rounds));
  put("online.gc_reclaimed_share", static_cast<double>(t.reclaimed) / ev);
  put("online.resident_peak_events", static_cast<double>(t.resident_peak));
  put("online.watch_state_bytes_peak",
      static_cast<double>(t.watch_bytes_peak));

  // Reconciliation shares (checked on their medians over the rounds): the
  // layers' self-times against the traced replay's wall time, and the
  // layers timed apart (decode, then the full monitor's feed, poll and
  // prefix GC) against what the Session spends on the same bytes in
  // Session::ingest and Session::poll, which run those layers together. A
  // figure taken from the wrong span, or a wrong clock-cost correction,
  // shows in the second.
  put("obs.reconciled.self_vs_wall",
      log.root_self_ns(root) / static_cast<double>(t.traced_ns));
  put("obs.reconciled.layers_vs_session",
      (self("wire.decode") + self("online.feed") + self("online.poll") +
       self("online.gc")) /
          (ingest_ns + self("serve.poll")));
  put("obs.trace_overhead", static_cast<double>(t.traced_ns) /
                                static_cast<double>(t.plain_ns));
}

// ---- Workload entry -------------------------------------------------------

void run_stream(const Args& a, Report& rep, Loop loop,
                const std::function<Stream(int)>& make, int sessions) {
  const int workers = worker_count();
  rep.stamp("workers", std::to_string(workers));
  if (loop == Loop::kOpen)
    rep.stamp("offered_events_per_s", std::to_string(kMixedOfferedRate));
  // The streams and their expected fires, built once; every pass (and the
  // traced replays) uses the same ones.
  std::vector<Stream> streams;
  for (int s = 0; s < sessions; ++s) streams.push_back(make(s));
  ThreadWatch threads;
  ServiceRun run;
  // Tight timer slack so the sleeping generator wakes close to each due time.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  {
    ThreadPool pool(static_cast<std::size_t>(workers));
    run = run_service(a.workload, loop, streams, a.seconds, pool, threads,
                      rep);
  }
  rep.stamp("threads_peak", std::to_string(threads.peak()));
  rep.check(threads.peak() <= workers + 1,
            "thread count " + std::to_string(threads.peak()) + " exceeds " +
                std::to_string(workers + 1));
  // Open-loop honesty: a growing backlog means the offered rate was above
  // what the service sustained during this run; the figures then describe
  // an overloaded service, and the stamp says so.
  if (loop == Loop::kOpen)
    rep.stamp("open_loop_valid", run.backlog_growing ? "false" : "true");

  const FireTally& ft = run.fires;
  print_timing("fire latency", ft.latency_us, "us");
  print_timing("queue wait", ft.queue_us, "us");
  print_timing("generator lateness", run.gen_late_us, "us");
  print_timing("post", run.post_ns, "ns");
  print_timing("setup", run.setup_s, "s");
  print_timing("pass", run.pass_s, "s");
  print_timing("pass fire p99", run.pass_p99_us, "us");
  rep.info("fires.expected", static_cast<double>(ft.expected), "count");
  rep.info("fires.timed", static_cast<double>(ft.latency_us.size()), "count");
  rep.info("fire_slo_share",
           ft.expected ? static_cast<double>(ft.in_slo) /
                             static_cast<double>(ft.expected)
                       : 0.0,
           "ratio");
  rep.info("backlog_peak_records", static_cast<double>(run.backlog_peak),
           "count");
  rep.info("backlog_growth_records", run.backlog_growth, "count");
  rep.info("passes", static_cast<double>(run.pass_s.size()), "count");

  if (!a.trace) {
    rep.metric("setup_s", median(run.setup_s), "s");
    // Whole-run figures (the aggregate rate, the mean pass, the median of
    // every timed fire): the host's speed moves from pass to pass by 20%
    // and more, and these read steadier than medians over passes.
    rep.metric("events_per_s", static_cast<double>(run.events) / run.wall_s,
               "1/s");
    rep.metric("check_s",
               run.wall_s / static_cast<double>(run.pass_s.size()), "s");
    rep.metric("fire_p50_us", percentile(ft.latency_us, 0.5), "us");
    // A median over passes: a host stall moves one pass's p99, not this.
    rep.metric("fire_p99_us", median(run.pass_p99_us), "us");
    rep.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    return;
  }

  rep.metric("serve.queue_wait_us.p50", percentile(ft.queue_us, 0.5), "us");
  rep.metric("serve.queue_wait_us.p99", percentile(ft.queue_us, 0.99), "us");
  rep.metric("serve.backlog_peak_records",
             static_cast<double>(run.backlog_peak), "count");
  rep.metric("serve.post_ns.p50", percentile(run.post_ns, 0.5), "ns");
  rep.metric("serve.gen_late_us.p99", percentile(run.gen_late_us, 0.99), "us");

  // Single-threaded replays of the first sessions' bytes (at least
  // kReplayMinEvents events), each figure the median over the rounds.
  std::vector<const Stream*> replayed;
  std::vector<std::vector<std::string>> bytes;
  for (std::int64_t n = 0;
       n < kReplayMinEvents && replayed.size() < streams.size();) {
    replayed.push_back(&streams[replayed.size()]);
    bytes.push_back(encode(*replayed.back()));
    n += replayed.back()->events();
  }
  rep.stamp("replayed_sessions", std::to_string(replayed.size()));
  std::map<std::string, std::vector<double>> layer;
  SpanLog last;
  for (int round = 0; round < kReplayRounds; ++round) {
    SpanLog log;
    log.calibrate();
    ReplayTally t;
    const std::uint32_t root = log.open_root(log.name("replay"), now_ns());
    for (std::size_t i = 0; i < replayed.size(); ++i)
      replay_stream(*replayed[i], bytes[i], log, root, round == 0, t, rep);
    log.close_root(root, now_ns());
    round_figures(log, root, t, workers,
                  static_cast<double>(run.events) / run.wall_s, layer);
    last = std::move(log);
  }
  // Reconciliation: each share's median within [0.9, 1.1] or the run fails.
  double worst = 1.0;
  for (const auto& [name, values] : layer) {
    if (name.rfind("obs.reconciled.", 0) != 0) continue;
    const double share = median(values);
    rep.info(name, share, "ratio");
    if (std::abs(share - 1.0) > std::abs(worst - 1.0)) worst = share;
    rep.check(share >= 0.9 && share <= 1.1,
              "reconciliation: " + name + " at " + std::to_string(share));
  }
  rep.metric("obs.reconciled_share", worst, "ratio");
  for (const auto& [name, unit] : per_layer_metrics())
    if (layer.count(name) != 0) rep.metric(name, median(layer[name]), unit);
  if (!a.trace_out.empty() && !last.write(a.trace_out))
    std::fprintf(stderr, "could not write %s\n", a.trace_out.c_str());
}

}  // namespace

void run_stream_mixed(const Args& a, Report& rep) {
  run_stream(a, rep, Loop::kOpen,
             [&](int s) { return make_mixed(a.seed, s); }, kMixedSessions);
}

void run_stream_wide(const Args& a, Report& rep) {
  run_stream(a, rep, Loop::kClosed,
             [&](int s) { return make_wide(a.seed, s); }, kWideSessions);
}

}  // namespace perfbench
