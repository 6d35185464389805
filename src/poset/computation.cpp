#include "poset/computation.h"

#include <algorithm>
#include <cstring>
#include <mutex>

#include "util/assert.h"

namespace hbct {

namespace {
std::size_t sz(std::int32_t v) { return static_cast<std::size_t>(v); }
}  // namespace

const Event& Computation::event(ProcId i, EventIndex idx) const {
  HBCT_DASSERT(!is_view());  // event() needs owning storage; use event_view()
  HBCT_DASSERT(i >= 0 && i < num_procs());
  HBCT_DASSERT(idx >= trimmed(i) + 1 && idx <= num_events(i));
  return procs_[sz(i)][sz(idx - 1 - trimmed(i))];
}

EventView Computation::event_view(ProcId i, EventIndex idx) const {
  HBCT_DASSERT(i >= 0 && i < num_procs());
  HBCT_DASSERT(idx >= trimmed(i) + 1 && idx <= num_events(i));
  if (arena_)
    return EventView(arena_->events[sz(i)][sz(idx - 1)], arena_->writes_pool,
                     arena_->labels_pool);
  return EventView(procs_[sz(i)][sz(idx - 1 - trimmed(i))]);
}

VClockView Computation::vclock(ProcId i, EventIndex idx) const {
  HBCT_DASSERT(idx >= vclock_base(i) && idx <= num_events(i));
  const std::size_t n = procs_.size();
  if (arena_) return VClockView(arena_->vclocks[sz(i)] + sz(idx - 1) * n, n);
  return VClockView(vclocks_[sz(i)].data() + sz(idx - vclock_base(i)) * n, n);
}

VClockView Computation::reverse_vclock(ProcId i, EventIndex idx) const {
  HBCT_DASSERT(idx >= 1 && idx <= num_events(i));
  HBCT_DASSERT(trimmed_events_ == 0);
  if (rvcache_.dirty.load(std::memory_order_acquire)) {
    // Double-checked: concurrent readers (parallel detection branches) may
    // race to refresh after an online append. The mutex is global — refresh
    // is rare and the fast path above stays lock-free.
    static std::mutex mu;
    std::lock_guard<std::mutex> lk(mu);
    if (rvcache_.dirty.load(std::memory_order_relaxed)) compute_rvclocks();
  }
  const std::size_t n = procs_.size();
  return VClockView(rvcache_.clocks[sz(i)].data() + sz(idx - 1) * n, n);
}

bool Computation::happened_before(EventId e, EventId f) const {
  if (e.proc == f.proc) return e.index < f.index;
  // e -> f iff f's clock has seen at least e.index events of e.proc.
  return vclock(f)[sz(e.proc)] >= e.index;
}

bool Computation::concurrent(EventId e, EventId f) const {
  if (e.proc == f.proc) return false;
  return !happened_before(e, f) && !happened_before(f, e);
}

std::optional<VarId> Computation::var_id(std::string_view name) const {
  auto it = var_ids_.find(std::string(name));
  if (it == var_ids_.end()) return std::nullopt;
  return it->second;
}

const std::string& Computation::var_name(VarId v) const {
  HBCT_ASSERT(v >= 0 && v < num_vars());
  return var_names_[sz(v)];
}

std::int64_t Computation::value_at(ProcId i, VarId v, EventIndex pos) const {
  HBCT_DASSERT(i >= 0 && i < num_procs());
  HBCT_DASSERT(v >= 0 && v < num_vars());
  HBCT_DASSERT(pos >= trimmed(i) && pos <= num_events(i));
  if (arena_) return arena_timeline(i, v)[sz(pos)];
  return values_[sz(i)][sz(v)][sz(pos - trimmed(i))];
}

std::int32_t Computation::in_transit(ProcId from, ProcId to, const Cut& g) const {
  HBCT_DASSERT(from >= 0 && from < num_procs());
  HBCT_DASSERT(to >= 0 && to < num_procs());
  if (!channel_active(from, to)) return 0;
  const std::int32_t sent = sends_up_to(from, to, g[sz(from)]);
  const std::int32_t rcvd = recvs_up_to(to, from, g[sz(to)]);
  HBCT_DASSERT(sent >= rcvd);
  return sent - rcvd;
}

std::int64_t Computation::in_transit_total(const Cut& g) const {
  std::int64_t t = 0;
  for (ProcId i = 0; i < num_procs(); ++i)
    for (ProcId j = 0; j < num_procs(); ++j)
      if (channel_active(i, j)) t += in_transit(i, j, g);
  return t;
}

Cut Computation::final_cut() const {
  Cut f(sz(num_procs()));
  for (ProcId i = 0; i < num_procs(); ++i) f[sz(i)] = num_events(i);
  return f;
}

bool Computation::is_consistent(const Cut& g) const {
  HBCT_ASSERT(g.size() == sz(num_procs()));
  for (ProcId i = 0; i < num_procs(); ++i) {
    const std::int32_t gi = g[sz(i)];
    if (gi < 0 || gi > num_events(i)) return false;
    if (gi == 0) continue;
    // The last included event of process i must have its causal past in G.
    const VClockView vc = vclock(i, gi);
    for (ProcId j = 0; j < num_procs(); ++j)
      if (vc[sz(j)] > g[sz(j)]) return false;
  }
  return true;
}

bool Computation::enabled(const Cut& g, ProcId i) const {
  const std::int32_t gi = g[sz(i)];
  if (gi >= num_events(i)) return false;
  const VClockView vc = vclock(i, gi + 1);
  for (ProcId j = 0; j < num_procs(); ++j) {
    if (j == i) continue;
    if (vc[sz(j)] > g[sz(j)]) return false;
  }
  return true;
}

bool Computation::removable(const Cut& g, ProcId i) const {
  const std::int32_t gi = g[sz(i)];
  if (gi <= 0) return false;
  // The event e = (i, gi) is maximal in G iff no other process's last
  // included event has seen it.
  for (ProcId j = 0; j < num_procs(); ++j) {
    if (j == i) continue;
    const std::int32_t gj = g[sz(j)];
    if (gj == 0) continue;
    if (vclock(j, gj)[sz(i)] >= gi) return false;
  }
  return true;
}

std::vector<ProcId> Computation::enabled_procs(const Cut& g) const {
  std::vector<ProcId> out;
  out.reserve(sz(num_procs()));
  enabled_procs(g, &out);
  return out;
}

std::vector<ProcId> Computation::frontier_procs(const Cut& g) const {
  std::vector<ProcId> out;
  out.reserve(sz(num_procs()));
  frontier_procs(g, &out);
  return out;
}

void Computation::enabled_procs(const Cut& g, std::vector<ProcId>* out) const {
  out->clear();
  for (ProcId i = 0; i < num_procs(); ++i)
    if (enabled(g, i)) out->push_back(i);
}

void Computation::frontier_procs(const Cut& g, std::vector<ProcId>* out) const {
  out->clear();
  for (ProcId i = 0; i < num_procs(); ++i)
    if (removable(g, i)) out->push_back(i);
}

Cut Computation::advance(const Cut& g, ProcId i) const {
  HBCT_DASSERT(enabled(g, i));
  Cut h = g;
  ++h[sz(i)];
  return h;
}

Cut Computation::retreat(const Cut& g, ProcId i) const {
  HBCT_DASSERT(removable(g, i));
  Cut h = g;
  --h[sz(i)];
  return h;
}

Cut Computation::join_irreducible_of(ProcId i, EventIndex idx) const {
  return Cut(vclock(i, idx).raw());
}

Cut Computation::meet_irreducible_of(ProcId i, EventIndex idx) const {
  Cut m(sz(num_procs()));
  meet_irreducible_of(i, idx, &m);
  return m;
}

void Computation::join_irreducible_of(ProcId i, EventIndex idx,
                                      Cut* out) const {
  if (out->size() != sz(num_procs())) *out = Cut(sz(num_procs()));
  const VClockView vc = vclock(i, idx);
  for (ProcId j = 0; j < num_procs(); ++j) (*out)[sz(j)] = vc[sz(j)];
}

void Computation::meet_irreducible_of(ProcId i, EventIndex idx,
                                      Cut* out) const {
  if (out->size() != sz(num_procs())) *out = Cut(sz(num_procs()));
  const VClockView rvc = reverse_vclock(i, idx);
  for (ProcId j = 0; j < num_procs(); ++j)
    (*out)[sz(j)] = num_events(j) - rvc[sz(j)];
}

std::optional<EventId> Computation::find_label(std::string_view label) const {
  // Only resident events are searchable; reclaimed prefixes lost their
  // payloads (and with them their labels).
  for (ProcId i = 0; i < num_procs(); ++i)
    for (EventIndex k = trimmed(i) + 1; k <= num_events(i); ++k)
      if (event_view(i, k).label == label) return EventId{i, k};
  return std::nullopt;
}

Computation Computation::from_arena(MappedArenaPtr arena,
                                    std::vector<std::string> var_names) {
  Computation c;
  c.arena_ = std::move(arena);
  const MappedArena& a = *c.arena_;
  HBCT_ASSERT(static_cast<std::int32_t>(var_names.size()) == a.nvars);
  c.procs_.resize(sz(a.nprocs));  // empty inners: shape only
  c.total_events_ = a.total_events;
  c.num_messages_ = a.num_messages;
  c.var_names_ = std::move(var_names);
  for (VarId v = 0; v < static_cast<VarId>(c.var_names_.size()); ++v)
    c.var_ids_.emplace(c.var_names_[sz(v)], v);
  // The linearization section has EventId's exact layout; one bulk copy
  // keeps linearization() returning a plain vector in both modes.
  static_assert(sizeof(EventId) == 8 && std::is_trivially_copyable_v<EventId>);
  c.linearization_.resize(static_cast<std::size_t>(a.total_events));
  if (a.total_events > 0)
    std::memcpy(c.linearization_.data(), a.linearization,
                sizeof(EventId) * static_cast<std::size_t>(a.total_events));
  return c;
}

Computation Computation::materialize() const {
  if (!is_view()) return *this;
  Computation out;
  const std::size_t n = sz(num_procs());
  const std::size_t nv = sz(num_vars());
  out.procs_.resize(n);
  out.var_names_ = var_names_;
  out.var_ids_ = var_ids_;
  out.linearization_ = linearization_;
  for (ProcId i = 0; i < num_procs(); ++i) {
    auto& dst = out.procs_[sz(i)];
    dst.reserve(sz(num_events(i)));
    for (EventIndex k = 1; k <= num_events(i); ++k) {
      const EventView v = event_view(i, k);
      Event e;
      e.kind = v.kind;
      e.peer = v.peer;
      e.msg = v.msg;
      e.label = std::string(v.label);
      e.writes.reserve(v.num_writes());
      for (std::size_t w = 0; w < v.num_writes(); ++w)
        e.writes.push_back(v.write_at(w));
      dst.push_back(std::move(e));
    }
  }
  out.initial_.assign(n, std::vector<std::int64_t>(nv, 0));
  for (ProcId i = 0; i < num_procs(); ++i)
    for (VarId v = 0; v < num_vars(); ++v)
      out.initial_[sz(i)][sz(v)] = value_at(i, v, 0);
  out.finalize();
  return out;
}

Computation Computation::prefix(const Cut& k) const {
  if (is_view()) return materialize().prefix(k);
  HBCT_ASSERT_MSG(trimmed_events_ == 0,
                  "prefix of a GC'd computation is not supported");
  HBCT_ASSERT_MSG(is_consistent(k), "prefix requires a consistent cut");
  Computation out;
  const std::size_t n = sz(num_procs());
  out.procs_.resize(n);
  out.var_names_ = var_names_;
  out.var_ids_ = var_ids_;
  out.initial_ = initial_;
  for (ProcId i = 0; i < num_procs(); ++i) {
    auto& dst = out.procs_[sz(i)];
    dst.assign(procs_[sz(i)].begin(), procs_[sz(i)].begin() + k[sz(i)]);
  }
  // Keep the original linearization restricted to K (still a valid
  // topological order of the prefix).
  for (const EventId& e : linearization_)
    if (e.index <= k[sz(e.proc)]) out.linearization_.push_back(e);
  out.finalize();
  return out;
}

void Computation::finalize() {
  const std::size_t n = procs_.size();
  total_events_ = 0;
  num_messages_ = 0;
  for (const auto& p : procs_) total_events_ += static_cast<std::int64_t>(p.size());
  HBCT_ASSERT(static_cast<std::int64_t>(linearization_.size()) == total_events_);

  // --- Vector clocks, following the recorded linearization. Each receive
  // merges the clock of its matching send, so sends must precede their
  // receives in the linearization (validated below via send_clock presence).
  // The arenas are pre-sized, so rows are stable and send_clock can hold
  // views straight into them.
  vclocks_.assign(n, {});
  for (std::size_t i = 0; i < n; ++i)
    vclocks_[i].assign(procs_[i].size() * n, 0);
  std::unordered_map<MsgId, VClockView> send_clock;
  std::unordered_map<MsgId, EventId> send_event;
  VClock vc(n);
  for (const EventId& eid : linearization_) {
    const Event& ev = event(eid);
    if (eid.index > 1) {
      const VClockView prev = vclock(eid.proc, eid.index - 1);
      for (std::size_t j = 0; j < n; ++j) vc[j] = prev[j];
    } else {
      for (std::size_t j = 0; j < n; ++j) vc[j] = 0;
    }
    if (ev.kind == EventKind::kReceive) {
      auto it = send_clock.find(ev.msg);
      HBCT_ASSERT_MSG(it != send_clock.end(),
                      "receive precedes its send in the linearization");
      vc.merge(it->second);
      // Cross-check the peer annotation.
      HBCT_ASSERT(send_event.at(ev.msg).proc == ev.peer);
    }
    vc[sz(eid.proc)] = eid.index;
    if (ev.kind == EventKind::kSend) {
      HBCT_ASSERT_MSG(!send_clock.count(ev.msg), "duplicate send msg id");
      ++num_messages_;
    }
    std::copy(vc.raw().begin(), vc.raw().end(),
              vclocks_[sz(eid.proc)].data() + sz(eid.index - 1) * n);
    if (ev.kind == EventKind::kSend) {
      send_clock.emplace(ev.msg, vclock(eid.proc, eid.index));
      send_event.emplace(ev.msg, eid);
    }
  }

  compute_rvclocks();

  // --- Variable timelines.
  const std::size_t nv = var_names_.size();
  initial_.resize(n);
  for (auto& iv : initial_) iv.resize(nv, 0);
  values_.assign(n, {});
  for (std::size_t i = 0; i < n; ++i) {
    values_[i].assign(nv, {});
    for (std::size_t v = 0; v < nv; ++v) {
      auto& tl = values_[i][v];
      tl.resize(procs_[i].size() + 1);
      tl[0] = initial_[i][v];
    }
    for (std::size_t k = 0; k < procs_[i].size(); ++k) {
      for (std::size_t v = 0; v < nv; ++v)
        values_[i][v][k + 1] = values_[i][v][k];
      for (const Assignment& a : procs_[i][k].writes) {
        HBCT_ASSERT(a.var >= 0 && sz(a.var) < nv);
        values_[i][sz(a.var)][k + 1] = a.value;
      }
    }
  }

  // --- Channel logs: one pass counts each log's entries so the second
  // fills exact-size logs, O(|E| + n^2) in total.
  std::vector<std::int32_t> send_count(n * n, 0), recv_count(n * n, 0);
  for (std::size_t i = 0; i < n; ++i)
    for (const Event& ev : procs_[i]) {
      if (ev.kind == EventKind::kSend) ++send_count[i * n + sz(ev.peer)];
      if (ev.kind == EventKind::kReceive) ++recv_count[i * n + sz(ev.peer)];
    }
  sends_.assign(n * n, {});
  recvs_.assign(n * n, {});
  for (std::size_t s = 0; s < n * n; ++s) {
    sends_[s].pos.reserve(sz(send_count[s]));
    recvs_[s].pos.reserve(sz(recv_count[s]));
  }
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t k = 0; k < procs_[i].size(); ++k) {
      const Event& ev = procs_[i][k];
      const auto at = static_cast<EventIndex>(k + 1);
      if (ev.kind == EventKind::kSend)
        sends_[i * n + sz(ev.peer)].pos.push_back(at);
      if (ev.kind == EventKind::kReceive)
        recvs_[i * n + sz(ev.peer)].pos.push_back(at);
    }
}

void Computation::channel_prefix(ProcId owner, ProcId peer, bool sends,
                                 std::vector<std::int32_t>* out) const {
  const std::size_t cnt = sz(num_events(owner));
  out->assign(cnt + 1, 0);
  if (arena_) {
    const std::int32_t* t =
        arena_channel(sends ? arena_->sends : arena_->recvs, owner, peer);
    if (t != nullptr) std::copy(t, t + cnt + 1, out->begin());
    return;
  }
  HBCT_ASSERT_MSG(trimmed(owner) == 0,
                  "channel_prefix needs the owner's whole history");
  const ChannelLog& log = (sends ? sends_ : recvs_)[channel_slot(owner, peer)];
  // Walk the log once: between consecutive entries the count is flat.
  std::int32_t count = 0;
  std::size_t k = 1;
  for (const EventIndex at : log.pos) {
    for (; k < sz(at); ++k) (*out)[k] = count;
    (*out)[k++] = ++count;
  }
  for (; k <= cnt; ++k) (*out)[k] = count;
}

void Computation::compute_rvclocks() const {
  // Reverse vector clocks: process the linearization backwards; a send
  // merges the reverse clock of its matching receive. The arenas are
  // pre-sized so recv_rclock can hold views into them (the same-process
  // successor row is always written before its predecessor reads it).
  HBCT_ASSERT_MSG(trimmed_events_ == 0,
                  "reverse clocks need the whole computation; prefix GC "
                  "discarded part of it");
  const std::size_t n = procs_.size();
  rvcache_.clocks.assign(n, {});
  for (std::size_t i = 0; i < n; ++i)
    rvcache_.clocks[i].assign(
        sz(num_events(static_cast<ProcId>(i))) * n, 0);
  auto row = [&](ProcId i, EventIndex idx) {
    return rvcache_.clocks[sz(i)].data() + sz(idx - 1) * n;
  };
  std::unordered_map<MsgId, VClockView> recv_rclock;
  VClock rvc(n);
  for (auto it = linearization_.rbegin(); it != linearization_.rend(); ++it) {
    const EventId& eid = *it;
    const EventView ev = event_view(eid);
    // rvc(e)[j] counts events f on j with e <= f; start from the successor
    // on the same process (if any).
    if (eid.index < num_events(eid.proc)) {
      const std::int32_t* succ = row(eid.proc, eid.index + 1);
      for (std::size_t j = 0; j < n; ++j) rvc[j] = succ[j];
    } else {
      for (std::size_t j = 0; j < n; ++j) rvc[j] = 0;
    }
    if (ev.kind == EventKind::kSend) {
      auto rit = recv_rclock.find(ev.msg);
      if (rit != recv_rclock.end()) rvc.merge(rit->second);
      // An unmatched send (receive outside this computation) merges nothing.
    }
    rvc[sz(eid.proc)] = num_events(eid.proc) - eid.index + 1;
    std::copy(rvc.raw().begin(), rvc.raw().end(), row(eid.proc, eid.index));
    if (ev.kind == EventKind::kReceive)
      recv_rclock.emplace(ev.msg, VClockView(row(eid.proc, eid.index), n));
  }
  rvcache_.dirty.store(false, std::memory_order_release);
}

void Computation::validate() const {
  HBCT_ASSERT_MSG(trimmed_events_ == 0,
                  "validate needs the whole computation");
  const std::size_t n = procs_.size();
  // Linearization covers every event exactly once and respects both process
  // order and send-before-receive.
  std::vector<EventIndex> seen(n, 0);
  std::unordered_map<MsgId, bool> sent;
  for (const EventId& eid : linearization_) {
    HBCT_ASSERT(eid.proc >= 0 && sz(eid.proc) < n);
    HBCT_ASSERT(eid.index == seen[sz(eid.proc)] + 1);
    seen[sz(eid.proc)] = eid.index;
    const EventView ev = event_view(eid);
    if (ev.kind == EventKind::kSend) {
      HBCT_ASSERT(ev.msg != kNoMsg);
      HBCT_ASSERT(!sent.count(ev.msg));
      sent[ev.msg] = true;
      HBCT_ASSERT(ev.peer >= 0 && sz(ev.peer) < n);
    } else if (ev.kind == EventKind::kReceive) {
      HBCT_ASSERT(sent.count(ev.msg));
      HBCT_ASSERT(ev.peer >= 0 && sz(ev.peer) < n);
    }
  }
  for (std::size_t i = 0; i < n; ++i)
    HBCT_ASSERT(seen[i] == num_events(static_cast<ProcId>(i)));

  // Clock sanity: vc(e)[proc(e)] == index(e); clocks strictly increase along
  // a process; rvc(e)[proc(e)] counts the suffix.
  for (ProcId i = 0; i < num_procs(); ++i) {
    for (EventIndex k = 1; k <= num_events(i); ++k) {
      HBCT_ASSERT(vclock(i, k)[sz(i)] == k);
      HBCT_ASSERT(reverse_vclock(i, k)[sz(i)] == num_events(i) - k + 1);
      if (k > 1) HBCT_ASSERT(vclock(i, k - 1).before(vclock(i, k)));
      // J(e) and M(e) must be consistent cuts.
      HBCT_ASSERT(is_consistent(join_irreducible_of(i, k)));
      HBCT_ASSERT(is_consistent(meet_irreducible_of(i, k)));
    }
  }
  HBCT_ASSERT(is_consistent(initial_cut()));
  HBCT_ASSERT(is_consistent(final_cut()));
}

const char* to_string(EventKind k) {
  switch (k) {
    case EventKind::kInternal: return "internal";
    case EventKind::kSend: return "send";
    case EventKind::kReceive: return "recv";
  }
  return "?";
}

}  // namespace hbct
