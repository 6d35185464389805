// Arena-backed storage for zero-copy Computation views.
//
// The hbct-mtrace v1 format (poset/mtrace.h) lays a whole computation out as
// flat, 8-aligned sections — packed event records, the stride-n vector-clock
// table, variable timelines, channel prefix counters — exactly the shape the
// detectors' inner loops already consume. A MappedArena points into such a
// section layout (an mmap'ed file or an owned buffer) and a Computation in
// *view mode* borrows from it instead of materializing per-event vectors:
// loading a million-event trace performs O(procs + vars) allocations, not
// O(events).
//
// Aliasing rules (DESIGN.md §15): the arena is immutable and shared via
// shared_ptr, so Computation copies remain valid and cheap; every pointer
// handed out (EventView labels, TimelineView, VClockView) is valid for the
// lifetime of any Computation holding the arena. View-mode computations are
// frozen — OnlineAppender refuses them — so, unlike owning computations,
// their views are never invalidated by growth.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <type_traits>
#include <vector>

#include "poset/event.h"
#include "util/assert.h"

namespace hbct {

/// Fixed-size event record of the mtrace Events section. Writes and labels
/// live in side pools referenced by [begin, end) / [off, off+len) ranges so
/// the record itself stays POD and constant-width.
struct PackedEvent {
  std::int32_t peer = -1;            // send: destination; recv: source
  std::int32_t msg = kNoMsg;         // kNoMsg for internal events
  std::uint32_t writes_begin = 0;    // range into the Writes pool
  std::uint32_t writes_end = 0;
  std::uint32_t label_off = 0;       // range into the Labels blob
  std::uint32_t label_len = 0;
  std::uint8_t kind = 0;             // EventKind numeric value
  std::uint8_t pad[7] = {0, 0, 0, 0, 0, 0, 0};
};
static_assert(sizeof(PackedEvent) == 32);
static_assert(std::is_trivially_copyable_v<PackedEvent>);

/// Fixed-size variable assignment of the mtrace Writes section.
struct PackedWrite {
  std::int64_t value = 0;
  std::int32_t var = 0;
  std::int32_t pad = 0;
};
static_assert(sizeof(PackedWrite) == 16);
static_assert(std::is_trivially_copyable_v<PackedWrite>);

/// Non-owning view of one event's payload, uniform over both Computation
/// storage modes: owning mode wraps the Event structs the builder made,
/// view mode decodes a PackedEvent against the arena's pools. Cheap to
/// copy; valid while the backing computation (and its arena) is alive.
class EventView {
 public:
  EventView() = default;
  explicit EventView(const Event& e)
      : kind(e.kind),
        peer(e.peer),
        msg(e.msg),
        label(e.label),
        owned_(e.writes.data()),
        nwrites_(e.writes.size()) {}
  EventView(const PackedEvent& e, const PackedWrite* writes_pool,
            const char* labels_pool)
      : kind(static_cast<EventKind>(e.kind)),
        peer(e.peer),
        msg(e.msg),
        label(labels_pool + e.label_off, e.label_len),
        packed_(writes_pool + e.writes_begin),
        nwrites_(e.writes_end - e.writes_begin) {}

  EventKind kind = EventKind::kInternal;
  ProcId peer = -1;
  MsgId msg = kNoMsg;
  std::string_view label;

  std::size_t num_writes() const { return nwrites_; }
  Assignment write_at(std::size_t k) const {
    HBCT_DASSERT(k < nwrites_);
    if (owned_ != nullptr) return owned_[k];
    return Assignment{packed_[k].var, packed_[k].value};
  }

 private:
  const Assignment* owned_ = nullptr;
  const PackedWrite* packed_ = nullptr;
  std::size_t nwrites_ = 0;
};

/// Non-owning {pointer, size} over one variable's precomputed timeline
/// (timeline[pos] = value after pos events; see value_timeline). Replaces
/// the old const vector& return so view-mode computations can hand out
/// arena rows directly.
class TimelineView {
 public:
  TimelineView() = default;
  TimelineView(const std::int64_t* p, std::size_t n) : p_(p), n_(n) {}

  std::size_t size() const { return n_; }
  std::int64_t operator[](std::size_t pos) const {
    HBCT_DASSERT(pos < n_);
    return p_[pos];
  }
  const std::int64_t* data() const { return p_; }

 private:
  const std::int64_t* p_ = nullptr;
  std::size_t n_ = 0;
};

/// Immutable pointer table over an mtrace section layout. Built once by the
/// mtrace loader after its validation pass; every pointer aims into
/// `backing` (an mmap'ed region or an owned copy of the file bytes), so the
/// arena owns no event data itself. All per-process tables are indexed by
/// ProcId; channel tables are dense n*n pointer matrices where nullptr
/// marks an inactive channel (owning computations keep a sparse log per
/// channel side instead; Computation::channel_prefix expands one).
struct MappedArena {
  /// Keeps the mapped/owned bytes alive; the deleter unmaps or frees.
  std::shared_ptr<const void> backing;

  std::int32_t nprocs = 0;
  std::int32_t nvars = 0;
  std::int64_t total_events = 0;
  std::int64_t num_messages = 0;

  /// counts[i] = number of events of process i.
  std::vector<EventIndex> counts;
  /// events[i] points at counts[i] PackedEvents.
  std::vector<const PackedEvent*> events;
  /// vclocks[i] points at counts[i] stride-nprocs clock rows.
  std::vector<const std::int32_t*> vclocks;
  /// values[i * nvars + v] points at counts[i] + 1 timeline entries.
  std::vector<const std::int64_t*> values;
  /// sends[from * nprocs + to] / recvs[to * nprocs + from]: prefix-counter
  /// tables of counts[owner] + 1 entries, or nullptr when inactive.
  std::vector<const std::int32_t*> sends;
  std::vector<const std::int32_t*> recvs;
  /// Canonical linearization: total_events {proc, index} pairs.
  const EventId* linearization = nullptr;
  /// Shared pools referenced by PackedEvent ranges.
  const PackedWrite* writes_pool = nullptr;
  const char* labels_pool = nullptr;
};

using MappedArenaPtr = std::shared_ptr<const MappedArena>;

}  // namespace hbct
