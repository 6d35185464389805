// Incremental (online) construction of a Computation.
//
// The paper closes with "develop efficient on-line versions of our
// algorithms" as future work; this module is the substrate for that: a
// Computation that grows one event at a time while keeping every
// append-friendly table (forward vector clocks, variable timelines,
// channel logs, linearization) valid after each event, in O(n + vars)
// amortized per event: the clock row is written in place into the
// process's arena and a send or receive adds one channel-log entry, so the
// cost does not grow with the number of active channels. Reverse vector
// clocks depend on the future and are recomputed lazily by Computation
// when an offline-style query needs them.
//
// Two feed surfaces share one implementation:
//   - the unchecked methods (internal/send/receive/...) assert on misuse,
//     matching ComputationBuilder's contract for trusted in-process callers;
//   - the try_* methods return a typed AppendError instead, so a stream fed
//     from an untrusted source (the serve layer's wire decoder) can reject a
//     malformed append without corrupting the session or crashing the host.
//
// Prefix garbage collection: collect_prefix(cut) discards the storage of
// every event at or below a consistent cut — payloads, vector-clock rows,
// variable-timeline entries and channel-log entries — keeping resident
// memory proportional to the open frontier rather than the stream length.
// Indices stay absolute; the underlying Computation records the trim offset
// per process (Computation::trimmed).
#pragma once

#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "poset/computation.h"

namespace hbct {

/// Typed result of a guarded append. kNone means the event was applied.
enum class AppendError : std::uint8_t {
  kNone = 0,
  kBadProc,             // ProcId outside [0, num_procs)
  kSelfMessage,         // send(i, i): self-messages are not part of the model
  kUnknownMsg,          // receive() of a MsgId never returned by send()
  kMsgAlreadyReceived,  // receive() of an already-delivered MsgId
  kWrongReceiver,       // receive() on a process other than the send's target
  kBadVar,              // VarId never registered
  kInitialAfterEvent,   // set_initial() after the first event
  kNoEventToWrite,      // write() on a process that has no events yet
  kFinished,            // feed after finish() (monitor / serve layer)
};

const char* to_string(AppendError e);

class OnlineAppender {
 public:
  explicit OnlineAppender(std::int32_t num_procs);

  /// Registers a variable (any time; a mid-run registration backfills an
  /// all-zero history).
  VarId var(std::string_view name);

  /// Initial values may only be set before the first event.
  void set_initial(ProcId i, VarId v, std::int64_t value);

  EventId internal(ProcId i);
  MsgId send(ProcId from, ProcId to);
  EventId receive(ProcId to, MsgId m);

  /// Applies `var = value` to the most recently appended event of proc i.
  void write(ProcId i, VarId v, std::int64_t value);
  void write(ProcId i, std::string_view name, std::int64_t value);

  // ---- Guarded appends ----------------------------------------------------
  // Same semantics as the methods above, but every misuse the unchecked API
  // asserts on is returned as an AppendError and leaves the computation
  // untouched. `out` (when non-null) receives the result on success.

  AppendError try_set_initial(ProcId i, VarId v, std::int64_t value);
  AppendError try_internal(ProcId i, EventId* out = nullptr);
  AppendError try_send(ProcId from, ProcId to, MsgId* out = nullptr);
  AppendError try_receive(ProcId to, MsgId m, EventId* out = nullptr);
  AppendError try_write(ProcId i, VarId v, std::int64_t value);

  // ---- Prefix garbage collection ------------------------------------------

  /// Discards the storage of every event at or below `keep_from` (a
  /// consistent cut, componentwise >= any previous collection's cut).
  /// In-flight send clocks whose arena rows fall below the cut are
  /// materialized first, so later receives still merge correctly. Returns
  /// the number of events reclaimed by this call.
  std::int64_t collect_prefix(const Cut& keep_from);

  /// Events still resident (= total appended - reclaimed).
  std::int64_t resident_events() const { return c_.resident_events(); }
  EventIndex trimmed(ProcId i) const { return c_.trimmed(i); }

  /// The growing happened-before model. Valid after every append.
  const Computation& computation() const { return c_; }

  /// The cut of everything observed so far (the current frontier).
  Cut current_cut() const { return c_.final_cut(); }

 private:
  /// Appends `ev` to process i; `merge_row` (a receive's send clock, never
  /// a row of process i's arena) is merged into the new clock row.
  EventId append(ProcId i, Event ev, const std::int32_t* merge_row);

  /// Bookkeeping for a sent-but-not-yet-received message. The map holds
  /// only in-flight messages (receives erase their entry), so message
  /// bookkeeping is O(open channels), not O(stream length).
  struct PendingMsg {
    ProcId src = -1;
    ProcId dst = -1;
    EventIndex send_index = 0;
    /// Owned copy of the send's clock, filled by collect_prefix when the
    /// arena row it would be read from is about to be reclaimed; empty
    /// while that row is resident.
    std::vector<std::int32_t> clock;
  };

  Computation c_;
  std::unordered_map<MsgId, PendingMsg> in_flight_;
  MsgId next_msg_ = 0;
};

}  // namespace hbct
