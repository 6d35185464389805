// Binary, mmap-able trace format "hbct-mtrace v1" (zero-copy ingestion).
//
// The text (hbct-trace) and record-stream (hbct-btrace) formats serialize
// the linearization and *recompute* every derived table on load — O(|E|)
// parsing and O(|E|) allocations. mtrace instead stores the computation in
// its in-memory arena layout: fixed-width packed events, the stride-n
// vector-clock table, variable timelines and channel prefix counters, each
// in its own 8-aligned section. (Owning computations keep sparse channel
// logs instead of prefix tables; the writer expands each log into its
// dense table in one linear walk.) Loading is a validation scan plus pointer
// arithmetic; the resulting Computation is a zero-copy *view* borrowing
// from the mapping (Computation::is_view(), poset/arena.h) and performs
// O(procs + vars) heap allocations regardless of event count.
//
// Wire grammar (little-endian throughout; DESIGN.md §15 has the rationale):
//
//   header (64 bytes):
//     char     magic[8]        "HBCTMTR1"
//     u32      version         1
//     u32      header_bytes    64
//     i32      nprocs          0 <= nprocs <= kMaxMtraceProcs
//     i32      nvars           0 <= nvars  <= kMaxMtraceVars
//     i64      total_events    sum of per-process counts
//     i64      num_messages    number of send events
//     u64      section_count   9 (exactly, in v1)
//     u64      table_checksum  FNV-1a 64 over the raw section-table bytes
//     u64      flags           0
//   section table: section_count entries of 24 bytes
//     { u32 id; u32 reserved; u64 offset; u64 bytes }
//     offsets are absolute, 8-aligned, non-overlapping, within the file.
//   sections (by id; every id appears exactly once):
//     1 ProcCounts     i64[nprocs]
//     2 Events         PackedEvent[total_events], process-major
//     3 VClocks        i32[total_events * nprocs], process-major rows
//     4 Writes         PackedWrite[W] — pool referenced by event ranges
//     5 Labels         byte blob — pool referenced by event ranges
//     6 VarNames       nvars x { u32 len; char bytes[len] }, packed
//     7 Values         i64 timelines, process-major then var-major,
//                      counts[i] + 1 entries each
//     8 Channels       u32 ntables; per table { u32 dir (0 send / 1 recv);
//                      u32 owner; u32 peer; u32 reserved;
//                      i32 prefix[counts[owner] + 1] }
//     9 Linearization  { i32 proc; i32 index }[total_events]
//
// The loader never trusts the file: every offset, range, count, index and
// per-event field is bounds-checked in one O(total + writes + n^2) pass
// before any pointer is handed to a Computation, and every failure is a
// typed MtraceError — malformed input can not crash or over-read
// (tests/test_trace_fuzz.cpp). Semantic clock *validity* beyond the checked
// invariants is the producer's contract, exactly as for hbct-btrace;
// Computation::validate() remains the exhaustive check.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "poset/computation.h"

namespace hbct {

inline constexpr std::string_view kMtraceMagic = "HBCTMTR1";
inline constexpr std::uint32_t kMtraceVersion = 1;

/// v1 caps. The dense per-channel pointer matrices the view mode uses are
/// n^2-sized, so process count is capped where that stays cheap; both caps
/// also bound what a malicious header can make the loader allocate.
inline constexpr std::int32_t kMaxMtraceProcs = 4096;
inline constexpr std::int32_t kMaxMtraceVars = 4096;

/// Typed loader failures (never exceptions, never crashes).
enum class MtraceError : std::uint8_t {
  kNone,
  kIo,               // open/read/mmap failure
  kTruncated,        // file shorter than header + section table
  kBadMagic,
  kBadHeader,        // version/size/count fields out of range
  kBadSectionTable,  // unknown/duplicate id, misaligned or out-of-file range
  kBadChecksum,      // section table does not hash to header checksum
  kBadCounts,        // per-process counts inconsistent with total/messages
  kBadEvent,         // kind/peer/msg/writes/label field out of range
  kBadVClock,        // clock entry out of range or diagonal mismatch
  kBadVarNames,      // name walk does not tile the section, or duplicates
  kBadChannelTable,  // channel walk out of range, bad dir/owner/peer, dup
  kBadLinearization, // not a per-process-ordered permutation of all events
};

const char* to_string(MtraceError e);

struct MtraceLoadResult {
  bool ok = false;
  MtraceError code = MtraceError::kNone;
  std::string error;        // human-readable detail
  Computation computation;  // view-mode; valid only when ok
};

/// How load_mtrace acquires the bytes. kMap mmaps the file (falling back to
/// a buffered read when mmap is unavailable); kCopy always reads into an
/// owned, 8-aligned buffer.
enum class MtraceMode : std::uint8_t { kMap, kCopy };

// ---- Writing ---------------------------------------------------------------

/// Serializes `c` (either storage mode; prefix-GC'd computations are not
/// writable) in hbct-mtrace v1 form. Identical labels share one pool entry.
void write_mtrace(std::ostream& os, const Computation& c);
std::string mtrace_to_string(const Computation& c);

/// Convenience file writer; returns false and fills *error on IO failure.
bool write_mtrace_file(const std::string& path, const Computation& c,
                       std::string* error = nullptr);

// ---- Loading ---------------------------------------------------------------

/// Validates and wraps an mtrace file as a zero-copy view Computation.
MtraceLoadResult load_mtrace(const std::string& path,
                             MtraceMode mode = MtraceMode::kMap);

/// Same, over an in-memory buffer (copied once into aligned storage): the
/// round-trip tests' and the fuzzer's entry point.
MtraceLoadResult mtrace_from_bytes(std::string_view bytes);

}  // namespace hbct
