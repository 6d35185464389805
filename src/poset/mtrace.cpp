#include "poset/mtrace.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <memory>
#include <ostream>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/assert.h"
#include "util/string_util.h"

namespace hbct {

namespace {

static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "hbct-mtrace v1 assumes a little-endian host");

// Fixed 64-byte header; field order matches the wire grammar in mtrace.h.
struct Header {
  char magic[8];
  std::uint32_t version;
  std::uint32_t header_bytes;
  std::int32_t nprocs;
  std::int32_t nvars;
  std::int64_t total_events;
  std::int64_t num_messages;
  std::uint64_t section_count;
  std::uint64_t table_checksum;
  std::uint64_t flags;
};
static_assert(sizeof(Header) == 64);
static_assert(std::is_trivially_copyable_v<Header>);

struct SectionEntry {
  std::uint32_t id;
  std::uint32_t reserved;
  std::uint64_t offset;
  std::uint64_t bytes;
};
static_assert(sizeof(SectionEntry) == 24);

constexpr int kNumSections = 9;
constexpr std::uint64_t kTableOffset = sizeof(Header);
constexpr std::uint64_t kTableBytes =
    static_cast<std::uint64_t>(kNumSections) * sizeof(SectionEntry);
constexpr std::uint64_t kFirstSectionOffset = kTableOffset + kTableBytes;
constexpr std::uint32_t kMaxVarNameBytes = 4096;

enum SectionId : std::uint32_t {
  kSecProcCounts = 1,
  kSecEvents = 2,
  kSecVClocks = 3,
  kSecWrites = 4,
  kSecLabels = 5,
  kSecVarNames = 6,
  kSecValues = 7,
  kSecChannels = 8,
  kSecLinearization = 9,
};

std::uint64_t fnv1a(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 14695981039346656037ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t align8(std::uint64_t off) { return (off + 7) & ~std::uint64_t{7}; }

template <typename T>
T read_pod(const unsigned char* p) {
  T t;
  std::memcpy(&t, p, sizeof(T));
  return t;
}

}  // namespace

const char* to_string(MtraceError e) {
  switch (e) {
    case MtraceError::kNone: return "none";
    case MtraceError::kIo: return "io";
    case MtraceError::kTruncated: return "truncated";
    case MtraceError::kBadMagic: return "bad-magic";
    case MtraceError::kBadHeader: return "bad-header";
    case MtraceError::kBadSectionTable: return "bad-section-table";
    case MtraceError::kBadChecksum: return "bad-checksum";
    case MtraceError::kBadCounts: return "bad-counts";
    case MtraceError::kBadEvent: return "bad-event";
    case MtraceError::kBadVClock: return "bad-vclock";
    case MtraceError::kBadVarNames: return "bad-var-names";
    case MtraceError::kBadChannelTable: return "bad-channel-table";
    case MtraceError::kBadLinearization: return "bad-linearization";
  }
  return "unknown";
}

// ---- Writer ----------------------------------------------------------------

namespace {

/// Stream wrapper tracking the absolute file position so sections can be
/// zero-padded up to their 8-aligned offsets.
struct SectionWriter {
  std::ostream& os;
  std::uint64_t pos = 0;

  void write(const void* p, std::size_t n) {
    os.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
    pos += n;
  }
  void pad_to(std::uint64_t off) {
    static constexpr char kZeros[8] = {0};
    HBCT_DASSERT(off >= pos && off - pos < 8);
    write(kZeros, static_cast<std::size_t>(off - pos));
  }
};

struct ChannelRef {
  std::uint32_t dir;  // 0 = sends, 1 = recvs
  ProcId owner;
  ProcId peer;
};

}  // namespace

void write_mtrace(std::ostream& os, const Computation& c) {
  HBCT_ASSERT_MSG(c.trimmed_events() == 0,
                  "prefix-GC'd computations cannot be serialized");
  const ProcId n = c.num_procs();
  const std::int32_t nv = c.num_vars();
  const std::int64_t total = c.total_events();
  HBCT_ASSERT_MSG(n <= kMaxMtraceProcs && nv <= kMaxMtraceVars,
                  "computation exceeds mtrace v1 caps");

  // Pass 1: pool sizes. Identical labels are deduplicated into one blob
  // entry; the map doubles as the offset table for the event pass.
  std::unordered_map<std::string, std::uint32_t> label_offs;
  std::string labels;
  std::uint64_t nwrites = 0;
  for (ProcId i = 0; i < n; ++i)
    for (EventIndex k = 1; k <= c.num_events(i); ++k) {
      const EventView ev = c.event_view(i, k);
      nwrites += ev.num_writes();
      if (!ev.label.empty()) {
        auto [it, fresh] = label_offs.try_emplace(
            std::string(ev.label), static_cast<std::uint32_t>(labels.size()));
        if (fresh) labels.append(ev.label);
      }
    }
  HBCT_ASSERT_MSG(nwrites <= UINT32_MAX && labels.size() <= UINT32_MAX,
                  "write/label pools exceed the 32-bit mtrace ranges");

  std::vector<ChannelRef> channels;
  for (ProcId i = 0; i < n; ++i)
    for (ProcId j = 0; j < n; ++j) {
      if (c.sends_up_to(i, j, c.num_events(i)) > 0) channels.push_back({0, i, j});
      if (c.recvs_up_to(i, j, c.num_events(i)) > 0) channels.push_back({1, i, j});
    }

  // Section layout (ids in file order; every offset 8-aligned).
  std::uint64_t sec_bytes[kNumSections + 1] = {0};
  sec_bytes[kSecProcCounts] = 8u * static_cast<std::uint64_t>(n);
  sec_bytes[kSecEvents] = sizeof(PackedEvent) * static_cast<std::uint64_t>(total);
  sec_bytes[kSecVClocks] =
      4u * static_cast<std::uint64_t>(total) * static_cast<std::uint64_t>(n);
  sec_bytes[kSecWrites] = sizeof(PackedWrite) * nwrites;
  sec_bytes[kSecLabels] = labels.size();
  sec_bytes[kSecVarNames] = 0;
  for (VarId v = 0; v < nv; ++v)
    sec_bytes[kSecVarNames] += 4u + c.var_name(v).size();
  sec_bytes[kSecValues] = 8u * static_cast<std::uint64_t>(nv) *
                          (static_cast<std::uint64_t>(total) +
                           static_cast<std::uint64_t>(n));
  sec_bytes[kSecChannels] = 4;
  for (const ChannelRef& ch : channels)
    sec_bytes[kSecChannels] +=
        16u + 4u * (static_cast<std::uint64_t>(c.num_events(ch.owner)) + 1);
  sec_bytes[kSecLinearization] = 8u * static_cast<std::uint64_t>(total);

  SectionEntry table[kNumSections];
  std::uint64_t cursor = kFirstSectionOffset;
  for (std::uint32_t id = 1; id <= kNumSections; ++id) {
    cursor = align8(cursor);
    table[id - 1] = SectionEntry{id, 0, cursor, sec_bytes[id]};
    cursor += sec_bytes[id];
  }

  Header h{};
  std::memcpy(h.magic, kMtraceMagic.data(), 8);
  h.version = kMtraceVersion;
  h.header_bytes = sizeof(Header);
  h.nprocs = n;
  h.nvars = nv;
  h.total_events = total;
  h.num_messages = c.num_messages();
  h.section_count = kNumSections;
  h.table_checksum = fnv1a(table, sizeof(table));
  h.flags = 0;

  SectionWriter out{os};
  out.write(&h, sizeof(h));
  out.write(table, sizeof(table));

  // 1 ProcCounts
  out.pad_to(table[kSecProcCounts - 1].offset);
  for (ProcId i = 0; i < n; ++i) {
    const std::int64_t cnt = c.num_events(i);
    out.write(&cnt, 8);
  }

  // 2 Events
  out.pad_to(table[kSecEvents - 1].offset);
  std::uint32_t wpos = 0;
  for (ProcId i = 0; i < n; ++i)
    for (EventIndex k = 1; k <= c.num_events(i); ++k) {
      const EventView ev = c.event_view(i, k);
      PackedEvent pe;
      pe.kind = static_cast<std::uint8_t>(ev.kind);
      pe.peer = ev.peer;
      pe.msg = ev.msg;
      pe.writes_begin = wpos;
      wpos += static_cast<std::uint32_t>(ev.num_writes());
      pe.writes_end = wpos;
      if (!ev.label.empty()) {
        pe.label_off = label_offs.at(std::string(ev.label));
        pe.label_len = static_cast<std::uint32_t>(ev.label.size());
      }
      out.write(&pe, sizeof(pe));
    }

  // 3 VClocks — both storage modes keep each process's clock rows
  // contiguous, so this is one bulk write per process.
  out.pad_to(table[kSecVClocks - 1].offset);
  for (ProcId i = 0; i < n; ++i)
    if (c.num_events(i) > 0)
      out.write(c.vclock(i, 1).data(),
                4u * static_cast<std::size_t>(c.num_events(i)) *
                    static_cast<std::size_t>(n));

  // 4 Writes
  out.pad_to(table[kSecWrites - 1].offset);
  for (ProcId i = 0; i < n; ++i)
    for (EventIndex k = 1; k <= c.num_events(i); ++k) {
      const EventView ev = c.event_view(i, k);
      for (std::size_t w = 0; w < ev.num_writes(); ++w) {
        const Assignment a = ev.write_at(w);
        const PackedWrite pw{a.value, a.var, 0};
        out.write(&pw, sizeof(pw));
      }
    }

  // 5 Labels
  out.pad_to(table[kSecLabels - 1].offset);
  out.write(labels.data(), labels.size());

  // 6 VarNames
  out.pad_to(table[kSecVarNames - 1].offset);
  for (VarId v = 0; v < nv; ++v) {
    const std::string& name = c.var_name(v);
    const std::uint32_t len = static_cast<std::uint32_t>(name.size());
    out.write(&len, 4);
    out.write(name.data(), name.size());
  }

  // 7 Values
  out.pad_to(table[kSecValues - 1].offset);
  for (ProcId i = 0; i < n; ++i)
    for (VarId v = 0; v < nv; ++v) {
      const TimelineView tl = c.value_timeline(i, v);
      out.write(tl.data(), 8u * tl.size());
    }

  // 8 Channels
  out.pad_to(table[kSecChannels - 1].offset);
  const std::uint32_t ntables = static_cast<std::uint32_t>(channels.size());
  out.write(&ntables, 4);
  std::vector<std::int32_t> prefix;
  for (const ChannelRef& ch : channels) {
    const std::uint32_t head[4] = {ch.dir, static_cast<std::uint32_t>(ch.owner),
                                   static_cast<std::uint32_t>(ch.peer), 0};
    out.write(head, sizeof(head));
    c.channel_prefix(ch.owner, ch.peer, /*sends=*/ch.dir == 0, &prefix);
    out.write(prefix.data(), 4u * prefix.size());
  }

  // 9 Linearization — EventId's {i32 proc, i32 index} layout is the wire
  // layout (asserted), so the whole order is one write.
  out.pad_to(table[kSecLinearization - 1].offset);
  static_assert(sizeof(EventId) == 8 && std::is_trivially_copyable_v<EventId>);
  out.write(c.linearization().data(), 8u * c.linearization().size());

  HBCT_DASSERT(out.pos == cursor);
}

std::string mtrace_to_string(const Computation& c) {
  std::ostringstream os;
  write_mtrace(os, c);
  return std::move(os).str();
}

bool write_mtrace_file(const std::string& path, const Computation& c,
                       std::string* error) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) {
    if (error) *error = "cannot open for writing: " + path;
    return false;
  }
  write_mtrace(os, c);
  os.flush();
  if (!os) {
    if (error) *error = "write failed: " + path;
    return false;
  }
  return true;
}

// ---- Loader ----------------------------------------------------------------

namespace {

MtraceLoadResult fail(MtraceError code, std::string msg) {
  MtraceLoadResult r;
  r.code = code;
  r.error = std::move(msg);
  return r;
}

/// count elements of size elem fit exactly in sec_bytes (overflow-safe: the
/// product is only formed once count <= sec_bytes / elem bounds it).
bool sec_holds_exactly(std::uint64_t sec_bytes, std::uint64_t count,
                       std::uint64_t elem) {
  return count <= sec_bytes / elem && sec_bytes == count * elem;
}

/// Full validation pass over `size` bytes at `backing`, then arena + view
/// Computation construction. Every check fires before any derived pointer is
/// dereferenced, so a malformed buffer yields a typed error, never a fault.
MtraceLoadResult parse_mtrace(std::shared_ptr<const void> backing,
                              std::uint64_t size) {
  const auto* base = static_cast<const unsigned char*>(backing.get());

  if (size < sizeof(Header))
    return fail(MtraceError::kTruncated,
                strfmt("file of %llu bytes is shorter than the 64-byte header",
                       static_cast<unsigned long long>(size)));
  const Header h = read_pod<Header>(base);
  if (std::memcmp(h.magic, kMtraceMagic.data(), 8) != 0)
    return fail(MtraceError::kBadMagic, "magic is not HBCTMTR1");
  if (h.version != kMtraceVersion)
    return fail(MtraceError::kBadHeader, strfmt("unsupported version %u", h.version));
  if (h.header_bytes != sizeof(Header) || h.flags != 0 ||
      h.section_count != kNumSections)
    return fail(MtraceError::kBadHeader, "bad header_bytes/flags/section_count");
  if (h.nprocs < 0 || h.nprocs > kMaxMtraceProcs || h.nvars < 0 ||
      h.nvars > kMaxMtraceVars)
    return fail(MtraceError::kBadHeader, "nprocs/nvars out of range");
  if (h.total_events < 0 || h.num_messages < 0 ||
      h.num_messages > h.total_events)
    return fail(MtraceError::kBadHeader, "negative or inconsistent event totals");

  if (size < kFirstSectionOffset)
    return fail(MtraceError::kTruncated, "file ends inside the section table");
  if (fnv1a(base + kTableOffset, kTableBytes) != h.table_checksum)
    return fail(MtraceError::kBadChecksum, "section-table checksum mismatch");

  std::uint64_t off[kNumSections + 1] = {0};
  std::uint64_t bytes[kNumSections + 1] = {0};
  bool seen_sec[kNumSections + 1] = {false};
  for (int s = 0; s < kNumSections; ++s) {
    const SectionEntry e =
        read_pod<SectionEntry>(base + kTableOffset + s * sizeof(SectionEntry));
    if (e.id < 1 || e.id > kNumSections || seen_sec[e.id])
      return fail(MtraceError::kBadSectionTable,
                  strfmt("entry %d has unknown or duplicate id %u", s, e.id));
    if (e.offset % 8 != 0 || e.offset < kFirstSectionOffset ||
        e.offset > size || e.bytes > size - e.offset)
      return fail(MtraceError::kBadSectionTable,
                  strfmt("section %u range [%llu, +%llu) invalid for a %llu-byte file",
                         e.id, static_cast<unsigned long long>(e.offset),
                         static_cast<unsigned long long>(e.bytes),
                         static_cast<unsigned long long>(size)));
    seen_sec[e.id] = true;
    off[e.id] = e.offset;
    bytes[e.id] = e.bytes;
  }
  // Sections must not overlap (the arena would alias otherwise).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> spans;
  for (std::uint32_t id = 1; id <= kNumSections; ++id)
    spans.emplace_back(off[id], bytes[id]);
  std::sort(spans.begin(), spans.end());
  for (std::size_t s = 1; s < spans.size(); ++s)
    if (spans[s].first < spans[s - 1].first + spans[s - 1].second)
      return fail(MtraceError::kBadSectionTable, "sections overlap");

  const std::uint64_t n = static_cast<std::uint64_t>(h.nprocs);
  const std::uint64_t nv = static_cast<std::uint64_t>(h.nvars);
  const std::uint64_t total = static_cast<std::uint64_t>(h.total_events);

  // 1 ProcCounts
  if (!sec_holds_exactly(bytes[kSecProcCounts], n, 8))
    return fail(MtraceError::kBadCounts, "ProcCounts section size != 8 * nprocs");
  std::vector<EventIndex> counts(n);
  std::uint64_t sum = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::int64_t cnt = read_pod<std::int64_t>(base + off[kSecProcCounts] + 8 * i);
    if (cnt < 0 || cnt >= INT32_MAX)
      return fail(MtraceError::kBadCounts,
                  strfmt("process %llu count out of range",
                         static_cast<unsigned long long>(i)));
    counts[i] = static_cast<EventIndex>(cnt);
    sum += static_cast<std::uint64_t>(cnt);
  }
  if (sum != total)
    return fail(MtraceError::kBadCounts,
                "per-process counts do not sum to total_events");

  // Fixed-stride sections sized purely by the (now validated) counts.
  if (!sec_holds_exactly(bytes[kSecEvents], total, sizeof(PackedEvent)))
    return fail(MtraceError::kBadSectionTable, "Events section size mismatch");
  if (n > 0 && !sec_holds_exactly(bytes[kSecVClocks], total * n, 4))
    return fail(MtraceError::kBadSectionTable, "VClocks section size mismatch");
  if (n == 0 && bytes[kSecVClocks] != 0)
    return fail(MtraceError::kBadSectionTable, "VClocks section size mismatch");
  if (bytes[kSecWrites] % sizeof(PackedWrite) != 0)
    return fail(MtraceError::kBadSectionTable, "Writes section size mismatch");
  const std::uint64_t npool_writes = bytes[kSecWrites] / sizeof(PackedWrite);
  if (nv > 0 && !sec_holds_exactly(bytes[kSecValues], nv * (total + n), 8))
    return fail(MtraceError::kBadSectionTable, "Values section size mismatch");
  if (nv == 0 && bytes[kSecValues] != 0)
    return fail(MtraceError::kBadSectionTable, "Values section size mismatch");
  if (!sec_holds_exactly(bytes[kSecLinearization], total, 8))
    return fail(MtraceError::kBadSectionTable,
                "Linearization section size mismatch");

  // 6 VarNames: the {len, bytes} walk must tile the section exactly.
  std::vector<std::string> var_names;
  var_names.reserve(nv);
  {
    const unsigned char* nb = base + off[kSecVarNames];
    std::uint64_t p = 0;
    std::unordered_set<std::string_view> uniq;
    for (std::uint64_t v = 0; v < nv; ++v) {
      if (bytes[kSecVarNames] - p < 4)
        return fail(MtraceError::kBadVarNames, "VarNames section truncated");
      const std::uint32_t len = read_pod<std::uint32_t>(nb + p);
      p += 4;
      if (len == 0 || len > kMaxVarNameBytes || bytes[kSecVarNames] - p < len)
        return fail(MtraceError::kBadVarNames,
                    strfmt("variable %llu has bad name length %u",
                           static_cast<unsigned long long>(v), len));
      var_names.emplace_back(reinterpret_cast<const char*>(nb + p), len);
      if (!uniq.insert(var_names.back()).second)
        return fail(MtraceError::kBadVarNames,
                    "duplicate variable name " + var_names.back());
      p += len;
    }
    if (p != bytes[kSecVarNames])
      return fail(MtraceError::kBadVarNames,
                  "trailing bytes after the last variable name");
  }

  // 4 Writes pool: every var id must resolve.
  {
    const unsigned char* wb = base + off[kSecWrites];
    for (std::uint64_t w = 0; w < npool_writes; ++w) {
      const PackedWrite pw = read_pod<PackedWrite>(wb + w * sizeof(PackedWrite));
      if (pw.var < 0 || static_cast<std::uint64_t>(pw.var) >= nv)
        return fail(MtraceError::kBadEvent,
                    strfmt("write %llu references unknown variable %d",
                           static_cast<unsigned long long>(w), pw.var));
    }
  }

  // 2 Events: kinds, peers, pool ranges; count the sends.
  {
    const unsigned char* eb = base + off[kSecEvents];
    std::uint64_t sends_seen = 0;
    for (std::uint64_t t = 0; t < total; ++t) {
      const PackedEvent pe = read_pod<PackedEvent>(eb + t * sizeof(PackedEvent));
      const auto kind = static_cast<EventKind>(pe.kind);
      if (pe.kind > static_cast<std::uint8_t>(EventKind::kReceive))
        return fail(MtraceError::kBadEvent,
                    strfmt("event %llu has unknown kind %u",
                           static_cast<unsigned long long>(t), pe.kind));
      if (kind == EventKind::kInternal) {
        if (pe.peer != -1 || pe.msg != kNoMsg)
          return fail(MtraceError::kBadEvent, "internal event with peer/msg");
      } else {
        if (pe.peer < 0 || static_cast<std::uint64_t>(pe.peer) >= n ||
            pe.msg < 0)
          return fail(MtraceError::kBadEvent, "send/receive peer or msg invalid");
        if (kind == EventKind::kSend) ++sends_seen;
      }
      if (pe.writes_begin > pe.writes_end || pe.writes_end > npool_writes)
        return fail(MtraceError::kBadEvent, "event write range exceeds pool");
      if (static_cast<std::uint64_t>(pe.label_off) + pe.label_len >
          bytes[kSecLabels])
        return fail(MtraceError::kBadEvent, "event label range exceeds pool");
    }
    if (sends_seen != static_cast<std::uint64_t>(h.num_messages))
      return fail(MtraceError::kBadCounts,
                  "send events do not match header num_messages");
  }

  // 3 VClocks: every entry in [0, counts[j]] (detectors index by clock
  // values, so this is a memory-safety bound, not just hygiene) and the
  // diagonal must equal the event's own index.
  {
    const auto* vb = reinterpret_cast<const std::int32_t*>(base + off[kSecVClocks]);
    // This is the largest section (4 * total_events * n bytes), so the scan
    // is the load's hot loop. An entry is invalid iff (u32)vc[j] >
    // (u32)counts[j] — negatives wrap past any valid count — and the flag
    // is accumulated branchlessly so the row loop vectorizes; the precise
    // diagnosis only runs on the cold failure path.
    std::vector<std::uint32_t> limits(n);
    for (std::uint64_t j = 0; j < n; ++j)
      limits[j] = static_cast<std::uint32_t>(counts[j]);
    std::uint64_t row = 0;
    for (std::uint64_t i = 0; i < n; ++i)
      for (EventIndex k = 1; k <= counts[i]; ++k, ++row) {
        const std::int32_t* vc = vb + row * n;
        std::uint32_t bad = vc[i] != k ? 1u : 0u;
        for (std::uint64_t j = 0; j < n; ++j)
          bad |= static_cast<std::uint32_t>(vc[j]) > limits[j] ? 1u : 0u;
        if (bad != 0) {
          if (vc[i] != k)
            return fail(MtraceError::kBadVClock, "clock diagonal mismatch");
          return fail(MtraceError::kBadVClock, "clock entry out of range");
        }
      }
  }

  auto arena = std::make_shared<MappedArena>();
  arena->backing = backing;
  arena->nprocs = h.nprocs;
  arena->nvars = h.nvars;
  arena->total_events = h.total_events;
  arena->num_messages = h.num_messages;
  arena->counts = counts;
  arena->writes_pool = reinterpret_cast<const PackedWrite*>(base + off[kSecWrites]);
  arena->labels_pool = reinterpret_cast<const char*>(base + off[kSecLabels]);

  arena->events.resize(n);
  arena->vclocks.resize(n);
  arena->values.resize(n * nv);
  {
    const auto* eb = reinterpret_cast<const PackedEvent*>(base + off[kSecEvents]);
    const auto* vb = reinterpret_cast<const std::int32_t*>(base + off[kSecVClocks]);
    const auto* tb = reinterpret_cast<const std::int64_t*>(base + off[kSecValues]);
    std::uint64_t epos = 0, tpos = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      arena->events[i] = eb + epos;
      arena->vclocks[i] = vb + epos * n;
      epos += static_cast<std::uint64_t>(counts[i]);
      for (std::uint64_t v = 0; v < nv; ++v) {
        arena->values[i * nv + v] = tb + tpos;
        tpos += static_cast<std::uint64_t>(counts[i]) + 1;
      }
    }
  }

  // 8 Channels: walked sequentially; each table is bounds-checked before its
  // prefix counters are trusted (counters must start at 0 and step by 0/1 —
  // one event adds at most one message to one channel).
  if (bytes[kSecChannels] < 4)
    return fail(MtraceError::kBadChannelTable, "Channels section truncated");
  {
    const unsigned char* cb = base + off[kSecChannels];
    const std::uint32_t ntables = read_pod<std::uint32_t>(cb);
    std::uint64_t p = 4;
    if (ntables > 2 * n * n)
      return fail(MtraceError::kBadChannelTable, "more channel tables than channels");
    if (ntables > 0) {
      arena->sends.assign(n * n, nullptr);
      arena->recvs.assign(n * n, nullptr);
    }
    for (std::uint32_t t = 0; t < ntables; ++t) {
      if (bytes[kSecChannels] - p < 16)
        return fail(MtraceError::kBadChannelTable, "Channels section truncated");
      const std::uint32_t dir = read_pod<std::uint32_t>(cb + p);
      const std::uint32_t owner = read_pod<std::uint32_t>(cb + p + 4);
      const std::uint32_t peer = read_pod<std::uint32_t>(cb + p + 8);
      p += 16;
      if (dir > 1 || owner >= n || peer >= n)
        return fail(MtraceError::kBadChannelTable,
                    strfmt("table %u has bad dir/owner/peer", t));
      const std::uint64_t entries =
          static_cast<std::uint64_t>(counts[owner]) + 1;
      if ((bytes[kSecChannels] - p) / 4 < entries)
        return fail(MtraceError::kBadChannelTable,
                    strfmt("table %u exceeds the section", t));
      const auto* vals = reinterpret_cast<const std::int32_t*>(cb + p);
      p += 4 * entries;
      if (vals[0] != 0)
        return fail(MtraceError::kBadChannelTable, "prefix counter not 0 at pos 0");
      for (std::uint64_t k = 1; k < entries; ++k)
        if (vals[k] != vals[k - 1] && vals[k] != vals[k - 1] + 1)
          return fail(MtraceError::kBadChannelTable,
                      "prefix counter not monotone with unit steps");
      if (vals[entries - 1] == 0)
        return fail(MtraceError::kBadChannelTable,
                    "all-zero table for an inactive channel");
      auto& slot = (dir == 0 ? arena->sends : arena->recvs)[owner * n + peer];
      if (slot != nullptr)
        return fail(MtraceError::kBadChannelTable,
                    strfmt("duplicate table for channel %u/%u", owner, peer));
      slot = vals;
    }
    if (p != bytes[kSecChannels])
      return fail(MtraceError::kBadChannelTable,
                  "trailing bytes after the last channel table");
  }
  if (arena->sends.empty()) {
    arena->sends.assign(n * n, nullptr);
    arena->recvs.assign(n * n, nullptr);
  }

  // 9 Linearization: a per-process-ordered permutation of all events.
  {
    const auto* lp = reinterpret_cast<const std::int32_t*>(base + off[kSecLinearization]);
    std::vector<EventIndex> seen(n, 0);
    for (std::uint64_t t = 0; t < total; ++t) {
      const std::int32_t proc = lp[2 * t];
      const std::int32_t idx = lp[2 * t + 1];
      if (proc < 0 || static_cast<std::uint64_t>(proc) >= n)
        return fail(MtraceError::kBadLinearization, "linearization proc out of range");
      if (idx != seen[static_cast<std::uint64_t>(proc)] + 1 ||
          idx > counts[static_cast<std::uint64_t>(proc)])
        return fail(MtraceError::kBadLinearization,
                    "linearization skips or repeats an event");
      seen[static_cast<std::uint64_t>(proc)] = idx;
    }
    arena->linearization = reinterpret_cast<const EventId*>(base + off[kSecLinearization]);
  }

  MtraceLoadResult r;
  r.ok = true;
  r.computation = Computation::from_arena(std::move(arena), std::move(var_names));
  return r;
}

}  // namespace

MtraceLoadResult mtrace_from_bytes(std::string_view data) {
  const std::uint64_t size = data.size();
  // Copy into 8-aligned owned storage so section pointers satisfy the
  // alignment the wire format guarantees for files.
  std::shared_ptr<std::uint64_t[]> buf(new std::uint64_t[size / 8 + 1]);
  std::memcpy(buf.get(), data.data(), size);
  return parse_mtrace(std::shared_ptr<const void>(buf, buf.get()), size);
}

MtraceLoadResult load_mtrace(const std::string& path, MtraceMode mode) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return fail(MtraceError::kIo, "cannot open " + path);
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return fail(MtraceError::kIo, "cannot stat " + path);
  }
  const std::uint64_t size = static_cast<std::uint64_t>(st.st_size);

  if (mode == MtraceMode::kMap && size > 0) {
    // MAP_POPULATE prefaults the whole file in one batch — the validation
    // scan reads every section anyway, and batched faults beat per-page
    // minor faults by a wide margin on multi-hundred-MB traces. Not
    // portable beyond Linux, so fall back to a plain mapping if refused.
#ifdef MAP_POPULATE
    void* p =
        ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE | MAP_POPULATE, fd, 0);
    if (p == MAP_FAILED)
      p = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
#else
    void* p = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
#endif
    if (p != MAP_FAILED) {
      ::close(fd);
      std::shared_ptr<const void> backing(
          p, [size](const void* q) { ::munmap(const_cast<void*>(q), size); });
      return parse_mtrace(std::move(backing), size);
    }
    // mmap unavailable (e.g. special filesystem): fall through to the copy
    // path rather than failing the load.
  }

  std::shared_ptr<std::uint64_t[]> buf(new std::uint64_t[size / 8 + 1]);
  auto* dst = reinterpret_cast<unsigned char*>(buf.get());
  std::uint64_t got = 0;
  while (got < size) {
    const ssize_t r = ::pread(fd, dst + got, size - got, static_cast<off_t>(got));
    if (r <= 0) {
      ::close(fd);
      return fail(MtraceError::kIo, "short read on " + path);
    }
    got += static_cast<std::uint64_t>(r);
  }
  ::close(fd);
  return parse_mtrace(std::shared_ptr<const void>(buf, buf.get()), size);
}

}  // namespace hbct
