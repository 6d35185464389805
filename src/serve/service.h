// Multi-tenant streaming detection: many concurrent executions, each its own
// Session (OnlineMonitor + wire decoder + prefix GC), multiplexed onto the
// shared ThreadPool.
//
// Concurrency model — actor per session:
//  - The session table is sharded; each shard has its own mutex, so opening
//    and looking up sessions scales with the shard count.
//  - post() enqueues a chunk into the session's inbox and, if no pump task
//    is in flight for that session, schedules one on the pool. The inbox
//    has its own mutex, held only to push or pop a chunk, so post() never
//    waits behind an ingest. The pump pops one chunk at a time and applies
//    it under the session mutex, and unschedules itself when the inbox is
//    empty. At most one pump per session runs at a time, so a Session never
//    sees concurrent access, but distinct sessions drain fully in parallel.
//  - A malformed stream fails only its own session; the service, the pool
//    and every other session keep running.
//
// Observability: serve.* counters/gauges/histograms in the tracer's metrics
// registry (or the global one), plus a "serve.ingest" span per drained chunk.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/trace.h"
#include "serve/session.h"
#include "util/thread_pool.h"

namespace hbct {
namespace serve {

struct ServiceOptions {
  /// Shards spreading the session-table mutexes; <= 0 picks a default.
  std::int32_t num_shards = 0;
  /// Pool running ingest work; nullptr uses ThreadPool::shared().
  ThreadPool* pool = nullptr;
  /// Receives "serve.ingest" / "monitor.gc" spans; its metrics registry
  /// takes the serve.* metrics. nullptr = no spans, global registry.
  Tracer* trace = nullptr;
  /// Raw fire-latency sink forwarded to every session's FireInstruments
  /// (exact ns per fire, pre-histogram-quantization). Shared across all
  /// sessions and called on pump threads — must be thread-safe. Benches
  /// use it for true percentiles; leave null in production.
  std::function<void(WatchKind, std::uint64_t)> fire_sample;
  /// Also register per-session labeled series (serve.records{session="N"},
  /// serve.fires{session="N"}, serve.resident_events{session="N"}). Off by
  /// default: label cardinality grows with every session ever opened, which
  /// is fine for a debugging run and wrong for a long-lived deployment. The
  /// per-watch-class series are bounded and therefore always on.
  bool per_session_metrics = false;
};

class StreamingService {
 public:
  explicit StreamingService(ServiceOptions opt = {});
  ~StreamingService();  // drains in-flight ingest work

  /// Opens a session. `setup` registers watches on the fresh monitor before
  /// any event can arrive (required: scanning watches must precede GC).
  SessionId open(const SessionConfig& cfg,
                 const std::function<void(OnlineMonitor&)>& setup = {});

  /// Queues raw wire bytes for the session and schedules a drain. Chunks
  /// may split records anywhere; per-session order is the post order.
  /// False if the session does not exist.
  bool post(SessionId sid, std::string bytes);
  /// Encode-and-post convenience for in-process producers.
  bool post(SessionId sid, const wire::Record& r);
  /// Queues end-of-stream (a kEnd record) for the session.
  bool finish(SessionId sid);

  /// Blocks until every queued chunk across all sessions has been applied.
  void drain();

  /// Drains the session's accumulated watch fires.
  std::vector<WatchFire> poll(SessionId sid);
  SessionStats stats(SessionId sid) const;
  SessionState state(SessionId sid) const;
  /// For failed sessions: the reason. Empty otherwise (or if absent).
  std::string error(SessionId sid) const;
  /// Removes the session; false if absent. When this leaves the service
  /// with no open sessions, the heap memory the closed sessions freed is
  /// handed back to the OS (glibc's malloc_trim), so an idle service's
  /// resident size does not depend on the allocator's history.
  bool close(SessionId sid);

  std::size_t num_sessions() const;
  /// Events currently resident across all live sessions.
  std::int64_t resident_events() const;

 private:
  struct Entry {
    /// Guards the session and the gauge bookkeeping below; held by the
    /// pump for a whole chunk's ingest.
    std::mutex mu;
    Session session;
    /// Guards inbox and scheduled only, so post() never waits on `mu`.
    std::mutex inbox_mu;
    std::deque<std::string> inbox;
    bool scheduled = false;          // a pump task is queued or running
    std::int64_t gauged_resident = 0;  // last value folded into the gauge
    std::int64_t gauged_watch_bytes = 0;  // ditto, serve.watch_state.bytes
    // Per-session labeled series; null unless per_session_metrics.
    Counter* s_records = nullptr;
    Counter* s_fires = nullptr;
    Gauge* s_resident = nullptr;

    Entry(SessionId id, const SessionConfig& cfg) : session(id, cfg) {}
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<SessionId, std::shared_ptr<Entry>> sessions;
  };

  Shard& shard_of(SessionId sid) const;
  std::shared_ptr<Entry> find(SessionId sid) const;
  void pump(const std::shared_ptr<Entry>& e);
  /// Folds the session's stats delta into the service-wide metrics.
  void absorb(Entry& e, const SessionStats& before, const SessionStats& after);

  ServiceOptions opt_;
  ThreadPool* pool_;
  Tracer* trace_;
  mutable std::vector<Shard> shards_;
  std::atomic<SessionId> next_id_{1};

  Counter* records_;
  Counter* events_;
  Counter* fires_;
  Counter* failures_;
  Counter* gc_rounds_;
  Counter* gc_reclaimed_;
  Counter* opened_;
  Counter* closed_;
  Gauge* open_sessions_;
  Gauge* resident_;
  Gauge* resident_peak_;
  Gauge* watch_state_;
  Gauge* watch_state_peak_;
  Counter* until_inc_;
  Counter* until_dec_;
  Histogram* ingest_ns_;
  Histogram* fire_ns_;
  /// Per-watch-class series (serve.fires{class=...} and
  /// serve.fire_latency.ns{class=...}), indexed by WatchKind. Bounded
  /// cardinality, always registered.
  Session::FireInstruments fire_inst_;
  MetricsRegistry* reg_;
};

}  // namespace serve
}  // namespace hbct
