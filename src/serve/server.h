// ckr_serve — the in-process sharded serving daemon.
//
// Requests enter through a bounded MPMC queue (request_queue.h) with
// admission control; a pool of worker threads pops them — each worker
// spins briefly for the next request, then parks — checks the
// deadline (expired requests are shed without touching the index),
// acquires the current snapshot generation (snapshot.h), runs the
// deadline-bounded scatter/gather over the shards (sharded_index.h), and
// invokes the request's completion callback with the outcome. Publish()
// hot-swaps a new generation at any time — including mid-load — with
// zero downtime: in-flight requests finish on the generation they
// acquired.
//
// Time enters only through the injected ckr::Clock (the repo's R1
// determinism contract): tests drive deadlines with a fake clock;
// production passes RealClock().
//
// Telemetry is the daemon's product surface, reported into an
// obs::MetricRegistry (default: the process-global one) under
// "ckr.serve.*": admitted/completed/partial counters, the three shed
// classes, how each popped request was picked up (pop_spin_hits: by a
// spinning worker; pop_parks: by one woken from its park), queue-depth
// gauge, and queue/latency histograms. Latency is split by outcome:
// ckr.serve.latency_seconds holds served answers (kOk, kPartial) only;
// deadline-shed and no-snapshot answers go to
// ckr.serve.rejected_latency_seconds, so fast rejections never pull the
// served percentiles down. These are direct registry writes, not
// CKR_OBS_* hooks: shed accounting is behaviour, not optional
// observability, so the CKR_OBS_DISABLED kill switch (which guards the
// library's hot-path hooks) does not apply here.
#ifndef CKR_SERVE_SERVER_H_
#define CKR_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "index/top_k.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "serve/request_queue.h"
#include "serve/snapshot.h"

namespace ckr {

/// How a request left the daemon.
enum class ServeOutcome : uint8_t {
  kOk = 0,           ///< Full scatter/gather on every shard.
  kPartial = 1,      ///< Deadline cut the scatter short; results flagged,
                     ///< not dropped (shards_answered says how many ran).
  kShedQueueFull = 2,   ///< Rejected at admission: queue at capacity.
  kShedDeadline = 3,    ///< Popped after its deadline; index never touched.
  kNoSnapshot = 4,      ///< No generation published yet.
  kNotStarted = 5,      ///< Submitted while the daemon was not running.
};

struct ServeResponse {
  uint64_t id = 0;
  ServeOutcome outcome = ServeOutcome::kOk;
  /// Generation that served the request (0 when none was acquired).
  uint64_t generation = 0;
  std::vector<SearchResult> results;
  size_t shards_answered = 0;
  /// The evaluator that scored the answered shards: the snapshot's policy,
  /// or kExhaustive when a leg fell back to it (also counted in
  /// `ckr.index.evaluator_fallbacks`). Shed responses keep the default.
  QueryEvaluator evaluator_used = QueryEvaluator::kExhaustive;
  /// Admission -> worker pickup, and admission -> completion, on the
  /// daemon's clock. Zero for requests shed at admission.
  double queue_seconds = 0.0;
  double total_seconds = 0.0;
  /// The envelope on the daemon's clock (NowNanos scale): admission <=
  /// pickup <= scatter end <= merge end <= callback. queue_seconds is
  /// pickup - admission and total_seconds is callback - admission. The
  /// scatter and merge stamps stay 0 when no scatter ran (worker-side
  /// rejections); all four stay 0 for requests shed at admission.
  int64_t pickup_nanos = 0;
  int64_t scatter_end_nanos = 0;
  int64_t merge_end_nanos = 0;
  /// Read once the response is complete, just before the callback.
  int64_t callback_nanos = 0;
};

struct ServeRequest {
  uint64_t id = 0;
  std::string query;
  size_t k = 10;
  /// Absolute deadline on the daemon's clock (NowNanos scale); 0 = none.
  int64_t deadline_nanos = 0;
  /// Invoked exactly once per Submit(): on a worker thread for executed
  /// or deadline-shed requests, synchronously on the submitting thread
  /// for admission sheds. May be empty.
  std::function<void(ServeResponse&&)> done;
  /// Stamped by Submit().
  int64_t admit_nanos = 0;
};

struct ServeDaemonConfig {
  unsigned num_workers = 2;
  /// Threads fanning one request's scatter across shards; 1 (default)
  /// scans shards inline — on the serving path, concurrency should come
  /// from the worker pool, which overlaps *requests* without per-request
  /// thread spawns.
  unsigned shard_parallelism = 1;
  size_t queue_capacity = 1024;
  /// Defaults to RealClock() / the global registry when null.
  const Clock* clock = nullptr;
  obs::MetricRegistry* metrics = nullptr;
};

/// The daemon. Thread-safe: Submit/Publish may be called from any thread
/// while workers run.
class ServeDaemon {
 public:
  explicit ServeDaemon(const ServeDaemonConfig& config);
  ~ServeDaemon();

  ServeDaemon(const ServeDaemon&) = delete;
  ServeDaemon& operator=(const ServeDaemon&) = delete;

  /// Installs a new serving generation (zero downtime; see snapshot.h).
  /// Legal before Start() — the usual cold boot — and at any time after.
  /// Returns the generation number.
  uint64_t Publish(std::unique_ptr<ServingSnapshot> snapshot);

  uint64_t CurrentGeneration() const { return registry_.CurrentGeneration(); }
  /// Generations alive (current + retired ones still pinned by in-flight
  /// requests); the swap tests assert it drains back to 1.
  int64_t LiveGenerations() const { return registry_.LiveGenerations(); }

  /// Spawns the worker pool. Returns FailedPrecondition if already
  /// started.
  [[nodiscard]] Status Start() CKR_EXCLUDES(lifecycle_mu_);

  /// Graceful stop: closes admission, drains the backlog (every admitted
  /// request is answered), joins the workers. Idempotent, and safe to
  /// race with Start(): both serialize on lifecycle_mu_.
  void Stop() CKR_EXCLUDES(lifecycle_mu_);

  bool started() const { return started_.load(std::memory_order_acquire); }

  /// Admission. True = queued (the callback fires later on a worker);
  /// false = shed, with `request.done` already invoked synchronously
  /// carrying the precise outcome (kShedQueueFull / kNotStarted).
  bool Submit(ServeRequest&& request);

  /// Workers parked on the empty queue right now (an idle daemon parks
  /// every worker once the queue's spin bound runs out).
  size_t ParkedWorkers() const { return queue_.ParkedConsumers(); }

  const ServeDaemonConfig& config() const { return config_; }

 private:
  void WorkerLoop();
  void Respond(ServeRequest& request, ServeResponse&& response);

  ServeDaemonConfig config_;
  const Clock* clock_;
  SnapshotRegistry registry_;
  BoundedMpmcQueue<ServeRequest> queue_;
  /// Serializes Start/Stop. Lowest-ranked lock in the hierarchy: Stop()
  /// calls queue_.Shutdown() (kRequestQueue) while holding it.
  mutable Mutex lifecycle_mu_{LockRank::kServeLifecycle};
  std::vector<std::thread> workers_ CKR_GUARDED_BY(lifecycle_mu_);
  /// Readable from Submit() without the lifecycle lock; Start publishes
  /// with release, started() reads with acquire.
  // ckr-lint: unguarded(lock-free running flag; see Start/started)
  std::atomic<bool> started_{false};

  // Cached metric pointers (registry lookups lock; lookups happen once).
  obs::Counter* admitted_;
  obs::Counter* completed_;
  obs::Counter* partial_;
  obs::Counter* shed_queue_full_;
  obs::Counter* shed_deadline_;
  obs::Counter* no_snapshot_;
  obs::Counter* swaps_;
  obs::Counter* pop_spin_hits_;
  obs::Counter* pop_parks_;
  obs::Gauge* queue_depth_;
  obs::Histogram* queue_seconds_;
  obs::Histogram* latency_seconds_;           ///< kOk and kPartial.
  obs::Histogram* rejected_latency_seconds_;  ///< Worker-side rejections.
};

}  // namespace ckr

#endif  // CKR_SERVE_SERVER_H_
