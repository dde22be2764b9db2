#include "serve/server.h"

#include <utility>

#include "common/check.h"

namespace ckr {

ServeDaemon::ServeDaemon(const ServeDaemonConfig& config)
    : config_(config),
      clock_(config.clock != nullptr ? config.clock : &RealClock()),
      queue_(config.queue_capacity) {
  CKR_CHECK_GE(config_.num_workers, 1u);
  obs::MetricRegistry& reg = config_.metrics != nullptr
                                 ? *config_.metrics
                                 : obs::MetricRegistry::Global();
  admitted_ = reg.GetCounter("ckr.serve.admitted");
  completed_ = reg.GetCounter("ckr.serve.completed");
  partial_ = reg.GetCounter("ckr.serve.partial");
  shed_queue_full_ = reg.GetCounter("ckr.serve.shed_queue_full");
  shed_deadline_ = reg.GetCounter("ckr.serve.shed_deadline");
  no_snapshot_ = reg.GetCounter("ckr.serve.no_snapshot");
  swaps_ = reg.GetCounter("ckr.serve.snapshot_swaps");
  queue_depth_ = reg.GetGauge("ckr.serve.queue_depth");
  queue_seconds_ = reg.GetHistogram("ckr.serve.queue_seconds");
  latency_seconds_ = reg.GetHistogram("ckr.serve.latency_seconds");
  rejected_latency_seconds_ =
      reg.GetHistogram("ckr.serve.rejected_latency_seconds");
}

ServeDaemon::~ServeDaemon() { Stop(); }

uint64_t ServeDaemon::Publish(std::unique_ptr<ServingSnapshot> snapshot) {
  const uint64_t generation = registry_.Publish(std::move(snapshot));
  if (generation > 1) swaps_->Increment();
  return generation;
}

Status ServeDaemon::Start() {
  // Serializing on lifecycle_mu_ (not just the CAS) keeps workers_ single
  // -writer: a Stop() racing with Start() can no longer join the vector
  // while it is being filled.
  MutexLock lock(&lifecycle_mu_);
  bool expected = false;
  if (!started_.compare_exchange_strong(expected, true,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
    return Status::FailedPrecondition("daemon already started");
  }
  workers_.reserve(config_.num_workers);
  for (unsigned w = 0; w < config_.num_workers; ++w) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

void ServeDaemon::Stop() {
  // lifecycle_mu_ (kServeLifecycle) is held across queue_.Shutdown()
  // (kRequestQueue) — ascending in the declared lock order. Workers do
  // not take lifecycle_mu_, so joining under it cannot deadlock.
  MutexLock lock(&lifecycle_mu_);
  queue_.Shutdown();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  started_.store(false, std::memory_order_release);
}

void ServeDaemon::Respond(ServeRequest& request, ServeResponse&& response) {
  response.id = request.id;
  if (request.done) request.done(std::move(response));
}

bool ServeDaemon::Submit(ServeRequest&& request) {
  if (!started()) {
    ServeResponse response;
    response.outcome = ServeOutcome::kNotStarted;
    Respond(request, std::move(response));
    return false;
  }
  request.admit_nanos = clock_->NowNanos();
  // TryPush moves from `request` only on success; on rejection it is
  // untouched and still owns its callback.
  size_t depth = 0;
  if (!queue_.TryPush(&request, &depth)) {
    ServeResponse response;
    response.outcome = ServeOutcome::kShedQueueFull;
    shed_queue_full_->Increment();
    Respond(request, std::move(response));
    return false;
  }
  admitted_->Increment();
  queue_depth_->Set(static_cast<double>(depth));
  return true;
}

void ServeDaemon::WorkerLoop() {
  ServeRequest request;
  size_t depth = 0;
  while (queue_.Pop(&request, &depth)) {
    // Both sides set the gauge, so it falls as the workers drain.
    queue_depth_->Set(static_cast<double>(depth));
    const int64_t picked_up = clock_->NowNanos();
    const double queue_seconds =
        static_cast<double>(picked_up - request.admit_nanos) / 1e9;
    queue_seconds_->Record(queue_seconds);

    ServeResponse response;
    response.queue_seconds = queue_seconds;

    // Deadline shed: a request that waited past its deadline gets its
    // answer ("too late") without spending shard work on it.
    if (request.deadline_nanos > 0 && picked_up > request.deadline_nanos) {
      shed_deadline_->Increment();
      response.outcome = ServeOutcome::kShedDeadline;
      response.total_seconds = clock_->SecondsSince(request.admit_nanos);
      rejected_latency_seconds_->Record(response.total_seconds);
      Respond(request, std::move(response));
      continue;
    }

    SnapshotHandle snapshot = registry_.Acquire();
    if (!snapshot) {
      no_snapshot_->Increment();
      response.outcome = ServeOutcome::kNoSnapshot;
      response.total_seconds = clock_->SecondsSince(request.admit_nanos);
      rejected_latency_seconds_->Record(response.total_seconds);
      Respond(request, std::move(response));
      continue;
    }

    ShardedIndex::PartialResult scatter = snapshot->index.SearchWithDeadline(
        request.query, request.k, snapshot->evaluator, *clock_,
        request.deadline_nanos, config_.shard_parallelism);
    response.generation = snapshot->generation;
    response.results = std::move(scatter.results);
    response.shards_answered = scatter.shards_answered;
    if (scatter.complete) {
      completed_->Increment();
      response.outcome = ServeOutcome::kOk;
    } else {
      partial_->Increment();
      response.outcome = ServeOutcome::kPartial;
    }
    response.total_seconds = clock_->SecondsSince(request.admit_nanos);
    latency_seconds_->Record(response.total_seconds);
    // The handle is released after the response is built: an in-flight
    // request pins its generation even if a swap landed meanwhile.
    snapshot.Reset();
    Respond(request, std::move(response));
  }
}

}  // namespace ckr
