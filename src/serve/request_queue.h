// Bounded MPMC queue with admission control — the daemon's front door.
//
// Producers never block: TryPush() either enqueues or reports the queue
// full, and the caller sheds the request (admission control: under
// overload the daemon answers "shed" in microseconds instead of letting
// the backlog, and therefore every queued request's latency, grow without
// bound). Consumers block on a condition variable; Shutdown() wakes them
// all, and Pop() drains the remaining backlog before reporting closed —
// so every admitted request is still answered during a graceful stop.
//
// Mutex+condvar rather than a lock-free ring: the critical sections are
// O(1) pointer shuffles, contention is bounded by the worker count, and
// the queue is exercised under tsan (scripts/tsan_check.sh) where simple
// synchronization is an asset, not a cost.
//
// Concurrency contract: every field is CKR_GUARDED_BY(queue_mu_) — an
// annotated ckr::Mutex, ranked kRequestQueue in the declared hierarchy
// (the daemon's lifecycle lock is held while Shutdown() runs, so
// lifecycle_mu_ < queue_mu_). The condition variable is
// condition_variable_any waiting on the annotated mutex directly.
#ifndef CKR_SERVE_REQUEST_QUEUE_H_
#define CKR_SERVE_REQUEST_QUEUE_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <utility>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace ckr {

template <typename T>
class BoundedMpmcQueue {
 public:
  explicit BoundedMpmcQueue(size_t capacity) : capacity_(capacity) {}

  BoundedMpmcQueue(const BoundedMpmcQueue&) = delete;
  BoundedMpmcQueue& operator=(const BoundedMpmcQueue&) = delete;

  /// Enqueues unless the queue is full or shut down; never blocks.
  /// Returns false when the item was rejected (the shed signal) — then
  /// `*item` is left untouched, so the caller can still answer it. On
  /// success `*depth` (if non-null) gets the depth after the push, read
  /// inside the same critical section.
  [[nodiscard]] bool TryPush(T* item, size_t* depth = nullptr)
      CKR_EXCLUDES(queue_mu_) {
    {
      MutexLock lock(&queue_mu_);
      if (shutdown_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(*item));
      if (depth != nullptr) *depth = items_.size();
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the queue is shut down *and*
  /// drained; returns false only in the latter case. On success `*depth`
  /// (if non-null) gets the depth after the pop.
  [[nodiscard]] bool Pop(T* out, size_t* depth = nullptr)
      CKR_EXCLUDES(queue_mu_) {
    MutexLock lock(&queue_mu_);
    // condition_variable_any releases and re-acquires queue_mu_ through
    // its BasicLockable face; net-held across the wait, like any condvar
    // loop.
    while (!shutdown_ && items_.empty()) not_empty_.wait(queue_mu_);
    if (items_.empty()) return false;  // Shut down and drained.
    *out = std::move(items_.front());
    items_.pop_front();
    if (depth != nullptr) *depth = items_.size();
    return true;
  }

  /// Closes admission and wakes every blocked consumer. Items already
  /// queued are still Pop()ed (graceful drain). Idempotent.
  void Shutdown() CKR_EXCLUDES(queue_mu_) {
    {
      MutexLock lock(&queue_mu_);
      shutdown_ = true;
    }
    not_empty_.notify_all();
  }

  /// Instantaneous depth.
  size_t Size() const CKR_EXCLUDES(queue_mu_) {
    MutexLock lock(&queue_mu_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

  bool shut_down() const CKR_EXCLUDES(queue_mu_) {
    MutexLock lock(&queue_mu_);
    return shutdown_;
  }

 private:
  const size_t capacity_;
  mutable Mutex queue_mu_{LockRank::kRequestQueue};
  /// Thread-safe by construction; waits re-enter through queue_mu_.
  // ckr-lint: unguarded(condvar is its own synchronization primitive)
  std::condition_variable_any not_empty_;
  std::deque<T> items_ CKR_GUARDED_BY(queue_mu_);
  bool shutdown_ CKR_GUARDED_BY(queue_mu_) = false;
};

}  // namespace ckr

#endif  // CKR_SERVE_REQUEST_QUEUE_H_
