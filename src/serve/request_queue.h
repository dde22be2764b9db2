// Bounded MPMC queue with admission control — the daemon's front door.
//
// Producers never block: TryPush() either enqueues or reports the queue
// full, and the caller sheds the request (admission control: under
// overload the daemon answers "shed" in microseconds instead of letting
// the backlog, and therefore every queued request's latency, grow without
// bound). Consumers spin, then park: Pop() first polls an atomic item
// count for up to kPopSpins CpuRelax() iterations, and only then blocks
// on a condition variable. Shutdown() wakes every parked consumer and
// ends every spin, and Pop() drains the remaining backlog before
// reporting closed — so every admitted request is still answered during
// a graceful stop.
//
// Why spin: a serving worker that has just answered a request usually
// gets the next one within tens of microseconds. Parked, it costs a
// futex wake on the producer's side and a scheduler wake-up (~10-20 us
// on a VM) on its own before it can start; spinning, it takes the item
// at once and the producer makes no wake call at all — TryPush()
// notifies only when some consumer is actually parked. The bound is an
// iteration count, not a duration (src/ reads no clock; ckr_lint R1), so
// an idle consumer parks after a few tens of microseconds and costs no
// CPU thereafter.
//
// No wakeup is lost: a consumer counts itself in parked_ under queue_mu_
// before it waits, and TryPush() reads parked_ under the same lock after
// it enqueues. Either the consumer checked the queue after the push (and
// takes the item instead of parking), or the push saw it parked and
// notifies. The atomic count and closed flag are hints for the spin
// only; every decision is re-made under queue_mu_.
//
// Mutex+condvar rather than a lock-free ring: the critical sections are
// O(1) pointer shuffles, contention is bounded by the worker count, and
// the queue is exercised under tsan (scripts/tsan_check.sh) where simple
// synchronization is an asset, not a cost.
//
// Concurrency contract: every non-atomic field is
// CKR_GUARDED_BY(queue_mu_) — an annotated ckr::Mutex, ranked
// kRequestQueue in the declared hierarchy (the daemon's lifecycle lock is
// held while Shutdown() runs, so lifecycle_mu_ < queue_mu_). The
// condition variable is condition_variable_any waiting on the annotated
// mutex directly.
#ifndef CKR_SERVE_REQUEST_QUEUE_H_
#define CKR_SERVE_REQUEST_QUEUE_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>

#include "common/cpu_relax.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace ckr {

/// How a Pop() got its item (or its close).
enum class PopWait : uint8_t {
  kSpun = 0,    ///< Without parking: found at once or within the spin.
  kParked = 1,  ///< Waited on the condition variable at least once.
};

template <typename T>
class BoundedMpmcQueue {
 public:
  /// CpuRelax() iterations a Pop() polls before it parks. About 40-55 us
  /// of PAUSE on a current x86 VM: longer than a search request's
  /// round trip through a closed-loop client, short enough that an idle
  /// daemon parks all its workers almost at once.
  static constexpr int kPopSpins = 2048;

  explicit BoundedMpmcQueue(size_t capacity) : capacity_(capacity) {}

  BoundedMpmcQueue(const BoundedMpmcQueue&) = delete;
  BoundedMpmcQueue& operator=(const BoundedMpmcQueue&) = delete;

  /// Enqueues unless the queue is full or shut down; never blocks.
  /// Returns false when the item was rejected (the shed signal) — then
  /// `*item` is left untouched, so the caller can still answer it. On
  /// success `*depth` (if non-null) gets the depth after the push, read
  /// inside the same critical section. Wakes a consumer only if one is
  /// parked; a spinning one sees the new count by itself.
  [[nodiscard]] bool TryPush(T* item, size_t* depth = nullptr)
      CKR_EXCLUDES(queue_mu_) {
    bool wake = false;
    {
      MutexLock lock(&queue_mu_);
      if (shutdown_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(*item));
      count_.store(items_.size(), std::memory_order_relaxed);
      if (depth != nullptr) *depth = items_.size();
      wake = parked_ > 0;
    }
    if (wake) not_empty_.notify_one();
    return true;
  }

  /// Spins, then blocks, until an item is available or the queue is shut
  /// down *and* drained; returns false only in the latter case. Items
  /// come out in push order. On success `*depth` (if non-null) gets the
  /// depth after the pop. `*waited` (if non-null) says whether this call
  /// parked.
  [[nodiscard]] bool Pop(T* out, size_t* depth = nullptr,
                         PopWait* waited = nullptr) CKR_EXCLUDES(queue_mu_) {
    int spins = 0;
    for (;;) {
      while (spins < kPopSpins &&
             count_.load(std::memory_order_relaxed) == 0 &&
             !closed_.load(std::memory_order_relaxed)) {
        CpuRelax();
        ++spins;
      }
      MutexLock lock(&queue_mu_);
      if (items_.empty() && !shutdown_ && spins < kPopSpins) {
        // Another consumer took the item the count announced: spin on
        // with what is left of the bound.
        ++spins;
        continue;
      }
      PopWait how = PopWait::kSpun;
      // condition_variable_any releases and re-acquires queue_mu_ through
      // its BasicLockable face; net-held across the wait, like any
      // condvar loop.
      while (!shutdown_ && items_.empty()) {
        how = PopWait::kParked;
        ++parked_;
        not_empty_.wait(queue_mu_);
        --parked_;
      }
      if (waited != nullptr) *waited = how;
      if (items_.empty()) return false;  // Shut down and drained.
      *out = std::move(items_.front());
      items_.pop_front();
      count_.store(items_.size(), std::memory_order_relaxed);
      if (depth != nullptr) *depth = items_.size();
      return true;
    }
  }

  /// Closes admission, ends every spin and wakes every parked consumer.
  /// Items already queued are still Pop()ed (graceful drain). Idempotent.
  void Shutdown() CKR_EXCLUDES(queue_mu_) {
    {
      MutexLock lock(&queue_mu_);
      shutdown_ = true;
      closed_.store(true, std::memory_order_relaxed);
    }
    not_empty_.notify_all();
  }

  /// Instantaneous depth.
  size_t Size() const CKR_EXCLUDES(queue_mu_) {
    MutexLock lock(&queue_mu_);
    return items_.size();
  }

  /// Consumers blocked on the condition variable right now.
  size_t ParkedConsumers() const CKR_EXCLUDES(queue_mu_) {
    MutexLock lock(&queue_mu_);
    return parked_;
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
  size_t parked_ CKR_GUARDED_BY(queue_mu_) = 0;
  /// items_.size() and shutdown_, republished on every change under
  /// queue_mu_ for Pop()'s lock-free spin. Relaxed on both sides: they
  /// only end the spin early, and the item itself is handed over under
  /// the lock.
  // ckr-lint: unguarded(spin hint; stored under queue_mu_, decided under it)
  std::atomic<size_t> count_{0};
  // ckr-lint: unguarded(spin hint; stored under queue_mu_, decided under it)
  std::atomic<bool> closed_{false};
};

}  // namespace ckr

#endif  // CKR_SERVE_REQUEST_QUEUE_H_
