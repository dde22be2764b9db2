// CpuRelax(): the body of a spin-wait loop.
//
// On x86 it is PAUSE, which tells the core the loop is a spin: it saves
// power, yields issue slots to a hyperthread sibling, and avoids the
// memory-order mis-speculation flush when the polled line finally
// changes. On aarch64 it is YIELD, the architectural hint for the same
// purpose. Elsewhere it does nothing, and a spin is a plain poll.
//
// It is a hint, not a timer: how long one call takes varies by core
// (tens to over a hundred cycles for PAUSE), so spin bounds built on it
// are iteration counts, not durations.
#ifndef CKR_COMMON_CPU_RELAX_H_
#define CKR_COMMON_CPU_RELAX_H_

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace ckr {

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

}  // namespace ckr

#endif  // CKR_COMMON_CPU_RELAX_H_
