/// \file tsan_mutex.h
/// \brief ThreadSanitizer mutex annotations for the locks built from atomics
/// and futex waits (`pipes::Mutex`, `ReentrantSharedMutex`).
///
/// ThreadSanitizer intercepts pthread locks, but it cannot see a lock made of
/// atomics and `std::atomic::wait`. Such a lock tells it where it is created,
/// taken and released. Memory accesses between a pre and a post hook are the
/// lock's own and are ignored; the post-lock hook orders the new holder after
/// the previous release, and it feeds TSan's deadlock detector, which then
/// reports lock-order inversions between these locks as it would between
/// pthread mutexes. Outside TSan builds every hook is an empty inline.

#pragma once

#if defined(__SANITIZE_THREAD__)
#define PIPES_TSAN_ANNOTATE 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PIPES_TSAN_ANNOTATE 1
#endif
#endif
#ifdef PIPES_TSAN_ANNOTATE
#include <sanitizer/tsan_interface.h>
#endif

namespace pipes::tsan {

#ifdef PIPES_TSAN_ANNOTATE
/// Flags: a shared (read) acquisition, a try-lock, and a failed try-lock.
inline constexpr unsigned kReadLock = __tsan_mutex_read_lock;
inline constexpr unsigned kTryLock = __tsan_mutex_try_lock;
inline constexpr unsigned kTryLockFailed = __tsan_mutex_try_lock_failed;

inline void Create(void* m) { __tsan_mutex_create(m, 0); }
inline void Destroy(void* m) { __tsan_mutex_destroy(m, 0); }
inline void PreLock(void* m, unsigned flags) {
  __tsan_mutex_pre_lock(m, flags);
}
inline void PostLock(void* m, unsigned flags) {
  __tsan_mutex_post_lock(m, flags, 0);
}
inline void PreUnlock(void* m, unsigned flags) {
  __tsan_mutex_pre_unlock(m, flags);
}
inline void PostUnlock(void* m, unsigned flags) {
  __tsan_mutex_post_unlock(m, flags);
}
#else
inline constexpr unsigned kReadLock = 0;
inline constexpr unsigned kTryLock = 0;
inline constexpr unsigned kTryLockFailed = 0;

inline void Create(void*) {}
inline void Destroy(void*) {}
inline void PreLock(void*, unsigned) {}
inline void PostLock(void*, unsigned) {}
inline void PreUnlock(void*, unsigned) {}
inline void PostUnlock(void*, unsigned) {}
#endif

}  // namespace pipes::tsan
