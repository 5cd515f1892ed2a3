#include "src/util/rw_mutex.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace discfs {
namespace {

// A failing pthread rwlock call means a misuse (unlocking what this thread
// does not hold, relocking what it holds) or a corrupted lock; neither
// can be recovered from.
void Check(int rc, const char* call) {
  if (rc != 0) {
    std::fprintf(stderr, "WriterPreferringMutex: %s: %s\n", call,
                 std::strerror(rc));
    std::abort();
  }
}

}  // namespace

WriterPreferringMutex::WriterPreferringMutex() {
  pthread_rwlockattr_t attr;
  Check(pthread_rwlockattr_init(&attr), "pthread_rwlockattr_init");
  int kind = PTHREAD_RWLOCK_PREFER_WRITER_NONRECURSIVE_NP;
  Check(pthread_rwlockattr_setkind_np(&attr, kind),
        "pthread_rwlockattr_setkind_np");
  Check(pthread_rwlock_init(&rwlock_, &attr), "pthread_rwlock_init");
  pthread_rwlockattr_destroy(&attr);
}

WriterPreferringMutex::~WriterPreferringMutex() {
  pthread_rwlock_destroy(&rwlock_);
}

void WriterPreferringMutex::lock() {
  Check(pthread_rwlock_wrlock(&rwlock_), "pthread_rwlock_wrlock");
}

bool WriterPreferringMutex::try_lock() {
  return pthread_rwlock_trywrlock(&rwlock_) == 0;
}

void WriterPreferringMutex::unlock() {
  Check(pthread_rwlock_unlock(&rwlock_), "pthread_rwlock_unlock");
}

void WriterPreferringMutex::lock_shared() {
  Check(pthread_rwlock_rdlock(&rwlock_), "pthread_rwlock_rdlock");
}

bool WriterPreferringMutex::try_lock_shared() {
  return pthread_rwlock_tryrdlock(&rwlock_) == 0;
}

void WriterPreferringMutex::unlock_shared() {
  Check(pthread_rwlock_unlock(&rwlock_), "pthread_rwlock_unlock");
}

}  // namespace discfs
