// A reader-writer lock that lets a waiting writer in ahead of new readers.
//
// std::shared_mutex on glibc is a pthread rwlock of the default kind,
// which prefers readers: while any reader holds the lock, new readers keep
// getting in, so a writer behind a steady stream of overlapping readers
// can wait without bound. This lock uses
// PTHREAD_RWLOCK_PREFER_WRITER_NONRECURSIVE_NP instead: once a writer
// waits, new readers queue behind it.
//
// The rule that buys: a thread must never take the lock shared while it
// already holds it (shared or exclusive). A nested shared acquisition
// deadlocks as soon as a writer queues between the two.
//
// Meets the SharedMutex requirements, so std::shared_lock,
// std::unique_lock and std::lock_guard work with it unchanged.
#ifndef DISCFS_SRC_UTIL_RW_MUTEX_H_
#define DISCFS_SRC_UTIL_RW_MUTEX_H_

#include <pthread.h>

namespace discfs {

class WriterPreferringMutex {
 public:
  WriterPreferringMutex();
  ~WriterPreferringMutex();

  WriterPreferringMutex(const WriterPreferringMutex&) = delete;
  WriterPreferringMutex& operator=(const WriterPreferringMutex&) = delete;

  void lock();
  bool try_lock();
  void unlock();

  void lock_shared();
  bool try_lock_shared();
  void unlock_shared();

 private:
  pthread_rwlock_t rwlock_;
};

}  // namespace discfs

#endif  // DISCFS_SRC_UTIL_RW_MUTEX_H_
