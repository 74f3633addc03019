// Debug-build thread-ownership checker backing the shard-confinement
// contract of the ingestion pipeline (DESIGN.md §7).
//
// Shard-confined components (KnowledgeBase, DataStore, and everything a
// KalisNode owns) are written by exactly one thread for their whole
// lifetime. The checker binds to the first thread that performs a checked
// operation and aborts with a diagnostic if any other thread follows.
//
// Enabled in non-NDEBUG builds, or force-enabled in any build with the
// CMake option -DKALIS_THREAD_CHECKS=ON. Disabled it compiles to nothing:
// no storage access, no branch.
#pragma once

#if !defined(KALIS_THREAD_CHECKS) && !defined(NDEBUG)
#define KALIS_THREAD_CHECKS 1
#endif

#if defined(KALIS_THREAD_CHECKS)
#include <cstdio>
#include <cstdlib>
#include <thread>
#endif

namespace kalis::util {

class ThreadOwnershipChecker {
 public:
#if defined(KALIS_THREAD_CHECKS)
  /// Binds to the calling thread on first use; aborts if a different
  /// thread calls later. `what` names the violated component in the
  /// diagnostic ("KnowledgeBase::put", ...).
  void check(const char* what) const {
    const std::thread::id self = std::this_thread::get_id();
    if (owner_ == std::thread::id{}) {
      owner_ = self;
      return;
    }
    if (owner_ != self) {
      std::fprintf(stderr,
                   "kalis: shard-confinement violation: %s called from a "
                   "thread that does not own this instance\n",
                   what);
      std::abort();
    }
  }

 private:
  mutable std::thread::id owner_{};
#else
  void check(const char*) const {}
#endif
};

}  // namespace kalis::util
