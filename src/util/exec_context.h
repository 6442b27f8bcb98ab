#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>

#include "util/thread_pool.h"

namespace cq::util {

/// Execution context threaded through the compute kernels: which
/// thread pool (if any) a single forward may parallelize over, and how
/// many threads it may occupy.
///
/// This is the single seam between the serving configuration and the
/// numeric kernels. serve::Server owns one intra-op pool shared by its
/// workers and hands each EngineSession an ExecContext; the session
/// passes it down through deploy:: into tensor::ops. A
/// default-constructed context (no pool) means strictly serial
/// execution, so every pre-existing call site keeps its exact old
/// behaviour without changes.
///
/// Determinism contract: parallel_for() only changes *which thread*
/// computes a chunk of outputs, never the reduction order within one
/// output element, so kernels written against it stay bit-identical to
/// their serial execution at any thread count.
struct ExecContext {
  ThreadPool* pool = nullptr;  ///< intra-op helper pool; nullptr = serial
  int max_threads = 0;  ///< cap on participating threads; <= 0 = pool size + 1

  /// Effective number of threads a parallel_for may occupy (>= 1; the
  /// calling thread always participates and is included in the count).
  int threads() const {
    if (pool == nullptr || pool->size() == 0) return 1;
    const int available = pool->size() + 1;
    return max_threads <= 0 ? available : std::min(max_threads, available);
  }

  bool serial() const { return threads() <= 1; }

  /// This context with at most `participants` threads (at least 1).
  /// Kernels pass their work divided by a per-thread minimum, so an op
  /// too small to repay a pool dispatch runs on the calling thread.
  ExecContext capped(std::int64_t participants) const {
    ExecContext limited = *this;
    limited.max_threads =
        static_cast<int>(std::clamp<std::int64_t>(participants, 1, threads()));
    return limited;
  }

  /// Runs body(lo, hi) over half-open chunks covering [begin, end),
  /// using at most threads() participants (chunks are sized so the
  /// participant cap holds even when the pool is larger). Serial
  /// contexts invoke body(begin, end) directly with zero overhead.
  /// Exceptions propagate to the caller (see util::parallel_for).
  template <typename Body>
  void parallel_for(std::int64_t begin, std::int64_t end, Body&& body) const {
    const std::int64_t n = end - begin;
    if (n <= 0) return;
    const std::int64_t want = std::min<std::int64_t>(threads(), n);
    if (want <= 1) {
      body(begin, end);
      return;
    }
    // ceil(n / want) chunks of equal size bound the participants (the
    // caller plus at most chunks - 1 pool helpers) to `want`.
    const std::int64_t grain = (n + want - 1) / want;
    util::parallel_for(*pool, begin, end, grain,
                       std::function<void(std::int64_t, std::int64_t)>(
                           std::forward<Body>(body)));
  }
};

}  // namespace cq::util
