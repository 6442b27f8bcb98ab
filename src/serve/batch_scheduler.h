#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <vector>

#include "tensor/tensor.h"

namespace cq::serve {

/// One in-flight inference request: a single input sample, the promise
/// its submitter is waiting on, and the span timestamps the
/// observability layer threads through the pipeline. `submitted` is
/// stamped by Server::submit; `popped` by BatchScheduler::pop_batch
/// when the request leaves the queue, so queue-wait (popped -
/// submitted) is measured where it ends, not inferred later.
struct Request {
  tensor::Tensor sample;
  std::promise<tensor::Tensor> result;
  std::chrono::steady_clock::time_point submitted;
  std::chrono::steady_clock::time_point popped;
  std::uint64_t id = 0;  ///< submit order, for request-span tracing
};

struct BatchSchedulerConfig {
  std::size_t capacity = 1024;  ///< bounded queue depth; push blocks when full
  int max_batch = 16;           ///< largest micro-batch one pop takes
};

/// Bounded multi-producer/multi-consumer request queue with
/// work-conserving micro-batching.
///
/// Producers push single requests; consumers pop *batches*: pop_batch
/// blocks only until at least one request is queued, then takes a fair
/// share of the ready requests per idle consumer (capped at max_batch)
/// at once. A consumer never idles while requests wait, and batches
/// form exactly when requests arrive faster than the consumers free up;
/// concurrent consumers split a burst instead of serializing it behind
/// one giant batch. Batching is a pure scheduling concern — consumers
/// must produce outputs independent of how requests were coalesced
/// (EngineSession guarantees exactly that).
class BatchScheduler {
 public:
  explicit BatchScheduler(BatchSchedulerConfig config);

  /// Blocks while the queue is full. Returns false (and leaves the
  /// request untouched, promise unfulfilled) when the scheduler is
  /// closed; the caller owns the rejection.
  bool push(Request& request);

  /// Non-blocking admission variant: kOk moves the request into the
  /// queue; kFull (queue at capacity) and kClosed leave it untouched —
  /// the caller owns the shed/reject decision. This is the primitive
  /// load shedding is built on: where push() applies backpressure by
  /// blocking the producer, try_push turns a full queue into an
  /// immediate, explicit signal.
  enum class PushResult { kOk, kFull, kClosed };
  PushResult try_push(Request& request);

  /// Fills `batch` with 1..max_batch requests. Returns false when the
  /// scheduler is closed and fully drained — consumers exit on that.
  bool pop_batch(std::vector<Request>& batch);

  /// Stops accepting new requests and wakes all waiters; queued
  /// requests still drain through pop_batch.
  void close();
  bool closed() const;

  std::size_t depth() const;
  const BatchSchedulerConfig& config() const { return config_; }

 private:
  BatchSchedulerConfig config_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<Request> queue_;
  std::size_t waiting_consumers_ = 0;  ///< consumers blocked in pop_batch
  bool closed_ = false;
};

}  // namespace cq::serve
