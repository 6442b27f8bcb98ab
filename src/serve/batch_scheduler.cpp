#include "serve/batch_scheduler.h"

#include <algorithm>
#include <stdexcept>

namespace cq::serve {

BatchScheduler::BatchScheduler(BatchSchedulerConfig config) : config_(config) {
  if (config_.capacity < 1) {
    throw std::invalid_argument("BatchScheduler: capacity must be >= 1");
  }
  if (config_.max_batch < 1) {
    throw std::invalid_argument("BatchScheduler: max_batch must be >= 1");
  }
}

bool BatchScheduler::push(Request& request) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    not_full_.wait(lock, [this] { return closed_ || queue_.size() < config_.capacity; });
    if (closed_) return false;
    queue_.push_back(std::move(request));
  }
  not_empty_.notify_one();
  return true;
}

BatchScheduler::PushResult BatchScheduler::try_push(Request& request) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) return PushResult::kClosed;
    if (queue_.size() >= config_.capacity) return PushResult::kFull;
    queue_.push_back(std::move(request));
  }
  not_empty_.notify_one();
  return PushResult::kOk;
}

bool BatchScheduler::pop_batch(std::vector<Request>& batch) {
  batch.clear();
  std::unique_lock<std::mutex> lock(mutex_);
  ++waiting_consumers_;
  not_empty_.wait(lock, [this] { return closed_ || !queue_.empty(); });
  if (queue_.empty()) {
    --waiting_consumers_;
    return false;  // closed and drained
  }

  // Dynamic batch sizing: greedily draining the queue into one batch
  // would serialize the whole in-flight window behind a single
  // consumer. Take only a fair (ceil) share of the ready requests per
  // *idle* consumer — busy consumers are not counted, so a lone worker
  // still gets everything up to max_batch.
  const std::size_t ready = queue_.size();
  const std::size_t share = (ready + waiting_consumers_ - 1) / waiting_consumers_;
  const std::size_t take =
      std::min(std::max<std::size_t>(share, 1),
               static_cast<std::size_t>(config_.max_batch));
  batch.reserve(take);
  const auto popped = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < take; ++i) {
    queue_.front().popped = popped;  // queue-wait ends here
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  --waiting_consumers_;
  const bool more = !queue_.empty();
  lock.unlock();
  if (more) not_empty_.notify_one();  // let the next idle consumer flush the rest
  not_full_.notify_all();
  return true;
}

void BatchScheduler::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
}

bool BatchScheduler::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

std::size_t BatchScheduler::depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

}  // namespace cq::serve
