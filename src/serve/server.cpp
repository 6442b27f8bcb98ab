#include "serve/server.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace cq::serve {

namespace {

ServerConfig normalized(ServerConfig config) {
  config.workers = std::max(1, config.workers);
  config.intra_threads = std::max(1, config.intra_threads);
  return config;
}

}  // namespace

Server::Server(const deploy::QuantizedArtifact& artifact, ServerConfig config)
    : Server(serving_plan(artifact), config) {}

Server::Server(std::shared_ptr<const deploy::ExecutionPlan> plan, ServerConfig config)
    : config_(normalized(config)),
      intra_pool_(config_.intra_threads > 1
                      ? std::make_unique<util::ThreadPool>(config_.intra_threads - 1)
                      : nullptr),
      session_(std::move(plan), config_.workers,
               util::ExecContext{intra_pool_.get(), config_.intra_threads},
               deploy::make_backend(config_.backend)),
      scheduler_({config_.queue_capacity, config_.max_batch}),
      pool_(config_.workers),
      submitted_(metrics_.counter("requests_submitted", "requests accepted by submit()")),
      failed_(metrics_.counter("requests_failed",
                               "requests answered with an exception")),
      shed_(metrics_.counter("requests_shed",
                             "requests refused by try_submit (queue at capacity)")),
      latency_us_(metrics_.histogram("latency_us",
                                     "submit to promise fulfillment, microseconds")),
      queue_wait_us_(metrics_.histogram(
          "queue_wait_us", "submit to leaving the scheduler queue, microseconds")),
      execute_us_(metrics_.histogram("execute_us",
                                     "EngineSession::run wall time per batch, "
                                     "microseconds")),
      batch_size_(metrics_.histogram("batch_size", "coalesced micro-batch sizes")),
      queue_depth_(metrics_.gauge("queue_depth", "requests waiting in the scheduler")),
      started_(std::chrono::steady_clock::now()) {
  metrics_.gauge("backend_prepared_bytes",
                 "bytes of backend-owned packed state built by prepare()")
      .set(static_cast<double>(session_.backend().prepared_bytes()));
  for (int i = 0; i < pool_.size(); ++i) {
    pool_.submit([this, i] { worker_loop(i); });
  }
}

Server::~Server() { shutdown(); }

std::future<tensor::Tensor> Server::submit(tensor::Tensor sample) {
  Request request;
  request.sample = std::move(sample);
  request.submitted = std::chrono::steady_clock::now();
  request.id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  std::future<tensor::Tensor> future = request.result.get_future();
  submitted_.inc();
  if (!scheduler_.push(request)) {
    failed_.inc();
    request.result.set_exception(std::make_exception_ptr(
        std::runtime_error("serve::Server: submit after shutdown")));
  }
  return future;
}

Server::SubmitResult Server::try_submit(tensor::Tensor& sample,
                                        std::future<tensor::Tensor>& out) {
  Request request;
  request.sample = std::move(sample);
  request.submitted = std::chrono::steady_clock::now();
  request.id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  std::future<tensor::Tensor> future = request.result.get_future();
  switch (scheduler_.try_push(request)) {
    case BatchScheduler::PushResult::kOk:
      submitted_.inc();
      out = std::move(future);
      return SubmitResult::kAdmitted;
    case BatchScheduler::PushResult::kFull:
      shed_.inc();
      sample = std::move(request.sample);  // hand the sample back untouched
      return SubmitResult::kShed;
    case BatchScheduler::PushResult::kClosed:
      // Not a shed: the server is draining, the caller retries against
      // its successor (ModelRegistry mid-swap) or rejects on its own
      // terms.
      sample = std::move(request.sample);
      return SubmitResult::kClosed;
  }
  return SubmitResult::kClosed;  // unreachable
}

void Server::shutdown() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mutex_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  scheduler_.close();
  pool_.wait_idle();  // workers exit once the queue is drained
}

void Server::worker_loop(int worker) {
  const tensor::Shape& sample_shape = session_.sample_shape();
  const std::size_t sample_numel = tensor::shape_numel(sample_shape);
  std::vector<Request> batch;

  while (scheduler_.pop_batch(batch)) {
    // Shape problems surface as per-request failures, not batch
    // poison: a bad sample fails only its own promise and the valid
    // remainder still batches. The check is on the exact shape — a
    // transposed sample with the right element count would otherwise
    // be coalesced in the wrong layout and answered with garbage.
    std::vector<Request*> valid;
    valid.reserve(batch.size());
    for (Request& request : batch) {
      if (request.sample.shape() == sample_shape) {
        valid.push_back(&request);
      } else {
        failed_.inc();
        request.result.set_exception(std::make_exception_ptr(std::invalid_argument(
            "serve::Server: sample shape does not match the artifact input " +
            tensor::shape_to_string(sample_shape))));
      }
    }
    if (valid.empty()) continue;
    const int n = static_cast<int>(valid.size());

    tensor::Shape batch_shape;
    batch_shape.reserve(sample_shape.size() + 1);
    batch_shape.push_back(n);
    batch_shape.insert(batch_shape.end(), sample_shape.begin(), sample_shape.end());
    tensor::Tensor coalesced(batch_shape);
    for (int i = 0; i < n; ++i) {
      std::memcpy(coalesced.data() + static_cast<std::size_t>(i) * sample_numel,
                  valid[static_cast<std::size_t>(i)]->sample.data(),
                  sample_numel * sizeof(float));
    }

    const auto exec_begin = std::chrono::steady_clock::now();
    tensor::Tensor out;
    try {
      out = session_.run(coalesced);
    } catch (...) {
      const std::exception_ptr error = std::current_exception();
      failed_.inc(static_cast<std::uint64_t>(n));
      for (Request* request : valid) request->result.set_exception(error);
      continue;
    }
    const auto exec_end = std::chrono::steady_clock::now();

    // Record the batch before fanning out, under the stats mutex that
    // also serializes reset_stats()/stats() — windows never mix.
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      batch_size_.record(static_cast<double>(n));
      execute_us_.record(
          std::chrono::duration<double, std::micro>(exec_end - exec_begin).count());
      for (const Request* request : valid) {
        latency_us_.record(std::chrono::duration<double, std::micro>(
                               exec_end - request->submitted)
                               .count());
        queue_wait_us_.record(std::chrono::duration<double, std::micro>(
                                  request->popped - request->submitted)
                                  .count());
      }
    }

    const int classes = session_.num_classes();
    for (int i = 0; i < n; ++i) {
      tensor::Tensor row({classes});
      std::memcpy(row.data(), out.data() + static_cast<std::size_t>(i) * classes,
                  static_cast<std::size_t>(classes) * sizeof(float));
      valid[static_cast<std::size_t>(i)]->result.set_value(std::move(row));
    }

    obs::SpanSink* const sink = span_sink_.load(std::memory_order_acquire);
    if (sink != nullptr) {
      const auto done = std::chrono::steady_clock::now();
      for (const Request* request : valid) {
        obs::RequestSpan span;
        span.id = request->id;
        span.submit = request->submitted;
        span.popped = request->popped;
        span.exec_begin = exec_begin;
        span.exec_end = exec_end;
        span.done = done;
        span.batch = n;
        span.worker = worker;
        sink->on_span(span);
      }
    }
  }
}

ServerStats Server::stats() const {
  queue_depth_.set(static_cast<double>(scheduler_.depth()));
  ServerStats s;
  obs::HistogramSnapshot latency;
  obs::HistogramSnapshot queue;
  obs::HistogramSnapshot execute;
  obs::HistogramSnapshot batches;
  std::chrono::steady_clock::time_point started;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    latency = latency_us_.snapshot();
    queue = queue_wait_us_.snapshot();
    execute = execute_us_.snapshot();
    batches = batch_size_.snapshot();
    started = started_;  // reset_stats() writes it under the same lock
  }
  s.completed = latency.count;
  s.failed = failed_.value();
  s.shed = shed_.value();
  s.batches = batches.count;
  s.mean_batch = batches.mean();
  s.max_batch = static_cast<std::size_t>(batches.max);
  s.p50_us = latency.percentile(50.0);
  s.p95_us = latency.percentile(95.0);
  s.p99_us = latency.percentile(99.0);
  s.mean_us = latency.mean();
  s.max_us = latency.max;
  s.mean_queue_us = queue.mean();
  s.p50_queue_us = queue.percentile(50.0);
  s.p95_queue_us = queue.percentile(95.0);
  s.mean_exec_us = execute.mean();
  s.p50_exec_us = execute.percentile(50.0);
  s.p95_exec_us = execute.percentile(95.0);
  s.elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();
  s.throughput_rps =
      s.elapsed_s > 0.0 ? static_cast<double>(s.completed) / s.elapsed_s : 0.0;
  return s;
}

void Server::reset_stats() {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  metrics_.reset();
  // Static facts survive the window reset.
  metrics_.gauge("backend_prepared_bytes")
      .set(static_cast<double>(session_.backend().prepared_bytes()));
  started_ = std::chrono::steady_clock::now();
}

const obs::Registry& Server::metrics() const {
  queue_depth_.set(static_cast<double>(scheduler_.depth()));
  return metrics_;
}

}  // namespace cq::serve
