#include "serve/engine_session.h"

#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "deploy/passes/passes.h"
#include "deploy/verify.h"
#include "tensor/ops.h"

namespace cq::serve {

/// One concurrent execution lane: the slot arena (every tensor of the
/// plan, laid out by the compile-time buffer planner and scaled by the
/// batch size) plus the backend scratch (reused activation-code and
/// im2col buffers, which the backend grows on demand). Both grow to
/// the largest batch seen, then serving is allocation-free per request.
struct EngineSession::Context {
  std::vector<float> arena;
  deploy::BackendScratch scratch;
};

namespace {

/// Shared fail-fast validation: the artifact constructor runs it
/// *before* paying for the plan compile.
int required_contexts(int contexts) {
  if (contexts < 1) {
    throw std::invalid_argument("EngineSession: contexts must be >= 1");
  }
  return contexts;
}

}  // namespace

std::shared_ptr<const deploy::ExecutionPlan> serving_plan(
    const deploy::QuantizedArtifact& artifact) {
  auto plan = std::make_shared<deploy::ExecutionPlan>(deploy::compile_plan(artifact));
  deploy::optimize_plan(*plan);
  return plan;
}

EngineSession::EngineSession(const deploy::QuantizedArtifact& artifact, int contexts,
                             util::ExecContext exec,
                             std::unique_ptr<deploy::Backend> backend)
    : EngineSession((required_contexts(contexts), serving_plan(artifact)), contexts,
                    exec, std::move(backend)) {}

EngineSession::EngineSession(deploy::ExecutionPlan plan, int contexts,
                             util::ExecContext exec,
                             std::unique_ptr<deploy::Backend> backend)
    : EngineSession(std::make_shared<const deploy::ExecutionPlan>(std::move(plan)),
                    contexts, exec, std::move(backend)) {}

EngineSession::EngineSession(std::shared_ptr<const deploy::ExecutionPlan> plan,
                             int contexts, util::ExecContext exec,
                             std::unique_ptr<deploy::Backend> backend)
    : exec_(exec), plan_(std::move(plan)), backend_(std::move(backend)) {
  if (plan_ == nullptr) {
    throw std::invalid_argument("EngineSession: plan must not be null");
  }
  required_contexts(contexts);
  const deploy::VerifyReport report = deploy::verify_plan(*plan_);
  if (!report.clean()) {
    throw deploy::ArtifactError("EngineSession: plan fails verification:\n" +
                                deploy::format_diagnostics(report));
  }
  if (backend_ == nullptr) backend_ = deploy::make_backend(deploy::BackendKind::Scalar);
  // The one-time hook: backends build packed/retiled weight layouts
  // here, before any context can run an op.
  backend_->prepare(*plan_);
  for (int i = 0; i < contexts; ++i) {
    contexts_.push_back(std::make_unique<Context>());
    free_contexts_.push_back(contexts_.back().get());
  }
}

EngineSession::~EngineSession() = default;

EngineSession::Context& EngineSession::acquire_context() {
  std::unique_lock<std::mutex> lock(mutex_);
  context_available_.wait(lock, [this] { return !free_contexts_.empty(); });
  Context* ctx = free_contexts_.back();
  free_contexts_.pop_back();
  return *ctx;
}

void EngineSession::release_context(Context& ctx) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    free_contexts_.push_back(&ctx);
  }
  context_available_.notify_one();
}

float* EngineSession::slot_data(Context& ctx, int slot, int batch) {
  return ctx.arena.data() + plan_->slots()[static_cast<std::size_t>(slot)].offset *
                                static_cast<std::size_t>(batch);
}

tensor::Tensor EngineSession::run(const tensor::Tensor& batch) {
  const tensor::Shape& sample = plan_->sample_shape();
  const auto want = [&sample] {
    return tensor::shape_to_string(sample) + " (" +
           std::to_string(tensor::shape_numel(sample)) + " floats/sample)";
  };
  if (batch.rank() != sample.size() + 1) {
    throw std::invalid_argument(
        "EngineSession::run: input must be [N, ...] with per-sample shape " + want() +
        "; got " + tensor::shape_to_string(batch.shape()));
  }
  if (batch.dim(0) < 1) {
    throw std::invalid_argument(
        "EngineSession::run: batch must be >= 1 sample of shape " + want() + "; got " +
        tensor::shape_to_string(batch.shape()));
  }
  for (std::size_t d = 0; d < sample.size(); ++d) {
    if (batch.dim(d + 1) != sample[d]) {
      throw std::invalid_argument(
          "EngineSession::run: per-sample shape mismatch; want " + want() + ", got " +
          tensor::shape_to_string(batch.shape()));
    }
  }
  const int n = batch.dim(0);

  Context& ctx = acquire_context();
  struct Releaser {
    EngineSession* session;
    Context* ctx;
    ~Releaser() { session->release_context(*ctx); }
  } releaser{this, &ctx};

  const std::size_t arena_floats = plan_->arena_floats() * static_cast<std::size_t>(n);
  if (ctx.arena.size() < arena_floats) ctx.arena.resize(arena_floats);

  std::memcpy(slot_data(ctx, plan_->input_slot(), n), batch.data(),
              batch.numel() * sizeof(float));
  obs::TraceSink* const sink = trace_sink_.load(std::memory_order_acquire);
  if (sink == nullptr) {
    // The default path stays exactly the untraced interpreter loop —
    // profiling must be zero-cost when off.
    for (const deploy::PlanOp& op : plan_->ops()) execute(ctx, op, n);
  } else {
    const std::vector<deploy::PlanOp>& ops = plan_->ops();
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const auto begin = std::chrono::steady_clock::now();
      execute(ctx, ops[i], n);
      const auto end = std::chrono::steady_clock::now();
      obs::OpEvent event;
      event.op = static_cast<int>(i);
      event.batch = n;
      event.ns = std::chrono::duration<double, std::nano>(end - begin).count();
      sink->on_op(event);
    }
  }

  tensor::Tensor out({n, plan_->num_classes()});
  std::memcpy(out.data(), slot_data(ctx, plan_->output_slot(), n),
              out.numel() * sizeof(float));
  return out;
}

void EngineSession::execute(Context& ctx, const deploy::PlanOp& op, int batch) {
  deploy::BackendIo io;
  io.in0 = slot_data(ctx, op.in0, batch);
  io.in1 = op.in1 >= 0 ? slot_data(ctx, op.in1, batch) : nullptr;
  io.out = slot_data(ctx, op.out, batch);
  io.batch = batch;
  backend_->run(op, *plan_, io, ctx.scratch, exec_);
}

}  // namespace cq::serve
