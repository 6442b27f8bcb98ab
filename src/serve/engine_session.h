#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "deploy/artifact.h"
#include "deploy/backend.h"
#include "deploy/plan.h"
#include "obs/trace.h"
#include "tensor/tensor.h"
#include "util/exec_context.h"

namespace cq::serve {

/// The plan every artifact is served as: deploy::compile_plan, then
/// the deploy::optimize_plan pass pipeline (byte-exact, and verified
/// after each pass). The artifact constructors of EngineSession and
/// Server, and ModelRegistry's load/swap path, all serve this plan.
/// Throws deploy::ArtifactError on malformed artifacts.
std::shared_ptr<const deploy::ExecutionPlan> serving_plan(
    const deploy::QuantizedArtifact& artifact);

/// Inference session interpreting a compiled deploy::ExecutionPlan.
///
/// An EngineSession is the servable unit of the deployment story. The
/// artifact constructor compiles the architecture to a flat op program
/// once (serving_plan); run(batch) is then a loop over typed
/// op records with residual routing and the float-vs-integer path
/// choice fixed at compile time. No nn::Module is instantiated or
/// walked at serving time — and no kernel is called directly either:
/// every op is dispatched through a deploy::Backend (scalar reference
/// by default), so *how* an op executes is swappable per session while
/// the plan fixes *what* it computes. The backend's prepare() hook
/// runs once at construction, against the compiled plan.
///
/// Reentrancy: run() may be called from any number of threads
/// concurrently. Each call borrows one of `contexts` pre-built
/// execution contexts (an arena holding every tensor slot of the plan
/// plus reused code/im2col scratch, so steady-state serving allocates
/// nothing per request beyond the returned tensor); callers beyond the
/// context count block until one frees up. The plan — op records,
/// packed integer codes, float weights — is shared read-only.
///
/// Batching invariant: every op treats batch samples independently
/// with a fixed per-sample reduction order, so outputs are bit-exact
/// identical no matter how requests are coalesced into batches.
/// serve::Server builds on this to make micro-batching a pure
/// scheduling concern.
///
/// Intra-op parallelism: the optional util::ExecContext is handed to
/// every kernel the interpreter drives (encode, integer conv/linear,
/// float GEMM/im2col), parallelizing *within* one forward. Kernels
/// chunk only over independent outputs, so results stay byte-identical
/// to serial execution at any thread count.
class EngineSession {
 public:
  /// Serves the artifact's serving_plan() with `contexts` concurrent
  /// execution contexts (>= 1), an intra-op execution context
  /// (default: serial kernels), and a kernel backend (default: the
  /// scalar reference). Throws deploy::ArtifactError on malformed
  /// artifacts.
  explicit EngineSession(const deploy::QuantizedArtifact& artifact, int contexts = 1,
                         util::ExecContext exec = {},
                         std::unique_ptr<deploy::Backend> backend = nullptr);

  /// Interprets a pre-compiled plan as given (compile once, build
  /// sessions cheaply — e.g. one per shard of a fleet).
  explicit EngineSession(deploy::ExecutionPlan plan, int contexts = 1,
                         util::ExecContext exec = {},
                         std::unique_ptr<deploy::Backend> backend = nullptr);

  /// Shares one immutable compiled plan across any number of sessions
  /// without copying its weights or packed codes. Every constructor
  /// ends here, and this one runs deploy::verify_plan: the interpreter
  /// and backends assume every IR invariant it proves, so a plan that
  /// breaks one is refused with deploy::ArtifactError listing the
  /// findings. Throws std::invalid_argument on a null plan.
  explicit EngineSession(std::shared_ptr<const deploy::ExecutionPlan> plan,
                         int contexts = 1, util::ExecContext exec = {},
                         std::unique_ptr<deploy::Backend> backend = nullptr);
  ~EngineSession();

  EngineSession(const EngineSession&) = delete;
  EngineSession& operator=(const EngineSession&) = delete;

  /// Runs a [N, ...sample_shape()] batch through the plan and returns
  /// [N, num_classes()] logits. Thread-safe. The batch is validated up
  /// front — N >= 1, rank, and every per-sample dimension — and any
  /// mismatch throws std::invalid_argument naming the expected
  /// per-sample shape (rather than surfacing as a deep kernel assert).
  tensor::Tensor run(const tensor::Tensor& batch);

  /// The compiled program this session interprets.
  const deploy::ExecutionPlan& plan() const { return *plan_; }

  /// Shape of one input sample (e.g. [C, H, W] for the CNNs, [F] for
  /// the MLP), inferred at plan compile time.
  const tensor::Shape& sample_shape() const { return plan_->sample_shape(); }
  int num_classes() const { return plan_->num_classes(); }
  int contexts() const { return static_cast<int>(contexts_.size()); }
  /// Kernel backend every op is dispatched through (already prepared
  /// against plan()).
  const deploy::Backend& backend() const { return *backend_; }
  /// Intra-op context the kernels run under (serial by default).
  const util::ExecContext& exec_context() const { return exec_; }
  /// Number of quantized layers executing on the integer path.
  std::size_t integer_layer_count() const { return plan_->integer_layers().size(); }

  /// Opt-in per-op tracing: when a sink is set, the interpreter loop
  /// times every PlanOp dispatch and reports it (see obs::OpEvent);
  /// with the default null sink the loop is exactly the untraced one —
  /// no clock reads, no virtual calls, no atomics. The sink is
  /// non-owning and must outlive the session (or be cleared first); it
  /// must be thread-safe, since every concurrent context reports into
  /// it (obs::PlanProfiler is). May be set or cleared while serving.
  void set_trace_sink(obs::TraceSink* sink) {
    trace_sink_.store(sink, std::memory_order_release);
  }
  obs::TraceSink* trace_sink() const {
    return trace_sink_.load(std::memory_order_acquire);
  }

 private:
  struct Context;

  Context& acquire_context();
  void release_context(Context& ctx);

  /// Resolves one op record's slot pointers and dispatches it to the
  /// backend against a context's arena for a batch of `batch` samples.
  void execute(Context& ctx, const deploy::PlanOp& op, int batch);

  float* slot_data(Context& ctx, int slot, int batch);

  util::ExecContext exec_;  ///< intra-op context for all kernels
  std::shared_ptr<const deploy::ExecutionPlan> plan_;  ///< shared, read-only
  std::unique_ptr<deploy::Backend> backend_;  ///< kernel dispatch, prepared once
  std::atomic<obs::TraceSink*> trace_sink_{nullptr};  ///< per-op profiling hook
  std::vector<std::unique_ptr<Context>> contexts_;
  std::vector<Context*> free_contexts_;
  std::mutex mutex_;
  std::condition_variable context_available_;
};

}  // namespace cq::serve
