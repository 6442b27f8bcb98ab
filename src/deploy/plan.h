#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "deploy/artifact.h"
#include "deploy/int_engine.h"
#include "tensor/tensor.h"

namespace cq::deploy {

/// Operation kinds of the flat deployment IR. The set is closed over
/// everything the model zoo's inference graphs contain; compile_plan
/// throws ArtifactError on anything it cannot lower.
enum class OpKind {
  EncodeAct,    ///< activation fake-quantizer (places values on the act grid)
  IntConv,      ///< integer-code convolution (encode + integer MACs)
  IntLinear,    ///< integer-code fully-connected layer
  FloatConv,    ///< float im2col+GEMM conv (stem / grid-less fallback)
  FloatLinear,  ///< float GEMM fully-connected layer (output head)
  BatchNorm,    ///< frozen-statistics per-channel affine map
  Relu,
  MaxPool,
  AvgPool,      ///< global average pool [C,H,W] -> [C]
  Flatten,      ///< logical reshape; free when the slots alias
  Add,          ///< residual add: out = in0 + in1 (accumulation order of in0)
};

/// Short stable mnemonic ("int_conv", "relu", ...) for listings.
const char* op_kind_name(OpKind kind);

/// One op of the program. A PlanOp is a plain record: all shapes are
/// per-sample (the batch dimension is the interpreter's runtime
/// parameter), all routing is through slot ids, and the float-path
/// parameters it needs are stored inline so executing an op never
/// touches an nn::Module.
struct PlanOp {
  OpKind kind = OpKind::Relu;
  int in0 = -1;  ///< primary input slot
  int in1 = -1;  ///< second input slot (Add shortcut); -1 otherwise
  int out = -1;  ///< output slot

  // Spatial geometry (conv / pool / batch-norm inputs), per sample.
  int in_c = 0, in_h = 0, in_w = 0;
  int out_c = 0, out_h = 0, out_w = 0;
  int kernel = 0, stride = 0, pad = 0;
  // Fully-connected geometry.
  int in_features = 0, out_features = 0;

  // Integer path: which IntegerLayer to execute and the activation
  // grid its inputs sit on (a compile-time constant of the artifact).
  int layer = -1;        ///< index into ExecutionPlan::integer_layers()
  float act_hi = 0.0f;   ///< activation clip bound (EncodeAct/Int*)
  int act_bits = 0;      ///< activation bit-width (EncodeAct/Int*)

  // Float path: the effective (already fake-quantized when the layer
  // carries bits) weights and bias, exactly as the training-side
  // forward would build them.
  tensor::Tensor weight;     ///< [out, in] row-major
  std::vector<float> bias;   ///< per output filter/feature

  // Frozen batch-norm state, precomputed per channel.
  std::vector<float> bn_mean, bn_inv_std, bn_gamma, bn_beta;

  // Epilogue stage (optimizer-written; the compiler never sets these).
  // A compute op (IntConv/IntLinear/FloatConv/FloatLinear) may carry a
  // fused elementwise tail executed in place on its output, in the
  // fixed order BatchNorm -> Add -> Relu -> encode — exactly the
  // per-element expressions of the standalone ops, so fusion is
  // byte-exact. ep_add reads the residual operand from in1.
  bool ep_bn = false;      ///< fused frozen BatchNorm (bn_* vectors, out_c channels)
  bool ep_add = false;     ///< fused residual add: out[i] += in1[i]
  bool ep_relu = false;    ///< fused max(0, x)
  // Quantized-domain propagation (optimizer-written): ep_encode makes
  // the op emit activation codes on the (out_hi, out_bits) grid as
  // float values (integral, <= 65535 — exactly representable); a
  // consumer with in_codes casts them back instead of re-encoding,
  // which deletes the decode -> EncodeAct round-trip bit-exactly.
  bool ep_encode = false;  ///< quantize output onto (out_hi, out_bits) grid codes
  float out_hi = 0.0f;     ///< output grid clip bound (ep_encode only)
  int out_bits = 0;        ///< output grid bit-width (ep_encode only)
  bool in_codes = false;   ///< in0 already holds grid codes for (act_hi, act_bits)

  std::string label;  ///< originating layer name, for listings
};

/// True when the op kind can carry epilogue fields (a MAC compute op
/// whose backends finish its output with the fused tail: ScalarBackend
/// in one apply_epilogue pass after the rescale, SimdBackend's integer
/// kernels in the store that rescales each output).
inline bool is_compute_op(OpKind kind) {
  return kind == OpKind::IntConv || kind == OpKind::IntLinear ||
         kind == OpKind::FloatConv || kind == OpKind::FloatLinear;
}

/// Compact "+bn+add+relu->codes" suffix for listings; empty when the
/// op carries no epilogue.
std::string epilogue_suffix(const PlanOp& op);

/// One tensor slot: a per-sample interval of the execution arena. The
/// buffer planner reuses intervals whose lifetimes do not overlap (and
/// aliases elementwise ops in place), so slot_count() is typically far
/// smaller than ops().size(). All offsets/counts are in floats per
/// sample; the runtime scales them by the batch size, which preserves
/// disjointness of concurrently live slots.
struct PlanSlot {
  std::size_t offset = 0;  ///< arena offset, floats per sample
  std::size_t numel = 0;   ///< element count per sample
  tensor::Shape shape;     ///< per-sample logical shape
};

class PlanCompiler;

/// A compiled, architecture-independent op program for one artifact.
///
/// compile_plan() walks the training-side module tree exactly once,
/// ahead of time: it performs shape inference, decides per layer
/// whether the integer or the float path runs (the activation grid is
/// a compile-time constant), keeps each packed layer's bitstream with
/// its bias, snapshots the float-path weights, and lays out a
/// slot-lifetime-planned arena. The result is immutable and shared
/// read-only by any number of interpreter contexts; executing it never
/// touches an nn::Module, so new backends dispatch on op records
/// instead of module types.
class ExecutionPlan {
 public:
  const std::vector<PlanOp>& ops() const { return ops_; }
  const std::vector<PlanSlot>& slots() const { return slots_; }
  int slot_count() const { return static_cast<int>(slots_.size()); }

  /// Arena footprint in bytes *per sample*; an interpreter context
  /// running batches of N needs N times this (allocated once, reused
  /// across requests).
  std::size_t arena_bytes() const { return arena_floats_ * sizeof(float); }
  /// Arena footprint in floats per sample.
  std::size_t arena_floats() const { return arena_floats_; }

  /// The artifact's packed integer layers (bit-packed codes + bias),
  /// indexed by PlanOp::layer.
  const std::vector<IntegerLayer>& integer_layers() const { return integer_layers_; }

  int input_slot() const { return input_slot_; }
  int output_slot() const { return output_slot_; }
  const tensor::Shape& sample_shape() const { return sample_shape_; }
  int num_classes() const { return num_classes_; }

 private:
  friend class PlanCompiler;  ///< the compile_plan implementation
  friend class PlanRewriter;  ///< the sanctioned mutation seam below

  std::vector<PlanOp> ops_;
  std::vector<PlanSlot> slots_;
  std::vector<IntegerLayer> integer_layers_;
  std::size_t arena_floats_ = 0;
  int input_slot_ = -1;
  int output_slot_ = -1;
  tensor::Shape sample_shape_;
  int num_classes_ = 0;
};

/// Mutable access to a compiled plan's internals — the one sanctioned
/// seam for IR *producers*: optimizer passes rewriting op programs,
/// and the verifier's mutation tests, which corrupt plans to prove
/// every deploy/verify.h rule fires. Anything rewritten through this
/// class must re-verify clean (verify_plan) before it is executed;
/// the interpreter and backends assume verified invariants.
class PlanRewriter {
 public:
  explicit PlanRewriter(ExecutionPlan& plan) : plan_(plan) {}

  std::vector<PlanOp>& ops() { return plan_.ops_; }
  std::vector<PlanSlot>& slots() { return plan_.slots_; }
  std::vector<IntegerLayer>& integer_layers() { return plan_.integer_layers_; }
  std::size_t& arena_floats() { return plan_.arena_floats_; }
  int& input_slot() { return plan_.input_slot_; }
  int& output_slot() { return plan_.output_slot_; }
  tensor::Shape& sample_shape() { return plan_.sample_shape_; }
  int& num_classes() { return plan_.num_classes_; }

 private:
  ExecutionPlan& plan_;
};

/// Compiles an artifact into an ExecutionPlan. This is the only place
/// the deployment runtime meets the training-side class hierarchy: the
/// architecture is instantiated once, its module chain is lowered to
/// ops, and the result carries everything inference needs. Throws
/// ArtifactError on malformed artifacts or unlowerable architectures.
ExecutionPlan compile_plan(const QuantizedArtifact& artifact);

}  // namespace cq::deploy
