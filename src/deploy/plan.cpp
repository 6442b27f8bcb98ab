#include "deploy/plan.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <memory>
#include <unordered_map>
#include <utility>

#include "deploy/arena.h"
#include "deploy/verify.h"

#include "nn/act_quant.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/models/model.h"
#include "nn/models/resnet20.h"
#include "nn/pooling.h"
#include "nn/probe.h"

namespace cq::deploy {

const char* op_kind_name(OpKind kind) {
  switch (kind) {
    case OpKind::EncodeAct: return "encode_act";
    case OpKind::IntConv: return "int_conv";
    case OpKind::IntLinear: return "int_linear";
    case OpKind::FloatConv: return "float_conv";
    case OpKind::FloatLinear: return "float_linear";
    case OpKind::BatchNorm: return "batch_norm";
    case OpKind::Relu: return "relu";
    case OpKind::MaxPool: return "max_pool";
    case OpKind::AvgPool: return "avg_pool";
    case OpKind::Flatten: return "flatten";
    case OpKind::Add: return "add";
  }
  return "?";
}

std::string epilogue_suffix(const PlanOp& op) {
  std::string suffix;
  if (op.ep_bn) suffix += "+bn";
  if (op.ep_add) suffix += "+add";
  if (op.ep_relu) suffix += "+relu";
  if (op.ep_encode) suffix += "->codes";
  return suffix;
}

namespace {

/// Bias vector of a quantizable layer (kept beside its packed codes in
/// the IntegerLayer; the kernels add it per output and suppress it for
/// pruned filters).
std::vector<float> bias_of(quant::QuantizableLayer& layer) {
  nn::Parameter* bias = nullptr;
  if (auto* conv = dynamic_cast<nn::Conv2d*>(&layer)) {
    bias = &conv->bias();
  } else if (auto* fc = dynamic_cast<nn::Linear*>(&layer)) {
    bias = &fc->bias();
  } else {
    throw ArtifactError("compile_plan: quantizable layer is neither Conv2d nor Linear");
  }
  const std::span<const float> values = bias->value.span();
  return {values.begin(), values.end()};
}

const nn::Module* as_module(quant::QuantizableLayer* layer) {
  auto* module = dynamic_cast<nn::Module*>(layer);
  if (module == nullptr) {
    throw ArtifactError("compile_plan: quantizable layer is not a module");
  }
  return module;
}

/// Snapshots the effective (quantized) weights/bias the layer's own
/// float forward would multiply with — built by the layer itself, so
/// the compiled float path is bit-exact by construction.
template <typename Layer>
void snapshot_effective_params(Layer& layer, PlanOp& op) {
  layer.build_effective_weight();
  op.weight = layer.effective_weight();
  const std::span<const float> bias = layer.effective_bias().span();
  op.bias.assign(bias.begin(), bias.end());
}

/// Activation grid tracked during lowering — the compile-time analogue
/// of the retired engine's runtime Grid. Set after an EncodeAct,
/// preserved through value-preserving ops (max pooling, flatten,
/// probes), consumed/invalidated by the next compute layer.
struct Grid {
  float hi = 0.0f;
  int bits = 0;
  bool valid = false;  ///< integer-encodable: bits in [1, 16], hi > 0
};

}  // namespace

/// Lowers one instantiated model to the flat op program: emits ops
/// over SSA-like value ids, infers every value's per-sample shape, and
/// finally maps values onto arena intervals with a lifetime-based
/// first-fit planner (elementwise ops run in place when their input
/// dies at the op).
class PlanCompiler {
 public:
  explicit PlanCompiler(const QuantizedArtifact& artifact) : artifact_(artifact) {}

  ExecutionPlan compile() {
    plan_.num_classes_ = artifact_.arch.int_param("num_classes");
    if (artifact_.arch.params.count("in_features") != 0) {
      plan_.sample_shape_ = {artifact_.arch.int_param("in_features")};
    } else {
      const int channels = artifact_.arch.int_param("in_channels");
      const int size = artifact_.arch.int_param("image_size");
      plan_.sample_shape_ = {channels, size, size};
    }

    // One instantiation, compile-time only: restores dense state and
    // calibration and gives us the module chain to lower. Integer ops
    // keep the packed codes as stored, so a packed layer is unpacked
    // only when it is lowered to a float op (unpack_for_float).
    model_ = instantiate_unpacked(artifact_);
    std::size_t next = 0;
    for (const nn::ScoredLayerRef& ref : model_->scored_layers()) {
      for (quant::QuantizableLayer* layer : ref.layers) {
        plan_.integer_layers_.push_back({artifact_.packed_layers[next], bias_of(*layer)});
        integer_index_.emplace(as_module(layer), static_cast<int>(next));
        ++next;
      }
    }

    const int input = new_value(plan_.sample_shape_);
    plan_.input_slot_ = input;
    Grid grid;
    const int output = lower_sequential(model_->body(), input, grid);
    plan_.output_slot_ = output;
    if (shapes_[static_cast<std::size_t>(output)] !=
        tensor::Shape{plan_.num_classes_}) {
      throw ArtifactError("compile_plan: model output shape does not match num_classes");
    }

    plan_.ops_ = std::move(ops_);
    plan_datalayout();
    return std::move(plan_);
  }

 private:
  int new_value(tensor::Shape shape) {
    shapes_.push_back(std::move(shape));
    return static_cast<int>(shapes_.size()) - 1;
  }

  const tensor::Shape& shape_of(int value) const {
    return shapes_[static_cast<std::size_t>(value)];
  }

  int emit(PlanOp op) {
    ops_.push_back(std::move(op));
    return ops_.back().out;
  }

  int lower_sequential(nn::Sequential& chain, int v, Grid& grid) {
    for (std::size_t i = 0; i < chain.size(); ++i) {
      v = lower_module(*chain.at(i), v, grid);
    }
    return v;
  }

  int lower_module(nn::Module& module, int v, Grid& grid) {
    if (auto* block = dynamic_cast<nn::BasicBlock*>(&module)) {
      return lower_block(*block, v, grid);
    }
    if (auto* chain = dynamic_cast<nn::Sequential*>(&module)) {
      return lower_sequential(*chain, v, grid);
    }
    if (auto* aq = dynamic_cast<nn::ActQuant*>(&module)) {
      return lower_act_quant(*aq, v, grid);
    }
    if (auto* conv = dynamic_cast<nn::Conv2d*>(&module)) {
      const int out = lower_conv(*conv, v, grid);
      grid.valid = false;
      return out;
    }
    if (auto* fc = dynamic_cast<nn::Linear*>(&module)) {
      const int out = lower_linear(*fc, v, grid);
      grid.valid = false;
      return out;
    }
    if (auto* bn = dynamic_cast<nn::BatchNorm2d*>(&module)) {
      grid.valid = false;
      return lower_batchnorm(*bn, v);
    }
    if (dynamic_cast<nn::ReLU*>(&module) != nullptr) {
      grid.valid = false;
      return lower_relu(v);
    }
    if (auto* pool = dynamic_cast<nn::MaxPool2d*>(&module)) {
      // Value-preserving: a max over grid points is a grid point, so
      // the activation grid survives pooling (as in the old engine).
      return lower_max_pool(*pool, v);
    }
    if (dynamic_cast<nn::GlobalAvgPool*>(&module) != nullptr) {
      grid.valid = false;
      return lower_avg_pool(v);
    }
    if (dynamic_cast<nn::Flatten*>(&module) != nullptr) {
      return lower_flatten(v);  // pure reshape; grid-preserving
    }
    if (dynamic_cast<nn::Probe*>(&module) != nullptr) {
      return v;  // identity at inference; nothing to execute
    }
    throw ArtifactError("compile_plan: cannot lower module '" + module.name() + "'");
  }

  /// Residual block, flattened to ops in the exact order (and with the
  /// exact float arithmetic) of BasicBlock::forward.
  int lower_block(nn::BasicBlock& block, int v, Grid& grid) {
    const Grid entry = grid;  // both conv1 and the projection read it

    int h = lower_conv(*block.conv1(), v, entry);
    h = lower_batchnorm(*block.bn1(), h);
    h = lower_relu(h);
    Grid mid;  // set entirely by act_quant1's lowering
    h = lower_act_quant(*block.act_quant1(), h, mid);
    int main = lower_conv(*block.conv2(), h, mid);
    main = lower_batchnorm(*block.bn2(), main);

    int shortcut = v;
    if (block.downsample_conv() != nullptr) {
      shortcut = lower_conv(*block.downsample_conv(), v, entry);
      shortcut = lower_batchnorm(*block.downsample_bn(), shortcut);
    }
    if (shape_of(main) != shape_of(shortcut)) {
      throw ArtifactError("compile_plan: residual shapes disagree in " + block.name());
    }
    PlanOp add;
    add.kind = OpKind::Add;
    add.in0 = main;  // out = in0 + in1, the += order of the block
    add.in1 = shortcut;
    add.out = new_value(shape_of(main));
    add.label = block.name() + ".add";
    main = emit(std::move(add));

    main = lower_relu(main);
    return lower_act_quant(*block.act_quant2(), main, grid);
  }

  /// EncodeAct when the quantizer is active (bits > 0 and a positive
  /// calibrated clip); identity otherwise — both decided here, at
  /// compile time. Updates `grid` to the quantizer's output grid.
  int lower_act_quant(nn::ActQuant& aq, int v, Grid& grid) {
    grid.hi = aq.max_activation();
    grid.bits = aq.bits();
    grid.valid = grid.bits >= 1 && grid.bits <= 16 && grid.hi > 0.0f;
    if (aq.bits() <= 0 || aq.max_activation() <= 0.0f) {
      return v;  // pass-through quantizer
    }
    PlanOp op;
    op.kind = OpKind::EncodeAct;
    op.in0 = v;
    op.out = new_value(shape_of(v));
    op.act_hi = aq.max_activation();
    op.act_bits = aq.bits();
    op.label = aq.name();
    return emit(std::move(op));
  }

  int lower_conv(nn::Conv2d& conv, int v, const Grid& grid) {
    // By value: new_value() below may reallocate the shape table.
    const tensor::Shape in = shape_of(v);
    if (in.size() != 3 || in[0] != conv.in_channels()) {
      throw ArtifactError("compile_plan: bad input shape for " + conv.name());
    }
    PlanOp op;
    op.in0 = v;
    op.in_c = in[0];
    op.in_h = in[1];
    op.in_w = in[2];
    op.kernel = conv.kernel();
    op.stride = conv.stride();
    op.pad = conv.pad();
    op.out_c = conv.out_channels();
    op.out_h = (op.in_h + 2 * op.pad - op.kernel) / op.stride + 1;
    op.out_w = (op.in_w + 2 * op.pad - op.kernel) / op.stride + 1;
    if (op.out_h <= 0 || op.out_w <= 0) {
      throw ArtifactError("compile_plan: empty conv output in " + conv.name());
    }
    op.label = conv.name();
    op.out = new_value({op.out_c, op.out_h, op.out_w});

    const auto it = integer_index_.find(&conv);
    if (it != integer_index_.end() && grid.valid) {
      op.kind = OpKind::IntConv;
      op.layer = it->second;
      op.act_hi = grid.hi;
      op.act_bits = grid.bits;
    } else {
      // Unquantized layer (stem), or activations are not on an integer
      // grid: the float im2col+GEMM path with the layer's effective
      // weights, decided once here instead of per request.
      op.kind = OpKind::FloatConv;
      unpack_for_float(conv);
      snapshot_effective_params(conv, op);
    }
    return emit(std::move(op));
  }

  int lower_linear(nn::Linear& fc, int v, const Grid& grid) {
    const tensor::Shape in = shape_of(v);  // by value: new_value() may reallocate
    if (in.size() != 1 || in[0] != fc.in_features()) {
      throw ArtifactError("compile_plan: bad input shape for " + fc.name());
    }
    PlanOp op;
    op.in0 = v;
    op.in_features = fc.in_features();
    op.out_features = fc.out_features();
    op.label = fc.name();
    op.out = new_value({op.out_features});
    const auto it = integer_index_.find(&fc);
    if (it != integer_index_.end() && grid.valid) {
      op.kind = OpKind::IntLinear;
      op.layer = it->second;
      op.act_hi = grid.hi;
      op.act_bits = grid.bits;
    } else {
      op.kind = OpKind::FloatLinear;
      unpack_for_float(fc);
      snapshot_effective_params(fc, op);
    }
    return emit(std::move(op));
  }

  /// Unpacks a quantized layer lowered to a float op into its module,
  /// whose fake-quant weights the float op snapshots; an unquantized
  /// layer already holds its dense weights.
  void unpack_for_float(quant::QuantizableLayer& layer) {
    const auto it = integer_index_.find(as_module(&layer));
    if (it != integer_index_.end()) {
      unpack_layer(artifact_.packed_layers[static_cast<std::size_t>(it->second)], layer);
    }
  }

  int lower_batchnorm(nn::BatchNorm2d& bn, int v) {
    const tensor::Shape in = shape_of(v);  // by value: new_value() may reallocate
    if (in.size() != 3 || in[0] != bn.channels()) {
      throw ArtifactError("compile_plan: bad input shape for " + bn.name());
    }
    PlanOp op;
    op.kind = OpKind::BatchNorm;
    op.in0 = v;
    op.in_c = in[0];
    op.in_h = in[1];
    op.in_w = in[2];
    op.label = bn.name();
    // Frozen statistics, folded to the per-channel constants the eval
    // forward uses; inv_std is computed with the identical expression.
    const int channels = bn.channels();
    op.bn_mean.resize(static_cast<std::size_t>(channels));
    op.bn_inv_std.resize(static_cast<std::size_t>(channels));
    op.bn_gamma.resize(static_cast<std::size_t>(channels));
    op.bn_beta.resize(static_cast<std::size_t>(channels));
    for (int c = 0; c < channels; ++c) {
      const auto i = static_cast<std::size_t>(c);
      op.bn_mean[i] = bn.running_mean()[i];
      op.bn_inv_std[i] = 1.0f / std::sqrt(bn.running_var()[i] + bn.eps());
      op.bn_gamma[i] = bn.gamma().value[i];
      op.bn_beta[i] = bn.beta().value[i];
    }
    op.out = new_value(in);
    return emit(std::move(op));
  }

  int lower_relu(int v) {
    PlanOp op;
    op.kind = OpKind::Relu;
    op.in0 = v;
    op.out = new_value(shape_of(v));
    return emit(std::move(op));
  }

  int lower_max_pool(nn::MaxPool2d& pool, int v) {
    const tensor::Shape in = shape_of(v);  // by value: new_value() may reallocate
    if (in.size() != 3) {
      throw ArtifactError("compile_plan: max pool needs a [C, H, W] input");
    }
    PlanOp op;
    op.kind = OpKind::MaxPool;
    op.in0 = v;
    op.in_c = in[0];
    op.in_h = in[1];
    op.in_w = in[2];
    op.kernel = pool.kernel();
    op.stride = pool.stride();
    op.out_c = op.in_c;
    op.out_h = (op.in_h - op.kernel) / op.stride + 1;
    op.out_w = (op.in_w - op.kernel) / op.stride + 1;
    if (op.out_h <= 0 || op.out_w <= 0) {
      throw ArtifactError("compile_plan: empty max pool output");
    }
    op.out = new_value({op.out_c, op.out_h, op.out_w});
    return emit(std::move(op));
  }

  int lower_avg_pool(int v) {
    const tensor::Shape in = shape_of(v);  // by value: new_value() may reallocate
    if (in.size() != 3) {
      throw ArtifactError("compile_plan: avg pool needs a [C, H, W] input");
    }
    PlanOp op;
    op.kind = OpKind::AvgPool;
    op.in0 = v;
    op.in_c = in[0];
    op.in_h = in[1];
    op.in_w = in[2];
    op.out = new_value({in[0]});
    return emit(std::move(op));
  }

  int lower_flatten(int v) {
    PlanOp op;
    op.kind = OpKind::Flatten;
    op.in0 = v;
    op.out = new_value({static_cast<int>(tensor::shape_numel(shape_of(v)))});
    return emit(std::move(op));
  }

  /// Maps values onto arena intervals via the shared lifetime-based
  /// first-fit planner (deploy/arena.h) — the same allocator optimizer
  /// passes re-run after op deletion, so compile-time and rewritten
  /// layouts obey identical rules.
  void plan_datalayout() {
    plan_.slots_.resize(shapes_.size());
    for (std::size_t s = 0; s < shapes_.size(); ++s) {
      plan_.slots_[s].shape = shapes_[s];
      plan_.slots_[s].numel = tensor::shape_numel(shapes_[s]);
    }
    plan_.arena_floats_ = plan_arena(plan_.ops_, plan_.slots_,
                                     plan_.input_slot_, plan_.output_slot_);
  }

  const QuantizedArtifact& artifact_;
  std::unique_ptr<nn::Model> model_;
  std::unordered_map<const nn::Module*, int> integer_index_;
  std::vector<PlanOp> ops_;
  std::vector<tensor::Shape> shapes_;  ///< per-sample shape of each value
  ExecutionPlan plan_;
};

ExecutionPlan compile_plan(const QuantizedArtifact& artifact) {
  ExecutionPlan plan = PlanCompiler(artifact).compile();
#ifndef NDEBUG
  // Debug builds prove every compile instead of arguing it: a compiler
  // (or future optimizer-pass) bug that breaks a plan invariant fails
  // here, at the IR boundary, not as wrong bytes in a kernel later.
  const VerifyReport report = verify_plan(plan);
  if (!report.clean()) {
    std::fputs(("compile_plan: plan fails verification:\n" +
                format_diagnostics(report))
                   .c_str(),
               stderr);
  }
  assert(report.clean() && "compile_plan produced a plan that fails verify_plan");
#endif
  return plan;
}

}  // namespace cq::deploy
