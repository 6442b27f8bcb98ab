// Static verifier over the ExecutionPlan IR.
//
// compile_plan argues its invariants in comments; this file proves
// them per plan, after the fact, from nothing but the plan itself:
// dataflow is re-walked, shapes are re-derived, slot lifetimes are
// recomputed from the op list, and the integer-path overflow bound is
// recomputed from the actual packed codes through the same
// deploy/overflow.h helpers the simd backend chooses kernels with. Anything
// that rewrites the IR — today's compiler, the ROADMAP's optimizer
// passes — must produce programs that come back clean.
//
// The checks never throw and never read out of bounds on corrupt
// input: structurally invalid slot references are reported and the
// dependent checks for that op are skipped.

#include "deploy/verify.h"

#include <algorithm>
#include <string>

#include "deploy/arena.h"
#include "deploy/overflow.h"
#include "quant/uniform.h"

namespace cq::deploy {

const char* verify_rule_name(VerifyRule rule) {
  switch (rule) {
    case VerifyRule::DefBeforeUse: return "def-before-use";
    case VerifyRule::SingleAssignment: return "single-assignment";
    case VerifyRule::DanglingIn1: return "dangling-in1";
    case VerifyRule::IoSlots: return "io-slots";
    case VerifyRule::Shape: return "shape";
    case VerifyRule::ArenaBounds: return "arena-bounds";
    case VerifyRule::ArenaOverlap: return "arena-overlap";
    case VerifyRule::Alias: return "alias";
    case VerifyRule::IntLayer: return "int-layer";
    case VerifyRule::CodeRange: return "code-range";
    case VerifyRule::Overflow: return "overflow";
    case VerifyRule::Epilogue: return "epilogue";
    case VerifyRule::CodeDomain: return "code-domain";
  }
  return "?";
}

const std::vector<VerifyRule>& all_verify_rules() {
  static const std::vector<VerifyRule> rules = {
      VerifyRule::DefBeforeUse, VerifyRule::SingleAssignment,
      VerifyRule::DanglingIn1,  VerifyRule::IoSlots,
      VerifyRule::Shape,        VerifyRule::ArenaBounds,
      VerifyRule::ArenaOverlap, VerifyRule::Alias,
      VerifyRule::IntLayer,     VerifyRule::CodeRange,
      VerifyRule::Overflow,     VerifyRule::Epilogue,
      VerifyRule::CodeDomain,
  };
  return rules;
}

int VerifyReport::count(VerifyRule rule) const {
  int n = 0;
  for (const PlanDiagnostic& d : diagnostics) n += (d.rule == rule);
  return n;
}

std::string format_diagnostics(const VerifyReport& report) {
  std::string out;
  for (const PlanDiagnostic& d : report.diagnostics) {
    if (d.op >= 0) {
      out += "op #" + std::to_string(d.op);
    } else {
      out += "plan";
    }
    out += " [" + std::string(verify_rule_name(d.rule)) + "]";
    if (d.slot >= 0) out += " slot " + std::to_string(d.slot);
    out += ": " + d.message + "\n";
  }
  return out;
}

namespace {

/// The ops the buffer planner may run in place (output interval ==
/// in0 interval) — the shared deploy/arena.h definition the planner
/// itself allocates with, so planner and proof cannot diverge. The
/// contract is "reads element i strictly before writing element i".
bool elementwise_alias_legal(OpKind kind) { return arena_alias_legal(kind); }

std::string shape_str(const tensor::Shape& shape) {
  return tensor::shape_to_string(shape);
}

class Verifier {
 public:
  explicit Verifier(const ExecutionPlan& plan)
      : plan_(plan),
        num_ops_(static_cast<int>(plan.ops().size())),
        num_slots_(plan.slot_count()) {}

  VerifyReport run() {
    check_dataflow();
    check_shapes();
    check_arena();
    check_integer_path();
    check_epilogue();
    check_code_domain();
    return std::move(report_);
  }

 private:
  static constexpr int kUndefined = -2;  ///< def_ marker: slot never written
  static constexpr int kInputDef = -1;   ///< def_ marker: the plan input

  void add(VerifyRule rule, int op, int slot, std::string message) {
    report_.diagnostics.push_back({rule, op, slot, std::move(message)});
  }

  bool slot_ok(int slot) const { return slot >= 0 && slot < num_slots_; }

  const PlanSlot& slot(int id) const {
    return plan_.slots()[static_cast<std::size_t>(id)];
  }

  /// Rules 1: def-before-use, single-assignment, dangling in1, and
  /// the plan input/output slots. Also computes def_/last_ — the slot
  /// lifetimes every later phase (and the arena proof) runs on.
  void check_dataflow() {
    def_.assign(static_cast<std::size_t>(num_slots_), kUndefined);
    last_.assign(static_cast<std::size_t>(num_slots_), kUndefined);

    const int input = plan_.input_slot();
    if (slot_ok(input)) {
      def_[static_cast<std::size_t>(input)] = kInputDef;
      last_[static_cast<std::size_t>(input)] = kInputDef;
    } else {
      add(VerifyRule::IoSlots, -1, input,
          "input slot id " + std::to_string(input) + " is not a valid slot");
    }

    for (int i = 0; i < num_ops_; ++i) {
      const PlanOp& op = plan_.ops()[static_cast<std::size_t>(i)];
      check_use(i, op.in0, "in0");
      // in1 is the residual operand: present exactly on Add ops and on
      // compute ops carrying a fused ep_add epilogue.
      if (op.kind == OpKind::Add || op.ep_add) {
        if (op.in1 < 0) {
          add(VerifyRule::DanglingIn1, i, op.in1,
              op.kind == OpKind::Add
                  ? "Add op is missing its second input"
                  : "ep_add epilogue is missing its residual operand");
        } else {
          check_use(i, op.in1, "in1");
        }
      } else if (op.in1 >= 0) {
        add(VerifyRule::DanglingIn1, i, op.in1,
            std::string("in1 set on an op that is neither Add nor ep_add (") +
                op_kind_name(op.kind) + ")");
      }
      if (!slot_ok(op.out)) {
        add(VerifyRule::SingleAssignment, i, op.out,
            "output slot id " + std::to_string(op.out) + " is not a valid slot");
      } else if (def_[static_cast<std::size_t>(op.out)] != kUndefined) {
        const int prev = def_[static_cast<std::size_t>(op.out)];
        add(VerifyRule::SingleAssignment, i, op.out,
            "slot is written a second time (first defined by " +
                (prev == kInputDef ? std::string("the plan input")
                                   : "op #" + std::to_string(prev)) +
                ")");
      } else {
        def_[static_cast<std::size_t>(op.out)] = i;
        last_[static_cast<std::size_t>(op.out)] = i;  // dies at birth until read
      }
    }

    const int output = plan_.output_slot();
    if (!slot_ok(output)) {
      add(VerifyRule::IoSlots, -1, output,
          "output slot id " + std::to_string(output) + " is not a valid slot");
    } else {
      if (def_[static_cast<std::size_t>(output)] == kUndefined) {
        add(VerifyRule::IoSlots, -1, output, "output slot is never written");
      }
      // The program result is read after the last op.
      last_[static_cast<std::size_t>(output)] = num_ops_;
      if (slot(output).shape != tensor::Shape{plan_.num_classes()}) {
        add(VerifyRule::IoSlots, -1, output,
            "output slot shape " + shape_str(slot(output).shape) +
                " does not match num_classes " +
                std::to_string(plan_.num_classes()));
      }
    }
    if (slot_ok(input)) {
      if (last_[static_cast<std::size_t>(input)] == kInputDef && input != output) {
        add(VerifyRule::IoSlots, -1, input, "input slot is never read by any op");
      }
      if (slot(input).shape != plan_.sample_shape()) {
        add(VerifyRule::IoSlots, -1, input,
            "input slot shape " + shape_str(slot(input).shape) +
                " does not match sample shape " + shape_str(plan_.sample_shape()));
      }
    }
  }

  /// One operand read: id validity, def-before-use, and the last_
  /// bookkeeping the lifetime phases depend on.
  void check_use(int op_index, int used, const char* operand) {
    if (used < 0) {
      add(VerifyRule::DefBeforeUse, op_index, used,
          std::string("op has no ") + operand + " input");
      return;
    }
    if (!slot_ok(used)) {
      add(VerifyRule::DefBeforeUse, op_index, used,
          std::string(operand) + " slot id " + std::to_string(used) +
              " is not a valid slot");
      return;
    }
    if (def_[static_cast<std::size_t>(used)] == kUndefined ||
        def_[static_cast<std::size_t>(used)] >= op_index) {
      add(VerifyRule::DefBeforeUse, op_index, used,
          std::string(operand) + " reads slot " + std::to_string(used) +
              " before any op defines it");
    }
    last_[static_cast<std::size_t>(used)] =
        std::max(last_[static_cast<std::size_t>(used)], op_index);
  }

  /// Rule 2: shape consistency. Re-derives each op's output shape from
  /// its input shapes and geometry fields and compares against the
  /// recorded slot shapes; also pins slot numel to its shape.
  void check_shapes() {
    for (int s = 0; s < num_slots_; ++s) {
      const PlanSlot& sl = slot(s);
      if (sl.numel != tensor::shape_numel(sl.shape)) {
        add(VerifyRule::Shape, -1, s,
            "slot numel " + std::to_string(sl.numel) + " disagrees with shape " +
                shape_str(sl.shape));
      }
    }
    for (int i = 0; i < num_ops_; ++i) {
      const PlanOp& op = plan_.ops()[static_cast<std::size_t>(i)];
      if (!slot_ok(op.in0) || !slot_ok(op.out)) continue;  // reported above
      check_op_shape(i, op);
    }
  }

  void expect_shape(int op_index, int slot_id, const tensor::Shape& want,
                    const char* what) {
    const tensor::Shape& got = slot(slot_id).shape;
    if (got != want) {
      add(VerifyRule::Shape, op_index, slot_id,
          std::string(what) + " shape " + shape_str(got) +
              " does not re-derive to " + shape_str(want));
    }
  }

  /// Checks that a [C, H, W] op input matches the geometry the op
  /// record carries; returns false (after reporting) when it does not,
  /// so the output re-derivation is not attempted from bad geometry.
  bool expect_chw_input(int op_index, const PlanOp& op) {
    const tensor::Shape want{op.in_c, op.in_h, op.in_w};
    if (slot(op.in0).shape != want) {
      add(VerifyRule::Shape, op_index, op.in0,
          "input shape " + shape_str(slot(op.in0).shape) +
              " disagrees with op geometry " + shape_str(want));
      return false;
    }
    return true;
  }

  void check_op_shape(int i, const PlanOp& op) {
    switch (op.kind) {
      case OpKind::EncodeAct:
      case OpKind::Relu:
        expect_shape(i, op.out, slot(op.in0).shape, "output");
        return;
      case OpKind::Flatten:
        expect_shape(
            i, op.out,
            {static_cast<int>(tensor::shape_numel(slot(op.in0).shape))}, "output");
        return;
      case OpKind::Add:
        if (slot_ok(op.in1)) {
          expect_shape(i, op.in1, slot(op.in0).shape, "second input");
        }
        expect_shape(i, op.out, slot(op.in0).shape, "output");
        return;
      case OpKind::BatchNorm: {
        if (!expect_chw_input(i, op)) return;
        expect_shape(i, op.out, slot(op.in0).shape, "output");
        const auto channels = static_cast<std::size_t>(op.in_c);
        if (op.bn_mean.size() != channels || op.bn_inv_std.size() != channels ||
            op.bn_gamma.size() != channels || op.bn_beta.size() != channels) {
          add(VerifyRule::Shape, i, op.out,
              "batch-norm per-channel vectors do not all have " +
                  std::to_string(op.in_c) + " entries");
        }
        return;
      }
      case OpKind::IntConv:
      case OpKind::FloatConv: {
        if (!expect_chw_input(i, op)) return;
        if (op.kernel <= 0 || op.stride <= 0 || op.pad < 0) {
          add(VerifyRule::Shape, i, op.out, "conv kernel/stride/pad are not valid");
          return;
        }
        const int oh = (op.in_h + 2 * op.pad - op.kernel) / op.stride + 1;
        const int ow = (op.in_w + 2 * op.pad - op.kernel) / op.stride + 1;
        if (oh != op.out_h || ow != op.out_w || oh <= 0 || ow <= 0) {
          add(VerifyRule::Shape, i, op.out,
              "recorded conv output " + std::to_string(op.out_h) + "x" +
                  std::to_string(op.out_w) + " does not re-derive to " +
                  std::to_string(oh) + "x" + std::to_string(ow));
          return;
        }
        expect_shape(i, op.out, {op.out_c, op.out_h, op.out_w}, "output");
        if (op.kind == OpKind::FloatConv) {
          const int patch = op.in_c * op.kernel * op.kernel;
          if (op.weight.shape() != tensor::Shape{op.out_c, patch} ||
              op.bias.size() != static_cast<std::size_t>(op.out_c)) {
            add(VerifyRule::Shape, i, op.out,
                "float conv weight/bias do not match geometry [" +
                    std::to_string(op.out_c) + ", " + std::to_string(patch) + "]");
          }
        }
        return;
      }
      case OpKind::IntLinear:
      case OpKind::FloatLinear: {
        expect_shape(i, op.in0, tensor::Shape{op.in_features}, "input");
        expect_shape(i, op.out, tensor::Shape{op.out_features}, "output");
        if (op.kind == OpKind::FloatLinear &&
            (op.weight.shape() != tensor::Shape{op.out_features, op.in_features} ||
             op.bias.size() != static_cast<std::size_t>(op.out_features))) {
          add(VerifyRule::Shape, i, op.out,
              "float linear weight/bias do not match geometry [" +
                  std::to_string(op.out_features) + ", " +
                  std::to_string(op.in_features) + "]");
        }
        return;
      }
      case OpKind::MaxPool: {
        if (!expect_chw_input(i, op)) return;
        if (op.kernel <= 0 || op.stride <= 0) {
          add(VerifyRule::Shape, i, op.out, "max pool kernel/stride are not valid");
          return;
        }
        const int oh = (op.in_h - op.kernel) / op.stride + 1;
        const int ow = (op.in_w - op.kernel) / op.stride + 1;
        if (op.out_c != op.in_c || oh != op.out_h || ow != op.out_w || oh <= 0 ||
            ow <= 0) {
          add(VerifyRule::Shape, i, op.out,
              "recorded max pool output does not re-derive from its input");
          return;
        }
        expect_shape(i, op.out, {op.out_c, op.out_h, op.out_w}, "output");
        return;
      }
      case OpKind::AvgPool:
        if (!expect_chw_input(i, op)) return;
        expect_shape(i, op.out, tensor::Shape{op.in_c}, "output");
        return;
    }
  }

  /// Rule 3: arena safety. Slot intervals stay inside the arena;
  /// memory-overlapping slots are never simultaneously live; in-place
  /// aliases are exact, elementwise-legal, over a dying in0 only.
  ///
  /// All offsets and sizes here are per sample. The runtime interval
  /// for batch N is [N*offset, N*(offset+numel)): scaling by N is
  /// monotone, so per-sample disjointness (off_a + numel_a <= off_b)
  /// implies disjointness at every batch size, and per-sample equality
  /// stays equality. Checking the per-sample intervals therefore *is*
  /// the symbolic proof for all N.
  void check_arena() {
    const std::size_t arena = plan_.arena_floats();
    for (int s = 0; s < num_slots_; ++s) {
      const PlanSlot& sl = slot(s);
      if (sl.offset + sl.numel > arena) {
        add(VerifyRule::ArenaBounds, -1, s,
            "interval [" + std::to_string(sl.offset) + ", " +
                std::to_string(sl.offset + sl.numel) + ") exceeds arena of " +
                std::to_string(arena) + " floats/sample");
      }
    }

    const auto overlap = [this](int a, int b) {
      const PlanSlot& sa = slot(a);
      const PlanSlot& sb = slot(b);
      return sa.offset < sb.offset + sb.numel && sb.offset < sa.offset + sa.numel;
    };

    // In-place legality of each op's own output vs its inputs.
    std::vector<char> related(
        static_cast<std::size_t>(num_slots_) * static_cast<std::size_t>(num_slots_),
        0);
    const auto relate = [&](int a, int b) {
      related[static_cast<std::size_t>(a) * static_cast<std::size_t>(num_slots_) +
              static_cast<std::size_t>(b)] = 1;
      related[static_cast<std::size_t>(b) * static_cast<std::size_t>(num_slots_) +
              static_cast<std::size_t>(a)] = 1;
    };
    for (int i = 0; i < num_ops_; ++i) {
      const PlanOp& op = plan_.ops()[static_cast<std::size_t>(i)];
      if (!slot_ok(op.out)) continue;
      for (const int in : {op.in0, op.in1}) {
        if (!slot_ok(in)) continue;
        relate(op.out, in);
        if (!overlap(op.out, in)) continue;
        const bool exact = slot(op.out).offset == slot(in).offset &&
                           slot(op.out).numel == slot(in).numel;
        if (!exact) {
          add(VerifyRule::Alias, i, op.out,
              "output interval partially overlaps input slot " + std::to_string(in));
        } else if (!elementwise_alias_legal(op.kind)) {
          add(VerifyRule::Alias, i, op.out,
              std::string("in-place alias on non-elementwise op ") +
                  op_kind_name(op.kind));
        } else if (in != op.in0) {
          add(VerifyRule::Alias, i, op.out,
              "output aliases in1; only in0 may be overwritten in place");
        } else if (last_[static_cast<std::size_t>(in)] > i) {
          add(VerifyRule::Alias, i, op.out,
              "aliased input slot " + std::to_string(in) +
                  " is still read by op #" +
                  std::to_string(last_[static_cast<std::size_t>(in)]));
        }
      }
    }

    // Lifetime disjointness of every unrelated memory-overlapping
    // pair. Live range of a slot: [def op, last read] (the plan input
    // is live from the start; the plan output past the last op).
    for (int a = 0; a < num_slots_; ++a) {
      if (def_[static_cast<std::size_t>(a)] == kUndefined) continue;
      for (int b = a + 1; b < num_slots_; ++b) {
        if (def_[static_cast<std::size_t>(b)] == kUndefined) continue;
        if (related[static_cast<std::size_t>(a) *
                        static_cast<std::size_t>(num_slots_) +
                    static_cast<std::size_t>(b)] != 0) {
          continue;  // producer/consumer pairs are judged by the alias rules
        }
        if (!overlap(a, b)) continue;
        const int live_from = std::max(def_[static_cast<std::size_t>(a)],
                                       def_[static_cast<std::size_t>(b)]);
        const int live_to = std::min(last_[static_cast<std::size_t>(a)],
                                     last_[static_cast<std::size_t>(b)]);
        if (live_from <= live_to) {
          add(VerifyRule::ArenaOverlap, std::max(live_from, 0), a,
              "slots " + std::to_string(a) + " and " + std::to_string(b) +
                  " overlap in the arena while both are live (ops #" +
                  std::to_string(live_from) + "..#" + std::to_string(live_to) +
                  "), at every batch size");
        }
      }
    }
  }

  /// Rule 4: integer-path certification. Layer references and geometry
  /// must match the op records; the payload must be exactly what the
  /// declared widths (each <= 16) need, so every code is readable at
  /// its width (the premise of the overflow bound); and the
  /// accumulator bound — recomputed from the decoded codes through
  /// deploy/overflow.h, the helpers simd::pack_simd chooses kernels
  /// with — must certify int64 safety. The certificate also records
  /// whether the SIMD kernels may run the op (int32) and whether the
  /// maddubs path is licensed (int8).
  void check_integer_path() {
    for (int i = 0; i < num_ops_; ++i) {
      const PlanOp& op = plan_.ops()[static_cast<std::size_t>(i)];
      const bool integer_op =
          op.kind == OpKind::IntConv || op.kind == OpKind::IntLinear;
      if (op.kind == OpKind::EncodeAct || integer_op) {
        // The loader's grid check (quant::activation_grid_error), so a
        // plan built in memory meets the same bar as a loaded artifact.
        if (const std::string why = quant::activation_grid_error(op.act_bits, op.act_hi);
            !why.empty()) {
          add(VerifyRule::IntLayer, i, -1, why);
        }
      }
      if (!integer_op) continue;

      if (op.layer < 0 ||
          op.layer >= static_cast<int>(plan_.integer_layers().size())) {
        add(VerifyRule::IntLayer, i, -1,
            "layer index " + std::to_string(op.layer) + " outside the " +
                std::to_string(plan_.integer_layers().size()) +
                " integer layers of the plan");
        continue;
      }
      const IntegerLayer& layer =
          plan_.integer_layers()[static_cast<std::size_t>(op.layer)];
      const bool conv = op.kind == OpKind::IntConv;
      const std::int64_t want_terms =
          conv ? static_cast<std::int64_t>(op.in_c) * op.kernel * op.kernel
               : op.in_features;
      const std::int32_t want_filters = conv ? op.out_c : op.out_features;
      if (layer.num_filters != want_filters ||
          layer.weights_per_filter != want_terms) {
        add(VerifyRule::IntLayer, i, -1,
            "layer geometry [" + std::to_string(layer.num_filters) + " x " +
                std::to_string(layer.weights_per_filter) +
                "] does not match the op record [" + std::to_string(want_filters) +
                " x " + std::to_string(want_terms) + "]");
      }
      if (layer.num_filters < 0 || layer.weights_per_filter < 0 ||
          layer.filter_bits.size() != static_cast<std::size_t>(layer.num_filters) ||
          layer.bias.size() != layer.filter_bits.size()) {
        add(VerifyRule::IntLayer, i, -1,
            "layer metadata sizes (filter_bits/bias) are inconsistent");
        continue;  // nothing below can index the layer safely
      }
      // A b-bit field cannot hold a larger code, so a payload of exactly
      // the bytes the declared widths need is the whole range proof.
      if (const std::string why = layer.payload_error(); !why.empty()) {
        add(VerifyRule::CodeRange, i, -1,
            why + " — the codes cannot be read at their declared widths");
        continue;  // the certificate below decodes every row
      }

      IntOpCertificate cert;
      cert.op = i;
      cert.layer = op.layer;
      cert.terms = layer.weights_per_filter;
      cert.max_abs_weight = max_abs_centered_code(layer);
      cert.bound = int_reduction_bound(cert.max_abs_weight, op.act_bits, cert.terms);
      cert.fits_int64 =
          int_reduction_fits_int64(cert.max_abs_weight, op.act_bits, cert.terms);
      const bool packable =
          std::all_of(layer.filter_bits.begin(), layer.filter_bits.end(),
                      [](std::uint8_t b) { return b <= 15; });
      cert.int32_fast_path =
          packable &&
          int_reduction_fits_int32(cert.max_abs_weight, op.act_bits, cert.terms);
      // Same helpers simd::pack_simd calls, so these records are by
      // construction the backend's int8-kernel eligibility decisions.
      cert.int8_dot_path =
          packable &&
          int_reduction_fits_int8_dot(cert.max_abs_weight, op.act_bits, cert.terms);
      cert.int8_fast_path =
          packable &&
          int_reduction_fits_int8_madd(cert.max_abs_weight, op.act_bits, cert.terms);
      if (!cert.fits_int64) {
        add(VerifyRule::Overflow, i, -1,
            "accumulator bound " + std::to_string(cert.bound) +
                " (max|w| " + std::to_string(cert.max_abs_weight) + " * act * " +
                std::to_string(cert.terms) +
                " terms) is not certified to fit int64");
      }
      report_.certificates.push_back(cert);
    }
  }

  /// Rule 5: epilogue legality. Fused flags live only on compute ops;
  /// each stage's preconditions mirror the standalone op it replaces
  /// (ep_bn is per-channel over the conv output, ep_add needs a
  /// shape-matched residual operand, ep_encode a well-formed grid).
  void check_epilogue() {
    for (int i = 0; i < num_ops_; ++i) {
      const PlanOp& op = plan_.ops()[static_cast<std::size_t>(i)];
      if (!is_compute_op(op.kind)) {
        if (op.ep_bn || op.ep_add || op.ep_relu || op.ep_encode ||
            op.in_codes) {
          add(VerifyRule::Epilogue, i, -1,
              std::string("epilogue/in_codes flags on non-compute op ") +
                  op_kind_name(op.kind));
        }
        continue;
      }
      if (op.ep_bn) {
        if (op.kind != OpKind::IntConv && op.kind != OpKind::FloatConv) {
          add(VerifyRule::Epilogue, i, -1,
              "ep_bn on a linear op — batch-norm is per-channel over [C, H, W]");
        } else {
          const auto channels = static_cast<std::size_t>(op.out_c);
          if (op.bn_mean.size() != channels ||
              op.bn_inv_std.size() != channels ||
              op.bn_gamma.size() != channels ||
              op.bn_beta.size() != channels) {
            add(VerifyRule::Epilogue, i, -1,
                "ep_bn per-channel vectors do not all have " +
                    std::to_string(op.out_c) + " entries");
          }
        }
      }
      if (op.ep_add && slot_ok(op.in1) && slot_ok(op.out) &&
          slot(op.in1).shape != slot(op.out).shape) {
        add(VerifyRule::Epilogue, i, op.in1,
            "ep_add residual operand shape " + shape_str(slot(op.in1).shape) +
                " does not match the output shape " +
                shape_str(slot(op.out).shape));
      }
      if (op.ep_encode) {
        if (const std::string why = quant::activation_grid_error(op.out_bits, op.out_hi);
            !why.empty()) {
          add(VerifyRule::Epilogue, i, -1, "ep_encode output grid: " + why);
        }
      }
    }
  }

  /// Rule 6: code-domain typing. An ep_encode output holds integer
  /// grid codes (stored as floats); the typing flows through the
  /// code-transparent MaxPool/Flatten and must be consumed exclusively
  /// by in_codes integer ops whose activation grid matches exactly —
  /// anything else would read codes as real values (or re-encode
  /// already-encoded data) and silently change inference bytes.
  void check_code_domain() {
    struct SlotGrid {
      float hi = 0.0f;
      int bits = 0;
      bool codes = false;
    };
    std::vector<SlotGrid> domain(static_cast<std::size_t>(num_slots_));
    for (int i = 0; i < num_ops_; ++i) {
      const PlanOp& op = plan_.ops()[static_cast<std::size_t>(i)];
      const bool integer_op =
          op.kind == OpKind::IntConv || op.kind == OpKind::IntLinear;
      if (slot_ok(op.in0)) {
        const SlotGrid in = domain[static_cast<std::size_t>(op.in0)];
        const bool transparent =
            op.kind == OpKind::MaxPool || op.kind == OpKind::Flatten;
        if (in.codes) {
          if (integer_op && op.in_codes) {
            if (in.hi != op.act_hi || in.bits != op.act_bits) {
              add(VerifyRule::CodeDomain, i, op.in0,
                  "code-typed input grid (" + std::to_string(in.hi) + ", " +
                      std::to_string(in.bits) +
                      "b) does not match the op's activation grid (" +
                      std::to_string(op.act_hi) + ", " +
                      std::to_string(op.act_bits) + "b)");
            }
          } else if (!transparent) {
            add(VerifyRule::CodeDomain, i, op.in0,
                std::string("code-typed slot consumed by ") +
                    op_kind_name(op.kind) +
                    " which expects real activation values");
          }
        } else if (integer_op && op.in_codes) {
          add(VerifyRule::CodeDomain, i, op.in0,
              "in_codes set but in0 does not hold grid codes");
        }
      }
      if (slot_ok(op.in1) && domain[static_cast<std::size_t>(op.in1)].codes) {
        add(VerifyRule::CodeDomain, i, op.in1,
            "code-typed slot used as a residual operand");
      }
      if (!slot_ok(op.out)) continue;
      SlotGrid out;
      if (is_compute_op(op.kind) && op.ep_encode) {
        out = {op.out_hi, op.out_bits, true};
      } else if ((op.kind == OpKind::MaxPool || op.kind == OpKind::Flatten) &&
                 slot_ok(op.in0)) {
        out = domain[static_cast<std::size_t>(op.in0)];
      }
      domain[static_cast<std::size_t>(op.out)] = out;
    }
    const int output = plan_.output_slot();
    if (slot_ok(output) && domain[static_cast<std::size_t>(output)].codes) {
      add(VerifyRule::CodeDomain, -1, output,
          "the plan output slot holds grid codes, not class scores");
    }
  }

  const ExecutionPlan& plan_;
  const int num_ops_;
  const int num_slots_;
  std::vector<int> def_;   ///< defining op per slot (kInputDef / kUndefined)
  std::vector<int> last_;  ///< last reading op per slot (num_ops_ for output)
  VerifyReport report_;
};

}  // namespace

VerifyReport verify_plan(const ExecutionPlan& plan) {
  return Verifier(plan).run();
}

}  // namespace cq::deploy
