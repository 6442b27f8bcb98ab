#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "deploy/plan.h"

namespace cq::deploy {

/// The invariant catalog verify_plan() proves. Every rule is a
/// property the buffer planner, the interpreter, and the backends
/// *assume*; any IR producer (compile_plan today, the optimizer passes
/// the ROADMAP plans) must hand over programs that verify clean.
enum class VerifyRule {
  DefBeforeUse,      ///< every operand slot is defined before the op reads it
  SingleAssignment,  ///< each slot is written by at most one op (SSA values)
  DanglingIn1,       ///< in1 is present exactly on Add ops and ep_add epilogues
  IoSlots,           ///< plan input/output slots exist, are reachable, match
                     ///  sample_shape / num_classes
  Shape,             ///< each op's output shape re-derives from its inputs
  ArenaBounds,       ///< every slot interval lies inside arena_floats
  ArenaOverlap,      ///< memory-overlapping slots are never simultaneously
                     ///  live (per-sample intervals; scaling offsets and
                     ///  sizes linearly by the batch preserves the proof)
  Alias,             ///< in-place output aliasing is exact, elementwise-legal,
                     ///  and only over an in0 that dies at the op
  IntLayer,          ///< integer ops reference a real IntegerLayer whose
                     ///  geometry and metadata match the op record, and
                     ///  they and EncodeAct ops encode onto a usable grid
                     ///  (quant::activation_grid_error)
  CodeRange,         ///< the packed payload is exactly the bytes the declared
                     ///  widths (each <= 16) need, so every code is read at
                     ///  its width (the premise of the overflow bound)
  Overflow,          ///< the recomputed accumulator bound certifies int64
                     ///  safety (and fixes the int32 fast-path decision)
  Epilogue,          ///< fused epilogue flags only on compute ops, with legal
                     ///  stages (ep_bn conv-only with out_c channel vectors,
                     ///  ep_add shape-matched, ep_encode a well-formed grid)
  CodeDomain,        ///< slots holding grid codes (ep_encode outputs, tracked
                     ///  through MaxPool/Flatten) are consumed only by
                     ///  in_codes integer ops on the identical grid — the
                     ///  rescale-composition exactness propagation relies on
};

/// Stable kebab-case rule mnemonic ("def-before-use", "arena-overlap",
/// ...) used in diagnostics, tables, and the mutation tests.
const char* verify_rule_name(VerifyRule rule);

/// Every rule, in catalog order — for "N rules checked" listings.
const std::vector<VerifyRule>& all_verify_rules();

/// One finding: which rule broke, where, and a human explanation.
struct PlanDiagnostic {
  VerifyRule rule = VerifyRule::DefBeforeUse;
  int op = -1;    ///< offending op index; -1 for plan-level findings
  int slot = -1;  ///< primary slot involved; -1 when not slot-specific
  std::string message;
};

/// Overflow certificate of one integer op: the bound recomputed from
/// the codes decoded out of the layer's bitstream via
/// deploy/overflow.h — the same helpers simd::pack_simd chooses
/// kernels with, so the fast-path flags recorded here are by
/// construction the decisions the backend takes.
struct IntOpCertificate {
  int op = -1;
  int layer = -1;                  ///< PlanOp::layer
  std::int32_t max_abs_weight = 0; ///< max |centered doubled code|
  std::int64_t terms = 0;          ///< reduction length per output
  std::int64_t bound = 0;          ///< worst-case |accumulator| (saturated)
  bool fits_int64 = false;         ///< scalar kernels' accumulator is exact
  /// The SIMD kernels' int32 accumulator is exact for this op; when
  /// false, SimdBackend delegates it to the scalar int64 reference.
  bool int32_fast_path = false;
  /// SimdBackend's vpdpbusd int8 path (the vnni tier) and, for convs,
  /// its tdpbusd tiles (the amx tier) are proven exact for this op
  /// (int_reduction_fits_int8_dot — u8 activations, s8 weights, the
  /// int32 bound); implies int32_fast_path.
  bool int8_dot_path = false;
  /// SimdBackend's maddubs int8 path is proven exact for this op
  /// (int_reduction_fits_int8_madd — the saturating pair sum cannot be
  /// reached); implies int8_dot_path.
  bool int8_fast_path = false;
};

struct VerifyReport {
  std::vector<PlanDiagnostic> diagnostics;
  /// One certificate per IntConv/IntLinear op, in op order (emitted
  /// even when the op also has findings, as far as it is computable).
  std::vector<IntOpCertificate> certificates;

  bool clean() const { return diagnostics.empty(); }
  int count(VerifyRule rule) const;
};

/// "op #3 [arena-overlap] slot 7: ..." lines, one per finding; empty
/// string for a clean report. The table-rendering callers (cqar_info,
/// cqar_verify) format the fields themselves.
std::string format_diagnostics(const VerifyReport& report);

/// Statically analyzes a compiled plan and returns every invariant
/// violation found (never throws on malformed plans — a corrupt plan
/// is the expected input). Checks are ordered so structural breakage
/// (bad slot ids) suppresses the dependent shape/arena checks of the
/// same op instead of reading out of bounds.
///
/// compile_plan() runs this in debug builds and aborts on findings;
/// optimize_plan() after every pass; every serve::EngineSession on the
/// plan it is built over, refusing a failing plan with ArtifactError;
/// tools/cqar_verify gates CI with it.
VerifyReport verify_plan(const ExecutionPlan& plan);

}  // namespace cq::deploy
