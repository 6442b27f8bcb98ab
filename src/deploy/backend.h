#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "deploy/cpu_features.h"
#include "deploy/int_engine.h"
#include "deploy/plan.h"
#include "quant/uniform.h"
#include "util/exec_context.h"

namespace cq::deploy {

/// Per-op input/output pointers resolved by the interpreter: arena
/// slot addresses for the current batch. `in1` is non-null only for
/// ops with a second input (residual Add).
struct BackendIo {
  const float* in0 = nullptr;
  const float* in1 = nullptr;
  float* out = nullptr;
  int batch = 1;
};

/// Caller-owned scratch a backend kernel may use, reused across
/// requests so steady-state serving allocates nothing per op: the
/// activation-code buffer, the integer im2col patch matrix, and the
/// float im2col patch matrix. One BackendScratch per interpreter
/// context; it starts empty, and each kernel grows the buffers it
/// uses to the op's need, so a default-constructed scratch is valid.
struct BackendScratch {
  ActCodes codes;
  std::vector<std::int32_t> int_cols;
  std::vector<float> float_cols;
  /// SimdBackend's zero-padded, position-major code image
  /// (simd::conv_forward_into, simd::linear_forward_into), which
  /// replaces both `codes` and `int_cols` on its path; capacity is
  /// retained across ops.
  std::vector<std::uint32_t> code_image;
  /// SimdBackend's zero-padded, channel-major float image of a stride-1
  /// FloatConv's input at the tiers with AVX2, which replaces
  /// `float_cols` on that path; capacity is retained across ops.
  std::vector<float> float_image;
};

/// Kernel-dispatch seam of the deployment runtime.
///
/// serve::EngineSession's interpreter never calls a kernel directly:
/// every PlanOp is handed to Backend::run, which picks *how* the op
/// executes while the plan fixes *what* it computes. This is the
/// paper's "uniform codes run on existing processors directly" claim
/// made concrete — swapping the backend swaps the execution strategy
/// (scalar reference, explicit SIMD, a future accelerator-specific
/// variant) without touching compilation, scheduling, or serving.
///
/// Contract:
///  - prepare(plan) is called exactly once before any run() against
///    that plan. Backends build plan-derived state there (weight
///    layouts decoded from the plan's bitstreams); it is the only
///    place a backend may mutate itself.
///  - run() is const and must be safe to call concurrently from any
///    number of interpreter contexts (prepare()-built state is
///    read-only at run time; per-call mutable state lives in the
///    caller's BackendScratch).
///  - Byte-identity: integer ops (IntConv/IntLinear) accumulate in
///    exact int64 arithmetic, so a backend may retile, reorder or
///    block them freely as long as the final per-output float rescale
///    `weight_scale(k) * act_scale * acc + bias` is computed with the
///    same expressions — outputs must be byte-identical to
///    ScalarBackend. Float ops (FloatConv/FloatLinear, stem/head) keep
///    the scalar reference's arithmetic for each output or delegate to
///    it. For a FloatConv that is im2col + tensor::gemm's sum + bias:
///    the im2col rows p = c * k^2 + ky * k + kx summed in ascending
///    order from a +0.0 accumulator, each term the product x * w added
///    to it (multiply, then add: never FMA) as add_keeping_nan(product,
///    sum), so a NaN product keeps its own payload (gemm's `+=` leaves
///    that to the compiler; ScalarBackend sums each NaN output again by
///    the rule), a zero or -0.0 weight skipped for its own filter only
///    (masking its product to +0.0 is exact: a sum that starts at +0.0
///    is never -0.0), padding multiplied through as +0.0 (0 * inf is
///    NaN), and the bias added after the sum as add_keeping_nan(sum,
///    bias) (unconditionally is exact, for the same reason). Which
///    payload a NaN-times-NaN product keeps is not defined: GCC's
///    vectorized loop keeps x's in its vector body and w's in its odd
///    remainder lane. MaxPool keeps `if (v > best) best = v`
///    from -inf in (ky, kx) order, which is maxps(v, best) lane for
///    lane, NaN and +-0 ties included.
class Backend {
 public:
  virtual ~Backend() = default;

  /// Stable lowercase identifier ("scalar", "simd") used by CLI
  /// flags, bench JSON records and listings.
  virtual const char* name() const = 0;

  /// One-time hook after plan compilation: build any packed/retiled
  /// weight layout the kernels want. Default: no preparation.
  virtual void prepare(const ExecutionPlan& plan);

  /// Executes one op record for a batch of io.batch samples.
  virtual void run(const PlanOp& op, const ExecutionPlan& plan, const BackendIo& io,
                   BackendScratch& scratch, const util::ExecContext& exec) const = 0;

  /// Which implementation actually runs `op` ("scalar" for delegated
  /// ops) — introspection for cqar_info's plan listing. Default: name().
  virtual const char* dispatch(const PlanOp& op) const;

  /// Bytes of backend-owned prepared state (packed panels, retiled
  /// weights) built by prepare() — memory-footprint introspection for
  /// the observability layer. Default: 0 (stateless backends).
  virtual std::size_t prepared_bytes() const { return 0; }
};

/// Intra-op thread grain shared by the backends. Waking a pool helper
/// costs from ~10 us on an idle host to ~100 us on a busy shared one,
/// so a kernel only spreads over as many threads as get at least this
/// much work each, and an op too small to gain runs on the calling
/// thread (util::ExecContext::capped). MACs for the conv and linear
/// kernels (~50 us of avx2-i8 work), elements for the elementwise
/// passes (activation encode, fused epilogue).
inline constexpr std::int64_t kMinMacsPerThread = std::int64_t{1} << 21;
inline constexpr std::int64_t kMinElementsPerThread = std::int64_t{1} << 17;

/// Arena bytes one execution of `op` touches *per sample*: the slot
/// intervals it reads (in0, and in1 for Add) plus the one it writes.
/// The obs::PlanProfiler multiplies by the samples actually served to
/// report per-op memory traffic next to per-op time; scratch buffers
/// (im2col, activation codes) are backend-internal and excluded.
std::size_t op_arena_bytes(const PlanOp& op, const ExecutionPlan& plan);

/// Multiply-accumulates one execution of `op` performs *per sample*:
/// out_c * out_h * out_w * in_c * kernel^2 for a conv (integer or
/// float), in_features * out_features for a linear layer, 0 for every
/// other op. The obs::PlanProfiler reports it next to per-op time, so
/// GMAC/s shows layer by layer how far each kernel runs from its MACs.
std::uint64_t op_macs(const PlanOp& op);

/// v + x, except that a NaN v keeps its own payload: the float add of
/// the Add op, the fused residual add and a FloatConv's sum and bias.
/// An add of two NaNs returns one operand's payload, and GCC treats
/// float + as commutative and emits either operand order, so a plain
/// add would leave which one to the compiler. A NaN v is added to +0.0
/// instead of x, so no add ever meets two NaNs. The select picks an
/// operand, not a result, so GCC vectorizes it (compare, and, add) and
/// needs no branch for one element; `v != v ? v : v + x` it does not
/// vectorize.
inline float add_keeping_nan(float v, float x) { return v + (v != v ? 0.0f : x); }

/// An Epilogue's post-BN stages as compile-time flags: a loop
/// instantiated for one set runs no per-element branch on them.
template <bool kAdd, bool kRelu, bool kEncode>
struct TailStages {
  static constexpr bool add = kAdd;
  static constexpr bool relu = kRelu;
  static constexpr bool encode = kEncode;
};

/// A compute op's fused elementwise tail (PlanOp::ep_*), resolved once
/// per run() from the op and its BackendIo: which stages run, the
/// per-channel BatchNorm vectors, the residual (io.in1, laid out as the
/// output) and the output grid. The stages are the standalone
/// BatchNorm, Add, Relu and EncodeAct ops' expressions, in that order;
/// every stage maps element i from element i alone, so a kernel may
/// finish each output where it rescales it and stay byte-identical to
/// running the deleted ops one by one (the fused add and the standalone
/// Add op both pin which payload a NaN-plus-NaN sum keeps:
/// add_keeping_nan). Default-constructed: no stages.
struct Epilogue {
  Epilogue() = default;
  Epilogue(const PlanOp& op, const BackendIo& io);

  bool empty() const { return !bn && !add && !relu && !encode; }

  /// The stages, one element at a time: the reference expressions every
  /// backend's epilogue reproduces (a vector kernel in the same float
  /// operations — multiply, then add, never FMA).
  static float batch_norm(float v, float mean, float inv_std, float gamma, float beta) {
    const float xh = (v - mean) * inv_std;
    return gamma * xh + beta;
  }
  static float rectify(float v) { return v > 0.0f ? v : 0.0f; }
  float to_grid(float v) const {
    return static_cast<float>(quant::activation_code(v, out_hi, to_code));
  }

  /// Runs body(TailStages<add, relu, encode>{}) for this epilogue's
  /// post-BN stages.
  template <typename Body>
  void with_tail_stages(Body&& body) const {
    switch ((add ? 4 : 0) | (relu ? 2 : 0) | (encode ? 1 : 0)) {
      case 0: body(TailStages<false, false, false>{}); return;
      case 1: body(TailStages<false, false, true>{}); return;
      case 2: body(TailStages<false, true, false>{}); return;
      case 3: body(TailStages<false, true, true>{}); return;
      case 4: body(TailStages<true, false, false>{}); return;
      case 5: body(TailStages<true, false, true>{}); return;
      case 6: body(TailStages<true, true, false>{}); return;
      default: body(TailStages<true, true, true>{}); return;
    }
  }

  /// The post-BN stages of `Stages` for one element; `residual` (its in1
  /// element) is used only with Stages::add.
  template <typename Stages>
  float tail(float v, float residual) const {
    if constexpr (Stages::add) v = add_keeping_nan(v, residual);
    if constexpr (Stages::relu) v = rectify(v);
    if constexpr (Stages::encode) v = to_grid(v);
    return v;
  }


  /// The whole epilogue for one output element `v` of channel `c`, the
  /// stages chosen at run time; `residual` points at its in1 element and
  /// is read only with `add`.
  float operator()(float v, std::size_t c, const float* residual) const {
    if (bn) v = batch_norm(v, mean[c], inv_std[c], gamma[c], beta[c]);
    if (add) v = add_keeping_nan(v, *residual);
    if (relu) v = rectify(v);
    if (encode) v = to_grid(v);
    return v;
  }

  bool bn = false, add = false, relu = false, encode = false;
  const float* mean = nullptr;  ///< BatchNorm vectors, one float per channel
  const float* inv_std = nullptr;
  const float* gamma = nullptr;
  const float* beta = nullptr;
  const float* residual = nullptr;  ///< io.in1, element i beside output i
  float out_hi = 0.0f;   ///< output grid clip bound (encode)
  float to_code = 0.0f;  ///< (levels - 1) / out_hi (encode)
};

/// The reference pass of a compute op's Epilogue: in place on io.out
/// (batch x out_numel_per_sample elements), one read-modify-write per
/// element, chunked over `exec`. ScalarBackend finishes every compute
/// op with it; SimdBackend's kernels apply the same expressions in
/// their stores instead. No-op when the op carries no epilogue flags.
void apply_epilogue(const PlanOp& op, const BackendIo& io,
                    std::size_t out_numel_per_sample,
                    const util::ExecContext& exec = {});

/// The registered backend implementations.
enum class BackendKind { Scalar, Simd };

/// Stable name of a kind ("scalar", "simd").
const char* backend_kind_name(BackendKind kind);

/// Parses a backend name; throws std::invalid_argument naming the
/// known backends on anything else.
BackendKind parse_backend_kind(const std::string& name);

/// All registered kinds, for sweeps and usage strings.
const std::vector<BackendKind>& all_backend_kinds();

/// Constructs a fresh backend instance (prepare() not yet called).
std::unique_ptr<Backend> make_backend(BackendKind kind);

/// The byte-exact reference: the int_engine / tensor-ops kernels the
/// plan interpreter originally hard-wired, moved behind the seam
/// unchanged. Stateless — prepare() is a no-op.
class ScalarBackend : public Backend {
 public:
  const char* name() const override { return "scalar"; }
  void run(const PlanOp& op, const ExecutionPlan& plan, const BackendIo& io,
           BackendScratch& scratch, const util::ExecContext& exec) const override;
};

namespace simd {

/// Filters per packed panel: the vector kernels load one panel row of
/// this many filters' weight words — one ymm of int32 lanes — and
/// multiply it against one broadcast activation word per output
/// position or sample, so each weight word is loaded once per block of
/// positions instead of once per position.
inline constexpr int kFilterTile = 8;

/// The MAC kernel an integer layer runs on. pack_simd decides it once,
/// from the tier, the layer's weights and the op's activation width,
/// and packs only the layout that kernel reads; the kernels and the
/// dispatch label both read this field, so they cannot disagree. Every
/// vector kernel is the same MAC loop, for convs and linear layers
/// alike, instantiated with a per-kernel MAC policy (vector type, load,
/// broadcast, multiply-add, transpose, rescaling store), so kernels
/// differ only in those instructions; kAmxI8 runs convs as tiles.
enum class Kernel {
  kScalar,   ///< no panels: the op delegates to ScalarBackend
  kAmxI8,    ///< AMX tdpbusd 16x16 int32 tiles over uint8 x int8 codes
             ///  (convolutions only)
  kVnniI8,   ///< _mm256_dpbusd_avx_epi32 over uint8 x int8 code quads
  kAvx2I8,   ///< _mm256_maddubs_epi16 over uint8 x int8 code quads
  kAvx2I16,  ///< _mm256_madd_epi16 over int16 code pairs
  kSse2I16,  ///< baseline-SSE2 pmaddwd over int16 code pairs (x86-64)
  kGeneric,  ///< GCC vector extensions over int32 codes (other ISAs,
             ///  and 16-bit activation codes everywhere)
};

/// Dispatch label of a kernel: "simd/amx", "simd/vnni", "simd/avx2-i8",
/// "simd/avx2", "simd/portable" (SSE2 and generic), or "scalar".
const char* kernel_label(Kernel kernel);

/// Codes one 32-bit word holds for `kernel`, in its activation code
/// image and its weight panels alike: 4 (uint8 activations, int8
/// weights) for kAmxI8 and the quad kernels kVnniI8 and kAvx2I8, 2 int16 for the
/// pair kernels, 1 int32 for kGeneric, 0 for kScalar. The word is what
/// one multiply-add lane of the kernel consumes.
int codes_per_word(Kernel kernel);

/// Backend-owned packed weights of one IntegerLayer: centered doubled
/// weight codes (2q - (levels-1), the value the MAC loops multiply by),
/// tap-major and channel-grouped to match the activation code image,
///
///   panels[tile][tap][group][f] = the word holding the codes of
///   filter tile * kFilterTile + f for channels group * g .. + g - 1
///   at kernel tap (ky, kx), tap = ky * kernel + kx,
///
/// with g = codes_per_word(kernel). Kernel row ky's panel rows are thus
/// word q = kx * ceil(C / g) + group of the run of k pixels an output
/// position reads from the image, in image order: a kernel multiplies
/// each panel row against that word of each position's run. Tail
/// filters (filters % tile), tail channels (channels % g) and pruned
/// (0-bit) rows stay zero (exact: 0 * anything = 0), so they cost no
/// branch in the hot loop; pruned filters also get scale = bias = 0. A
/// linear layer is the 1x1 case: one tap, one channel per input
/// feature.
///
/// kAmxI8 packs B tiles instead, in the VNNI order tdpbusd reads:
///
///   panels[block][ky][row][f] = the word holding bytes 4 row .. 4 row + 3
///   of kernel row ky's run for filter block * 16 + f,
///
/// where a kernel row's run is its kernel x pixel bytes, byte
/// kx * pixel + c, with pixel = channels rounded up to a multiple of 4 —
/// the bytes one output position reads from the position-major code
/// image. The run splits into ceil(run / 64) equal K-chunks of at most
/// 64 bytes (a multiple of 4: one A-tile row); rows past the run and
/// channels past `channels` hold zero weights.
struct PackedSimd {
  Kernel kernel = Kernel::kScalar;
  /// Widest activation code the kernel is certified for; the kernels
  /// refuse wider codes (a narrower grid only shrinks the bound).
  int act_bits = 0;
  std::int32_t num_filters = 0;
  std::int64_t weights_per_filter = 0;
  int taps = 1;      ///< kernel * kernel (1 for linear layers)
  int channels = 0;  ///< weights_per_filter / taps
  std::int32_t max_abs_weight = 0;  ///< shared overflow-bound input
  std::vector<std::uint32_t> panels;  ///< [tiles][taps][groups][tile] words
                                      ///  (kAmxI8: [blocks][ky][rows][16])
  std::vector<float> weight_scales;   ///< per-filter; 0 if pruned
  std::vector<float> out_bias;        ///< per-filter; forced 0 if pruned

  /// Bytes held: the panels plus the rescale vectors.
  std::size_t bytes() const;
};

/// The op a layer is packed for: a kernel x kernel convolution or a
/// linear layer. A 1x1 conv and a linear layer read the same channel
/// panels on every tier but amx, whose tile kernel runs convolutions
/// only.
struct OpShape {
  static OpShape conv(int kernel) { return OpShape{true, kernel}; }
  static OpShape linear() { return OpShape{false, 1}; }
  bool is_conv = false;
  int kernel = 1;
};

/// Chooses the kernel for `layer` fed `act_bits`-bit activation codes
/// at `tier` for an op of `shape`, and packs the panels it reads
/// (prepare() time only). kScalar — no panels — when a filter has more
/// than 15 bits (centered codes overflow int16) or the reduction is not
/// certified for the int32 accumulator (deploy/overflow.h). Throws
/// std::invalid_argument when weights_per_filter is not a whole number
/// of kernel x kernel taps.
PackedSimd pack_simd(const IntegerLayer& layer, SimdTier tier, int act_bits, OpShape shape);

/// The float activations an integer op reads and the [0, hi] x bits
/// grid they are adopted onto: raw activations are clamped and rounded
/// exactly as encode_activations_into does (NaN -> code 0); in_codes
/// inputs already hold grid codes (an ep_encode producer wrote them)
/// and are cast, as cast_codes_into does.
struct ActGrid {
  float hi = 0.0f;
  int bits = 0;
  bool in_codes = false;
};

/// Explicit-SIMD integer convolution on packed.kernel over float
/// activations [batch][in_c][height][width]. One pass adopts them into
/// `image` — a zero-padded, position-major code image, [height + 2 pad]
/// [width + 2 pad][ceil(in_c / g)] words per sample at g =
/// codes_per_word codes each — and every kernel reads it in place: no
/// im2col, no intermediate int32 codes. An output position reads, per
/// kernel row, one contiguous run of kernel x ceil(in_c / g) words. The
/// vector kernels multiply each panel row against that word of 8
/// output positions of one row (4 on SSE2) and transpose the sums into
/// the filter-major output; kAmxI8 loads each A tile — 16 output
/// positions of one output row, one K-chunk each — from it in place at
/// a stride of stride x pixel bytes. Throws std::logic_error for a
/// kScalar pack, a kAmxI8 pack on a CPU without the amx tier, or a grid
/// wider than packed.act_bits. Each output is written once, finished
/// with `epilogue` (filter k is channel k; the residual is read only for
/// the outputs stored) where the kernel rescales it. Integer sums are
/// exact and the rescale and the epilogue are the scalar reference's
/// expressions, so outputs are byte-identical to encode/cast +
/// integer_conv_forward_into + apply_epilogue at every tier and thread
/// count. Chunks over (sample, output rows) tasks of a minimum MAC
/// count, so ops too small to repay a thread dispatch run on the
/// calling thread. `out` must not overlap `acts` or the residual.
void conv_forward_into(const PackedSimd& packed, const float* acts, ActGrid grid,
                       int batch, int in_c, int height, int width, int kernel,
                       int stride, int pad, float* out,
                       std::vector<std::uint32_t>& image,
                       const util::ExecContext& exec = {}, const Epilogue& epilogue = {});

/// Explicit-SIMD fully-connected kernel over float activations
/// [batch][in_features]: the same adoption writes each sample's codes
/// as the 1 x 1 image of in_features channels, and the vector loop
/// multiplies each panel row against up to 4 samples' words at a time.
/// Same requirements, epilogue (output feature k is channel k) and
/// byte-identity contract as conv_forward_into; a pack made for a
/// convolution on the amx tier is refused (std::invalid_argument).
void linear_forward_into(const PackedSimd& packed, const float* acts, ActGrid grid,
                         int batch, int in_features, float* out,
                         std::vector<std::uint32_t>& image,
                         const util::ExecContext& exec = {}, const Epilogue& epilogue = {});

/// A stride-1 FloatConv's weights as 8-filter float panels, packed once
/// in prepare(): panels[tile][p][f] is filter tile * kFilterTile + f's
/// weight at im2col row p = c * k^2 + ky * k + kx, the order its sum
/// runs in (tail filters zero, never stored). `out` is the op's output
/// slot, which names the op: a verified plan assigns each slot once.
struct FloatPanels {
  int out = -1;
  std::vector<float> panels;
};

/// Where the amx conv's tile loads land, for a conv of this geometry
/// over `batch` samples: the bytes conv_forward_into allocates for the
/// position-major image (the samples plus zeroed slack) and one past
/// the last byte its A-tile addressing reads. AddressSanitizer does not
/// instrument tileloadd, so backend_test proves read_end <= image_bytes
/// over the conv sweep's geometries instead.
struct TileImageBounds {
  std::size_t image_bytes = 0;
  std::size_t read_end = 0;
};
TileImageBounds tile_image_bounds(int batch, int in_c, int height, int width, int kernel,
                                  int stride, int pad);

}  // namespace simd

/// Explicit-SIMD backend: IntConv/IntLinear, with their fused
/// epilogues, run hand-scheduled
/// AVX2 kernels (_mm256_madd_epi16 int16 pairs; _mm256_maddubs_epi16
/// int8 quads when the shared overflow bound proves saturation
/// impossible; on AVX-VNNI CPUs _mm256_dpbusd_avx_epi32 int8 quads
/// wherever the int32 bound holds, and on AMX-INT8 CPUs tdpbusd tiles
/// for those convolutions) on CPUs that have AVX2, portable
/// kernels everywhere else
/// (baseline-SSE2 pmaddwd on x86-64, GCC vector extensions otherwise),
/// and delegate a layer to the scalar reference when its filters are
/// wider than 15 bits or its int32 accumulator is not certified. On
/// CPUs that have AVX2 three float ops run in the backend too: a
/// stride-1 FloatConv (the stem over the raw image) as one AVX2 loop
/// over a zero-padded float image and 8-filter float panels, its
/// epilogue in the store; MaxPool as maxps; EncodeAct as one AVX2 pass.
/// FloatLinear, AvgPool, strided FloatConvs, the elementwise ops, and
/// every op but the integer ones at the portable tier run the scalar
/// reference. The
/// tier is resolved by runtime CPUID at construction — one binary,
/// every x86 — and every tier is byte-identical to ScalarBackend
/// (backend_test pins each reachable tier).
class SimdBackend : public ScalarBackend {
 public:
  SimdBackend() : tier_(resolve_simd_tier()) {}

  const char* name() const override { return "simd"; }
  /// Packs each integer layer once, for the activation width and the
  /// shape of the op that reads it, and at the tiers with AVX2 each
  /// stride-1 FloatConv's float panels.
  void prepare(const ExecutionPlan& plan) override;
  void run(const PlanOp& op, const ExecutionPlan& plan, const BackendIo& io,
           BackendScratch& scratch, const util::ExecContext& exec) const override;
  /// The op's simd::kernel_label ("simd/amx", "simd/vnni", "simd/avx2-i8",
  /// "simd/avx2", "simd/portable"), "simd/avx2" for EncodeAct, MaxPool and
  /// a packed FloatConv at the tiers with AVX2, or "scalar" for delegated
  /// ops — the resolved ISA cqar_info's dispatch column and the plan
  /// profiler rows show.
  const char* dispatch(const PlanOp& op) const override;
  /// One packed layout per integer layer, plus the float panels.
  std::size_t prepared_bytes() const override;

  /// The tier this instance resolved at construction.
  SimdTier tier() const { return tier_; }

 private:
  SimdTier tier_;
  std::vector<simd::PackedSimd> packed_;  ///< by PlanOp::layer
  std::vector<simd::FloatPanels> float_panels_;  ///< one per packed FloatConv
  /// The panels of `op`, or null when it runs the scalar reference.
  const simd::FloatPanels* float_panels(const PlanOp& op) const;
  /// Identity of the plan prepare() packed for; run() refuses any
  /// other plan (same-sized layer lists would otherwise silently
  /// execute with the wrong weights).
  const ExecutionPlan* prepared_for_ = nullptr;
};

}  // namespace cq::deploy
