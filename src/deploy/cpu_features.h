#pragma once

// Runtime CPU capability detection and SIMD-tier resolution for
// deploy::SimdBackend — the "one binary runs everywhere" half of the
// explicit-SIMD story. Kernels compiled for a specific ISA (AVX2 and
// AVX-VNNI via the GCC/clang `target` attribute) may only be *called*
// after this module has proven at runtime that the CPU executes them;
// everything below AVX2 lands on the portable kernels (baseline-SSE2
// pmaddwd on x86-64, GCC vector extensions elsewhere). Running without
// explicit SIMD is a backend choice (--backend=scalar), not a tier.

#include <string>

namespace cq::deploy {

/// What the CPU we are running on actually supports, probed once via
/// CPUID (through __builtin_cpu_supports) and cached for the process.
struct CpuFeatures {
  bool x86 = false;       ///< compiled for x86/x86-64 at all
  bool sse42 = false;
  bool avx = false;
  bool avx2 = false;
  bool avxvnni = false;   ///< AVX-VNNI: the VEX-encoded ymm vpdpbusd
  bool fma = false;       ///< detected but never used on the integer
                          ///  byte-identity paths (FMA changes rounding)
  bool avx512bw = false;  ///< reported for telemetry; no kernels yet
};

/// The cached probe (first call runs CPUID; later calls are free).
const CpuFeatures& cpu_features();

/// Execution tiers of the explicit-SIMD backend, ordered by
/// capability. Portable = kernels legal on every CPU the binary runs
/// on without a runtime check (baseline-SSE2 pmaddwd on x86-64, GCC
/// vector extensions elsewhere); Avx2 = hand-scheduled AVX2 intrinsic
/// kernels, legal only when cpu_features().avx2; Vnni = Avx2 plus the
/// vpdpbusd int8 dot-product kernel, legal only when avx2 and avxvnni
/// both hold. A CPU with AVX512-VNNI but no AVX-VNNI (the VEX form)
/// stays on Avx2.
enum class SimdTier { kPortable = 0, kAvx2 = 1, kVnni = 2 };

/// Stable lowercase tier name: "portable", "avx2", "vnni".
const char* simd_tier_name(SimdTier tier);

/// Highest tier this CPU can execute (never consults overrides):
/// kVnni when CPUID reports AVX2 and AVX-VNNI, kAvx2 when it reports
/// AVX2 alone, else kPortable. This is the
/// "runtime dispatch" decision — the same binary resolves differently
/// on different machines.
SimdTier max_supported_simd_tier();

/// The tier SimdBackend instances constructed *now* will use:
/// min(max_supported, requested), where requested comes from the
/// forced override (tests) if set, else the CQ_SIMD environment
/// variable ("portable", "avx2", "vnni", "auto"/unset), else the
/// maximum.
/// Unrecognized CQ_SIMD values ("off" included) fall back to "auto" so
/// a typo degrades to the fastest correct tier instead of crashing.
SimdTier resolve_simd_tier();

/// Test hook: pin resolve_simd_tier() to `tier` (clamped to what the
/// CPU supports) until clear_forced_simd_tier(). Lets the identity
/// suite prove every reachable tier byte-exact on one machine.
void force_simd_tier(SimdTier tier);
void clear_forced_simd_tier();

/// One-line JSON object for bench artifacts, e.g.
///   {"arch": "x86_64", "sse42": true, "avx": true, "avx2": true,
///    "avxvnni": true, "avx512bw": false, "tier": "vnni"}
/// "tier" is resolve_simd_tier() at call time, so a CQ_SIMD override
/// in force during a measurement is recorded next to the numbers.
std::string cpu_features_json();

}  // namespace cq::deploy
