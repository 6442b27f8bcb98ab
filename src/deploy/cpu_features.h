#pragma once

// Runtime CPU capability detection and SIMD-tier resolution for
// deploy::SimdBackend — the "one binary runs everywhere" half of the
// explicit-SIMD story. Kernels compiled for a specific ISA (AVX2,
// AVX-VNNI and AMX-INT8 via the GCC/clang `target` attribute) may only
// be *called* after this module has proven at runtime that the CPU
// executes them — and, for AMX, that the kernel granted this process
// the tile state (arch_prctl ARCH_REQ_XCOMP_PERM, requested once by the
// probe); everything below AVX2 lands on the portable kernels
// (baseline-SSE2 pmaddwd on x86-64, GCC vector extensions elsewhere).
// Running without explicit SIMD is a backend choice (--backend=scalar),
// not a tier.

#include <string>

// The AMX tile kernels build only where the compiler knows the
// `amx-tile,amx-int8` target and __builtin_cpu_supports names (GCC >= 11;
// clang has the target from 12, the names from 16 at the latest) and the
// tile permission can be requested (Linux x86-64). Elsewhere
// CpuFeatures::amx stays false and the amx tier is unreachable.
#if defined(__x86_64__) && defined(__linux__) &&                      \
    ((defined(__clang__) && __clang_major__ >= 16) ||                 \
     (!defined(__clang__) && defined(__GNUC__) && __GNUC__ >= 11))
#define CQ_HAVE_AMX 1
#else
#define CQ_HAVE_AMX 0
#endif

namespace cq::deploy {

/// What the CPU we are running on actually supports, probed once via
/// CPUID (through __builtin_cpu_supports) and cached for the process.
struct CpuFeatures {
  bool x86 = false;       ///< compiled for x86/x86-64 at all
  bool sse42 = false;
  bool avx = false;
  bool avx2 = false;
  bool avxvnni = false;   ///< AVX-VNNI: the VEX-encoded ymm vpdpbusd
  bool amx = false;       ///< AMX-TILE + AMX-INT8 in CPUID *and* the tile
                          ///  state granted to this process (tdpbusd)
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
/// both hold; Amx = Vnni plus the tdpbusd tile kernel for integer
/// convolutions, legal only when amx holds too (linear layers keep the
/// vnni kernels). A CPU with AVX512-VNNI but no AVX-VNNI (the VEX form)
/// stays on Avx2.
enum class SimdTier { kPortable = 0, kAvx2 = 1, kVnni = 2, kAmx = 3 };

/// Stable lowercase tier name: "portable", "avx2", "vnni", "amx".
const char* simd_tier_name(SimdTier tier);

/// Highest tier this CPU can execute (never consults overrides):
/// kAmx when CPUID reports AVX2, AVX-VNNI and AMX-INT8 and the process
/// holds the tile permission, kVnni when it reports AVX2 and AVX-VNNI,
/// kAvx2 when it reports AVX2 alone, else kPortable. This is the
/// "runtime dispatch" decision — the same binary resolves differently
/// on different machines.
SimdTier max_supported_simd_tier();

/// The tier SimdBackend instances constructed *now* will use:
/// min(max_supported, requested), where requested comes from the
/// forced override (tests) if set, else the CQ_SIMD environment
/// variable ("portable", "avx2", "vnni", "amx", "auto"/unset), else the
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
///    "avxvnni": true, "amx": true, "avx512bw": false, "tier": "amx"}
/// "tier" is resolve_simd_tier() at call time, so a CQ_SIMD override
/// in force during a measurement is recorded next to the numbers.
std::string cpu_features_json();

}  // namespace cq::deploy
