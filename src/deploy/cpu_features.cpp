#include "deploy/cpu_features.h"

#include <atomic>
#include <cstdlib>
#include <string>

#if CQ_HAVE_AMX
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace cq::deploy {

namespace {

CpuFeatures probe() {
  CpuFeatures f;
#if defined(__x86_64__) || defined(__i386__)
  f.x86 = true;
  // __builtin_cpu_supports reads the CPUID-derived feature words the
  // runtime populated before main(); each call is a cheap bit test.
  f.sse42 = __builtin_cpu_supports("sse4.2") != 0;
  f.avx = __builtin_cpu_supports("avx") != 0;
  f.avx2 = __builtin_cpu_supports("avx2") != 0;
  f.avxvnni = __builtin_cpu_supports("avxvnni") != 0;
  f.fma = __builtin_cpu_supports("fma") != 0;
  f.avx512bw = __builtin_cpu_supports("avx512bw") != 0;
#endif
#if CQ_HAVE_AMX
  // Tile data is an XSAVE feature Linux grants per process on request
  // (Documentation/arch/x86/xstate.rst); without the grant a tile
  // instruction faults. Asked once, here, before any kernel runs.
  constexpr long kArchReqXcompPerm = 0x1023;
  constexpr long kXfeatureXtiledata = 18;
  f.amx = __builtin_cpu_supports("amx-tile") != 0 && __builtin_cpu_supports("amx-int8") != 0 &&
          syscall(SYS_arch_prctl, kArchReqXcompPerm, kXfeatureXtiledata) == 0;
#endif
  return f;
}

/// Forced tier for tests: -1 = none, else static_cast<int>(SimdTier).
std::atomic<int> g_forced_tier{-1};

/// The CQ_SIMD request, read fresh per resolve (construction-time
/// only, never on a serving hot path): kAmx doubles as "auto" and is
/// clamped by max_supported_simd_tier() below.
SimdTier env_requested_tier() {
  const char* env = std::getenv("CQ_SIMD");
  if (env == nullptr) return SimdTier::kAmx;
  const std::string v(env);
  if (v == "portable") return SimdTier::kPortable;
  if (v == "avx2") return SimdTier::kAvx2;
  if (v == "vnni") return SimdTier::kVnni;
  return SimdTier::kAmx;  // "amx", "auto", or a typo ("off" too): fastest tier
}

}  // namespace

const CpuFeatures& cpu_features() {
  static const CpuFeatures features = probe();
  return features;
}

const char* simd_tier_name(SimdTier tier) {
  switch (tier) {
    case SimdTier::kPortable:
      return "portable";
    case SimdTier::kAvx2:
      return "avx2";
    case SimdTier::kVnni:
      return "vnni";
    case SimdTier::kAmx:
      return "amx";
  }
  return "?";
}

SimdTier max_supported_simd_tier() {
  // The portable kernels are plain GNU-C vector code compiled for the
  // build's baseline arch, so they run wherever the binary does; only
  // the intrinsic tiers need a CPUID license.
  const CpuFeatures& f = cpu_features();
  if (!f.avx2) return SimdTier::kPortable;
  if (!f.avxvnni) return SimdTier::kAvx2;
  return f.amx ? SimdTier::kAmx : SimdTier::kVnni;
}

SimdTier resolve_simd_tier() {
  const int forced = g_forced_tier.load(std::memory_order_acquire);
  const SimdTier requested =
      forced >= 0 ? static_cast<SimdTier>(forced) : env_requested_tier();
  const SimdTier supported = max_supported_simd_tier();
  return requested < supported ? requested : supported;
}

void force_simd_tier(SimdTier tier) {
  g_forced_tier.store(static_cast<int>(tier), std::memory_order_release);
}

void clear_forced_simd_tier() {
  g_forced_tier.store(-1, std::memory_order_release);
}

std::string cpu_features_json() {
  const CpuFeatures& f = cpu_features();
  const auto b = [](bool v) { return v ? "true" : "false"; };
  std::string json = "{\"arch\": \"";
  json += f.x86 ? "x86_64" : "other";
  json += "\", \"sse42\": ";
  json += b(f.sse42);
  json += ", \"avx\": ";
  json += b(f.avx);
  json += ", \"avx2\": ";
  json += b(f.avx2);
  json += ", \"avxvnni\": ";
  json += b(f.avxvnni);
  json += ", \"amx\": ";
  json += b(f.amx);
  json += ", \"avx512bw\": ";
  json += b(f.avx512bw);
  json += ", \"tier\": \"";
  json += simd_tier_name(resolve_simd_tier());
  json += "\"}";
  return json;
}

}  // namespace cq::deploy
