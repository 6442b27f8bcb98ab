#include "deploy/backend.h"

#include <stdexcept>

#include "quant/uniform.h"

namespace cq::deploy {

void Backend::prepare(const ExecutionPlan&) {}

const char* Backend::dispatch(const PlanOp&) const { return name(); }

Epilogue::Epilogue(const PlanOp& op, const BackendIo& io)
    : bn(op.ep_bn), add(op.ep_add), relu(op.ep_relu), encode(op.ep_encode) {
  if (bn) {
    mean = op.bn_mean.data();
    inv_std = op.bn_inv_std.data();
    gamma = op.bn_gamma.data();
    beta = op.bn_beta.data();
  }
  if (add) residual = io.in1;
  // ep_encode is the consumer-side encode (encode_activations_into)
  // hoisted into the producer: the resulting integer codes are exactly
  // what every in_codes consumer would have computed, stored as floats
  // (codes are <= 65535, exactly representable).
  if (encode) {
    out_hi = op.out_hi;
    to_code = static_cast<float>(quant::levels_for_bits(op.out_bits) - 1) / out_hi;
  }
}

void apply_epilogue(const PlanOp& op, const BackendIo& io,
                    std::size_t out_numel_per_sample,
                    const util::ExecContext& exec) {
  const Epilogue ep(op, io);
  if (ep.empty()) return;
  float* const out = io.out;
  const float* const in1 = ep.residual;
  const auto batch = static_cast<std::size_t>(io.batch);
  const auto total = static_cast<std::int64_t>(out_numel_per_sample * batch);
  const util::ExecContext limited = exec.capped(total / kMinElementsPerThread);

  // Each element runs the deleted standalone ops' expressions in the
  // standalone order (BN -> Add -> Relu -> encode), in registers. Every
  // stage maps element i from element i alone, so folding the stages
  // into a single read-modify-write per element — and chunking over
  // `exec` — cannot change a bit versus running each op as its own
  // buffer pass.
  ep.with_tail_stages([&](auto stages) {
    using Stages = decltype(stages);
    if (ep.bn) {
      // Chunked over [n][c] planes so the per-channel BN constants
      // hoist out of the inner loop; plane p = n * out_c + c starts at
      // p * spatial.
      const auto spatial =
          static_cast<std::int64_t>(op.out_h) * static_cast<std::int64_t>(op.out_w);
      const auto channels = static_cast<std::int64_t>(op.out_c);
      limited.parallel_for(0, static_cast<std::int64_t>(batch) * channels,
                        [=](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t p = lo; p < hi; ++p) {
          const auto c = static_cast<std::size_t>(p % channels);
          const float m = ep.mean[c];
          const float is = ep.inv_std[c];
          const float g = ep.gamma[c];
          const float b = ep.beta[c];
          float* const dst = out + p * spatial;
          const float* const res = in1 != nullptr ? in1 + p * spatial : nullptr;
          for (std::int64_t s = 0; s < spatial; ++s) {
            dst[s] = ep.tail<Stages>(Epilogue::batch_norm(dst[s], m, is, g, b),
                                     Stages::add ? res[s] : 0.0f);
          }
        }
      });
    } else {
      limited.parallel_for(0, total, [=](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) {
          out[i] = ep.tail<Stages>(out[i], Stages::add ? in1[i] : 0.0f);
        }
      });
    }
  });
}

std::size_t op_arena_bytes(const PlanOp& op, const ExecutionPlan& plan) {
  const auto slot_bytes = [&plan](int slot) -> std::size_t {
    if (slot < 0 || slot >= plan.slot_count()) return 0;
    return plan.slots()[static_cast<std::size_t>(slot)].numel * sizeof(float);
  };
  return slot_bytes(op.in0) + slot_bytes(op.in1) + slot_bytes(op.out);
}

std::uint64_t op_macs(const PlanOp& op) {
  const auto u = [](int v) { return static_cast<std::uint64_t>(v < 0 ? 0 : v); };
  switch (op.kind) {
    case OpKind::IntConv:
    case OpKind::FloatConv:
      return u(op.out_c) * u(op.out_h) * u(op.out_w) * u(op.in_c) * u(op.kernel) *
             u(op.kernel);
    case OpKind::IntLinear:
    case OpKind::FloatLinear:
      return u(op.in_features) * u(op.out_features);
    default:
      return 0;
  }
}

const char* backend_kind_name(BackendKind kind) {
  switch (kind) {
    case BackendKind::Scalar:
      return "scalar";
    case BackendKind::Simd:
      return "simd";
  }
  return "?";
}

const std::vector<BackendKind>& all_backend_kinds() {
  static const std::vector<BackendKind> kinds = {BackendKind::Scalar,
                                                 BackendKind::Simd};
  return kinds;
}

namespace {

/// "scalar, simd" — the `known:` clause every selection error
/// carries so a typo'd --backend or a stale config names its options.
std::string known_backend_kinds() {
  std::string known;
  for (const BackendKind kind : all_backend_kinds()) {
    if (!known.empty()) known += ", ";
    known += backend_kind_name(kind);
  }
  return known;
}

}  // namespace

BackendKind parse_backend_kind(const std::string& name) {
  for (const BackendKind kind : all_backend_kinds()) {
    if (name == backend_kind_name(kind)) return kind;
  }
  throw std::invalid_argument("unknown backend '" + name +
                              "' (known: " + known_backend_kinds() + ")");
}

std::unique_ptr<Backend> make_backend(BackendKind kind) {
  switch (kind) {
    case BackendKind::Scalar:
      return std::make_unique<ScalarBackend>();
    case BackendKind::Simd:
      return std::make_unique<SimdBackend>();
  }
  throw std::invalid_argument("make_backend: unknown backend kind " +
                              std::to_string(static_cast<int>(kind)) +
                              " (known: " + known_backend_kinds() + ")");
}

}  // namespace cq::deploy
