// plan_optimize — end-to-end A/B of the deploy::optimize_plan pass
// pipeline: for each integer zoo model, serve the same batches through
// two EngineSessions built from the same artifact — one over the plan
// as deploy::compile_plan emits it (O0), one over the artifact's
// serving plan (O1: epilogue fusion + quantized-domain propagation +
// arena re-planning) — verify the outputs are byte-identical (the
// passes' exactness contract), and time both.
//
// This is the perf-smoke CI lane's optimizer gate, in the
// kernel_scaling mold: the dev container is single-core, so CI runs
// this binary on a multi-core runner and asserts the end-to-end win it
// observes, e.g.
//
//   plan_optimize --json=plan_optimize.json --assert-case=resnet20
//                 --assert-speedup=1.15
//
// Exit codes: 0 ok, 1 assertion failed, 2 optimized output not
// byte-identical to the unoptimized plan's.
//
// Other knobs: --backend=scalar|simd (kernel backend for both
// sessions), --threads=N (intra-op threads), --batch=N (samples per
// run), --repeat=N (timed runs per session; best-of reported).

#include <climits>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "deploy/backend.h"
#include "deploy/plan.h"
#include "serve/engine_session.h"
#include "serve/zoo.h"
#include "util/cli.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

using namespace cq;

struct Result {
  std::string name;
  std::size_t ops_o0 = 0;
  std::size_t ops_o1 = 0;
  double o0_ms = 0.0;  ///< best-of run time, plan as compiled
  double o1_ms = 0.0;  ///< best-of run time, optimized plan
  double speedup() const { return o1_ms > 0.0 ? o0_ms / o1_ms : 0.0; }
};

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  int repeat = 0, batch = 0, threads = 0;
  try {
    repeat = static_cast<int>(cli.get_int("repeat", 20, 1, INT_MAX));
    batch = static_cast<int>(cli.get_int("batch", 4, 1, 1 << 16));
    threads = static_cast<int>(cli.get_int("threads", 1, 1, 256));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "plan_optimize: %s\n", e.what());
    return 2;
  }
  const std::string json_path = cli.get("json", "");
  const std::string assert_case = cli.get("assert-case", "");
  const double assert_speedup = cli.get_double("assert-speedup", 0.0);
  deploy::BackendKind backend_kind;
  try {
    backend_kind = deploy::parse_backend_kind(cli.get("backend", "scalar"));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "plan_optimize: %s\n", e.what());
    return 1;
  }

  // The caller participates in its own parallel_for, so a pool of
  // threads - 1 helpers gives `threads` intra-op threads.
  std::unique_ptr<util::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<util::ThreadPool>(threads - 1);
  const util::ExecContext exec{pool.get(), threads};

  // Default-size zoo models, so the A/B covers representative integer
  // layer shapes.
  std::vector<Result> results;
  for (const serve::ZooModel& m : serve::default_zoo()) {
    serve::EngineSession o0(deploy::compile_plan(m.artifact), 1, exec,
                            deploy::make_backend(backend_kind));
    serve::EngineSession o1(m.artifact, 1, exec, deploy::make_backend(backend_kind));
    const tensor::Tensor input = serve::random_batch(o0.sample_shape(), batch, 23);

    // Warm both sessions (arena growth stays out of the timed window)
    // and prove the passes' exactness contract on this input.
    const tensor::Tensor ref = o0.run(input);
    const tensor::Tensor opt = o1.run(input);
    if (ref.numel() != opt.numel() ||
        std::memcmp(ref.data(), opt.data(), ref.numel() * sizeof(float)) != 0) {
      std::fprintf(stderr,
                   "plan_optimize: %s optimized output is NOT byte-identical "
                   "to the unoptimized plan\n",
                   m.name.c_str());
      return 2;
    }

    Result r;
    r.name = m.name;
    r.ops_o0 = o0.plan().ops().size();
    r.ops_o1 = o1.plan().ops().size();
    // The two sessions' runs alternate, so a noisy stretch on the host
    // slows both sides of the A/B alike.
    for (int i = 0; i < repeat; ++i) {
      util::Timer t0;
      o0.run(input);
      const double ms0 = t0.millis();
      util::Timer t1;
      o1.run(input);
      const double ms1 = t1.millis();
      if (i == 0 || ms0 < r.o0_ms) r.o0_ms = ms0;
      if (i == 0 || ms1 < r.o1_ms) r.o1_ms = ms1;
    }
    results.push_back(std::move(r));
  }

  util::Table table({"model", "ops", "O0 ms", "O1 ms", "speedup"});
  for (const Result& r : results) {
    table.add_row({r.name, std::to_string(r.ops_o0) + " -> " + std::to_string(r.ops_o1),
                   util::Table::num(r.o0_ms, 3), util::Table::num(r.o1_ms, 3),
                   util::Table::num(r.speedup(), 2)});
  }
  std::printf("optimized vs unoptimized end-to-end (backend %s, batch %d, "
              "%d threads, best of %d)\n%s\n",
              deploy::backend_kind_name(backend_kind), batch, threads, repeat,
              table.render().c_str());

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "plan_optimize: cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"backend\": \"%s\",\n  \"batch\": %d,\n  \"threads\": %d,\n"
                 "  \"repeat\": %d,\n  \"models\": [\n",
                 deploy::backend_kind_name(backend_kind), batch, threads, repeat);
    for (std::size_t i = 0; i < results.size(); ++i) {
      const Result& r = results[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"ops_o0\": %zu, \"ops_o1\": %zu, "
                   "\"o0_ms\": %.4f, \"o1_ms\": %.4f, \"speedup\": %.3f}%s\n",
                   r.name.c_str(), r.ops_o0, r.ops_o1, r.o0_ms, r.o1_ms, r.speedup(),
                   i + 1 == results.size() ? "" : ",");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (assert_speedup > 0.0) {
    bool measured = false;
    bool failed = false;
    for (const Result& r : results) {
      if (r.name != assert_case) continue;
      measured = true;
      const bool ok = r.speedup() >= assert_speedup;
      std::fprintf(stderr,
                   "assert: %s optimized vs unoptimized: %.2fx (need >= %.2fx) "
                   "— %s\n",
                   assert_case.c_str(), r.speedup(), assert_speedup,
                   ok ? "PASS" : "FAIL");
      failed = failed || !ok;
    }
    if (!measured) {
      std::fprintf(stderr, "assert: case '%s' not measured\n", assert_case.c_str());
      failed = true;
    }
    if (failed) return 1;
  }
  return 0;
}
