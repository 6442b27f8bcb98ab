// cqar_verify — static plan verification as a CI gate.
//
// Compiles each artifact's deployment ExecutionPlan and proves the IR
// invariant catalog over it (deploy/verify.h), both as compiled and
// after the deploy::optimize_plan pass pipeline (shown as
// "<name> +opt", the plan serving runs): dataflow
// well-formedness, shape consistency, arena lifetime safety at every
// batch size, and the integer-path overflow certification the simd
// backend's int32 kernels rest on. Any finding is printed as a
// diagnostic table and turns the exit status nonzero, so CI can gate
// the model zoo on "plans verify clean" the same way it gates tests.
//
// Usage: cqar_verify [--zoo] [--certs] [<model.cqar>...]
//   --zoo       also verify the three default-size zoo models
//               (vgg_small, mlp, resnet20 — fabricated in process by
//               serve::default_zoo, the models `cq_serve --zoo` serves)
//   --certs     print the per-integer-op overflow certificates (bound,
//               narrowest certified accumulator: int8 = the SIMD
//               backend's maddubs path, int32 = its other kernels,
//               int64 = delegated to the scalar reference; and the int8
//               kernels the op is certified for: dpbusd on the vnni
//               tier and tdpbusd tiles for convs on amx, maddubs on
//               avx2)
//
// Exit status: 0 when every plan verifies clean, 1 on any finding or
// unloadable/uncompilable artifact, 2 for usage errors.

#include <cstdio>
#include <string>
#include <vector>

#include "deploy/artifact.h"
#include "deploy/passes/passes.h"
#include "deploy/plan.h"
#include "deploy/verify.h"
#include "serve/zoo.h"
#include "util/cli.h"
#include "util/table.h"

namespace {

using namespace cq;

/// Verifies one compiled plan under a display name; returns true when
/// it is clean. Findings render as the diagnostic table.
bool verify_one(const std::string& name, const deploy::ExecutionPlan& plan,
                bool print_certs) {
  const deploy::VerifyReport report = deploy::verify_plan(plan);
  if (report.clean()) {
    int narrow = 0;
    for (const deploy::IntOpCertificate& cert : report.certificates) {
      narrow += cert.int32_fast_path ? 1 : 0;
    }
    std::printf("%-16s OK — %zu ops, %d slots, %zu rules checked, "
                "%zu integer ops certified (int32 fast path on %d)\n",
                name.c_str(), plan.ops().size(), plan.slot_count(),
                deploy::all_verify_rules().size(), report.certificates.size(),
                narrow);
  } else {
    std::printf("%-16s FAILED — %zu finding(s)\n", name.c_str(),
                report.diagnostics.size());
    util::Table findings({"op", "rule", "slot", "message"});
    for (const deploy::PlanDiagnostic& d : report.diagnostics) {
      findings.add_row({d.op >= 0 ? std::to_string(d.op) : "-",
                        deploy::verify_rule_name(d.rule),
                        d.slot >= 0 ? std::to_string(d.slot) : "-", d.message});
    }
    std::printf("%s\n", findings.render().c_str());
  }
  if (print_certs && !report.certificates.empty()) {
    util::Table certs({"op", "layer", "max|w|", "terms", "bound", "acc", "int8 path"});
    for (const deploy::IntOpCertificate& cert : report.certificates) {
      // Narrowest certified accumulator: int8 is the SIMD backend's
      // maddubs path (implies int32), int32 its other kernels, int64
      // the scalar reference it delegates to.
      const char* acc = cert.int8_fast_path    ? "int8"
                        : cert.int32_fast_path ? "int32"
                                               : "int64";
      // The maddubs path also needs the int16 pair bound, so it
      // implies the dpbusd one.
      const char* int8 = cert.int8_fast_path  ? "dpbusd+maddubs"
                         : cert.int8_dot_path ? "dpbusd"
                                              : "-";
      certs.add_row({std::to_string(cert.op), std::to_string(cert.layer),
                     std::to_string(cert.max_abs_weight),
                     std::to_string(cert.terms), std::to_string(cert.bound),
                     acc, int8});
    }
    std::printf("%s\n", certs.render().c_str());
  }
  return report.clean();
}

/// Verifies the compiled plan, runs the optimizer pass pipeline on it
/// and verifies the result as "<name> +opt". Returns true only when
/// both are clean; an optimizer throw (a pass left the plan failing
/// verification) counts as a failure, not a crash.
bool verify_plan_shapes(const std::string& name, deploy::ExecutionPlan plan,
                        bool print_certs) {
  const bool clean = verify_one(name, plan, print_certs);
  try {
    deploy::optimize_plan(plan);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cqar_verify: %s: optimizer failed — %s\n", name.c_str(),
                 e.what());
    return false;
  }
  return verify_one(name + " +opt", plan, print_certs) && clean;
}

bool verify_artifact(const std::string& path, bool print_certs) {
  deploy::QuantizedArtifact artifact;
  try {
    artifact = deploy::load_artifact(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cqar_verify: %s\n", e.what());
    return false;
  }
  try {
    return verify_plan_shapes(path, deploy::compile_plan(artifact), print_certs);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cqar_verify: %s: plan compilation failed — %s\n",
                 path.c_str(), e.what());
    return false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const bool zoo = cli.get_bool("zoo", false);
  const bool certs = cli.get_bool("certs", false);

  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) continue;  // flags handled by Cli
    paths.push_back(arg);
  }
  if (paths.empty() && !zoo) {
    std::fprintf(stderr,
                 "usage: cqar_verify [--zoo] [--certs] [<model.cqar>...]\n");
    return 2;
  }

  bool all_clean = true;
  for (const std::string& path : paths) {
    all_clean = verify_artifact(path, certs) && all_clean;
  }
  if (zoo) {
    // The fabricated zoo cq_serve serves; a compiler change that breaks
    // an invariant for any of the three architectures fails here
    // without needing artifact files.
    for (const serve::ZooModel& model : serve::default_zoo()) {
      all_clean = verify_plan_shapes("zoo:" + model.name,
                                     deploy::compile_plan(model.artifact), certs) &&
                  all_clean;
    }
  }
  return all_clean ? 0 : 1;
}
