#pragma once

#include <cstddef>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "deploy/artifact.h"
#include "deploy/plan.h"
#include "obs/metrics.h"
#include "serve/server.h"

namespace cq::serve {

/// Thrown for registry administration failures: duplicate or unknown
/// names, a model whose resident footprint exceeds its memory budget,
/// malformed artifacts surfacing at load.
class RegistryError : public std::runtime_error {
 public:
  explicit RegistryError(const std::string& what) : std::runtime_error(what) {}
};

/// Per-model serving configuration. The ServerConfig shapes the
/// model's worker pool / batching / backend exactly as for a
/// standalone Server — its queue_capacity is also the model's
/// admission threshold (submit() sheds once the queue is full); the
/// registry-level budget bounds what the model may cost:
struct ModelConfig {
  ServerConfig server;
  /// Hard cap on the model's resident bytes (compiled plan weights and
  /// packed codes + per-context arenas + backend-prepared packed
  /// state), enforced at load/swap time: a version that would exceed
  /// it is refused with RegistryError and — on swap — the previous
  /// version keeps serving. 0 = unlimited.
  std::size_t memory_budget_bytes = 0;
};

/// One registered model's public facts.
struct ModelInfo {
  std::string name;
  int version = 0;  ///< bumped by every hot-swap, starts at 1
  tensor::Shape sample_shape;
  int num_classes = 0;
  std::size_t resident_bytes = 0;  ///< what the budget is charged for
  std::size_t memory_budget_bytes = 0;
  std::size_t ops = 0;  ///< compiled (and optimized) plan length
  /// Lifetime admission counters (across hot-swaps — the registry-level
  /// view; ServerStats covers only the current version's window).
  std::uint64_t requests_admitted = 0;
  std::uint64_t requests_shed = 0;
};

/// Bytes an ExecutionPlan keeps resident per se: float weights, bias
/// and BN vectors inline in the ops, plus each integer layer's packed
/// codes, widths and bias. Arena and backend-prepared bytes are charged separately
/// (they scale with contexts / backend choice).
std::size_t plan_resident_bytes(const deploy::ExecutionPlan& plan);

/// Multi-model serving host: many named .cqar artifacts, each turned
/// into its serving_plan() once (shared read-only by the model's
/// server contexts), verified and served by its own serve::Server with
/// its own obs metrics.
///
/// Hot swap (swap()): the replacement version is fully built — compile,
/// optimize, verify, budget-check — while the old one keeps serving;
/// the cutover is one pointer store, after which new submits land on
/// the new version and the old one drains (every in-flight request
/// finishes on the plan it started on — byte-identity is never broken
/// mid-request). swap() returns after the drain.
///
/// Admission: submit() never blocks and never silently drops. A
/// request is either admitted (future returned), shed with a reason
/// (queue full / draining), or unknown (no such model). Per-model
/// admitted/shed counters live in the model's registry-level
/// obs::Registry (metrics(name)), which survives hot-swaps; the
/// per-version Server keeps its own serving histograms (stats(name) /
/// server_metrics_json(name)).
///
/// All methods are thread-safe; submit() takes one mutex acquisition
/// to resolve the name, then runs on the version's lock-free path.
class ModelRegistry {
 public:
  ModelRegistry() = default;
  ~ModelRegistry();

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Compiles, optimizes, verifies and serves `artifact` under `name`
  /// as version 1. Throws RegistryError on a duplicate name, a plan
  /// that fails verification, or a version over its memory budget;
  /// deploy::ArtifactError on malformed artifacts.
  void load(const std::string& name, const deploy::QuantizedArtifact& artifact,
            ModelConfig config = {});

  /// Hot-swaps `name` to a freshly built version of `artifact` (same
  /// ModelConfig as the original load), returns the new version
  /// number. Blocks until the old version has drained. On any failure
  /// (budget, malformed artifact) the old version keeps serving.
  int swap(const std::string& name, const deploy::QuantizedArtifact& artifact);

  /// Removes `name`. In-flight requests drain first (their futures all
  /// complete); subsequent submits report kUnknown.
  void unload(const std::string& name);

  /// Drains and removes every model (the daemon's SIGTERM path).
  void unload_all();

  enum class Outcome { kAdmitted, kShed, kUnknown };
  struct Admission {
    Outcome outcome = Outcome::kUnknown;
    std::string reason;                  ///< set when not admitted
    std::future<tensor::Tensor> result;  ///< set when admitted
  };

  /// Routes one sample to `name`'s current version. Never blocks; the
  /// outcome is always explicit (see class comment).
  Admission submit(const std::string& name, tensor::Tensor sample);

  bool has(const std::string& name) const;
  std::vector<std::string> names() const;
  ModelInfo info(const std::string& name) const;

  /// Serving stats of the model's *current* version (a fresh window
  /// after every swap).
  ServerStats stats(const std::string& name) const;

  /// Registry-level per-model metrics: requests_admitted,
  /// requests_shed, hot_swaps counters + resident_bytes / version
  /// gauges. Survives hot-swaps (counters accumulate across versions).
  const obs::Registry& metrics(const std::string& name) const;

  /// JSON snapshot of the current version's Server metrics (latency
  /// histograms etc.). By value, so it stays valid when a concurrent
  /// swap retires that version.
  std::string server_metrics_json(const std::string& name) const;

 private:
  struct Version {
    int number = 1;
    std::shared_ptr<const deploy::ExecutionPlan> plan;
    std::unique_ptr<Server> server;
    std::size_t resident_bytes = 0;
  };
  struct Entry {
    std::string name;
    ModelConfig config;
    /// Serializes load/swap/unload per model so two swaps can not
    /// interleave; submit() never takes it.
    std::mutex admin_mutex;
    obs::Registry metrics;
    obs::Counter* admitted = nullptr;
    obs::Counter* shed = nullptr;
    obs::Counter* swaps = nullptr;
    obs::Gauge* resident = nullptr;
    obs::Gauge* version = nullptr;
    std::shared_ptr<Version> current;  ///< guarded by map_mutex_
  };

  std::shared_ptr<Entry> find(const std::string& name) const;
  std::shared_ptr<Entry> require(const std::string& name) const;
  std::shared_ptr<Version> current_version(Entry& entry) const;
  /// serving_plan + budget-check + verify (in the Server's session)
  /// one artifact version.
  std::shared_ptr<Version> build_version(const std::string& name,
                                         const deploy::QuantizedArtifact& artifact,
                                         const ModelConfig& config, int number) const;

  mutable std::mutex map_mutex_;  ///< guards map_ and Entry::current
  std::map<std::string, std::shared_ptr<Entry>> map_;
};

}  // namespace cq::serve
