// cq_serve — multi-model network serving daemon.
//
// Hosts any number of .cqar artifacts in one serve::ModelRegistry
// (each compiled once, optimized, statically verified and budget
// checked at load) behind the cq::net socket front end: a poll()
// event loop speaking the length-prefixed CQN1 protocol on localhost
// (or all interfaces with --all_interfaces). Overload never blocks
// and never silently drops: a request past a model's full queue or the
// global in-flight cap is answered kBusy.
//
// Models come from a manifest (--manifest=serve.txt), lines of
//
//   <name> <artifact.cqar> [key=value ...]   # per-model overrides
//
// with keys workers, intra_threads, backend (scalar|simd),
// max_batch, queue_capacity, budget_mb; '#' starts a comment, and any
// other key fails the load. The same keys are flags setting every
// model's default. Every integer, in the manifest or a flag, must be a
// whole decimal number in the range README states for its key; a bad
// value exits 2 before any model loads, naming the manifest line and
// key or the flag. Positional name=path arguments load additional
// models with the flag-level defaults, and --zoo fabricates the three
// default-size zoo models (vgg_small, mlp, resnet20) in process — no
// artifact files needed, handy for load tests and CI.
//
// SIGTERM/SIGINT drain gracefully: stop accepting, finish every
// admitted request on the version it started on, flush all replies,
// then exit 0. --smoke runs an in-process self-test over localhost
// (info + inference round trips, byte-identity against a fresh
// EngineSession on the same artifact, byte-identity across a hot-swap
// to the identical artifact) and then triggers exactly that SIGTERM
// path; exit status reports the verdict.
//
// Usage: cq_serve [--manifest=FILE] [name=path...] [--zoo] [--port=N]
//                 [--workers=N] [--intra_threads=N] [--backend=scalar|simd]
//                 [--max_batch=N] [--queue_capacity=N] [--budget_mb=N]
//                 [--max_inflight=N] [--responders=N]
//                 [--max_connections=N] [--all_interfaces] [--smoke]

#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "deploy/artifact.h"
#include "net/client.h"
#include "net/front_end.h"
#include "serve/engine_session.h"
#include "serve/model_registry.h"
#include "serve/zoo.h"
#include "util/cli.h"
#include "util/rng.h"

namespace {

using namespace cq;

int g_signal_pipe[2] = {-1, -1};

void on_signal(int) {
  const char byte = 's';
  if (::write(g_signal_pipe[1], &byte, 1) < 0) {
    // Pipe full: a shutdown is already pending.
  }
}

struct LoadedModel {
  std::string name;
  std::string path;  ///< artifact file; empty for a --zoo model
  deploy::QuantizedArtifact artifact;
  serve::ModelConfig config;
};

/// Applies one per-model setting, from a flag or a manifest token, in
/// the range README states for its key. Returns false for an unknown
/// key.
bool apply_setting(serve::ModelConfig& config, const std::string& key,
                   const std::string& value, const std::string& what) {
  const auto number = [&](long min, long max) { return util::parse_int(what, value, min, max); };
  if (key == "workers") {
    config.server.workers = static_cast<int>(number(1, 256));
  } else if (key == "intra_threads") {
    config.server.intra_threads = static_cast<int>(number(1, 256));
  } else if (key == "backend") {
    config.server.backend = deploy::parse_backend_kind(value);
  } else if (key == "max_batch") {
    config.server.max_batch = static_cast<int>(number(1, 1024));
  } else if (key == "queue_capacity") {
    config.server.queue_capacity = static_cast<std::size_t>(number(1, 1 << 20));
  } else if (key == "budget_mb") {
    config.memory_budget_bytes = static_cast<std::size_t>(number(0, 1 << 20)) << 20;
  } else {
    return false;
  }
  return true;
}

serve::ModelConfig config_from_flags(const util::Cli& cli) {
  serve::ModelConfig config;
  config.server.workers = 2;
  config.server.backend = deploy::BackendKind::Simd;
  config.server.queue_capacity = 256;
  for (const char* key :
       {"workers", "intra_threads", "backend", "max_batch", "queue_capacity", "budget_mb"}) {
    if (cli.has(key)) {
      apply_setting(config, key, cli.get(key, ""), std::string("--") + key);
    }
  }
  return config;
}

/// Parses "name path [key=value ...]" manifest lines; '#' comments.
/// Reads no artifact, so a bad line is reported before any model loads.
std::vector<LoadedModel> parse_manifest(const std::string& path,
                                        const serve::ModelConfig& defaults) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open manifest " + path);
  std::vector<LoadedModel> models;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream tokens(line);
    std::string name;
    std::string artifact_path;
    if (!(tokens >> name)) continue;  // blank / comment-only line
    const std::string where = "manifest line " + std::to_string(lineno) + ": ";
    if (!(tokens >> artifact_path)) {
      throw std::runtime_error(where + "expected '<name> <artifact.cqar>'");
    }
    LoadedModel model;
    model.name = name;
    model.path = artifact_path;
    model.config = defaults;
    std::string token;
    while (tokens >> token) {
      const auto eq = token.find('=');
      const std::string key = token.substr(0, eq);
      if (eq == std::string::npos ||
          !apply_setting(model.config, key, token.substr(eq + 1), where + key)) {
        throw std::runtime_error(where + "unknown override '" + token + "'");
      }
    }
    models.push_back(std::move(model));
  }
  return models;
}

/// One deterministic sample for a model's input contract.
tensor::Tensor smoke_sample(const tensor::Shape& shape, std::uint64_t seed) {
  util::Rng rng(seed);
  return tensor::Tensor::rand_uniform(shape, rng, -0.2f, 1.2f);
}

bool tensors_identical(const tensor::Tensor& a, const tensor::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

/// Localhost self-test: for every model, info + round trip, byte
/// compare against a fresh in-process EngineSession on the identical
/// artifact, hot-swap to the same artifact under way, round trip
/// again and require the exact same bytes.
bool run_smoke(std::uint16_t port, serve::ModelRegistry& registry,
               const std::vector<LoadedModel>& models) {
  try {
    for (const LoadedModel& model : models) {
      net::Client client("localhost", port);
      const net::Client::ModelInfo info = client.info(model.name);
      const tensor::Tensor sample = smoke_sample(info.sample_shape, 101);

      net::Client::InferResult first = client.infer(model.name, sample);
      if (!first.admitted) {
        std::fprintf(stderr, "cq_serve smoke: '%s' shed the smoke request: %s\n",
                     model.name.c_str(), first.reason.c_str());
        return false;
      }

      // The remote answer must be byte-identical to running the same
      // artifact in process (same compile + optimize pipeline).
      serve::EngineSession session(model.artifact);
      tensor::Shape batch_shape;
      batch_shape.push_back(1);
      batch_shape.insert(batch_shape.end(), info.sample_shape.begin(),
                         info.sample_shape.end());
      tensor::Tensor batch(batch_shape);
      std::memcpy(batch.data(), sample.data(), sample.numel() * sizeof(float));
      const tensor::Tensor local = session.run(batch);
      tensor::Tensor local_row({info.num_classes});
      std::memcpy(local_row.data(), local.data(),
                  static_cast<std::size_t>(info.num_classes) * sizeof(float));
      if (!tensors_identical(first.logits, local_row)) {
        std::fprintf(stderr,
                     "cq_serve smoke: '%s' remote logits differ from in-process "
                     "EngineSession\n",
                     model.name.c_str());
        return false;
      }

      // Hot-swap to the identical artifact; answers must not change by
      // a byte, and the version must bump.
      const int version = registry.swap(model.name, model.artifact);
      const net::Client::InferResult after = client.infer(model.name, sample);
      if (!after.admitted || !tensors_identical(after.logits, first.logits)) {
        std::fprintf(stderr,
                     "cq_serve smoke: '%s' answer changed across hot-swap to v%d\n",
                     model.name.c_str(), version);
        return false;
      }
      if (client.info(model.name).version != version) {
        std::fprintf(stderr, "cq_serve smoke: '%s' version did not bump\n",
                     model.name.c_str());
        return false;
      }
      std::printf("cq_serve smoke: %-10s OK (round trip, in-process byte match, "
                  "hot-swap to v%d byte-stable)\n",
                  model.name.c_str(), version);
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "cq_serve smoke: %s\n", error.what());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);

  std::vector<LoadedModel> models;
  net::FrontEndConfig net_config;
  try {
    const serve::ModelConfig defaults = config_from_flags(cli);
    net_config.port = static_cast<std::uint16_t>(cli.get_int("port", 7411, 0, 65535));
    net_config.loopback_only = !cli.get_bool("all_interfaces", false);
    net_config.max_connections = static_cast<int>(cli.get_int("max_connections", 64, 1, 4096));
    net_config.max_inflight =
        static_cast<std::size_t>(cli.get_int("max_inflight", 1024, 1, 1 << 20));
    net_config.responders = static_cast<int>(cli.get_int("responders", 2, 1, 256));
    if (cli.has("manifest")) {
      models = parse_manifest(cli.get("manifest", ""), defaults);
    }
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) == 0) continue;
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        std::fprintf(stderr, "cq_serve: expected name=path, got '%s'\n", arg.c_str());
        return 2;
      }
      models.push_back({arg.substr(0, eq), arg.substr(eq + 1), {}, defaults});
    }
    for (LoadedModel& model : models) model.artifact = deploy::load_artifact(model.path);
    if (cli.get_bool("zoo", false)) {
      for (serve::ZooModel& model : serve::default_zoo()) {
        models.push_back({std::move(model.name), "", std::move(model.artifact), defaults});
      }
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "cq_serve: %s\n", error.what());
    return 2;
  }
  if (models.empty()) {
    std::fprintf(stderr,
                 "cq_serve: nothing to serve — pass --manifest=FILE, name=path or "
                 "--zoo\n");
    return 2;
  }

  serve::ModelRegistry registry;
  try {
    for (const LoadedModel& model : models) {
      registry.load(model.name, model.artifact, model.config);
      const serve::ModelInfo info = registry.info(model.name);
      std::printf("cq_serve: loaded %-10s v%d  %zu ops, %.1f MiB resident\n",
                  model.name.c_str(), info.version, info.ops,
                  static_cast<double>(info.resident_bytes) / (1 << 20));
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s\n", error.what());
    return 1;
  }

  if (::pipe(g_signal_pipe) != 0) {
    std::fprintf(stderr, "cq_serve: pipe: %s\n", std::strerror(errno));
    return 1;
  }
  struct sigaction action {};
  action.sa_handler = on_signal;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);

  try {
    net::FrontEnd front(registry, net_config);
    std::printf("cq_serve: listening on 127.0.0.1:%u (%zu models)\n", front.port(),
                models.size());
    std::fflush(stdout);

    bool smoke_ok = true;
    std::thread smoke;
    if (cli.get_bool("smoke", false)) {
      // The self-test ends by triggering the same SIGTERM drain a real
      // deployment exercises.
      smoke = std::thread([&, port = front.port()] {
        smoke_ok = run_smoke(port, registry, models);
        std::raise(SIGTERM);
      });
    }

    char byte = 0;
    while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
    }
    std::printf("cq_serve: draining...\n");
    std::fflush(stdout);
    front.stop();
    if (smoke.joinable()) smoke.join();

    const net::FrontEndStats fstats = front.stats();
    for (const std::string& name : registry.names()) {
      const serve::ServerStats s = registry.stats(name);
      const serve::ModelInfo info = registry.info(name);
      std::printf("cq_serve: %-10s v%-2d completed=%zu failed=%zu shed=%llu "
                  "p50=%.0fus p99=%.0fus\n",
                  name.c_str(), info.version, s.completed, s.failed,
                  static_cast<unsigned long long>(info.requests_shed), s.p50_us,
                  s.p99_us);
    }
    std::printf("cq_serve: connections=%zu replies: result=%zu busy=%zu error=%zu "
                "protocol_errors=%zu\n",
                fstats.connections_accepted, fstats.replies_result,
                fstats.replies_busy, fstats.replies_error, fstats.protocol_errors);
    registry.unload_all();
    return smoke_ok ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "cq_serve: %s\n", error.what());
    return 1;
  }
}
