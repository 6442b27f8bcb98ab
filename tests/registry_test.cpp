// serve::ModelRegistry tests: multi-model hosting, memory-budget
// enforcement at load/swap with rollback, admission control (depth
// gate + queue-full shed, both explicit), versioned hot-swap that
// stays byte-identical under concurrent traffic, and the per-model
// observability counters that survive swaps.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "serve/engine_session.h"
#include "serve/model_registry.h"
#include "serve_fixtures.h"
#include "util/rng.h"

namespace cq {
namespace {

tensor::Tensor sample_of(const tensor::Shape& shape, std::uint64_t seed) {
  util::Rng rng(seed);
  return tensor::Tensor::rand_uniform(shape, rng, -0.2f, 1.2f);
}

tensor::Tensor reference_logits(serve::EngineSession& session,
                                const tensor::Tensor& sample) {
  tensor::Shape batch_shape;
  batch_shape.push_back(1);
  batch_shape.insert(batch_shape.end(), sample.shape().begin(), sample.shape().end());
  tensor::Tensor batch(batch_shape);
  std::memcpy(batch.data(), sample.data(), sample.numel() * sizeof(float));
  return session.run(batch);
}

TEST(ModelRegistry, HostsMultipleModels) {
  serve::ModelRegistry registry;
  registry.load("vgg", serve::tiny_vgg_artifact());
  registry.load("mlp", serve::tiny_mlp_artifact());
  registry.load("resnet", serve::tiny_resnet_artifact());

  EXPECT_EQ(registry.names().size(), 3u);
  EXPECT_TRUE(registry.has("mlp"));
  EXPECT_FALSE(registry.has("nope"));

  const serve::ModelInfo info = registry.info("mlp");
  EXPECT_EQ(info.version, 1);
  EXPECT_EQ(info.sample_shape, tensor::Shape({12}));
  EXPECT_EQ(info.num_classes, 5);
  EXPECT_GT(info.resident_bytes, 0u);
  EXPECT_GT(info.ops, 0u);

  // Each model routes to its own server.
  auto admission = registry.submit("vgg", sample_of({3, 8, 8}, 1));
  ASSERT_EQ(admission.outcome, serve::ModelRegistry::Outcome::kAdmitted);
  EXPECT_EQ(admission.result.get().shape(), tensor::Shape({4}));
  admission = registry.submit("mlp", sample_of({12}, 2));
  ASSERT_EQ(admission.outcome, serve::ModelRegistry::Outcome::kAdmitted);
  EXPECT_EQ(admission.result.get().shape(), tensor::Shape({5}));
}

TEST(ModelRegistry, RejectsDuplicateAndUnknownNames) {
  serve::ModelRegistry registry;
  registry.load("m", serve::tiny_mlp_artifact());
  EXPECT_THROW(registry.load("m", serve::tiny_mlp_artifact()), serve::RegistryError);
  EXPECT_THROW(registry.info("ghost"), serve::RegistryError);
  EXPECT_THROW(registry.swap("ghost", serve::tiny_mlp_artifact()),
               serve::RegistryError);
  EXPECT_THROW(registry.unload("ghost"), serve::RegistryError);

  const auto admission = registry.submit("ghost", sample_of({12}, 1));
  EXPECT_EQ(admission.outcome, serve::ModelRegistry::Outcome::kUnknown);
  EXPECT_FALSE(admission.reason.empty());
}

TEST(ModelRegistry, MemoryBudgetRefusesLoadAndRollsBack) {
  serve::ModelRegistry registry;
  serve::ModelConfig config;
  config.memory_budget_bytes = 1;  // nothing fits in one byte
  EXPECT_THROW(registry.load("m", serve::tiny_mlp_artifact(), config),
               serve::RegistryError);
  // The refused load must not leave a half-registered name behind.
  EXPECT_FALSE(registry.has("m"));
  registry.load("m", serve::tiny_mlp_artifact());  // name is free again
  EXPECT_EQ(registry.info("m").version, 1);
}

TEST(ModelRegistry, PackedLayerShapeMismatchIsArtifactError) {
  // One more 0-bit filter than the architecture's first packed layer
  // has: the payload stays well-formed, the shape does not fit.
  deploy::QuantizedArtifact artifact = serve::tiny_resnet_artifact();
  deploy::PackedLayer& layer = artifact.packed_layers[0];
  ++layer.num_filters;
  layer.filter_bits.push_back(0);
  ASSERT_EQ("", layer.payload_error());
  serve::ModelRegistry registry;
  EXPECT_THROW(registry.load("m", artifact), deploy::ArtifactError);
  EXPECT_FALSE(registry.has("m"));
  EXPECT_TRUE(registry.names().empty());
}

TEST(ModelRegistry, BudgetAdmitsWhenLargeEnough) {
  serve::ModelRegistry registry;
  serve::ModelConfig config;
  config.memory_budget_bytes = 64u << 20;
  registry.load("m", serve::tiny_mlp_artifact(), config);
  const serve::ModelInfo info = registry.info("m");
  EXPECT_LE(info.resident_bytes, info.memory_budget_bytes);
}

// Budget for exactly the tiny MLP: load it unconstrained once to read
// its footprint, then use (footprint + slack) as the cap.
std::size_t mlp_budget() {
  serve::ModelRegistry probe;
  probe.load("m", serve::tiny_mlp_artifact());
  return probe.info("m").resident_bytes + 1024;
}

TEST(ModelRegistry, SwapFailureKeepsOldVersionAndSwapSucceedsLater) {
  serve::ModelRegistry registry;
  serve::ModelConfig config;
  config.memory_budget_bytes = mlp_budget();
  registry.load("m", serve::tiny_mlp_artifact(), config);

  // A malformed replacement (default-constructed artifact) must throw
  // without touching the serving version.
  EXPECT_ANY_THROW(registry.swap("m", deploy::QuantizedArtifact{}));
  // An over-budget replacement likewise: the VGG blows the MLP budget.
  EXPECT_THROW(registry.swap("m", serve::tiny_vgg_artifact()), serve::RegistryError);

  EXPECT_EQ(registry.info("m").version, 1);
  auto admission = registry.submit("m", sample_of({12}, 3));
  ASSERT_EQ(admission.outcome, serve::ModelRegistry::Outcome::kAdmitted);
  EXPECT_EQ(admission.result.get().shape(), tensor::Shape({5}));

  // A well-formed in-budget swap then succeeds and bumps the version.
  EXPECT_EQ(registry.swap("m", serve::tiny_mlp_artifact()), 2);
  EXPECT_EQ(registry.info("m").version, 2);
}

TEST(ModelRegistry, UnloadDrainsAndForgets) {
  serve::ModelRegistry registry;
  registry.load("m", serve::tiny_mlp_artifact());
  auto admission = registry.submit("m", sample_of({12}, 4));
  ASSERT_EQ(admission.outcome, serve::ModelRegistry::Outcome::kAdmitted);
  registry.unload("m");
  // The in-flight future completed during the drain.
  EXPECT_EQ(admission.result.get().shape(), tensor::Shape({5}));
  EXPECT_FALSE(registry.has("m"));
  EXPECT_EQ(registry.submit("m", sample_of({12}, 5)).outcome,
            serve::ModelRegistry::Outcome::kUnknown);
}

// The queue-full shed path: one worker busy with a millisecond-long
// forward, a 2-deep queue, and more submits than fit must produce
// explicit kShed outcomes plus matching counters — never a block,
// never a silent drop.
TEST(ModelRegistry, ShedsWhenQueueIsFull) {
  const serve::ZooModel slow = serve::slow_zoo_model();
  serve::ModelRegistry registry;
  serve::ModelConfig config;
  config.server.workers = 1;
  config.server.max_batch = 64;
  config.server.queue_capacity = 2;
  registry.load("m", slow.artifact, config);
  const serve::ModelInfo model = registry.info("m");
  std::vector<tensor::Tensor> samples;
  for (int i = 0; i < 12; ++i) samples.push_back(sample_of(model.sample_shape, 10 + i));

  std::vector<serve::ModelRegistry::Admission> admitted;
  std::size_t shed = 0;
  for (tensor::Tensor& sample : samples) {
    auto admission = registry.submit("m", std::move(sample));
    if (admission.outcome == serve::ModelRegistry::Outcome::kAdmitted) {
      admitted.push_back(std::move(admission));
    } else {
      ASSERT_EQ(admission.outcome, serve::ModelRegistry::Outcome::kShed);
      EXPECT_FALSE(admission.reason.empty());
      ++shed;
    }
  }
  EXPECT_GT(shed, 0u);
  EXPECT_GT(admitted.size(), 0u);
  for (auto& a : admitted) {
    EXPECT_EQ(a.result.get().shape(), tensor::Shape({model.num_classes}));
  }
  const serve::ModelInfo info = registry.info("m");
  EXPECT_EQ(info.requests_admitted, admitted.size());
  EXPECT_EQ(info.requests_shed, shed);
}

// The acceptance-critical property: hot-swapping under concurrent
// traffic never produces a wrong answer. Every admitted request —
// whether it rode the old version, the new one, or raced the cutover —
// must return logits byte-identical to a reference EngineSession over
// the same artifact.
TEST(ModelRegistry, HotSwapUnderTrafficStaysByteIdentical) {
  const deploy::QuantizedArtifact artifact = serve::tiny_mlp_artifact();
  serve::ModelRegistry registry;
  serve::ModelConfig config;
  config.server.workers = 2;
  registry.load("m", artifact, config);

  // Precompute reference logits for the sample pool.
  serve::EngineSession reference(artifact);
  constexpr int kPool = 16;
  std::vector<tensor::Tensor> samples;
  std::vector<tensor::Tensor> expected;
  for (int i = 0; i < kPool; ++i) {
    samples.push_back(sample_of({12}, 100 + i));
    expected.push_back(reference_logits(reference, samples.back()));
  }

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> verified{0};
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&, t] {
      util::Rng rng(500 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const auto idx =
            static_cast<std::size_t>(rng.uniform_int(0, kPool - 1));
        auto admission = registry.submit("m", samples[idx]);
        if (admission.outcome != serve::ModelRegistry::Outcome::kAdmitted) {
          continue;  // transient shed mid-drain is legal; wrongness is not
        }
        const tensor::Tensor logits = admission.result.get();
        if (logits.shape() != tensor::Shape({5}) ||
            std::memcmp(logits.data(), expected[idx].data(), 5 * sizeof(float)) != 0) {
          mismatches.fetch_add(1);
        }
        verified.fetch_add(1);
      }
    });
  }

  // Five hot-swaps to the identical artifact while traffic flows.
  for (int s = 0; s < 5; ++s) {
    EXPECT_EQ(registry.swap("m", artifact), s + 2);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true);
  for (std::thread& t : submitters) t.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(verified.load(), 0u);
  const serve::ModelInfo info = registry.info("m");
  EXPECT_EQ(info.version, 6);
  EXPECT_GE(info.requests_admitted, verified.load());
}

TEST(ModelRegistry, PerModelMetricsSurviveSwaps) {
  serve::ModelRegistry registry;
  registry.load("m", serve::tiny_mlp_artifact());
  auto a = registry.submit("m", sample_of({12}, 7));
  ASSERT_EQ(a.outcome, serve::ModelRegistry::Outcome::kAdmitted);
  a.result.get();

  registry.swap("m", serve::tiny_mlp_artifact());

  // The registry-level counter kept the pre-swap admission...
  EXPECT_GE(registry.info("m").requests_admitted, 1u);
  const std::string json = registry.metrics("m").to_json();
  EXPECT_NE(json.find("requests_admitted"), std::string::npos);
  EXPECT_NE(json.find("hot_swaps"), std::string::npos);
  // ...while the per-version server stats window restarted.
  EXPECT_EQ(registry.stats("m").completed, 0u);
  const std::string server_json = registry.server_metrics_json("m");
  EXPECT_FALSE(server_json.empty());
}

}  // namespace
}  // namespace cq
