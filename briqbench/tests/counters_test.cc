// The exact work counters repeat exactly across two runs of the same seed
// and between 1 and several worker threads. These counts carry no
// wall-clock bound; a later change that moves them changes the work done.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>

#include "common.h"
#include "core/streaming_trainer.h"
#include "corpus/shard_io.h"
#include "workloads.h"

namespace briqbench {
namespace {

namespace fs = std::filesystem;

/// The exact work counters of the alignment and training layers.
struct WorkCounters {
  uint64_t filter_pairs_before = 0;
  uint64_t filter_pairs_kept = 0;
  uint64_t filter_preindex_skipped = 0;
  uint64_t forest_rows = 0;
  uint64_t rwr_walks = 0;
  uint64_t rwr_iterations = 0;
  uint64_t rwr_decisions = 0;
  uint64_t train_samples = 0;
  uint64_t train_spill_bytes = 0;

  bool operator==(const WorkCounters&) const = default;
};

WorkCounters CountersOf(const RegistryReading& delta) {
  WorkCounters w;
  w.filter_pairs_before = delta.Counter("briq.filter.pairs_before");
  w.filter_pairs_kept = delta.Counter("briq.filter.pairs_kept");
  w.filter_preindex_skipped = delta.Counter("briq.filter.preindex_skipped");
  w.forest_rows = delta.Counter("briq.classify.flat_rows");
  w.rwr_walks = delta.Counter("briq.rwr.walks");
  w.rwr_iterations = delta.Counter("briq.rwr.iterations");
  w.rwr_decisions = delta.Counter("briq.rwr.decisions");
  w.train_samples = delta.Counter("briq.train.samples");
  w.train_spill_bytes = delta.Counter("briq.train.spill_bytes");
  return w;
}

constexpr size_t kDocs = 48;
constexpr uint64_t kSeed = 20190408;

int ManyThreads() { return std::max(4, HardwareThreads()); }

WorkCounters AlignCounters(const std::string& dir, int threads) {
  const auto system =
      TrainSystem(MakeCorpus(96, kModelSeed).documents, briq::core::BriqConfig());
  const std::string shards = dir + "/shards";
  fs::remove_all(shards);
  fs::create_directories(shards);
  EXPECT_TRUE(briq::corpus::WriteCorpusShards(MakeCorpus(kDocs, kSeed), shards,
                                              "corpus", 8)
                  .ok());
  const RegistryReading before = RegistryReading::Take();
  const StreamPassResult pass =
      StreamPass(*system, system->config(), shards, kDocs, threads);
  EXPECT_TRUE(pass.status.ok()) << pass.status.ToString();
  return CountersOf(RegistryReading::Take().Minus(before));
}

WorkCounters TrainCounters(const std::string& dir, int threads) {
  const std::string shards = dir + "/train_shards";
  const std::string spill = dir + "/spill";
  fs::remove_all(shards);
  fs::remove_all(spill);
  fs::create_directories(shards);
  fs::create_directories(spill);
  EXPECT_TRUE(briq::corpus::WriteCorpusShards(MakeCorpus(kDocs, kSeed), shards,
                                              "corpus", 8)
                  .ok());
  briq::core::BriqSystem system{briq::core::BriqConfig()};
  briq::core::StreamingTrainOptions options;
  options.num_threads = threads;
  options.spill_dir = spill;
  const RegistryReading before = RegistryReading::Take();
  const briq::util::Status status =
      briq::core::TrainOnShardedCorpus(&system, shards, "corpus", options);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return CountersOf(RegistryReading::Take().Minus(before));
}

class CountersTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::current_path() /
            ("briqbench_counters_" + std::to_string(::getpid())))
               .string();
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  std::string dir_;
};

TEST_F(CountersTest, AlignCountersRepeatAcrossRunsAndThreadCounts) {
  const WorkCounters first = AlignCounters(dir_, 1);
  EXPECT_GT(first.filter_pairs_before, 0u);
  EXPECT_GT(first.forest_rows, 0u);
  EXPECT_GT(first.rwr_walks, 0u);
  EXPECT_GT(first.rwr_iterations, 0u);
  EXPECT_GT(first.rwr_decisions, 0u);
  EXPECT_EQ(AlignCounters(dir_, 1), first);
  EXPECT_EQ(AlignCounters(dir_, ManyThreads()), first);
  EXPECT_EQ(AlignCounters(dir_, ManyThreads()), first);
}

TEST_F(CountersTest, TrainCountersRepeatAcrossRunsAndThreadCounts) {
  const WorkCounters first = TrainCounters(dir_, 1);
  EXPECT_GT(first.train_samples, 0u);
  EXPECT_GT(first.train_spill_bytes, 0u);
  EXPECT_EQ(TrainCounters(dir_, 1), first);
  EXPECT_EQ(TrainCounters(dir_, ManyThreads()), first);
  EXPECT_EQ(TrainCounters(dir_, ManyThreads()), first);
}

}  // namespace
}  // namespace briqbench
