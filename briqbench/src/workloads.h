// The three workloads. Each builds its inputs from the seed, drives BriQ
// only through public entry points, checks the outputs outside the timed
// window, and returns the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run).
#ifndef BRIQBENCH_WORKLOADS_H_
#define BRIQBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "common.h"
#include "core/aligner.h"
#include "trace.h"

namespace briqbench {

/// Closed loop: a seeded Table VIII mix streamed from briq-shard-v1
/// shards through core::AlignShardedCorpus at nproc workers.
Result RunAlignStream(const Args& args);

/// Open loop: seeded Poisson arrivals of POST /align (3/4 JSON documents,
/// 1/4 HTML pages) against an in-process serve::HttpServer.
Result RunServeOpen(const Args& args);

/// Closed loop: out-of-core training (TrainOnShardedCorpus with a spill
/// directory) over a seeded sharded corpus.
Result RunTrainStream(const Args& args);

/// Setups per run; setup_s is their median.
inline constexpr int kSetupRepetitions = 5;

/// Seed of the corpus the model of the align and serve workloads is
/// trained on. It is the same for every --seed: the forest's size, and so
/// its cost per row, follows its training sample, and a model per seed
/// moved serve_open's capacity by ~20 % between seeds. It lies far from
/// the small seeds runs use, so no workload corpus is the training corpus.
inline constexpr uint64_t kModelSeed = 0x4252495142454e43ull;

/// Training documents of the model the align and serve workloads use.
inline constexpr size_t kModelDocs = 240;

/// Appends the end-to-end metrics every workload reports, in the order
/// BENCHMARK.json lists them. Latency percentiles go to the details line
/// instead: wall-clock latency follows the hypervisor's steal time, and
/// across runs it spreads by more than any bound the benchmark may set
/// (see README.md).
void AddEndToEnd(Result* result, double setup_s, double throughput_per_s,
                 double cpu_ms_per_op, double f1);

/// Path of the span file a traced run writes.
std::string TracePath(const Args& args);

/// One core::AlignShardedCorpus pass over the sharded corpus
/// `directory`/corpus-*.jsonl.
struct StreamPassResult {
  briq::util::Status status;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<briq::core::DocumentAlignment> alignments;  // by doc index
};

StreamPassResult StreamPass(const briq::core::Aligner& aligner,
                            const briq::core::BriqConfig& config,
                            const std::string& directory, size_t num_docs,
                            int threads);

}  // namespace briqbench

#endif  // BRIQBENCH_WORKLOADS_H_
