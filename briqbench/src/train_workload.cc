#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "core/evaluation.h"
#include "core/features.h"
#include "core/streaming_trainer.h"
#include "corpus/shard_io.h"
#include "layers.h"
#include "ml/sample_sink.h"
#include "replay.h"
#include "stats.h"
#include "util/logging.h"
#include "workloads.h"

namespace briqbench {

namespace {

namespace fs = std::filesystem;

// 240 training documents take ~0.8 s per job at 4 threads, mostly the
// serial forest fit, so a 30 s run makes ~37 jobs and the rate is their
// median.
constexpr size_t kTrainDocs = 240;
constexpr size_t kHoldoutDocs = 200;
constexpr size_t kShardDocs = 32;
constexpr int kMinJobs = 3;

struct TrainSetup {
  briq::corpus::Corpus corpus;  // kTrainDocs sharded, then the holdout
};

TrainSetup Setup(const Args& args, const std::string& shard_dir) {
  TrainSetup setup;
  setup.corpus = MakeCorpus(kTrainDocs + kHoldoutDocs, args.seed);
  briq::corpus::Corpus train;
  train.documents.assign(setup.corpus.documents.begin(),
                         setup.corpus.documents.begin() + kTrainDocs);
  auto written =
      briq::corpus::WriteCorpusShards(train, shard_dir, "corpus", kShardDocs);
  BRIQ_CHECK(written.ok()) << written.status().ToString();
  return setup;
}

std::vector<briq::corpus::Document> Holdout(const TrainSetup& setup) {
  return {setup.corpus.documents.begin() + kTrainDocs,
          setup.corpus.documents.end()};
}

struct Job {
  briq::util::Status status;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::unique_ptr<briq::core::BriqSystem> system;
};

/// One out-of-core training job; with a tracer, each shard read is a span.
Job TrainJob(const std::string& shard_dir, const std::string& spill_dir,
             int threads, Tracer* tracer) {
  fs::remove_all(spill_dir);
  fs::create_directories(spill_dir);
  Job job;
  job.system = std::make_unique<briq::core::BriqSystem>(briq::core::BriqConfig());
  briq::core::StreamingTrainOptions options;
  options.num_threads = threads;
  options.spill_dir = spill_dir;
  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point t0 = Clock::now();
  if (tracer == nullptr) {
    job.status = briq::core::TrainOnShardedCorpus(job.system.get(), shard_dir,
                                                  "corpus", options);
  } else {
    // TrainOnShardedCorpus's body, with a span per read.
    auto reader = briq::corpus::ShardedCorpusReader::Open(shard_dir, "corpus");
    BRIQ_CHECK(reader.ok()) << reader.status().ToString();
    briq::core::StreamingTrainer trainer(job.system.get(), options);
    job.status = trainer.Train([&] {
      ScopedSpan span(tracer, "shard_read",
                      std::to_string(reader->next_document_index()));
      return reader->Next();
    });
  }
  job.wall_s = SecondsBetween(t0, Clock::now());
  job.cpu_s = ProcessCpuSeconds() - cpu0;
  return job;
}

std::vector<Job> TimedJobs(const std::string& shard_dir,
                           const std::string& spill_dir, int threads,
                           double seconds, Tracer* tracer) {
  std::vector<Job> jobs;
  const Clock::time_point start = Clock::now();
  while (static_cast<int>(jobs.size()) < kMinJobs ||
         SecondsBetween(start, Clock::now()) < seconds) {
    jobs.push_back(TrainJob(shard_dir, spill_dir, threads, tracer));
    // Keep only the first model; later ones are compared as they finish.
    if (jobs.size() > 1) jobs.back().system.reset();
  }
  return jobs;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

double MedianDocsPerS(const std::vector<Job>& jobs) {
  std::vector<double> rates;
  for (const Job& j : jobs) rates.push_back(kTrainDocs / j.wall_s);
  return Median(rates);
}

Result Traced(const Args& args, const TrainSetup& setup, const ScratchDir& scratch,
              const std::string& shard_dir, int threads) {
  Result result;
  LayerReport report;
  const std::string spill_dir = scratch.Sub("spill");

  const double untraced = MedianDocsPerS(
      TimedJobs(shard_dir, spill_dir, threads, args.seconds / 4, nullptr));

  // One traced job with the registry zeroed: exact training counters.
  Tracer tracer;
  briq::obs::MetricRegistry::Global().Reset();
  Job counted = TrainJob(shard_dir, spill_dir, threads, &tracer);
  const RegistryReading delta = RegistryReading::Take();
  BRIQ_CHECK(counted.status.ok()) << counted.status.ToString();
  report.Set("corpus.shard_read_s", tracer.ByName()["shard_read"].self_s);
  std::vector<Job> traced_jobs =
      TimedJobs(shard_dir, spill_dir, threads, args.seconds / 4, &tracer);
  traced_jobs.push_back(std::move(counted));
  report.Set("obs.trace_overhead_frac", untraced / MedianDocsPerS(traced_jobs) - 1.0);
  report.Set("corpus.docs_read",
             static_cast<double>(delta.Counter("briq.shard.docs_read")));
  report.Set("corpus.checksum_failures",
             static_cast<double>(delta.Counter("briq.shard.checksum_failures")));
  report.Set("train.samples", static_cast<double>(delta.Counter("briq.train.samples")));
  report.Set("train.tagger_samples",
             static_cast<double>(delta.Counter("briq.train.tagger_samples")));
  report.Set("train.spill_bytes",
             static_cast<double>(delta.Counter("briq.train.spill_bytes")));
  report.Set("train.producer_blocked_s",
             delta.Sum("briq.train.producer_blocked_seconds"));

  // Replay of the job's layers, sequentially: per document prepare and
  // sample emission, then the two forest fits from the emitted rows.
  const briq::core::BriqConfig config;
  briq::core::MentionPairClassifier classifier(&config);
  briq::core::TextMentionTagger tagger(&config);
  briq::ml::InMemorySampleSink pair_rows(briq::core::NumActivePairFeatures(config));
  briq::ml::InMemorySampleSink tagger_rows(briq::core::TextMentionTagger::kNumFeatures);
  briq::core::MentionPairClassifier::TrainingStats stats;
  for (size_t i = 0; i < kTrainDocs; ++i) {
    const briq::corpus::Document& doc = setup.corpus.documents[i];
    ScopedSpan doc_span(&tracer, "train_document", std::to_string(i), doc.domain);
    briq::core::PreparedDocument prepared;
    {
      ScopedSpan span(&tracer, "train_prepare");
      prepared = briq::core::PrepareDocument(doc, config);
    }
    ScopedSpan span(&tracer, "train_emit");
    const briq::core::FeatureComputer features(prepared, config);
    BRIQ_CHECK_OK(classifier.EmitTrainingSamples(prepared, features, &pair_rows, &stats));
    BRIQ_CHECK_OK(tagger.EmitTrainingSamples(prepared, &tagger_rows));
  }
  {
    ScopedSpan span(&tracer, "fit_tagger");
    const briq::ml::DatasetSampleSource source(&tagger_rows.dataset());
    BRIQ_CHECK_OK(tagger.TrainFromSource(source));
  }
  {
    ScopedSpan span(&tracer, "fit_classifier");
    const briq::ml::DatasetSampleSource source(&pair_rows.dataset());
    BRIQ_CHECK_OK(classifier.TrainFromSource(source, stats));
  }
  auto layers = tracer.ByName();
  report.Set("train.emit_us_per_doc", layers["train_emit"].self_s * 1e6 / kTrainDocs);
  report.Set("fit.tagger_s", layers["fit_tagger"].self_s);
  report.Set("fit.classifier_s", layers["fit_classifier"].self_s);
  // The replayed emission must produce the rows the streamed job counted.
  const bool same_rows = pair_rows.samples_seen() == delta.Counter("briq.train.samples") &&
                         tagger_rows.samples_seen() ==
                             delta.Counter("briq.train.tagger_samples");

  // Alignment layers of the trained model, on the holdout.
  ReplayCounts counts;
  const RegistryReading replay_before = RegistryReading::Take();
  const auto holdout = Holdout(setup);
  for (size_t i = 0; i < holdout.size(); ++i) {
    ReplayDocument(&tracer, *traced_jobs.front().system, holdout[i],
                   "holdout." + std::to_string(i), &counts);
  }
  // Filter and Resolve run twice per replayed document (composed, then
  // inside the BriqSystem::Align it is checked against).
  report.SetCoreLayers(tracer, counts, RegistryReading::Take().Minus(replay_before), 2.0);

  result.attempted = traced_jobs.size() + counts.documents + 1;
  for (const Job& j : traced_jobs) {
    if (!j.status.ok()) ++result.failed;
  }
  result.failed += counts.mismatches + (same_rows ? 0 : 1);
  result.correct = result.failed == 0;
  if (!tracer.WriteJson(TracePath(args))) {
    std::fprintf(stderr, "briqbench: cannot write %s\n", TracePath(args).c_str());
  }
  AddDomainDetails(tracer, counts, &result);
  report.AppendTo(&result);
  return result;
}

}  // namespace

Result RunTrainStream(const Args& args) {
  const ScratchDir scratch(args.out_dir, "train_stream");
  const std::string shard_dir = scratch.Sub("shards");
  const int threads = HardwareThreads();

  std::vector<double> setup_times;
  TrainSetup setup;
  for (int i = 0; i < (args.trace ? 1 : kSetupRepetitions); ++i) {
    const Clock::time_point t0 = Clock::now();
    setup = Setup(args, shard_dir);
    setup_times.push_back(SecondsBetween(t0, Clock::now()));
  }
  if (args.trace) return Traced(args, setup, scratch, shard_dir, threads);

  const std::string spill_dir = scratch.Sub("spill");
  const std::string model_dir = scratch.Sub("models");
  std::string first_model;  // the saved model of first_system
  std::unique_ptr<briq::core::BriqSystem> first_system;
  std::string first_bytes;
  std::vector<double> rates, cpu_ms, job_ms;
  Result result;
  const Clock::time_point start = Clock::now();
  double timed_s = 0.0;
  // The timed window is the sum of the jobs; saving and comparing each
  // model happens between jobs, outside it.
  while (static_cast<int>(job_ms.size()) < kMinJobs || timed_s < args.seconds) {
    Job job = TrainJob(shard_dir, spill_dir, threads, nullptr);
    const std::string path =
        model_dir + "/job-" + std::to_string(job_ms.size()) + ".model";
    timed_s += job.wall_s;
    rates.push_back(kTrainDocs / job.wall_s);
    cpu_ms.push_back(job.cpu_s * 1e3 / kTrainDocs);
    job_ms.push_back(job.wall_s * 1e3);
    result.attempted += kTrainDocs;
    std::string why = job.status.ToString();
    if (job.status.ok()) {
      const bool saved = job.system->SaveModel(path).ok();
      const std::string bytes = ReadFile(path);
      if (first_system == nullptr) {
        first_system = std::move(job.system);
        first_model = path;
        first_bytes = bytes;
      } else {
        std::filesystem::remove(path);
      }
      why = !saved || bytes.empty() ? "model not saved"
            : bytes != first_bytes  ? "model differs from the first job's"
                                    : "";
    }
    if (!why.empty()) {
      std::fprintf(stderr, "briqbench: training job %zu failed: %s\n",
                   job_ms.size() - 1, why.c_str());
      result.failed += kTrainDocs;
    }
    if (SecondsBetween(start, Clock::now()) > 6 * args.seconds) break;
  }

  // The first successful job's model round-trips through
  // SaveModel/LoadModel and aligns the held-out slice exactly as the
  // trained system does; F1 is the loaded model's on that slice.
  briq::core::BriqSystem loaded{briq::core::BriqConfig()};
  const bool load_ok = first_system != nullptr && loaded.LoadModel(first_model).ok();
  const auto holdout = Holdout(setup);
  const auto prepared = PrepareAll(holdout, loaded.config());
  briq::core::EvalResult eval;
  result.attempted += holdout.size();
  for (const auto& doc : prepared) {
    if (!load_ok) {
      ++result.failed;
      continue;
    }
    const briq::core::DocumentAlignment alignment = loaded.Align(doc);
    if (!SameAlignment(alignment, first_system->Align(doc))) ++result.failed;
    eval.Merge(briq::core::EvaluateDocument(doc, alignment));
  }
  result.correct = result.failed == 0;

  const LatencySummary latency = Summarize(job_ms);
  AddEndToEnd(&result, Median(setup_times), Median(rates), Median(cpu_ms),
              eval.F1());
  result.Detail("job_p50_ms", latency.p50, "ms");
  result.Detail("job_tail_ms", latency.tail, "ms");
  result.Detail("threads", threads, "count");
  result.Detail("jobs", static_cast<double>(job_ms.size()), "count");
  result.Detail("docs_per_job", kTrainDocs, "count");
  result.Detail("job_tail_quantile", latency.tail_q, "ratio");
  result.Detail("holdout_docs", kHoldoutDocs, "count");
  return result;
}

}  // namespace briqbench
