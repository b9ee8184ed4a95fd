#include <algorithm>
#include <cstdio>
#include <utility>

#include "core/evaluation.h"
#include "core/streaming_aligner.h"
#include "corpus/shard_io.h"
#include "layers.h"
#include "replay.h"
#include "util/logging.h"
#include "workloads.h"

namespace briqbench {

namespace {

using briq::core::DocumentAlignment;
using briq::core::PreparedDocument;

// 1,200 documents is ~0.75 s per pass at 4 threads, so a 30 s run makes
// ~38 passes and the reported rate is a median over them.
constexpr size_t kAlignDocs = 1200;
constexpr size_t kShardDocs = 32;
constexpr int kMinPasses = 3;

/// Wraps an aligner so each Align call is a span of the traced run.
class TracedAligner final : public briq::core::Aligner {
 public:
  TracedAligner(const briq::core::Aligner* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}
  DocumentAlignment Align(const PreparedDocument& doc) const override {
    ScopedSpan span(tracer_, "stream.align", doc.source->id, doc.source->domain);
    return inner_->Align(doc);
  }
  std::string name() const override { return inner_->name(); }

 private:
  const briq::core::Aligner* inner_;
  Tracer* tracer_;
};

struct AlignSetup {
  std::unique_ptr<briq::core::BriqSystem> system;
  briq::corpus::Corpus corpus;
};

AlignSetup Setup(const Args& args, const std::string& shard_dir) {
  AlignSetup setup;
  const briq::core::BriqConfig config;
  setup.system =
      TrainSystem(MakeCorpus(kModelDocs, kModelSeed).documents, config);
  setup.corpus = MakeCorpus(kAlignDocs, args.seed);
  auto written = briq::corpus::WriteCorpusShards(setup.corpus, shard_dir,
                                                 "corpus", kShardDocs);
  BRIQ_CHECK(written.ok()) << written.status().ToString();
  return setup;
}

/// Passes until `seconds` have gone by (at least kMinPasses).
std::vector<StreamPassResult> TimedPasses(const briq::core::Aligner& aligner,
                                          const briq::core::BriqConfig& config,
                                          const std::string& dir, int threads,
                                          double seconds) {
  std::vector<StreamPassResult> passes;
  const Clock::time_point start = Clock::now();
  while (static_cast<int>(passes.size()) < kMinPasses ||
         SecondsBetween(start, Clock::now()) < seconds) {
    passes.push_back(StreamPass(aligner, config, dir, kAlignDocs, threads));
  }
  return passes;
}

double MedianRate(const std::vector<StreamPassResult>& passes) {
  std::vector<double> rates;
  for (const auto& p : passes) {
    rates.push_back(static_cast<double>(p.alignments.size()) / p.wall_s);
  }
  return Median(rates);
}

Result Traced(const Args& args, const AlignSetup& setup,
              const std::string& shard_dir) {
  const briq::core::BriqSystem& system = *setup.system;
  const int threads = HardwareThreads();
  Result result;
  LayerReport report;

  // Untraced and traced streaming passes; their rates give the overhead
  // of tracing.
  const double untraced = MedianRate(TimedPasses(
      system, system.config(), shard_dir, threads, args.seconds / 3));
  Tracer tracer;
  const TracedAligner traced_aligner(&system, &tracer);
  const double traced = MedianRate(TimedPasses(
      traced_aligner, system.config(), shard_dir, threads, args.seconds / 3));
  report.Set("obs.trace_overhead_frac", untraced / traced - 1.0);

  // One pass with the registry zeroed: exact counters and stream gauges.
  briq::obs::MetricRegistry::Global().Reset();
  const StreamPassResult counted =
      StreamPass(system, system.config(), shard_dir, kAlignDocs, threads);
  const RegistryReading delta = RegistryReading::Take();
  report.Set("stream.producer_blocked_s",
             delta.Sum("briq.stream.producer_blocked_seconds"));
  report.Set("stream.consumer_blocked_s",
             delta.Sum("briq.stream.consumer_blocked_seconds"));
  report.Set("stream.queue_depth_peak",
             static_cast<double>(delta.Gauge("briq.stream.queue_depth_peak")));
  report.Set("stream.reorder_buffered_peak",
             static_cast<double>(delta.Gauge("briq.stream.reorder_buffered_peak")));
  report.Set("corpus.docs_read",
             static_cast<double>(delta.Counter("briq.shard.docs_read")));
  report.Set("corpus.checksum_failures",
             static_cast<double>(delta.Counter("briq.shard.checksum_failures")));

  // Sequential replay of the same documents, read from the shards, one
  // span per layer call.
  ReplayCounts counts;
  auto reader = briq::corpus::ShardedCorpusReader::Open(shard_dir, "corpus");
  BRIQ_CHECK(reader.ok()) << reader.status().ToString();
  size_t index = 0;
  while (true) {
    std::optional<briq::corpus::Document> doc;
    {
      ScopedSpan span(&tracer, "shard_read", std::to_string(index));
      auto next = reader->Next();
      BRIQ_CHECK(next.ok()) << next.status().ToString();
      doc = std::move(*next);
    }
    if (!doc.has_value()) break;
    const std::string id = std::to_string(index++);
    ReplayDocument(&tracer, system, *doc, id, &counts);
  }
  report.Set("corpus.shard_read_s", tracer.ByName()["shard_read"].self_s);
  report.SetCoreLayers(tracer, counts, delta, 1.0);

  result.attempted = kAlignDocs + counts.documents;
  result.failed = counts.mismatches + (counted.status.ok() ? 0 : kAlignDocs);
  result.correct = result.failed == 0;
  result.Detail("replayed_docs", static_cast<double>(counts.documents), "count");
  result.Detail("spans", static_cast<double>(tracer.NumSpans()), "count");
  if (!tracer.WriteJson(TracePath(args))) {
    std::fprintf(stderr, "briqbench: cannot write %s\n", TracePath(args).c_str());
  }
  AddDomainDetails(tracer, counts, &result);
  report.AppendTo(&result);
  return result;
}

}  // namespace

StreamPassResult StreamPass(const briq::core::Aligner& aligner,
                            const briq::core::BriqConfig& config,
                            const std::string& directory, size_t num_docs,
                            int threads) {
  StreamPassResult pass;
  pass.alignments.resize(num_docs);
  briq::core::StreamingOptions options;
  options.num_threads = threads;
  size_t delivered = 0;
  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point t0 = Clock::now();
  pass.status = briq::core::AlignShardedCorpus(
      aligner, config, directory, "corpus", options,
      [&](size_t index, const briq::corpus::Document&,
          const DocumentAlignment& alignment) {
        if (index >= num_docs) return;
        pass.alignments[index] = alignment;
        ++delivered;
      });
  pass.wall_s = SecondsBetween(t0, Clock::now());
  pass.cpu_s = ProcessCpuSeconds() - cpu0;
  if (pass.status.ok() && delivered != num_docs) {
    pass.status = briq::util::Status::Internal(
        "stream delivered " + std::to_string(delivered) + " of " +
        std::to_string(num_docs) + " documents");
  }
  return pass;
}

Result RunAlignStream(const Args& args) {
  const ScratchDir scratch(args.out_dir, "align_stream");
  const std::string shard_dir = scratch.Sub("shards");

  std::vector<double> setup_times;
  AlignSetup setup;
  for (int i = 0; i < (args.trace ? 1 : kSetupRepetitions); ++i) {
    const Clock::time_point t0 = Clock::now();
    setup = Setup(args, shard_dir);
    setup_times.push_back(SecondsBetween(t0, Clock::now()));
  }
  if (args.trace) return Traced(args, setup, shard_dir);

  const briq::core::BriqSystem& system = *setup.system;
  const int threads = HardwareThreads();
  StreamPass(system, system.config(), shard_dir, kAlignDocs, threads);
  const std::vector<StreamPassResult> passes =
      TimedPasses(system, system.config(), shard_dir, threads, args.seconds);

  // Outside the timed window: every pass must equal AlignBatch on the same
  // documents, and F1 is scored against the generator's ground truth.
  const std::vector<PreparedDocument> prepared =
      PrepareAll(setup.corpus.documents, system.config());
  const std::vector<DocumentAlignment> reference =
      system.AlignBatch(Pointers(prepared), threads);
  Result result;
  std::vector<double> rates, cpu_ms;
  for (const StreamPassResult& pass : passes) {
    result.attempted += kAlignDocs;
    if (!pass.status.ok()) {
      std::fprintf(stderr, "briqbench: stream pass failed: %s\n",
                   pass.status.ToString().c_str());
      result.failed += kAlignDocs;
      continue;
    }
    for (size_t i = 0; i < kAlignDocs; ++i) {
      if (!SameAlignment(pass.alignments[i], reference[i])) ++result.failed;
    }
    rates.push_back(static_cast<double>(kAlignDocs) / pass.wall_s);
    cpu_ms.push_back(pass.cpu_s * 1e3 / static_cast<double>(kAlignDocs));
  }
  briq::core::EvalResult eval;
  for (size_t i = 0; i < kAlignDocs; ++i) {
    eval.Merge(briq::core::EvaluateDocument(prepared[i], passes.front().alignments[i]));
  }
  result.correct = result.failed == 0;

  AddEndToEnd(&result, Median(setup_times), Median(rates), Median(cpu_ms),
              eval.F1());
  std::sort(rates.begin(), rates.end());
  result.Detail("pass_rate_min", rates.front(), "1/s");
  result.Detail("pass_rate_max", rates.back(), "1/s");
  result.Detail("threads", threads, "count");
  result.Detail("passes", static_cast<double>(passes.size()), "count");
  result.Detail("docs_per_pass", kAlignDocs, "count");
  return result;
}

}  // namespace briqbench
