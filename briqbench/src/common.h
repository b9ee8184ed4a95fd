// Shared plumbing of the BriQ benchmark: arguments, the result line, host
// clocks and resource readings, seeded corpora, model training, and
// registry counter deltas.
#ifndef BRIQBENCH_COMMON_H_
#define BRIQBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/aligner.h"
#include "core/config.h"
#include "core/pipeline.h"
#include "corpus/document.h"
#include "obs/metrics.h"

namespace briqbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (inside the checkout) for shards, spill files, models and
  /// the span file of a traced run.
  std::string out_dir = ".bench_out";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run prints as its last line.
struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Context printed on the line before the result: sample counts, the
  /// quantile a tail was taken at, per-rate figures.
  std::vector<Metric> details;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void Detail(const std::string& name, double value, const std::string& unit) {
    details.push_back(Metric{name, value, unit});
  }
};

/// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} on
/// one line, every value printed with all its digits.
std::string ResultLine(const Result& result);

/// {"details": {...}} in the same per-metric shape.
std::string DetailsLine(const Result& result);

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// User + system CPU seconds of this process (getrusage).
double ProcessCpuSeconds();

/// Peak resident set of this process in MiB (getrusage ru_maxrss).
double PeakRssMb();

int HardwareThreads();

double Median(std::vector<double> values);

/// Seeded corpus with the paper's Table VIII domain mix (the generator's
/// default weights), each domain's share exact.
briq::corpus::Corpus MakeCorpus(size_t num_documents, uint64_t seed);

/// Prepares `docs` and trains a BriQ system on them (in-memory Train).
std::unique_ptr<briq::core::BriqSystem> TrainSystem(
    const std::vector<briq::corpus::Document>& docs,
    const briq::core::BriqConfig& config);

std::vector<briq::core::PreparedDocument> PrepareAll(
    const std::vector<briq::corpus::Document>& docs,
    const briq::core::BriqConfig& config);

std::vector<const briq::core::PreparedDocument*> Pointers(
    const std::vector<briq::core::PreparedDocument>& docs);

bool SameAlignment(const briq::core::DocumentAlignment& a,
                   const briq::core::DocumentAlignment& b);

/// A directory under the run's output directory that is removed with
/// everything in it when the object goes out of scope.
class ScratchDir {
 public:
  ScratchDir(const std::string& out_dir, const std::string& name);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }
  std::string Sub(const std::string& name) const;

 private:
  std::string path_;
};

/// Counter values and histogram sums/counts of the global registry, so a
/// phase's work is the difference of two readings. Histograms are read
/// only as _sum/_count: their bucket percentiles round up by up to 4x.
struct RegistryReading {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, double> hist_sum;
  std::map<std::string, uint64_t> hist_count;

  static RegistryReading Take();
  /// this - before, counters and histograms only; gauges keep this
  /// reading's value.
  RegistryReading Minus(const RegistryReading& before) const;

  uint64_t Counter(const std::string& name) const;
  int64_t Gauge(const std::string& name) const;
  double Sum(const std::string& name) const;
  uint64_t Count(const std::string& name) const;
};

}  // namespace briqbench

#endif  // BRIQBENCH_COMMON_H_
