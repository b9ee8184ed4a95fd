#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <unistd.h>

#include "core/extraction.h"
#include "corpus/domain_profile.h"
#include "corpus/generator.h"
#include "util/logging.h"
#include "util/random.h"
#include "workloads.h"

namespace briqbench {

namespace fs = std::filesystem;

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsObject(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) out += ", ";
    out += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return out + "}";
}

}  // namespace

std::string ResultLine(const Result& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": " + MetricsObject(result.metrics);
  return out + "}";
}

std::string DetailsLine(const Result& result) {
  return "{\"details\": " + MetricsObject(result.details) + "}";
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

briq::corpus::Corpus MakeCorpus(size_t num_documents, uint64_t seed) {
  // Exact per-domain counts (largest remainder) in a seeded order: drawing
  // each document's domain independently would let the mix, and with it
  // the work per document, drift from seed to seed.
  const briq::corpus::CorpusOptions defaults;
  double total_weight = 0.0;
  for (const auto& [name, w] : defaults.domain_weights) total_weight += w;
  std::vector<size_t> counts;
  std::vector<std::pair<double, size_t>> remainders;
  size_t assigned = 0;
  for (const auto& [name, w] : defaults.domain_weights) {
    const double share = static_cast<double>(num_documents) * w / total_weight;
    counts.push_back(static_cast<size_t>(share));
    assigned += counts.back();
    remainders.emplace_back(share - static_cast<double>(counts.back()),
                            counts.size() - 1);
  }
  std::stable_sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (size_t i = 0; assigned < num_documents; ++i, ++assigned) {
    ++counts[remainders[i % remainders.size()].second];
  }
  std::vector<const briq::corpus::DomainProfile*> order;
  for (size_t d = 0; d < counts.size(); ++d) {
    const auto& profile =
        briq::corpus::GetDomainProfile(defaults.domain_weights[d].first);
    order.insert(order.end(), counts[d], &profile);
  }
  briq::util::Rng rng(seed);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.UniformInt(uint64_t{i})]);
  }
  briq::corpus::Corpus corpus;
  for (size_t i = 0; i < order.size(); ++i) {
    corpus.documents.push_back(briq::corpus::GenerateDocument(
        *order[i], "doc-" + std::to_string(i), &rng));
  }
  return corpus;
}

std::vector<briq::core::PreparedDocument> PrepareAll(
    const std::vector<briq::corpus::Document>& docs,
    const briq::core::BriqConfig& config) {
  std::vector<briq::core::PreparedDocument> out;
  out.reserve(docs.size());
  for (const auto& doc : docs) {
    out.push_back(briq::core::PrepareDocument(doc, config));
  }
  return out;
}

std::vector<const briq::core::PreparedDocument*> Pointers(
    const std::vector<briq::core::PreparedDocument>& docs) {
  std::vector<const briq::core::PreparedDocument*> out;
  out.reserve(docs.size());
  for (const auto& d : docs) out.push_back(&d);
  return out;
}

std::unique_ptr<briq::core::BriqSystem> TrainSystem(
    const std::vector<briq::corpus::Document>& docs,
    const briq::core::BriqConfig& config) {
  const std::vector<briq::core::PreparedDocument> prepared =
      PrepareAll(docs, config);
  auto system = std::make_unique<briq::core::BriqSystem>(config);
  BRIQ_CHECK_OK(system->Train(Pointers(prepared)));
  return system;
}

bool SameAlignment(const briq::core::DocumentAlignment& a,
                   const briq::core::DocumentAlignment& b) {
  if (a.decisions.size() != b.decisions.size()) return false;
  for (size_t i = 0; i < a.decisions.size(); ++i) {
    const auto& x = a.decisions[i];
    const auto& y = b.decisions[i];
    if (x.text_idx != y.text_idx || x.table_idx != y.table_idx ||
        x.score != y.score) {
      return false;
    }
  }
  return true;
}

ScratchDir::ScratchDir(const std::string& out_dir, const std::string& name)
    : path_((fs::path(out_dir) /
             (name + "-" + std::to_string(static_cast<long>(getpid()))))
                .string()) {
  fs::remove_all(path_);
  fs::create_directories(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  fs::remove_all(path_, ec);
}

std::string ScratchDir::Sub(const std::string& name) const {
  const std::string sub = (fs::path(path_) / name).string();
  fs::create_directories(sub);
  return sub;
}

RegistryReading RegistryReading::Take() {
  const briq::obs::MetricsSnapshot snap =
      briq::obs::MetricRegistry::Global().Snapshot();
  RegistryReading r;
  r.counters = snap.counters;
  r.gauges = snap.gauges;
  for (const auto& [name, h] : snap.histograms) {
    r.hist_sum[name] = h.sum;
    r.hist_count[name] = h.count;
  }
  return r;
}

RegistryReading RegistryReading::Minus(const RegistryReading& before) const {
  RegistryReading d = *this;
  for (auto& [name, v] : d.counters) v -= before.Counter(name);
  for (auto& [name, v] : d.hist_sum) v -= before.Sum(name);
  for (auto& [name, v] : d.hist_count) v -= before.Count(name);
  return d;
}

uint64_t RegistryReading::Counter(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

int64_t RegistryReading::Gauge(const std::string& name) const {
  auto it = gauges.find(name);
  return it == gauges.end() ? 0 : it->second;
}

double RegistryReading::Sum(const std::string& name) const {
  auto it = hist_sum.find(name);
  return it == hist_sum.end() ? 0.0 : it->second;
}

uint64_t RegistryReading::Count(const std::string& name) const {
  auto it = hist_count.find(name);
  return it == hist_count.end() ? 0 : it->second;
}

void AddEndToEnd(Result* result, double setup_s, double throughput_per_s,
                 double cpu_ms_per_op, double f1) {
  result->Add("setup_s", setup_s, "s");
  result->Add("throughput_per_s", throughput_per_s, "1/s");
  result->Add("cpu_ms_per_op", cpu_ms_per_op, "ms");
  result->Add("f1", f1, "ratio");
  result->Add("peak_rss_mb", PeakRssMb(), "MiB");
  const double ok =
      result->attempted == 0
          ? 0.0
          : 1.0 - static_cast<double>(result->failed) /
                      static_cast<double>(result->attempted);
  result->Add("ok_frac", ok, "ratio");
}

std::string TracePath(const Args& args) {
  return (fs::path(args.out_dir) /
          ("trace-" + args.workload + "-seed" + std::to_string(args.seed) +
           ".json"))
      .string();
}

}  // namespace briqbench
