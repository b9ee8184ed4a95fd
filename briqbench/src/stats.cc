#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace briqbench {

double OrderStatistic(const std::vector<double>& sorted, double q) {
  const size_t n = sorted.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return sorted[rank - 1];
}

double SupportedTailQuantile(size_t n, double want) {
  constexpr double kBeyond = 10.0;
  const double highest = 1.0 - kBeyond / static_cast<double>(n);
  // Below 20 samples no quantile above the median leaves ten beyond it;
  // the tail is then the maximum.
  if (highest < 0.5) return 1.0;
  return std::min(want, highest);
}

LatencySummary Summarize(std::vector<double> samples) {
  LatencySummary s;
  s.samples = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = OrderStatistic(samples, 0.5);
  s.tail_q = SupportedTailQuantile(samples.size(), 0.99);
  s.tail = OrderStatistic(samples, s.tail_q);
  s.mean = std::accumulate(samples.begin(), samples.end(), 0.0) /
           static_cast<double>(samples.size());
  s.max = samples.back();
  return s;
}

}  // namespace briqbench
