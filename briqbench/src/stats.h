// Exact order statistics over raw samples. Every latency percentile the
// benchmark reports comes from here, never from an obs histogram: those
// return bucket upper edges and round up by as much as 4x.
#ifndef BRIQBENCH_STATS_H_
#define BRIQBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace briqbench {

/// Nearest-rank quantile: the smallest sample x such that at least
/// ceil(q * n) samples are <= x. `sorted` must be ascending and non-empty;
/// q in (0, 1].
double OrderStatistic(const std::vector<double>& sorted, double q);

/// The tail quantile a sample of `n` supports: `want` (e.g. 0.99) when at
/// least ten samples lie beyond it, else the highest quantile that still
/// leaves ten samples beyond it; the maximum (q = 1) when that quantile
/// would fall below the median (n < 20).
double SupportedTailQuantile(size_t n, double want);

struct LatencySummary {
  size_t samples = 0;
  double p50 = 0.0;
  double tail = 0.0;    // value at tail_q
  double tail_q = 0.0;  // the quantile `tail` was taken at
  double mean = 0.0;
  double max = 0.0;
};

/// p50 and the supported tail (wanting p99) of raw samples, exact.
LatencySummary Summarize(std::vector<double> samples);

}  // namespace briqbench

#endif  // BRIQBENCH_STATS_H_
