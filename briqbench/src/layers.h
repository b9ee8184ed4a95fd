// The per-layer metrics of the traced run. Every traced run reports each
// of them; a layer a workload does not exercise reads 0.
#ifndef BRIQBENCH_LAYERS_H_
#define BRIQBENCH_LAYERS_H_

#include <map>
#include <string>

#include "common.h"
#include "replay.h"
#include "trace.h"

namespace briqbench {

class LayerReport {
 public:
  LayerReport();

  /// Sets a metric; the name must be one of the declared per-layer metrics.
  void Set(const std::string& name, double value);

  /// Core-layer metrics (quantity, prepare, tagger, featurize, forest,
  /// filter, resolve, serve.render) from replay spans and counts, and the
  /// exact filter/forest/rwr counters from a registry delta covering
  /// `passes` passes over the same documents.
  void SetCoreLayers(const Tracer& tracer, const ReplayCounts& counts,
                     const RegistryReading& delta, double passes);

  /// Appends every metric to `result`, in declaration order.
  void AppendTo(Result* result) const;

 private:
  std::map<std::string, double> values_;
};

/// Per-domain self time per replayed document of each core layer, as
/// details ("domain.sports.filter_us_per_doc"), from the replay spans'
/// domain tags: the figures that say which layer makes a domain slow.
void AddDomainDetails(const Tracer& tracer, const ReplayCounts& counts,
                      Result* result);

}  // namespace briqbench

#endif  // BRIQBENCH_LAYERS_H_
