#include "layers.h"

#include "util/logging.h"

namespace briqbench {

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Keep in step with "per_layer" in BENCHMARK.json.
constexpr LayerMetric kLayerMetrics[] = {
    {"corpus.shard_read_s", "s"},
    {"corpus.docs_read", "count"},
    {"corpus.checksum_failures", "count"},
    {"corpus.json_decode_us", "us"},
    {"html.segment_us", "us"},
    {"html.pages", "count"},
    {"html.docs_per_page", "count"},
    {"quantity.extract_us_per_doc", "us"},
    {"quantity.mentions", "count"},
    {"prepare.us_per_doc", "us"},
    {"prepare.text_mentions", "count"},
    {"prepare.table_mentions", "count"},
    {"featurize.rows", "count"},
    {"featurize.ns_per_row", "ns"},
    {"forest.rows", "count"},
    {"forest.rows_per_batch", "count"},
    {"forest.ns_per_row", "ns"},
    {"tagger.calls", "count"},
    {"tagger.us_per_call", "us"},
    {"filter.us_per_doc", "us"},
    {"filter.pairs_before", "count"},
    {"filter.pairs_kept", "count"},
    {"filter.keep_ratio", "ratio"},
    {"filter.preindex_skipped", "count"},
    {"filter.preindex_skip_ratio", "ratio"},
    {"resolve.us_per_doc", "us"},
    {"rwr.walks", "count"},
    {"rwr.iterations", "count"},
    {"rwr.iterations_per_walk", "count"},
    {"rwr.converged_ratio", "ratio"},
    {"rwr.decisions", "count"},
    {"stream.producer_blocked_s", "s"},
    {"stream.consumer_blocked_s", "s"},
    {"stream.queue_depth_peak", "count"},
    {"stream.reorder_buffered_peak", "count"},
    {"serve.app_ms", "ms"},
    {"serve.wire_ms", "ms"},
    {"serve.gen_wait_ms", "ms"},
    {"serve.gen_late_ms", "ms"},
    {"serve.render_us", "us"},
    {"serve.requests", "count"},
    {"serve.rejected_503", "count"},
    {"train.emit_us_per_doc", "us"},
    {"train.samples", "count"},
    {"train.tagger_samples", "count"},
    {"train.spill_bytes", "bytes"},
    {"fit.classifier_s", "s"},
    {"fit.tagger_s", "s"},
    {"train.producer_blocked_s", "s"},
    {"obs.trace_overhead_frac", "ratio"},
};

double PerUnit(double total, double n) { return n > 0 ? total / n : 0.0; }

}  // namespace

LayerReport::LayerReport() {
  for (const LayerMetric& m : kLayerMetrics) values_[m.name] = 0.0;
}

void LayerReport::Set(const std::string& name, double value) {
  auto it = values_.find(name);
  BRIQ_CHECK(it != values_.end()) << "undeclared layer metric " << name;
  it->second = value;
}

void LayerReport::SetCoreLayers(const Tracer& tracer, const ReplayCounts& counts,
                                const RegistryReading& delta, double passes) {
  const auto layers = tracer.ByName();
  const auto self_s = [&](const char* name) {
    auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.self_s;
  };
  const double docs = static_cast<double>(counts.documents);
  Set("quantity.extract_us_per_doc", PerUnit(self_s("quantity") * 1e6, docs));
  Set("quantity.mentions", static_cast<double>(counts.quantity_mentions));
  Set("prepare.us_per_doc", PerUnit(self_s("prepare") * 1e6, docs));
  Set("prepare.text_mentions", static_cast<double>(counts.text_mentions));
  Set("prepare.table_mentions", static_cast<double>(counts.table_mentions));
  Set("tagger.calls", static_cast<double>(counts.tagger_calls));
  Set("tagger.us_per_call",
      PerUnit(self_s("tagger") * 1e6, static_cast<double>(counts.tagger_calls)));
  const double rows = static_cast<double>(counts.featurize_rows);
  Set("featurize.rows", rows);
  Set("featurize.ns_per_row", PerUnit(self_s("featurize") * 1e9, rows));
  Set("forest.ns_per_row", PerUnit(self_s("forest") * 1e9, rows));
  Set("filter.us_per_doc", PerUnit(self_s("filter") * 1e6, docs));
  Set("resolve.us_per_doc", PerUnit(self_s("resolve") * 1e6, docs));
  Set("serve.render_us", PerUnit(self_s("render") * 1e6, docs));

  // Exact program counters, per pass over the workload's documents.
  const auto per_pass = [&](const char* name) {
    return PerUnit(static_cast<double>(delta.Counter(name)), passes);
  };
  const double flat_rows = per_pass("briq.classify.flat_rows");
  Set("forest.rows", flat_rows);
  Set("forest.rows_per_batch",
      PerUnit(flat_rows, per_pass("briq.classify.flat_batches")));
  const double before = per_pass("briq.filter.pairs_before");
  const double kept = per_pass("briq.filter.pairs_kept");
  const double skipped = per_pass("briq.filter.preindex_skipped");
  Set("filter.pairs_before", before);
  Set("filter.pairs_kept", kept);
  Set("filter.keep_ratio", PerUnit(kept, before));
  Set("filter.preindex_skipped", skipped);
  Set("filter.preindex_skip_ratio", PerUnit(skipped, before + skipped));
  const double walks = per_pass("briq.rwr.walks");
  const double iterations = per_pass("briq.rwr.iterations");
  Set("rwr.walks", walks);
  Set("rwr.iterations", iterations);
  Set("rwr.iterations_per_walk", PerUnit(iterations, walks));
  Set("rwr.converged_ratio", PerUnit(per_pass("briq.rwr.converged"), walks));
  Set("rwr.decisions", per_pass("briq.rwr.decisions"));
}

void AddDomainDetails(const Tracer& tracer, const ReplayCounts& counts,
                      Result* result) {
  static constexpr const char* kLayers[] = {
      "quantity", "prepare", "tagger", "featurize", "forest",
      "filter",   "resolve", "render", "document"};
  for (const std::string& domain : tracer.Domains()) {
    const auto layers = tracer.ByName(domain);
    const auto docs = layers.find("document");
    if (docs == layers.end() || docs->second.spans == 0) continue;
    const double n = static_cast<double>(docs->second.spans);
    const std::string prefix = "domain." + domain + ".";
    result->Detail(prefix + "documents", n, "count");
    const auto per_doc = [&](const std::map<std::string, uint64_t>& by_domain) {
      const auto it = by_domain.find(domain);
      return it == by_domain.end() ? 0.0 : static_cast<double>(it->second) / n;
    };
    result->Detail(prefix + "table_mentions_per_doc",
                   per_doc(counts.table_mentions_by_domain), "count");
    result->Detail(prefix + "featurize_rows_per_doc",
                   per_doc(counts.featurize_rows_by_domain), "count");
    for (const char* layer : kLayers) {
      const auto it = layers.find(layer);
      if (it == layers.end()) continue;
      // The document span's own self time is only glue; report its total.
      const double s = std::string(layer) == "document" ? it->second.total_s
                                                        : it->second.self_s;
      result->Detail(prefix + layer + "_us_per_doc", s * 1e6 / n, "us");
    }
  }
}

void LayerReport::AppendTo(Result* result) const {
  for (const LayerMetric& m : kLayerMetrics) {
    result->Add(m.name, values_.at(m.name), m.unit);
  }
}

}  // namespace briqbench
