#include "replay.h"

#include <vector>

#include "common.h"
#include "core/candidate_index.h"
#include "core/features.h"
#include "core/filtering.h"
#include "core/resolution.h"
#include "quantity/quantity_parser.h"
#include "serve/align_service.h"

namespace briqbench {

using briq::core::PreparedDocument;

std::string ReplayDocument(Tracer* tracer, const briq::core::BriqSystem& system,
                           const briq::corpus::Document& doc,
                           const std::string& id, ReplayCounts* counts) {
  const briq::core::BriqConfig& config = system.config();
  PreparedDocument prepared;
  briq::core::DocumentAlignment alignment;
  std::string rendered;
  {
    ScopedSpan doc_span(tracer, "document", id, doc.domain);
    ++counts->documents;
    {
      ScopedSpan span(tracer, "quantity");
      for (const std::string& paragraph : doc.paragraphs) {
        counts->quantity_mentions +=
            briq::quantity::ExtractQuantities(paragraph, config.extraction)
                .size();
      }
      for (const briq::table::Table& table : doc.tables) {
        for (int r = 0; r < table.num_rows(); ++r) {
          for (int c = 0; c < table.num_cols(); ++c) {
            if (!table.IsBodyCell(r, c)) continue;
            if (briq::quantity::ParseCellQuantity(table.cell(r, c).raw,
                                                  config.extraction)) {
              ++counts->quantity_mentions;
            }
          }
        }
      }
    }
    {
      ScopedSpan span(tracer, "prepare");
      prepared = briq::core::PrepareDocument(doc, config);
    }
    counts->text_mentions += prepared.text_mentions.size();
    counts->table_mentions += prepared.table_mentions.size();
    counts->table_mentions_by_domain[doc.domain] += prepared.table_mentions.size();

    const size_t num_text = prepared.text_mentions.size();
    std::vector<briq::table::AggregateFunction> tags(num_text);
    {
      ScopedSpan span(tracer, "tagger");
      for (size_t x = 0; x < num_text; ++x) {
        tags[x] = system.tagger().Predict(prepared, x).func;
      }
      counts->tagger_calls += num_text;
    }

    const size_t stride =
        static_cast<size_t>(briq::core::NumActivePairFeatures(config));
    std::vector<std::vector<double>> rows(num_text);
    {
      ScopedSpan span(tracer, "featurize");
      const briq::core::FeatureComputer replay_features(prepared, config);
      briq::core::CandidateIndex index;
      if (config.candidate_index) index.Build(prepared);
      std::vector<size_t> probed;
      for (size_t x = 0; x < num_text; ++x) {
        if (config.candidate_index) {
          index.Probe(prepared.text_mentions[x], tags[x], &probed);
        } else {
          probed.resize(prepared.table_mentions.size());
          for (size_t t = 0; t < probed.size(); ++t) probed[t] = t;
        }
        rows[x].resize(probed.size() * stride);
        replay_features.ComputeBatch(x, probed.data(), probed.size(),
                                     rows[x].data());
        counts->featurize_rows += probed.size();
        counts->featurize_rows_by_domain[doc.domain] += probed.size();
      }
    }
    {
      ScopedSpan span(tracer, "forest");
      std::vector<double> proba;
      for (size_t x = 0; x < num_text; ++x) {
        const size_t n = rows[x].size() / (stride == 0 ? 1 : stride);
        proba.resize(n);
        if (n > 0) {
          system.classifier().flat_forest().PredictPositiveProbaBatch(
              rows[x].data(), n, stride, proba.data());
        }
      }
    }

    std::vector<std::vector<briq::core::Candidate>> candidates;
    {
      ScopedSpan span(tracer, "filter");
      const briq::core::AdaptiveFilter filter(&config, &system.tagger(),
                                              &system.classifier());
      const briq::core::FeatureComputer features(prepared, config);
      candidates = filter.Filter(prepared, features, nullptr);
    }
    {
      ScopedSpan span(tracer, "resolve");
      alignment =
          briq::core::GlobalResolver(&config).Resolve(prepared, candidates);
    }
    {
      ScopedSpan span(tracer, "render");
      rendered = briq::serve::AlignmentJson(prepared, alignment);
    }
  }
  if (!SameAlignment(alignment, system.Align(prepared))) ++counts->mismatches;
  return rendered;
}

}  // namespace briqbench
