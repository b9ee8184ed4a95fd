// The traced run's per-document replay: the layers BriqSystem::Align runs,
// called one by one through their public functions with a span around
// each, so every layer's time is its own.
#ifndef BRIQBENCH_REPLAY_H_
#define BRIQBENCH_REPLAY_H_

#include <cstdint>
#include <map>
#include <string>

#include "core/pipeline.h"
#include "corpus/document.h"
#include "trace.h"

namespace briqbench {

/// Work counts of the replayed layers, summed over documents.
struct ReplayCounts {
  uint64_t documents = 0;
  uint64_t quantity_mentions = 0;
  uint64_t text_mentions = 0;
  uint64_t table_mentions = 0;
  uint64_t tagger_calls = 0;
  uint64_t featurize_rows = 0;
  /// Documents whose composed alignment differs from BriqSystem::Align.
  uint64_t mismatches = 0;
  /// Table mentions and replayed feature rows by document domain.
  std::map<std::string, uint64_t> table_mentions_by_domain;
  std::map<std::string, uint64_t> featurize_rows_by_domain;
};

/// Replays one document under a "document" span tagged with `id` and the
/// document's domain. Children, in order:
///   quantity   quantity::ExtractQuantities over the paragraphs and
///              ParseCellQuantity over the body cells
///   prepare    core::PrepareDocument
///   tagger     TextMentionTagger::Predict per text mention
///   featurize  FeatureComputer::ComputeBatch on each mention's
///              CandidateIndex::Probe rows
///   forest     FlatForest::PredictPositiveProbaBatch on those rows
///   filter     AdaptiveFilter::Filter (which classifies again, inside)
///   resolve    GlobalResolver::Resolve
///   render     serve::AlignmentJson
/// Then checks, outside the span, that the composed alignment equals
/// BriqSystem::Align on the same prepared document. Returns the rendering.
std::string ReplayDocument(Tracer* tracer, const briq::core::BriqSystem& system,
                           const briq::corpus::Document& doc,
                           const std::string& id, ReplayCounts* counts);

}  // namespace briqbench

#endif  // BRIQBENCH_REPLAY_H_
