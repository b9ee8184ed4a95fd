// In-memory span recorder of the benchmark's traced run. Spans are taken
// in the benchmark's own code around calls into BriQ's public functions;
// the program itself is not instrumented further. Spans stay in memory
// and are written once, when the run ends.
#ifndef BRIQBENCH_TRACE_H_
#define BRIQBENCH_TRACE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace briqbench {

struct Span {
  std::string name;
  int64_t start_ns = 0;  // steady clock, relative to the tracer's origin
  int64_t end_ns = 0;
  int64_t parent = -1;   // index into the same thread's spans, -1 = root
  std::string id;        // document or request id
  std::string domain;    // document domain ("" when not a document span)
};

/// Per-layer totals over a set of spans.
struct LayerTotals {
  uint64_t spans = 0;
  double total_s = 0.0;  // sum of span durations
  double self_s = 0.0;   // durations minus what direct children cover
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span on the calling thread under the thread's innermost open
  /// span. An empty id/domain inherits the parent's. Returns a handle for
  /// Close.
  size_t Open(const std::string& name, const std::string& id,
              const std::string& domain);
  void Close(size_t handle);

  /// Totals by span name, over every thread; with a non-empty `domain`,
  /// only spans of that domain.
  std::map<std::string, LayerTotals> ByName(const std::string& domain = "") const;

  /// Every domain that appears on a span.
  std::vector<std::string> Domains() const;

  size_t NumSpans() const;

  /// Writes {"spans": [...], "layers": {...}, "by_domain": {...}}.
  bool WriteJson(const std::string& path) const;

 private:
  struct ThreadSpans {
    int thread = 0;
    std::vector<Span> spans;
    std::vector<size_t> open;  // stack of open span indices
  };
  ThreadSpans* Local();
  int64_t NowNs() const;

  const int64_t origin_ns_;
  const uint64_t generation_;
  mutable std::mutex mu_;  // guards threads_ (registration only)
  std::deque<ThreadSpans> threads_;
};

/// Opens a span for the scope; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name,
             const std::string& id = "", const std::string& domain = "")
      : tracer_(tracer),
        handle_(tracer == nullptr ? 0 : tracer->Open(name, id, domain)) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->Close(handle_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  size_t handle_;
};

}  // namespace briqbench

#endif  // BRIQBENCH_TRACE_H_
