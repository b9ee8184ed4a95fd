#include "trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>

namespace briqbench {

namespace {

std::atomic<uint64_t> next_generation{1};

int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string TotalsJson(const std::map<std::string, LayerTotals>& totals) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, t] : totals) {
    if (!first) out += ", ";
    first = false;
    out += Quote(name) + ": {\"spans\": " + std::to_string(t.spans) +
           ", \"total_s\": " + Num(t.total_s) + ", \"self_s\": " +
           Num(t.self_s) + "}";
  }
  return out + "}";
}

}  // namespace

Tracer::Tracer()
    : origin_ns_(SteadyNs()), generation_(next_generation.fetch_add(1)) {}

int64_t Tracer::NowNs() const { return SteadyNs() - origin_ns_; }

Tracer::ThreadSpans* Tracer::Local() {
  struct Cache {
    uint64_t generation = 0;
    ThreadSpans* spans = nullptr;
  };
  thread_local Cache cache;
  if (cache.generation != generation_) {
    std::lock_guard<std::mutex> lock(mu_);
    threads_.emplace_back();
    threads_.back().thread = static_cast<int>(threads_.size()) - 1;
    cache.generation = generation_;
    cache.spans = &threads_.back();
  }
  return cache.spans;
}

size_t Tracer::Open(const std::string& name, const std::string& id,
                    const std::string& domain) {
  ThreadSpans* local = Local();
  Span span;
  span.name = name;
  span.id = id;
  span.domain = domain;
  if (!local->open.empty()) {
    const size_t parent = local->open.back();
    span.parent = static_cast<int64_t>(parent);
    if (span.id.empty()) span.id = local->spans[parent].id;
    if (span.domain.empty()) span.domain = local->spans[parent].domain;
  }
  span.start_ns = NowNs();
  local->spans.push_back(std::move(span));
  local->open.push_back(local->spans.size() - 1);
  return local->spans.size() - 1;
}

void Tracer::Close(size_t handle) {
  ThreadSpans* local = Local();
  local->spans[handle].end_ns = NowNs();
  if (!local->open.empty() && local->open.back() == handle) {
    local->open.pop_back();
  }
}

std::map<std::string, LayerTotals> Tracer::ByName(
    const std::string& domain) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, LayerTotals> out;
  for (const ThreadSpans& t : threads_) {
    // Direct children run one after another on their parent's thread, so
    // the part of a parent they cover is the sum of their durations.
    std::vector<int64_t> child_ns(t.spans.size(), 0);
    for (const Span& s : t.spans) {
      if (s.parent >= 0) child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < t.spans.size(); ++i) {
      const Span& s = t.spans[i];
      if (!domain.empty() && s.domain != domain) continue;
      LayerTotals& totals = out[s.name];
      const int64_t dur = s.end_ns - s.start_ns;
      ++totals.spans;
      totals.total_s += static_cast<double>(dur) * 1e-9;
      totals.self_s += static_cast<double>(dur - child_ns[i]) * 1e-9;
    }
  }
  return out;
}

std::vector<std::string> Tracer::Domains() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::set<std::string> domains;
  for (const ThreadSpans& t : threads_) {
    for (const Span& s : t.spans) {
      if (!s.domain.empty()) domains.insert(s.domain);
    }
  }
  return {domains.begin(), domains.end()};
}

size_t Tracer::NumSpans() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const ThreadSpans& t : threads_) n += t.spans.size();
  return n;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "{\"layers\": " << TotalsJson(ByName()) << ",\n \"by_domain\": {";
  bool first = true;
  for (const std::string& domain : Domains()) {
    out << (first ? "" : ", ") << Quote(domain) << ": "
        << TotalsJson(ByName(domain));
    first = false;
  }
  out << "},\n \"spans\": [";
  std::lock_guard<std::mutex> lock(mu_);
  first = true;
  for (const ThreadSpans& t : threads_) {
    for (size_t i = 0; i < t.spans.size(); ++i) {
      const Span& s = t.spans[i];
      out << (first ? "\n  " : ",\n  ") << "{\"thread\": " << t.thread
          << ", \"index\": " << i << ", \"parent\": " << s.parent
          << ", \"name\": " << Quote(s.name) << ", \"id\": " << Quote(s.id)
          << ", \"domain\": " << Quote(s.domain)
          << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
          << "}";
      first = false;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace briqbench
