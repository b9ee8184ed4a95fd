#include <algorithm>
#include <atomic>
#include <deque>
#include <cstdio>
#include <map>
#include <set>
#include <thread>

#include "core/evaluation.h"
#include "corpus/generator.h"
#include "corpus/serialization.h"
#include "corpus/shard_io.h"
#include "html/page_segmenter.h"
#include "layers.h"
#include "replay.h"
#include "serve/align_service.h"
#include "serve/http_client.h"
#include "serve/http_server.h"
#include "stats.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace briqbench {

namespace {

using briq::serve::HttpClient;

// One server worker per hardware thread, each serving one keep-alive
// connection with its own generator thread; the generator threads sit
// blocked on their sockets most of the time, and the acceptor idles once
// every connection is open. A worker the host stalls then holds up a
// quarter of the capacity on a four-CPU host: with two workers it held up
// half, and the capacity spread by 19-26 % of its median over ten seeds.
/// The request pool. Document costs are skewed (per-document CV ~0.75,
/// p99 ~4x the median), so a smaller pool's mean cost moves with the seed.
constexpr size_t kPoolDocs = 1200;
/// One request in four is an HTML page.
constexpr double kHtmlShare = 0.25;
/// The p99 limit a rate must meet to count as served (details only); a
/// failed request misses it.
constexpr double kLatencyLimitMs = 100.0;
/// Offered rates, for latency. Four workers serve 1,200-1,600 requests/s
/// of this mix (~3 ms of app time each), depending on the host's speed.
/// The middle rate gives p50/p99 and the CPU per request; it keeps the
/// workers under half busy, where the tail does not swing with the host's
/// speed.
constexpr double kRates[] = {250.0, 500.0};
constexpr size_t kMiddle = 1;
/// Shares of the run: the two rates, then the saturation step that gives
/// the server's capacity, the gated throughput.
constexpr double kRateShare[] = {0.1, 0.5};
constexpr double kSaturationShare = 0.4;
/// In the saturation step each connection keeps this many requests in
/// flight (HTTP/1.1 pipelining), so a worker always finds its next request
/// already buffered: the step measures what the workers complete, not how
/// quickly the generator and server threads wake each other.
constexpr size_t kPipelineDepth = 2;
/// The middle rate's p50 and p99 are medians over this many consecutive
/// windows (>= 1,000 requests each in a run of 12 s or more), so one
/// stall of the host moves one window, not the figure.
constexpr size_t kWindows = 3;
/// The capacity is the median good-response rate over this many windows
/// of equal request counts in the saturation step, for the same reason.
constexpr size_t kCapacityWindows = 8;
constexpr size_t kWarmupRequests = 40;
constexpr size_t kReplayRequests = 300;

struct Item {
  bool html = false;
  size_t doc = 0;
};

struct Sample {
  Item item;
  double due_s = 0.0;
  double send_s = 0.0;
  double done_s = 0.0;
  int status = 0;  // 0 = transport error
  uint64_t body_hash = 0;
  double app_ms = 0.0;
};

struct ServeSetup {
  std::unique_ptr<briq::core::BriqSystem> system;
  briq::corpus::Corpus pool;
  std::vector<std::string> json_bodies;
  std::vector<std::string> html_bodies;
  std::unique_ptr<briq::serve::HttpServer> server;
  std::vector<HttpClient> clients;
};

ServeSetup Setup(const Args& args) {
  ServeSetup s;
  const briq::core::BriqConfig config;
  s.system =
      TrainSystem(MakeCorpus(kModelDocs, kModelSeed).documents, config);
  s.pool = MakeCorpus(kPoolDocs, args.seed);
  for (const briq::corpus::Document& doc : s.pool.documents) {
    s.json_bodies.push_back(briq::corpus::DocumentToJson(doc).Dump());
    s.html_bodies.push_back(briq::corpus::RenderHtml(doc));
  }
  briq::serve::Router router;
  briq::serve::RegisterAlignRoute(&router, s.system.get());
  briq::serve::HttpServerOptions options;
  options.num_threads = HardwareThreads();
  s.server = std::make_unique<briq::serve::HttpServer>(std::move(router), options);
  const briq::util::Status started = s.server->Start();
  BRIQ_CHECK(started.ok()) << started.ToString();
  for (int c = 0; c < HardwareThreads(); ++c) {
    auto client = HttpClient::Connect(s.server->port());
    BRIQ_CHECK(client.ok()) << client.status().ToString();
    s.clients.push_back(std::move(*client));
  }
  return s;
}

Item DrawItem(briq::util::Rng* rng) {
  Item item;
  item.html = rng->Bernoulli(kHtmlShare);
  item.doc = static_cast<size_t>(rng->UniformInt(uint64_t{kPoolDocs}));
  return item;
}

/// A rate's arrivals: `n` Poisson arrivals over [0, duration) are, given
/// their count, sorted uniform draws — so every seed offers exactly the
/// rate.
std::vector<std::pair<double, Item>> Schedule(uint64_t seed, double rate,
                                              double duration) {
  briq::util::Rng rng(seed);
  const size_t n = static_cast<size_t>(rate * duration + 0.5);
  std::vector<double> due(n);
  for (double& d : due) d = rng.UniformDouble(0.0, duration);
  std::sort(due.begin(), due.end());
  std::vector<std::pair<double, Item>> schedule;
  for (double d : due) schedule.emplace_back(d, DrawItem(&rng));
  return schedule;
}

const std::string& Body(const ServeSetup& s, const Item& item) {
  return item.html ? s.html_bodies[item.doc] : s.json_bodies[item.doc];
}

const char* ContentType(const Item& item) {
  return item.html ? "text/html" : "application/json";
}

double ServerTimingApp(const std::string& header) {
  const size_t at = header.find("app;dur=");
  return at == std::string::npos ? 0.0 : std::atof(header.c_str() + at + 8);
}

void Record(const briq::serve::ClientResponse& response, Sample* sample) {
  sample->status = response.status;
  sample->body_hash = briq::corpus::Fnv1a64(response.body);
  sample->app_ms = ServerTimingApp(response.Header("server-timing"));
}

/// Sends `schedule` open loop: each connection takes the next request and
/// sends it at its due time, or at once if it is already due. A request
/// due while every connection is busy waits, and that wait is part of
/// its latency.
std::vector<Sample> Drive(ServeSetup* s, const std::vector<std::pair<double, Item>>& schedule,
                          Tracer* tracer) {
  std::vector<Sample> samples(schedule.size());
  std::atomic<size_t> next{0};
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  const auto worker = [&](HttpClient* client) {
    while (true) {
      const size_t i = next.fetch_add(1);
      if (i >= schedule.size()) return;
      Sample& sample = samples[i];
      sample.item = schedule[i].second;
      sample.due_s = schedule[i].first;
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(sample.due_s)));
      sample.send_s = SecondsBetween(start, Clock::now());
      {
        ScopedSpan span(tracer, "request", std::to_string(i),
                        s->pool.documents[sample.item.doc].domain);
        auto response = client->Request("POST", "/align", Body(*s, sample.item),
                                        {{"Content-Type", ContentType(sample.item)}});
        if (response.ok()) Record(*response, &sample);
      }
      sample.done_s = SecondsBetween(start, Clock::now());
      if (sample.status == 0) {
        auto reconnect = HttpClient::Connect(s->server->port());
        if (reconnect.ok()) *client = std::move(*reconnect);
      }
    }
  };
  std::vector<std::thread> threads;
  for (HttpClient& client : s->clients) threads.emplace_back(worker, &client);
  for (std::thread& t : threads) t.join();
  return samples;
}

/// The saturation step, closed loop: each connection keeps
/// kPipelineDepth requests in flight until `duration` has passed, then
/// reads the rest. Requests cycle through a seeded list of items; a
/// request's due time is its send time. After a transport error the
/// connection's requests in flight count as failed and it reconnects.
std::vector<Sample> Saturate(ServeSetup* s, uint64_t seed, double duration) {
  briq::util::Rng rng(seed);
  std::vector<Item> items(8192);
  for (Item& item : items) item = DrawItem(&rng);
  std::atomic<size_t> next{0};
  std::vector<std::vector<Sample>> by_connection(s->clients.size());
  const Clock::time_point start = Clock::now();
  const auto worker = [&](HttpClient* client, std::vector<Sample>* samples) {
    std::deque<size_t> in_flight;  // indices into *samples
    while (true) {
      while (in_flight.size() < kPipelineDepth) {
        const double now_s = SecondsBetween(start, Clock::now());
        if (now_s >= duration) break;
        Sample sample;
        sample.item = items[next.fetch_add(1) % items.size()];
        sample.due_s = sample.send_s = now_s;
        const std::string& body = Body(*s, sample.item);
        std::string wire = "POST /align HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: " +
                           std::to_string(body.size()) + "\r\nContent-Type: " +
                           ContentType(sample.item) + "\r\n\r\n";
        wire += body;
        in_flight.push_back(samples->size());
        samples->push_back(sample);
        if (!client->SendRaw(wire)) break;
      }
      if (in_flight.empty()) return;
      Sample& sample = (*samples)[in_flight.front()];
      in_flight.pop_front();
      auto response = client->ReadResponse();
      sample.done_s = SecondsBetween(start, Clock::now());
      if (response.ok()) {
        Record(*response, &sample);
        continue;
      }
      for (size_t j : in_flight) (*samples)[j].done_s = sample.done_s;
      in_flight.clear();
      auto reconnect = HttpClient::Connect(s->server->port());
      if (!reconnect.ok()) return;
      *client = std::move(*reconnect);
    }
  };
  std::vector<std::thread> threads;
  for (size_t c = 0; c < s->clients.size(); ++c) {
    threads.emplace_back(worker, &s->clients[c], &by_connection[c]);
  }
  for (std::thread& t : threads) t.join();
  std::vector<Sample> samples;
  for (const std::vector<Sample>& part : by_connection) {
    samples.insert(samples.end(), part.begin(), part.end());
  }
  return samples;
}

struct RateSummary {
  double rate = 0.0;
  LatencySummary latency;
  size_t failed = 0;
  double achieved_per_s = 0.0;
  double late_tail_ms = 0.0;  // mean wait of the last tenth of requests
  bool meets_limit = false;
};

/// The offline renderings of every request the pool can make, hashed,
/// and each document's evaluation, computed at nproc threads.
class Expected {
 public:
  explicit Expected(const ServeSetup& s)
      : json_(s.pool.documents.size()),
        html_(s.pool.documents.size()),
        eval_(s.pool.documents.size()) {
    briq::util::ParallelFor(
        HardwareThreads(), 0, s.pool.documents.size(), 8, [&](size_t begin, size_t end) {
          for (size_t d = begin; d < end; ++d) {
            const briq::corpus::Document& doc = s.pool.documents[d];
            json_[d] = briq::corpus::Fnv1a64(briq::serve::AlignDocumentJson(*s.system, doc));
            html_[d] = briq::corpus::Fnv1a64(
                briq::serve::AlignHtmlJson(*s.system, s.html_bodies[d]));
            const auto prepared = briq::core::PrepareDocument(doc, s.system->config());
            eval_[d] = briq::core::EvaluateDocument(prepared, s.system->Align(prepared));
          }
        });
  }
  uint64_t Hash(const Item& item) const {
    return item.html ? html_[item.doc] : json_[item.doc];
  }
  const briq::core::EvalResult& Eval(size_t doc) const { return eval_[doc]; }

 private:
  std::vector<uint64_t> json_;
  std::vector<uint64_t> html_;
  std::vector<briq::core::EvalResult> eval_;
};

bool Failed(const Sample& sample, const Expected& expected) {
  return sample.status != 200 || sample.body_hash != expected.Hash(sample.item);
}

RateSummary SummarizeRate(double rate, const std::vector<Sample>& samples,
                          const Expected& expected) {
  RateSummary r;
  r.rate = rate;
  std::vector<double> latency_ms;
  double last_done = 0.0;
  for (const Sample& sample : samples) {
    latency_ms.push_back((sample.done_s - sample.due_s) * 1e3);
    last_done = std::max(last_done, sample.done_s);
    if (Failed(sample, expected)) ++r.failed;
  }
  r.latency = Summarize(latency_ms);
  // Good responses per second, from the first due time to the last
  // completion.
  r.achieved_per_s = samples.size() < 2
                         ? 0.0
                         : static_cast<double>(samples.size() - r.failed) /
                               (last_done - samples.front().due_s);
  const size_t tail_from = samples.size() - samples.size() / 10;
  double wait = 0.0;
  for (size_t i = tail_from; i < samples.size(); ++i) {
    wait += (samples[i].send_s - samples[i].due_s) * 1e3;
  }
  r.late_tail_ms = samples.size() - tail_from == 0
                       ? 0.0
                       : wait / static_cast<double>(samples.size() - tail_from);
  r.meets_limit = r.failed == 0 && r.latency.tail <= kLatencyLimitMs &&
                  r.late_tail_ms <= kLatencyLimitMs;
  return r;
}

void Warmup(ServeSetup* s, uint64_t seed) {
  auto schedule = Schedule(seed ^ 0x5eed, 1e6, kWarmupRequests / 1e6);
  Drive(s, schedule, nullptr);
}

Result Traced(const Args& args, ServeSetup* s) {
  Result result;
  LayerReport report;
  const double duration = args.seconds / 3;
  const auto untraced_schedule =
      Schedule(args.seed * 7 + 1, kRates[kMiddle], duration);
  const std::vector<Sample> untraced = Drive(s, untraced_schedule, nullptr);

  const RegistryReading before = RegistryReading::Take();
  Tracer tracer;
  const auto traced_schedule =
      Schedule(args.seed * 7 + 2, kRates[kMiddle], duration);
  const std::vector<Sample> traced = Drive(s, traced_schedule, &tracer);
  const RegistryReading serve_delta = RegistryReading::Take().Minus(before);
  // Rendered only now: connections left idle past the server's idle
  // timeout while it runs would be closed under the next request.
  const Expected expected(*s);

  // Overhead on the mean send-to-response time: unlike latency from the
  // due time, it does not amplify small differences through queueing.
  const auto mean_service_s = [](const std::vector<Sample>& samples) {
    double total = 0.0;
    for (const Sample& x : samples) total += x.done_s - x.send_s;
    return total / static_cast<double>(samples.size());
  };
  report.Set("obs.trace_overhead_frac",
             mean_service_s(traced) / mean_service_s(untraced) - 1.0);

  double app = 0.0, wire = 0.0, wait = 0.0, late = 0.0;
  for (const Sample& x : traced) {
    app += x.app_ms;
    wire += (x.done_s - x.send_s) * 1e3 - x.app_ms;
    const double w = std::max(0.0, (x.send_s - x.due_s) * 1e3);
    wait += w;
    late = std::max(late, w);
    ++result.attempted;
    if (Failed(x, expected)) ++result.failed;
  }
  for (const Sample& x : untraced) {
    ++result.attempted;
    if (Failed(x, expected)) ++result.failed;
  }
  const double n = static_cast<double>(traced.size());
  report.Set("serve.app_ms", app / n);
  report.Set("serve.wire_ms", wire / n);
  report.Set("serve.gen_wait_ms", wait / n);
  report.Set("serve.gen_late_ms", late);
  report.Set("serve.requests",
             static_cast<double>(serve_delta.Counter("briq.serve.requests")));
  report.Set("serve.rejected_503",
             static_cast<double>(serve_delta.Counter("briq.serve.rejected")));

  // Server-side layers, replayed in process on the traced rate's first
  // requests: decode or segment, then the per-document layers.
  ReplayCounts counts;
  size_t json_requests = 0, pages = 0, page_docs = 0;
  const RegistryReading replay_before = RegistryReading::Take();
  for (size_t i = 0; i < std::min(kReplayRequests, traced_schedule.size()); ++i) {
    const Item& item = traced_schedule[i].second;
    const std::string id = std::to_string(i);
    const std::string& domain = s->pool.documents[item.doc].domain;
    std::vector<briq::corpus::Document> docs;
    if (item.html) {
      briq::html::Page page;
      {
        ScopedSpan span(&tracer, "html_segment", id, domain);
        page = briq::html::SegmentPage(s->html_bodies[item.doc]);
      }
      {
        ScopedSpan span(&tracer, "build_documents", id, domain);
        docs = briq::core::BuildDocumentsFromPage(page);
      }
      ++pages;
      page_docs += docs.size();
    } else {
      ScopedSpan span(&tracer, "json_decode", id, domain);
      auto json = briq::util::Json::Parse(s->json_bodies[item.doc]);
      BRIQ_CHECK(json.ok());
      auto doc = briq::corpus::DocumentFromJson(*json);
      BRIQ_CHECK(doc.ok());
      docs.push_back(std::move(*doc));
      ++json_requests;
    }
    for (size_t d = 0; d < docs.size(); ++d) {
      // Documents cut from a page carry no domain; tag them with the page's.
      if (docs[d].domain.empty()) docs[d].domain = domain;
      ReplayDocument(&tracer, *s->system, docs[d], id + "." + std::to_string(d),
                     &counts);
    }
  }
  // Each replayed document runs Filter and Resolve twice: once composed,
  // once inside the BriqSystem::Align it is checked against.
  report.SetCoreLayers(tracer, counts,
                       RegistryReading::Take().Minus(replay_before), 2.0);
  auto layers = tracer.ByName();
  report.Set("corpus.json_decode_us",
             json_requests == 0 ? 0.0
                                : layers["json_decode"].self_s * 1e6 /
                                      static_cast<double>(json_requests));
  report.Set("html.segment_us",
             pages == 0 ? 0.0
                        : layers["html_segment"].self_s * 1e6 /
                              static_cast<double>(pages));
  report.Set("html.pages", static_cast<double>(pages));
  report.Set("html.docs_per_page",
             pages == 0 ? 0.0
                        : static_cast<double>(page_docs) / static_cast<double>(pages));
  result.attempted += counts.documents;
  result.failed += counts.mismatches;
  result.correct = result.failed == 0;
  if (!tracer.WriteJson(TracePath(args))) {
    std::fprintf(stderr, "briqbench: cannot write %s\n", TracePath(args).c_str());
  }
  AddDomainDetails(tracer, counts, &result);
  report.AppendTo(&result);
  return result;
}

}  // namespace

Result RunServeOpen(const Args& args) {
  std::vector<double> setup_times;
  ServeSetup s;
  for (int i = 0; i < (args.trace ? 1 : kSetupRepetitions); ++i) {
    if (s.server) {
      s.clients.clear();
      s.server->Stop();
    }
    const Clock::time_point t0 = Clock::now();
    s = Setup(args);
    setup_times.push_back(SecondsBetween(t0, Clock::now()));
  }
  Warmup(&s, args.seed);
  Result result;
  if (args.trace) {
    result = Traced(args, &s);
    s.clients.clear();
    s.server->Stop();
    return result;
  }

  // Every step is driven before any output is checked: the offline
  // renderings take seconds, and a keep-alive connection left idle for
  // the server's idle timeout would be closed under the next request.
  std::vector<std::vector<Sample>> samples_by_rate;
  std::vector<double> cpu_s_by_rate;
  for (size_t r = 0; r < std::size(kRates); ++r) {
    const double duration = args.seconds * kRateShare[r];
    const auto schedule = Schedule(args.seed * 7 + 3 + r, kRates[r], duration);
    const double cpu0 = ProcessCpuSeconds();
    samples_by_rate.push_back(Drive(&s, schedule, nullptr));
    cpu_s_by_rate.push_back(ProcessCpuSeconds() - cpu0);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  const double saturation_cpu0 = ProcessCpuSeconds();
  const std::vector<Sample> saturation =
      Saturate(&s, args.seed * 7 + 6, args.seconds * kSaturationShare);
  const double saturation_cpu_s = ProcessCpuSeconds() - saturation_cpu0;
  s.clients.clear();
  s.server->Stop();

  // Outside the timed window from here on.
  const Expected expected(s);
  std::vector<RateSummary> rates;
  double middle_cpu_ms = 0.0;
  std::set<size_t> served_docs;
  std::vector<LatencySummary> windows;
  for (size_t r = 0; r < std::size(kRates); ++r) {
    const std::vector<Sample>& samples = samples_by_rate[r];
    rates.push_back(SummarizeRate(kRates[r], samples, expected));
    result.attempted += samples.size();
    result.failed += rates.back().failed;
    if (r == kMiddle) {
      middle_cpu_ms = cpu_s_by_rate[r] * 1e3 / static_cast<double>(samples.size());
      for (size_t w = 0; w < kWindows; ++w) {
        std::vector<double> latency_ms;
        for (size_t i = w * samples.size() / kWindows;
             i < (w + 1) * samples.size() / kWindows; ++i) {
          latency_ms.push_back((samples[i].done_s - samples[i].due_s) * 1e3);
        }
        windows.push_back(Summarize(latency_ms));
      }
    }
    for (const Sample& x : samples) {
      if (!x.item.html) served_docs.insert(x.item.doc);
    }
  }

  // The capacity: consecutive windows of equal request counts of the
  // saturation step, in completion order; each window's rate is its good
  // responses over its span of time.
  std::vector<const Sample*> by_done;
  for (const Sample& x : saturation) {
    by_done.push_back(&x);
    ++result.attempted;
    if (Failed(x, expected)) ++result.failed;
    if (!x.item.html) served_docs.insert(x.item.doc);
  }
  std::sort(by_done.begin(), by_done.end(),
            [](const Sample* a, const Sample* b) { return a->done_s < b->done_s; });
  std::vector<double> capacity_rates;
  double window_start = 0.0;
  for (size_t w = 0; w < kCapacityWindows; ++w) {
    const size_t begin = w * by_done.size() / kCapacityWindows;
    const size_t end = (w + 1) * by_done.size() / kCapacityWindows;
    if (begin == end) continue;
    size_t good = 0;
    for (size_t i = begin; i < end; ++i) {
      if (!Failed(*by_done[i], expected)) ++good;
    }
    const double window_end = by_done[end - 1]->done_s;
    capacity_rates.push_back(static_cast<double>(good) / (window_end - window_start));
    window_start = window_end;
  }
  result.Detail("capacity.samples", static_cast<double>(saturation.size()), "count");
  result.Detail("capacity.cpu_ms_per_op",
                saturation_cpu_s * 1e3 / static_cast<double>(saturation.size()), "ms");
  // F1 of the served JSON documents, each counted once. Their responses
  // equal the offline rendering (checked above), so the offline
  // alignment is the served one.
  briq::core::EvalResult eval;
  for (size_t doc : served_docs) eval.Merge(expected.Eval(doc));

  // The highest offered rate that meets the limit, for the details line.
  double max_rate_meeting_limit = 0.0;
  for (const RateSummary& r : rates) {
    if (r.meets_limit) max_rate_meeting_limit = r.rate;
  }
  result.correct = result.failed == 0;
  std::vector<double> p50s, tails;
  for (const LatencySummary& w : windows) {
    p50s.push_back(w.p50);
    tails.push_back(w.tail);
  }
  AddEndToEnd(&result, Median(setup_times), Median(capacity_rates), middle_cpu_ms,
              eval.F1());
  result.Detail("p50_ms", Median(p50s), "ms");
  result.Detail("p99_ms", Median(tails), "ms");
  result.Detail("latency_limit_ms", kLatencyLimitMs, "ms");
  result.Detail("max_rate_meeting_limit", max_rate_meeting_limit, "1/s");
  for (size_t w = 0; w < capacity_rates.size(); ++w) {
    result.Detail("capacity.window" + std::to_string(w) + "_per_s", capacity_rates[w],
                  "1/s");
  }
  for (size_t w = 0; w < windows.size(); ++w) {
    const std::string prefix = "window" + std::to_string(w) + ".";
    result.Detail(prefix + "samples", static_cast<double>(windows[w].samples), "count");
    result.Detail(prefix + "p50_ms", windows[w].p50, "ms");
    result.Detail(prefix + "tail_ms", windows[w].tail, "ms");
    result.Detail(prefix + "tail_quantile", windows[w].tail_q, "ratio");
  }
  for (const RateSummary& r : rates) {
    const std::string prefix = "rate" + std::to_string(static_cast<int>(r.rate)) + ".";
    result.Detail(prefix + "samples", static_cast<double>(r.latency.samples), "count");
    result.Detail(prefix + "p50_ms", r.latency.p50, "ms");
    result.Detail(prefix + "tail_ms", r.latency.tail, "ms");
    result.Detail(prefix + "tail_quantile", r.latency.tail_q, "ratio");
    result.Detail(prefix + "achieved_per_s", r.achieved_per_s, "1/s");
    result.Detail(prefix + "late_tail_ms", r.late_tail_ms, "ms");
    result.Detail(prefix + "failed", static_cast<double>(r.failed), "count");
    result.Detail(prefix + "meets_limit", r.meets_limit ? 1.0 : 0.0, "bool");
  }
  return result;
}

}  // namespace briqbench
