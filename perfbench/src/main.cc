// End-to-end HTTP benchmark of the single-node HEDC stack.
//
//   hedc_e2e --workload browse|analyze|ingest --seed N --seconds S
//            --trace 0|1 [--out DIR]
//
// Builds the stack from seeded inputs (nine times; setup_s is the
// median), warms it up, then drives it with keep-alive HTTP over
// loopback (and direct ProcessLayer::LoadRawUnit calls for ingest) for S
// seconds. Every response is checked. --trace 0 measures one untraced
// window; --trace 1 alternates untraced and traced slices of the same
// total length and then replays the layers' public calls on the final
// stack state. Prints every metric by name with its unit, the per-layer
// self-time table in traced runs, and as its last line
//   RESULT {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/approx.h"
#include "archive/fits.h"
#include "checks.h"
#include "core/rng.h"
#include "core/strings.h"
#include "http_client.h"
#include "rhessi/event_detect.h"
#include "rhessi/raw_unit.h"
#include "stack.h"
#include "stats.h"
#include "trace.h"
#include "wavelet/codec.h"
#include "web/template.h"

namespace perfbench {
namespace {

using hedc::StrFormat;

// --- workload shape -----------------------------------------------------------

constexpr int kSetups = 9;
constexpr int kAnasPerHle = 80;
constexpr int kImagesPerPage = 3;
constexpr int kCatalogEvery = 5;      // browse iterations per /catalog
constexpr double kZipfExponent = 1.0;  // /hle popularity skew
constexpr int kWarmBrowseIterations = 100;
constexpr int kWarmIngestUnits = 3;
constexpr double kIngestPerSecond = 10;
// Traced runs: in-process dispatches of every request kind, each round
// one of each (one fresh /analyze).
constexpr int kProbeRounds = 8;
constexpr double kAnalystThinkMs = 200;  // mean of a uniform 100..300 ms

struct WorkloadSpec {
  const char* name;
  int browse_clients;
  int analyst_clients;
  bool ingest;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"browse", 4, 0, false},
    {"analyze", 0, 4, false},
    {"ingest", 3, 0, true},
};

enum Op : uint8_t {
  kHle,
  kImage,
  kAna,
  kCatalog,
  kView,
  kApprox,
  kAnalyzeFresh,
  kAnalyzeExisting,
  kIngest,
  kNumOps
};
const char* const kOpNames[kNumOps] = {
    "hle",  "image",         "ana",              "catalog", "view",
    "approx", "analyze_fresh", "analyze_existing", "ingest"};

struct Sample {
  int64_t t0 = 0;   // sent
  int64_t t1 = 0;   // answered
  int64_t due = 0;  // scheduled send (open loop) / previous answer (closed)
  uint8_t op = 0;
  int8_t slice = 0;
  bool ok = false;
};

// What main tells the generator threads at each slice start.
struct SlicePlan {
  int index = -1;  // -1 = warm-up (not recorded)
  bool warm = false;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  bool stop = false;
};

std::atomic<int64_t> g_next_rid{1};

class Env;

struct Generator {
  enum Kind { kBrowser, kAnalyst, kIngester } kind = kBrowser;
  int index = 0;
  hedc::Rng rng;
  HttpClient http;
  std::string token;
  std::vector<Sample> samples;
  std::vector<int64_t> fresh_ana_ids;  // verified after the window
  int64_t warm_failures = 0;
  int64_t last_t1 = 0;
  int iterations = 0;
  int analyses = 0;
  std::string first_error;
};

// Zipf(s) over n ranks, ranks assigned to items by a seeded permutation.
class SkewedPicker {
 public:
  SkewedPicker(size_t n, double s, uint64_t seed) : order_(n) {
    double total = 0;
    for (size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
    for (size_t i = 0; i < n; ++i) order_[i] = i;
    hedc::Rng rng(seed);
    for (size_t i = n; i > 1; --i) {
      std::swap(order_[i - 1], order_[rng.UniformInt(0, i - 1)]);
    }
  }
  size_t Pick(hedc::Rng& rng) const {
    double u = rng.NextDouble();
    size_t rank = std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
    return order_[std::min(rank, order_.size() - 1)];
  }

 private:
  std::vector<size_t> order_;
  std::vector<double> cdf_;
};

// A stack with its generator threads, warmed up and ready to measure.
class Env {
 public:
  Env(const Inputs& inputs, const WorkloadSpec& spec, uint64_t seed);
  ~Env();
  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

  // Runs one slice on every generator thread and returns when all have
  // finished it.
  void RunSlice(const SlicePlan& plan);

  size_t PickHle(hedc::Rng& rng) const {
    return spec.analyst_clients > 0
               ? static_cast<size_t>(
                     rng.UniformInt(0, stack->hles.size() - 1))
               : picker_->Pick(rng);
  }

  const WorkloadSpec& spec;
  std::unique_ptr<Stack> stack;
  std::vector<std::unique_ptr<Generator>> gens;
  std::vector<int64_t> expected_anas;  // per HLE, counted in the DB
  size_t next_ingest = 0;

 private:
  void GeneratorMain(Generator* g);
  void Run(Generator* g, const SlicePlan& plan);
  void BrowseIteration(Generator* g, const SlicePlan& plan);
  void AnalystIteration(Generator* g, const SlicePlan& plan);
  void IngestSlice(Generator* g, const SlicePlan& plan);
  // One HTTP request with its check; false when the slice is over, the
  // request failed or its check failed.
  bool Call(Generator* g, const SlicePlan& plan, Op op,
            const std::string& target, int64_t rid,
            const std::function<bool(const HttpReply&)>& check,
            HttpReply* reply);
  void Record(Generator* g, const SlicePlan& plan, Sample sample,
              const std::string& what);

  std::string error_;
  std::unique_ptr<SkewedPicker> picker_;
  std::vector<size_t> warm_hles_;  // one HLE per raw unit
  SlicePlan plan_;
  std::unique_ptr<std::barrier<>> barrier_;
  std::vector<std::thread> threads_;
};

Env::Env(const Inputs& inputs, const WorkloadSpec& s, uint64_t seed)
    : spec(s) {
  stack = std::make_unique<Stack>(inputs, kAnasPerHle);
  if (stack->hles.empty()) {
    error_ = "no HLEs detected in the telemetry";
    return;
  }
  for (const HleData& hle : stack->hles) {
    expected_anas.push_back(stack->CountRows(
        "SELECT COUNT(*) FROM ana WHERE hle_id = ?", hle.hle_id));
  }
  picker_ = std::make_unique<SkewedPicker>(stack->hles.size(), kZipfExponent,
                                           seed * 31 + 7);
  std::vector<bool> unit_seen(inputs.units.size());
  for (size_t h = 0; h < stack->hles.size(); ++h) {
    if (!unit_seen[stack->hles[h].unit_index]) {
      unit_seen[stack->hles[h].unit_index] = true;
      warm_hles_.push_back(h);
    }
  }
  hedc::Status started = stack->StartServer();
  if (!started.ok()) {
    error_ = "server start: " + started.ToString();
    return;
  }
  int clients = spec.browse_clients + spec.analyst_clients;
  for (int i = 0; i < clients + (spec.ingest ? 1 : 0); ++i) {
    auto g = std::make_unique<Generator>();
    g->index = i;
    g->rng.Seed(seed * 1000 + static_cast<uint64_t>(i) + 1);
    if (i >= clients) {
      g->kind = Generator::kIngester;
    } else {
      g->kind = spec.analyst_clients > 0 ? Generator::kAnalyst
                                         : Generator::kBrowser;
      hedc::Status connected = g->http.Connect(stack->port());
      auto login = connected.ok()
                       ? g->http.Get(StrFormat("/login?user=analyst%d&password=pw",
                                               i),
                                     "")
                       : hedc::Result<HttpReply>(connected);
      if (!login.ok() || login.value().status != 200 ||
          login.value().set_cookies.count("hedc_session") == 0) {
        error_ = "login failed for analyst" + std::to_string(i);
        return;
      }
      g->token = login.value().set_cookies["hedc_session"];
    }
    gens.push_back(std::move(g));
  }
  barrier_ = std::make_unique<std::barrier<>>(
      static_cast<std::ptrdiff_t>(gens.size() + 1));
  for (auto& g : gens) {
    threads_.emplace_back([this, gp = g.get()] { GeneratorMain(gp); });
  }
  SlicePlan warm;
  warm.warm = true;
  RunSlice(warm);
}

Env::~Env() {
  if (barrier_ != nullptr && !threads_.empty()) {
    plan_ = SlicePlan{};
    plan_.stop = true;
    barrier_->arrive_and_wait();
  }
  for (std::thread& t : threads_) t.join();
  for (auto& g : gens) g->http.Close();
}

void Env::RunSlice(const SlicePlan& plan) {
  plan_ = plan;
  barrier_->arrive_and_wait();  // start
  barrier_->arrive_and_wait();  // every generator done
}

void Env::GeneratorMain(Generator* g) {
  while (true) {
    barrier_->arrive_and_wait();
    SlicePlan plan = plan_;
    if (plan.stop) return;
    g->iterations = 0;
    g->last_t1 = NowNs();
    Run(g, plan);
    barrier_->arrive_and_wait();
  }
}

void Env::Run(Generator* g, const SlicePlan& plan) {
  if (g->kind == Generator::kIngester) {
    IngestSlice(g, plan);
    return;
  }
  // Analysts warm up on one HLE of every raw unit (each takes every n-th),
  // so every unit and view is resolved and read before the window.
  int analysts = spec.analyst_clients;
  int warm_iterations =
      g->kind == Generator::kAnalyst
          ? (static_cast<int>(warm_hles_.size()) - g->index + analysts - 1) /
                analysts
          : kWarmBrowseIterations;
  while (plan.warm ? g->iterations < warm_iterations
                   : NowNs() < plan.end_ns) {
    if (g->kind == Generator::kAnalyst) {
      AnalystIteration(g, plan);
    } else {
      BrowseIteration(g, plan);
    }
    ++g->iterations;
  }
}

void Env::Record(Generator* g, const SlicePlan& plan, Sample sample,
                 const std::string& what) {
  if (!sample.ok && g->first_error.empty()) g->first_error = what;
  if (plan.warm) {
    if (!sample.ok) ++g->warm_failures;
    return;
  }
  sample.slice = static_cast<int8_t>(plan.index);
  g->samples.push_back(sample);
}

bool Env::Call(Generator* g, const SlicePlan& plan, Op op,
               const std::string& target, int64_t rid,
               const std::function<bool(const HttpReply&)>& check,
               HttpReply* reply) {
  if (!plan.warm && NowNs() >= plan.end_ns) return false;
  std::string cookies =
      "hedc_session=" + g->token + "; bench_rid=" + std::to_string(rid);
  Sample sample;
  sample.op = op;
  sample.due = g->last_t1;
  sample.t0 = NowNs();
  hedc::Result<HttpReply> got = g->http.Get(target, cookies);
  sample.t1 = NowNs();
  g->last_t1 = sample.t1;
  Tracer& tracer = Tracer::Get();
  if (tracer.enabled()) {
    tracer.Record(Span{rid, RootSpanId(rid), 0, "net", kOpNames[op],
                       sample.t0, sample.t1,
                       got.ok() ? static_cast<int64_t>(got.value().body.size())
                                : 0});
  }
  if (!got.ok()) {
    // Reconnect so one broken connection does not fail the rest.
    g->http.Close();
    g->http.Connect(stack->port());
    Record(g, plan, sample, target + ": " + got.status().ToString());
    return false;
  }
  *reply = std::move(got).value();
  sample.ok = check(*reply);
  Record(g, plan, sample,
         StrFormat("%s: HTTP %d, %zu bytes, check failed: %s", target.c_str(),
                   reply->status, reply->body.size(),
                   reply->body.substr(0, 160).c_str()));
  return sample.ok;
}

void Env::BrowseIteration(Generator* g, const SlicePlan& plan) {
  size_t h = PickHle(g->rng);
  const HleData& hle = stack->hles[h];
  HttpReply page;
  int64_t expected = expected_anas[h];
  if (!Call(g, plan, kHle, StrFormat("/hle?id=%lld", (long long)hle.hle_id),
            g_next_rid++,
            [&](const HttpReply& r) {
              return CheckHlePage(r.status, r.body, hle.hle_id,
                                  static_cast<size_t>(expected));
            },
            &page)) {
    return;
  }
  std::vector<int64_t> images = IdsAfter(page.body, "/image?item=");
  std::vector<int64_t> anas = IdsAfter(page.body, "/ana?id=");
  HttpReply reply;
  for (int k = 0; k < kImagesPerPage && !images.empty(); ++k) {
    int64_t item = images[g->rng.UniformInt(0, images.size() - 1)];
    auto expect = stack->image_expect.find(item);
    if (!Call(g, plan, kImage, StrFormat("/image?item=%lld", (long long)item),
              g_next_rid++,
              [&](const HttpReply& r) {
                return expect != stack->image_expect.end() &&
                       CheckImage(r.status, r.body, expect->second.first,
                                  expect->second.second);
              },
              &reply)) {
      return;
    }
  }
  if (!anas.empty()) {
    int64_t ana = anas[g->rng.UniformInt(0, anas.size() - 1)];
    if (!Call(g, plan, kAna, StrFormat("/ana?id=%lld", (long long)ana),
              g_next_rid++,
              [&](const HttpReply& r) {
                return CheckAnaPage(r.status, r.body, hle.hle_id);
              },
              &reply)) {
      return;
    }
  }
  if (g->iterations % kCatalogEvery == kCatalogEvery - 1) {
    size_t min_hles = stack->hles.size();
    Call(g, plan, kCatalog, "/catalog?name=standard", g_next_rid++,
         [&](const HttpReply& r) {
           return CheckCatalogPage(r.status, r.body, min_hles);
         },
         &reply);
  }
}

void Env::AnalystIteration(Generator* g, const SlicePlan& plan) {
  const HleData& hle = stack->hles[
      plan.warm ? warm_hles_[g->index + spec.analyst_clients * g->iterations]
                : PickHle(g->rng)];
  const UnitData& unit = stack->inputs.units[hle.unit_index];
  HttpReply reply;
  // Coarse to fine, as the StreamCorder fetches a view.
  for (int level = 0; level < UnitData::kLevels; ++level) {
    if (!Call(g, plan, kView,
              StrFormat("/view?unit=%lld&resolution=%d",
                        (long long)unit.unit_id, level),
              g_next_rid++,
              [&](const HttpReply& r) {
                return CheckViewPrefix(r.status, r.body, level,
                                       unit.prefix_size[level],
                                       unit.prefix_hash[level]);
              },
              &reply)) {
      return;
    }
  }
  // One approximate aggregate over a bin-aligned range (bin centres as
  // endpoints, so the exact answer is a sum of whole bins).
  bool sum = g->rng.Bernoulli(0.5);
  int64_t k_lo = g->rng.UniformInt(0, 1023);
  int64_t k_hi = g->rng.UniformInt(k_lo + 1, 1024);
  const std::vector<double>& bins = sum ? unit.energies : unit.counts;
  double exact = 0;
  for (int64_t k = k_lo; k < k_hi; ++k) exact += bins[k];
  double width = (unit.t_stop + 1e-6 - unit.t_start) / 1024.0;
  if (!Call(g, plan, kApprox,
            StrFormat("/approx?unit=%lld&agg=%s&t_lo=%.9f&t_hi=%.9f",
                      (long long)unit.unit_id, sum ? "sum" : "count",
                      unit.t_start + (k_lo + 0.5) * width,
                      unit.t_start + (k_hi - 0.5) * width),
            g_next_rid++,
            [&](const HttpReply& r) {
              return CheckApprox(r.status, r.body, exact);
            },
            &reply)) {
    return;
  }
  // Every other analysis is fresh (a never-used run_id executes the
  // routine); the rest re-request an analysis committed at setup. The
  // warm-up does both.
  bool fresh = plan.warm || g->analyses++ % 2 == 0;
  if (fresh) {
    const char* routine = kRoutines[g->rng.UniformInt(0, 2)];
    int64_t rid = g_next_rid++;
    int64_t ana_id = 0;
    Call(g, plan, kAnalyzeFresh,
         StrFormat("/analyze?hle_id=%lld&routine=%s&%s&run_id=r%lld",
                   (long long)hle.hle_id, routine, RoutineQuery(routine),
                   (long long)rid),
         rid,
         [&](const HttpReply& r) {
           AnalyzeOutcome outcome = ParseAnalyzePage(r.status, r.body);
           ana_id = outcome.ana_id;
           return outcome.ok && !outcome.existing;
         },
         &reply);
    if (ana_id > 0 && !plan.warm) g->fresh_ana_ids.push_back(ana_id);
  }
  if (plan.warm || !fresh) {
    const SetupAna& ana =
        hle.anas[g->rng.UniformInt(0, hle.anas.size() - 1)];
    Call(g, plan, kAnalyzeExisting, "/analyze?" + ana.query, g_next_rid++,
         [&](const HttpReply& r) {
           AnalyzeOutcome outcome = ParseAnalyzePage(r.status, r.body);
           return outcome.ok && outcome.existing &&
                  outcome.ana_id == ana.ana_id;
         },
         &reply);
  }
  if (!plan.warm) {
    int64_t wake = std::min<int64_t>(
        NowNs() + static_cast<int64_t>(g->rng.Uniform(0.5, 1.5) *
                                          kAnalystThinkMs * 1e6),
        plan.end_ns);
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(wake)));
  }
}

void Env::IngestSlice(Generator* g, const SlicePlan& plan) {
  const auto& units = stack->inputs.ingest_units;
  auto load = [&](int64_t due) {
    Sample sample;
    sample.op = kIngest;
    sample.due = due;
    if (next_ingest >= units.size()) {
      Record(g, plan, sample, "ingest: ran out of pre-generated units");
      return;
    }
    int64_t expected_id = 100000 + static_cast<int64_t>(next_ingest);
    int64_t rid = g_next_rid++;
    sample.t0 = NowNs();
    hedc::Result<hedc::dm::DataLoadReport> report = [&] {
      ScopedContext ctx(rid, RootSpanId(rid));
      return stack->process->LoadRawUnit(stack->import_session,
                                         units[next_ingest++]);
    }();
    sample.t1 = NowNs();
    Tracer& tracer = Tracer::Get();
    if (tracer.enabled()) {
      tracer.Record(Span{rid, RootSpanId(rid), 0, "dm", "load_raw_unit",
                         sample.t0, sample.t1});
    }
    sample.ok = report.ok() && report.value().unit_id == expected_id;
    Record(g, plan, sample,
           "ingest: " + (report.ok() ? std::string("wrong unit id")
                                     : report.status().ToString()));
  };
  if (plan.warm) {
    for (int i = 0; i < kWarmIngestUnits; ++i) load(NowNs());
    return;
  }
  // Open loop: unit k of the slice is due at start + k / rate, whether or
  // not the previous one has finished.
  for (int64_t k = 0;; ++k) {
    int64_t due = plan.start_ns +
                  static_cast<int64_t>(static_cast<double>(k) * 1e9 /
                                       kIngestPerSecond);
    if (due >= plan.end_ns) break;
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(due)));
    load(due);
  }
}

// --- reporting -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    metrics_.push_back(Metric{name, value, unit, note});
  }
  void Print() const {
    for (const Metric& m : metrics_) {
      std::printf("  %-36s %14.6g %-9s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
    }
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      if (i > 0) out += ",";
      out += StrFormat("\"%s\":{\"value\":%.12g,\"unit\":\"%s\"}",
                       metrics_[i].name.c_str(),
                       std::isfinite(metrics_[i].value) ? metrics_[i].value
                                                        : 0.0,
                       metrics_[i].unit.c_str());
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

std::string QuantileNote(const Quantile& q) {
  return StrFormat("(p%g of n=%zu)", q.p * 100, q.n);
}

// Adds a latency percentile (samples in ns) in `unit` ("us" or "ms").
void AddLatency(Report* report, const std::string& name,
                const std::vector<double>& ns, double wanted,
                const std::string& unit) {
  Quantile q = wanted == 0.5 ? Median(ns) : Tail(ns, wanted);
  double scale = unit == "ms" ? 1e-6 : 1e-3;
  report->Add(name, q.value * scale, unit, QuantileNote(q));
}

// Median of `reps` timed calls of `fn`, in microseconds.
double ReplayUs(int reps, const std::function<void(int)>& fn) {
  std::vector<double> us;
  for (int i = 0; i < reps; ++i) {
    int64_t t0 = NowNs();
    fn(i);
    us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }
  return QuantileOf(us, 0.5);
}

// Copies of the page templates of web/servlets.cc:23-46 (kPageHeader,
// kPageFooter, kHleTemplate, kAnaRowTemplate), which the replay renders
// with every field HlePageServlet sets; keep them in step with that file.
constexpr const char kPageHeader[] =
    "<html><head><title>{{title}} - HEDC</title>"
    "<link rel='stylesheet' href='/static/hedc.css'></head><body>"
    "<img src='/static/logo.gif' alt='HEDC'>"
    "<h1>{{title}}</h1><div class='nav'><a href='/catalog?name=standard'>"
    "standard catalog</a></div>";
constexpr const char kPageFooter[] =
    "<div class='footer'>RHESSI Experimental Data Center</div>"
    "</body></html>";
constexpr const char kHleTemplate[] =
    "<div class='hle'><h2>HLE {{hle_id}} ({{event_type}})</h2>"
    "<table><tr><td>time</td><td>{{t_start}} .. {{t_end}} s</td></tr>"
    "<tr><td>energy</td><td>{{e_min}} .. {{e_max}} keV</td></tr>"
    "<tr><td>peak rate</td><td>{{peak_rate}} /s</td></tr>"
    "<tr><td>photons</td><td>{{photon_count}}</td></tr>"
    "<tr><td>calibration</td><td>v{{calibration}}</td></tr></table>"
    "<p>{{analysis_count}} analyses, {{catalog_count}} catalog entries</p>";
constexpr const char kAnaRowTemplate[] =
    "{{#analyses}}<div class='ana'><a href='/ana?id={{ana_id}}'>"
    "{{routine}}</a> <span class='params'>{{parameters}}</span> "
    "<img src='/image?item={{image_item}}' width='128'></div>{{/analyses}}";

// Span-derived measurements of one span set.
struct SpanStats {
  std::map<std::string, std::vector<double>> dispatch_ns;  // by path
  std::vector<double> net_overhead_ns;
  std::vector<double> hle_bytes;
  std::map<std::string, std::vector<double>> read_ns;  // "read.image", ...
  std::vector<double> read_bytes;
  std::vector<double> write_ns;
  std::map<std::string, std::vector<double>> routine_ns;
  std::vector<double> routine_photons;
  std::vector<double> queue_wait_ns;
  std::vector<double> commit_ns;
  int64_t routine_runs_linked = 0;  // routine spans of benchmark requests
};

SpanStats Analyze(const std::vector<Span>& spans) {
  SpanStats s;
  std::map<int64_t, const Span*> dispatch_by_rid;
  for (const Span& span : spans) {
    if (std::strcmp(span.layer, "web") == 0 && span.rid != 0) {
      dispatch_by_rid[span.rid] = &span;
    }
  }
  for (const Span& span : spans) {
    double d = static_cast<double>(span.t1_ns - span.t0_ns);
    std::string layer = span.layer;
    if (layer == "web") {
      s.dispatch_ns[span.name].push_back(d);
      if (std::strcmp(span.name, "/hle") == 0) {
        s.hle_bytes.push_back(static_cast<double>(span.value));
      }
    } else if (layer == "net") {
      auto it = dispatch_by_rid.find(span.rid);
      if (it != dispatch_by_rid.end()) {
        s.net_overhead_ns.push_back(
            d - static_cast<double>(it->second->t1_ns - it->second->t0_ns));
      }
    } else if (layer == "archive" && span.summary) {
      s.read_ns[span.name].push_back(d);
      s.read_bytes.push_back(static_cast<double>(span.value));
    } else if (layer == "archive" && std::strcmp(span.name, "write") == 0) {
      s.write_ns.push_back(d);
    } else if (layer == "analysis") {
      s.routine_ns[span.name].push_back(d);
      s.routine_photons.push_back(static_cast<double>(span.value));
      auto it = dispatch_by_rid.find(span.rid);
      if (span.rid != 0) ++s.routine_runs_linked;
      if (it != dispatch_by_rid.end()) {
        s.queue_wait_ns.push_back(
            static_cast<double>(span.t0_ns - it->second->t0_ns));
      }
    } else if (layer == "pl") {
      s.commit_ns.push_back(d);
    }
  }
  return s;
}

double Mean(const std::vector<double>& v) {
  double total = 0;
  for (double x : v) total += x;
  return v.empty() ? 0 : total / static_cast<double>(v.size());
}

// The window's samples when it has any, else the probe's.
const std::vector<double>& Prefer(const std::vector<double>& window,
                                  const std::vector<double>& probe) {
  return window.empty() ? probe : window;
}
const std::vector<double>& Lookup(
    const std::map<std::string, std::vector<double>>& m,
    const std::string& key) {
  static const std::vector<double> kEmpty;
  auto it = m.find(key);
  return it == m.end() ? kEmpty : it->second;
}

struct SliceInfo {
  bool traced = false;
  double seconds = 0;
  CounterSnapshot delta;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out = ".bench_out";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (key == "--out") {
      args->out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: hedc_e2e --workload browse|analyze|ingest --seed N "
                 "--seconds S --trace 0|1 [--out DIR]\n");
    return 2;
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);

  // --- inputs and setup ------------------------------------------------------
  int64_t t_inputs = NowNs();
  size_t ingest_units =
      spec->ingest ? kWarmIngestUnits +
                         static_cast<size_t>(
                             std::ceil(args.seconds * kIngestPerSecond)) +
                         4
                   : 0;
  Inputs inputs = GenerateInputs(args.seed, ingest_units);
  std::printf("inputs: %zu raw units, %zu ingest units, %.2f s to generate\n",
              inputs.units.size(), inputs.ingest_units.size(),
              static_cast<double>(NowNs() - t_inputs) / 1e9);

  std::vector<double> setup_s;
  std::unique_ptr<Env> env;
  for (int i = 0; i < kSetups; ++i) {
    env.reset();
    int64_t t0 = NowNs();
    env = std::make_unique<Env>(inputs, *spec, args.seed);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!env->ok()) {
      std::fprintf(stderr, "setup failed: %s\n", env->error().c_str());
      return 1;
    }
  }
  Stack& stack = *env->stack;
  size_t ana_total = 0;
  for (const HleData& hle : stack.hles) ana_total += hle.anas.size();
  std::printf(
      "data: %zu units, %zu HLEs, %zu ANAs (%zu image items vs a "
      "1024-entry name-mapper cache)\nsetups:",
      inputs.units.size(), stack.hles.size(), ana_total,
      stack.image_expect.size());
  for (double s : setup_s) std::printf(" %.3f", s);
  std::printf(" s\n");

  // --- measured window ----------------------------------------------------------
  std::vector<bool> traced_slices =
      // Untraced and traced slices in ABBA order, twice: a drift over the
      // window (the usage_stats table grows with every request) cancels
      // out of the traced-vs-untraced comparison.
      args.trace ? std::vector<bool>{false, true, true, false,
                                     false, true, true, false}
                 : std::vector<bool>{false};
  double slice_seconds = args.seconds / traced_slices.size();
  std::vector<SliceInfo> slices;
  Tracer& tracer = Tracer::Get();
  for (size_t i = 0; i < traced_slices.size(); ++i) {
    tracer.set_enabled(traced_slices[i]);
    CounterSnapshot before = TakeSnapshot(*hedc::MetricsRegistry::Default());
    SlicePlan plan;
    plan.index = static_cast<int>(i);
    plan.start_ns = NowNs();
    plan.end_ns = plan.start_ns + static_cast<int64_t>(slice_seconds * 1e9);
    env->RunSlice(plan);
    SliceInfo info;
    info.traced = traced_slices[i];
    info.seconds = static_cast<double>(NowNs() - plan.start_ns) / 1e9;
    info.delta =
        Delta(before, TakeSnapshot(*hedc::MetricsRegistry::Default()));
    slices.push_back(std::move(info));
  }
  tracer.set_enabled(false);
  std::vector<Span> window_spans = tracer.Drain();

  // --- correctness ---------------------------------------------------------------
  int64_t attempted = 0, failed = 0, warm_failed = 0;
  int64_t failed_by_op[kNumOps] = {};
  std::vector<Sample> samples;
  for (auto& g : env->gens) {
    warm_failed += g->warm_failures;
    for (const Sample& s : g->samples) {
      ++attempted;
      if (!s.ok) {
        ++failed;
        ++failed_by_op[s.op];
      }
      samples.push_back(s);
    }
    for (int64_t ana_id : g->fresh_ana_ids) {
      if (stack.CountRows("SELECT COUNT(*) FROM ana WHERE ana_id = ?",
                          ana_id) != 1) {
        ++failed;
        ++failed_by_op[kAnalyzeFresh];
      }
    }
    if (!g->first_error.empty()) {
      std::printf("first failure (generator %d): %s\n", g->index,
                  g->first_error.c_str());
    }
  }

  // --- end-to-end metrics (untraced slices) ------------------------------------------
  Report e2e;
  double untraced_s = 0, traced_s = 0;
  int64_t untraced_requests = 0, traced_requests = 0;
  std::vector<double> http_ns, op_ns[kNumOps], ingest_delay_ns, late_ns;
  for (const Sample& s : samples) {
    bool traced = slices[s.slice].traced;
    if (s.op != kIngest) (traced ? traced_requests : untraced_requests)++;
    if (spec->ingest == (s.op == kIngest)) {
      late_ns.push_back(static_cast<double>(s.t0 - s.due));
    }
    if (traced || !s.ok) continue;
    double d = static_cast<double>(s.t1 - s.t0);
    if (s.op == kIngest) {
      ingest_delay_ns.push_back(static_cast<double>(s.t1 - s.due));
    } else {
      http_ns.push_back(d);
    }
    op_ns[s.op].push_back(d);
  }
  for (const SliceInfo& slice : slices) {
    (slice.traced ? traced_s : untraced_s) += slice.seconds;
  }
  std::sort(setup_s.begin(), setup_s.end());
  e2e.Add("setup_s", setup_s[setup_s.size() / 2], "s",
          StrFormat("(median of %d setups)", kSetups));
  e2e.Add("requests_per_s", Ratio(untraced_requests, untraced_s), "1/s",
          StrFormat("(%lld requests in %.2f s)", (long long)untraced_requests,
                    untraced_s));
  AddLatency(&e2e, "latency_p50_us", http_ns, 0.5, "us");
  AddLatency(&e2e, "latency_p99_us", http_ns, 0.99, "us");
  if (spec->browse_clients > 0) {
    AddLatency(&e2e, "hle_page_p50_us", op_ns[kHle], 0.5, "us");
    AddLatency(&e2e, "image_p50_us", op_ns[kImage], 0.5, "us");
  }
  if (spec->analyst_clients > 0) {
    AddLatency(&e2e, "analysis_p50_ms", op_ns[kAnalyzeFresh], 0.5, "ms");
    AddLatency(&e2e, "analysis_p99_ms", op_ns[kAnalyzeFresh], 0.99, "ms");
    AddLatency(&e2e, "view_p50_us", op_ns[kView], 0.5, "us");
    AddLatency(&e2e, "approx_p50_us", op_ns[kApprox], 0.5, "us");
  }
  if (spec->ingest) {
    AddLatency(&e2e, "ingest_unit_p50_ms", ingest_delay_ns, 0.5, "ms");
    AddLatency(&e2e, "ingest_unit_p90_ms", ingest_delay_ns, 0.9, "ms");
  }
  // The operation each workload exists for, from when it was sent (or
  // due, for the open-loop ingest): /hle page, executed /analyze, unit load.
  const std::vector<double>& key_op =
      spec->ingest ? ingest_delay_ns
                   : (spec->analyst_clients > 0 ? op_ns[kAnalyzeFresh]
                                                : op_ns[kHle]);
  AddLatency(&e2e, "key_op_p50_ms", key_op, 0.5, "ms");
  e2e.Add("error_rate", Ratio(failed + warm_failed, attempted), "ratio",
          StrFormat("(%lld failed of %lld attempted; %lld in warm-up)",
                    (long long)failed, (long long)attempted,
                    (long long)warm_failed));
  e2e.Add("peak_rss_mb", PeakRssMb(), "MB");

  std::printf("workload %s, seed %llu, %.1f s, trace %d\n", spec->name,
              (unsigned long long)args.seed, args.seconds, args.trace);
  std::printf("end-to-end metrics (untraced):\n");
  e2e.Print();
  for (int op = 0; op < kNumOps; ++op) {
    if (failed_by_op[op] > 0) {
      std::printf("  failures: %s %lld\n", kOpNames[op],
                  (long long)failed_by_op[op]);
    }
  }

  Report layers;
  if (args.trace) {
    std::vector<int64_t> slice_requests(slices.size());
    for (const Sample& s : samples) {
      if (s.op != kIngest) ++slice_requests[s.slice];
    }
    std::printf("slices:");
    for (size_t i = 0; i < slices.size(); ++i) {
      std::printf(" %s %.0f/s", slices[i].traced ? "T" : "U",
                  Ratio(slice_requests[i], slices[i].seconds));
    }
    std::printf("\n");
    // --- registry deltas over the traced slices ---------------------------------
    CounterSnapshot d;
    for (const SliceInfo& slice : slices) {
      if (!slice.traced) continue;
      for (const auto& [name, v] : slice.delta) d[name] += v;
    }
    double requests = static_cast<double>(traced_requests);
    int64_t traced_ops[kNumOps] = {};
    for (const Sample& s : samples) {
      if (slices[s.slice].traced) ++traced_ops[s.op];
    }

    // --- probes: in-process dispatches of every request kind, traced, for
    //     span metrics of layers the workload's own requests did not reach.
    std::string token = stack.web->IssueToken(
        stack.data_manager->users().Authenticate("analyst0", "pw").value());
    tracer.set_enabled(true);
    auto probe = [&](const std::string& url) {
      hedc::web::HttpRequest request =
          hedc::web::MakeRequest(url, "127.0.0.1", token);
      request.cookies["bench_rid"] = std::to_string(g_next_rid++);
      return stack.Dispatch(request);
    };
    hedc::Rng probe_rng(args.seed + 99);
    for (int i = 0; i < kProbeRounds; ++i) {
      const HleData& hle = stack.hles[env->PickHle(probe_rng)];
      const UnitData& unit = stack.inputs.units[hle.unit_index];
      probe(StrFormat("/hle?id=%lld", (long long)hle.hle_id));
      probe(StrFormat("/image?item=%lld",
                      (long long)hle.anas[i % hle.anas.size()].image_item));
      probe(StrFormat("/ana?id=%lld",
                      (long long)hle.anas[i % hle.anas.size()].ana_id));
      probe("/catalog?name=standard");
      probe(StrFormat("/view?unit=%lld&resolution=%d",
                      (long long)unit.unit_id, i % UnitData::kLevels));
      probe(StrFormat("/approx?unit=%lld&agg=count", (long long)unit.unit_id));
      const char* routine = kRoutines[i % 3];
      int64_t rid = g_next_rid++;
      hedc::web::HttpRequest request = hedc::web::MakeRequest(
          StrFormat("/analyze?hle_id=%lld&routine=%s&%s&run_id=r%lld",
                    (long long)hle.hle_id, routine, RoutineQuery(routine),
                    (long long)rid),
          "127.0.0.1", token);
      request.cookies["bench_rid"] = std::to_string(rid);
      stack.Dispatch(request);
    }

    // --- replays of the layers' public calls with the workload's arguments,
    //     on the stack state the window left behind.
    hedc::dm::UserProfile analyst =
        stack.data_manager->users().Authenticate("analyst0", "pw").value();
    hedc::dm::Session session =
        stack.data_manager->sessions()
            .GetOrCreate(analyst, "127.0.0.1", token,
                         hedc::dm::SessionKind::kHle)
            .value();
    hedc::Rng rng(args.seed + 7);
    std::vector<size_t> picks;
    for (int i = 0; i < 256; ++i) picks.push_back(env->PickHle(rng));
    auto hle_at = [&](int i) -> const HleData& {
      return stack.hles[picks[i % picks.size()]];
    };
    auto unit_at = [&](int i) -> const UnitData& {
      return stack.inputs.units[hle_at(i).unit_index];
    };
    auto image_at = [&](int i) {
      const HleData& hle = hle_at(i);
      return hle.anas[(i * 7919) % hle.anas.size()].image_item;
    };
    hedc::dm::DataManager& dm = *stack.data_manager;
    double session_us = ReplayUs(500, [&](int) {
      dm.sessions().GetOrCreate(analyst, "127.0.0.1", token,
                                hedc::dm::SessionKind::kHle);
    });
    double get_hle_us = ReplayUs(300, [&](int i) {
      dm.semantics().GetHle(session, hle_at(i).hle_id);
    });
    double list_us = ReplayUs(100, [&](int i) {
      dm.semantics().ListAnalyses(session, hle_at(i).hle_id);
    });
    double count_us = ReplayUs(300, [&](int i) {
      hedc::dm::QuerySpec spec_count("ana");
      spec_count.CountOnly().Where("hle_id", hedc::dm::CondOp::kEq,
                                   hedc::db::Value::Int(hle_at(i).hle_id));
      dm.io().Query(spec_count);
    });
    // Item reads run traced, so the archive decorator also sees them.
    double read_image_us = ReplayUs(300, [&](int i) {
      dm.io().ReadItemFile(image_at(i));
    });
    double read_raw_us = ReplayUs(10, [&](int i) {
      dm.io().ReadItemFile(unit_at(i).unit_id);
    });
    double read_view_us = ReplayUs(100, [&](int i) {
      dm.io().ReadItemFile(hedc::dm::ProcessLayer::ViewItemId(unit_at(i).unit_id));
    });
    // Archive writes for workloads that write nothing (the decorator
    // times them).
    for (size_t i = 0; i < 20; ++i) {
      dm.io().WriteItemFile(5000000000 + g_next_rid++, 1, "replay",
                            stack.inputs.images[i % stack.inputs.images.size()]);
    }
    std::vector<Span> probe_spans = tracer.Drain();
    tracer.set_enabled(false);

    double render_us = 0;
    {
      const HleData& hle = hle_at(0);
      auto record = dm.semantics().GetHle(session, hle.hle_id);
      auto analyses = dm.semantics().ListAnalyses(session, hle.hle_id);
      int64_t n_ana = stack.CountRows(
          "SELECT COUNT(*) FROM ana WHERE hle_id = ?", hle.hle_id);
      int64_t n_members = stack.CountRows(
          "SELECT COUNT(*) FROM catalog_members WHERE hle_id = ?",
          hle.hle_id);
      render_us = ReplayUs(300, [&](int) {
        hedc::web::TemplateContext ctx;
        if (record.ok()) {
          const hedc::dm::HleRecord& r = record.value();
          ctx.Set("hle_id", std::to_string(r.hle_id));
          ctx.Set("event_type", r.event_type);
          ctx.Set("t_start", StrFormat("%.2f", r.t_start));
          ctx.Set("t_end", StrFormat("%.2f", r.t_end));
          ctx.Set("e_min", StrFormat("%.1f", r.e_min));
          ctx.Set("e_max", StrFormat("%.1f", r.e_max));
          ctx.Set("peak_rate", StrFormat("%.1f", r.peak_rate));
          ctx.Set("photon_count", std::to_string(r.photon_count));
          ctx.Set("calibration", std::to_string(r.calibration_version));
        }
        ctx.Set("analysis_count", std::to_string(n_ana));
        ctx.Set("catalog_count", std::to_string(n_members));
        std::string inner = hedc::web::RenderTemplate(kHleTemplate, ctx)
                                .value_or("");
        hedc::web::TemplateContext list;
        if (analyses.ok()) {
          for (const hedc::dm::AnaRecord& ana : analyses.value()) {
            hedc::web::TemplateContext& row = list.AddRow("analyses");
            row.Set("ana_id", std::to_string(ana.ana_id));
            row.Set("routine", ana.routine);
            row.Set("parameters", ana.parameters);
            row.Set("image_item", std::to_string(2000000000 + ana.ana_id));
          }
        }
        inner += hedc::web::RenderTemplate(kAnaRowTemplate, list).value_or("");
        hedc::web::TemplateContext header;
        header.Set("title", StrFormat("HLE %lld", (long long)hle.hle_id));
        std::string page =
            hedc::web::RenderTemplate(kPageHeader, header).value_or("");
        page += inner;
        page += kPageFooter;
      });
    }
    double point_query_us = ReplayUs(500, [&](int i) {
      stack.db.Execute(
          "SELECT t_start, t_stop, calibration_version FROM raw_units "
          "WHERE unit_id = ?",
          {hedc::db::Value::Int(unit_at(i).unit_id)});
    });
    double insert_us = ReplayUs(500, [&](int i) {
      dm.io().Update("usage_stats",
                     "INSERT INTO usage_stats VALUES (?, ?, ?, ?, ?)",
                     {hedc::db::Value::Int(1000000000000 + g_next_rid++),
                      hedc::db::Value::Real(0), hedc::db::Value::Int(1),
                      hedc::db::Value::Text("/replay"),
                      hedc::db::Value::Real(0.01 * i)});
    });
    hedc::archive::NameMapper& mapper = *stack.mapper;
    double resolve_warm_us = ReplayUs(500, [&](int i) {
      mapper.Resolve(image_at(i % 8), hedc::archive::NameType::kFilename);
    });
    std::vector<double> cold;
    for (int i = 0; i < 200; ++i) {
      mapper.InvalidateCache();
      int64_t t0 = NowNs();
      mapper.Resolve(image_at(i), hedc::archive::NameType::kFilename);
      cold.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    }
    double resolve_cold_us = QuantileOf(cold, 0.5);

    const UnitData& unit = unit_at(0);
    hedc::rhessi::RawDataUnit raw;
    double unpack_ms = ReplayUs(5, [&](int) {
      raw = hedc::rhessi::RawDataUnit::Unpack(unit.packed).value();
    }) / 1e3;
    double detect_ms = ReplayUs(5, [&](int) {
      hedc::rhessi::DetectEvents(raw.photons);
    }) / 1e3;
    std::vector<uint8_t> view_file =
        dm.io()
            .ReadItemFile(hedc::dm::ProcessLayer::ViewItemId(unit.unit_id))
            .value_or({});
    auto fits = hedc::archive::FitsFile::Parse(view_file);
    double fits_us = ReplayUs(200, [&](int) {
      hedc::archive::FitsFile::Parse(view_file);
    });
    std::vector<uint8_t> stream;
    if (fits.ok() && fits.value().FindHdu("VIEW") != nullptr) {
      stream = fits.value().FindHdu("VIEW")->data;
    }
    double slice_us = ReplayUs(400, [&](int i) {
      hedc::wavelet::SlicePrefixForLevel(stream, i % UnitData::kLevels);
    });
    std::vector<uint8_t> prefix =
        hedc::wavelet::SlicePrefixForLevel(stream, 3).value_or({});
    double approx_us = ReplayUs(400, [&](int i) {
      hedc::analysis::ApproxSumFromPrefix(prefix.data(), prefix.size(),
                                          0.001 * (i % 100), 0.9);
    });
    double encode_ms = ReplayUs(20, [&](int) {
      hedc::wavelet::EncodeSignalProgressive(unit.counts);
      hedc::wavelet::EncodeSignalProgressive(unit.energies);
    }) / 1e3;

    // --- assemble ------------------------------------------------------------------
    SpanStats w = Analyze(window_spans);
    SpanStats p = Analyze(probe_spans);
    auto p50 = [](const std::vector<double>& ns, double scale) {
      return QuantileOf(ns, 0.5) * scale;
    };
    constexpr double kUs = 1e-3, kMs = 1e-6;
    layers.Add("net.overhead_p50_us", p50(w.net_overhead_ns, kUs), "us",
               StrFormat("(n=%zu)", w.net_overhead_ns.size()));
    layers.Add("net.backpressure_stalls",
               ValueOr0(d, "net.backpressure_stalls"), "count");
    layers.Add("net.protocol_errors", ValueOr0(d, "net.protocol_errors"),
               "count");
    for (const char* op :
         {"hle", "image", "ana", "catalog", "view", "approx", "analyze"}) {
      std::string path = std::string("/") + op;
      const std::vector<double>& ns =
          Prefer(Lookup(w.dispatch_ns, path), Lookup(p.dispatch_ns, path));
      layers.Add(std::string("web.dispatch_p50_us.") + op, p50(ns, kUs), "us",
                 Lookup(w.dispatch_ns, path).empty() ? "(probe)" : "");
    }
    layers.Add("web.render_us.hle", render_us, "us", "(replay)");
    layers.Add("web.response_bytes.hle",
               Mean(Prefer(w.hle_bytes, p.hle_bytes)), "B");
    layers.Add("dm.session_get_us", session_us, "us", "(replay)");
    layers.Add("dm.sessions.hit_ratio",
               Ratio(ValueOr0(d, "dm.sessions.hits"),
                     ValueOr0(d, "dm.sessions.hits") +
                         ValueOr0(d, "dm.sessions.creates")),
               "ratio");
    layers.Add("dm.get_hle_us", get_hle_us, "us", "(replay)");
    layers.Add("dm.list_analyses_us", list_us, "us", "(replay)");
    layers.Add("dm.count_query_us", count_us, "us", "(replay)");
    layers.Add("dm.read_item_us.image", read_image_us, "us", "(replay)");
    layers.Add("dm.read_item_us.raw", read_raw_us, "us", "(replay)");
    layers.Add("dm.read_item_us.view", read_view_us, "us", "(replay)");
    layers.Add("db.queries_per_request",
               Ratio(ValueOr0(d, "db.query_us.count"), requests), "count/req");
    layers.Add("db.updates_per_request",
               Ratio(ValueOr0(d, "db.update_us.count"), requests),
               "count/req");
    layers.Add("db.rows_scanned_per_request",
               Ratio(ValueOr0(d, "db.rows_scanned"), requests), "rows/req");
    layers.Add("db.rows_matched_per_request",
               Ratio(ValueOr0(d, "db.rows_matched"), requests), "rows/req");
    layers.Add("db.point_query_us", point_query_us, "us", "(replay)");
    layers.Add("db.insert_us", insert_us, "us", "(replay)");
    layers.Add("archive.resolve_warm_us", resolve_warm_us, "us", "(replay)");
    layers.Add("archive.resolve_cold_us", resolve_cold_us, "us", "(replay)");
    double hits = ValueOr0(d, "name_mapper.cache_hits");
    double misses = ValueOr0(d, "name_mapper.cache_misses");
    layers.Add("archive.cache_hit_ratio", Ratio(hits, hits + misses), "ratio",
               StrFormat("(%.0f of %.0f resolutions)", hits, hits + misses));
    layers.Add("archive.db_queries_per_miss",
               Ratio(ValueOr0(d, "namemap.db_queries"), misses), "count");
    for (const char* cls : {"image", "raw", "view"}) {
      std::string key = std::string("read.") + cls;
      const std::vector<double>& ns =
          Prefer(Lookup(w.read_ns, key), Lookup(p.read_ns, key));
      layers.Add(std::string("archive.read_us.") + cls, p50(ns, kUs), "us",
                 Lookup(w.read_ns, key).empty() ? "(probe)" : "");
    }
    layers.Add("archive.bytes_per_read",
               Mean(Prefer(w.read_bytes, p.read_bytes)), "B");
    layers.Add("archive.write_us", p50(Prefer(w.write_ns, p.write_ns), kUs),
               "us", w.write_ns.empty() ? "(probe)" : "");
    layers.Add("pl.queue_wait_ms",
               p50(Prefer(w.queue_wait_ns, p.queue_wait_ns), kMs), "ms",
               w.queue_wait_ns.empty() ? "(probe)" : "");
    layers.Add("pl.commit_ms", p50(Prefer(w.commit_ns, p.commit_ns), kMs),
               "ms", w.commit_ns.empty() ? "(probe)" : "");
    layers.Add("pl.executions_per_fresh_analyze",
               traced_ops[kAnalyzeFresh] > 0
                   ? Ratio(w.routine_runs_linked, traced_ops[kAnalyzeFresh])
                   : Ratio(p.routine_runs_linked, kProbeRounds),
               "ratio", traced_ops[kAnalyzeFresh] > 0 ? "" : "(probe)");
    double pc_hits = ValueOr0(d, "product_cache.hits");
    layers.Add("pl.cache.hit_ratio",
               Ratio(pc_hits, pc_hits + ValueOr0(d, "product_cache.misses")),
               "ratio");
    layers.Add("pl.cache.coalesced", ValueOr0(d, "product_cache.coalesced"),
               "count");
    layers.Add("pl.requests.failed", ValueOr0(d, "pl.requests.failed"),
               "count");
    for (const char* routine : kRoutines) {
      const std::vector<double>& ns = Prefer(Lookup(w.routine_ns, routine),
                                             Lookup(p.routine_ns, routine));
      layers.Add(std::string("analysis.routine_ms.") + routine, p50(ns, kMs),
                 "ms", Lookup(w.routine_ns, routine).empty() ? "(probe)" : "");
    }
    layers.Add("analysis.photons_per_call",
               Mean(Prefer(w.routine_photons, p.routine_photons)), "photons");
    layers.Add("rhessi.unpack_ms", unpack_ms, "ms", "(replay)");
    layers.Add("rhessi.detect_ms", detect_ms, "ms", "(replay)");
    layers.Add("wavelet.view_builds_per_request",
               Ratio(ValueOr0(d, "web.view.builds"),
                     traced_ops[kView] + traced_ops[kApprox]),
               "ratio");
    layers.Add("wavelet.fits_parse_us", fits_us, "us", "(replay)");
    layers.Add("wavelet.slice_us", slice_us, "us", "(replay)");
    layers.Add("wavelet.approx_us", approx_us, "us", "(replay)");
    layers.Add("wavelet.encode_ms", encode_ms, "ms", "(replay)");

    // Generator lateness: open loop = sent - due; closed loop = sent -
    // previous answer (the generator's own time between requests).
    layers.Add("bench.generator_late_p50_ms", QuantileOf(late_ns, 0.5) * kMs,
               "ms");
    double rps_u = Ratio(untraced_requests, untraced_s);
    double rps_t = Ratio(traced_requests, traced_s);
    layers.Add("bench.tracing_overhead", rps_u > 0 ? 1 - rps_t / rps_u : 0,
               "ratio",
               StrFormat("(%.0f vs %.0f req/s)", rps_t, rps_u));
    SelfTimes self = ComputeSelfTimes(window_spans);
    double envelope = 0;
    for (const char* layer : {"web", "dm"}) {
      auto it = self.by_layer.find(layer);
      if (it != self.by_layer.end()) envelope += it->second.self_ns;
    }
    layers.Add("bench.unattributed_share", Ratio(envelope, self.root_ns),
               "ratio");

    std::printf("per-layer metrics (traced slices, probes, replays):\n");
    layers.Print();
    std::printf("self time by layer (%lld traced requests, %.1f ms of "
                "end-to-end latency):\n",
                (long long)self.requests, self.root_ns / 1e6);
    for (const auto& [layer, t] : self.by_layer) {
      std::printf("  %-10s %10.1f ms  %5.1f%%  (%lld spans)\n", layer.c_str(),
                  t.self_ns / 1e6, 100 * Ratio(t.self_ns, self.root_ns),
                  (long long)t.spans);
    }
    mkdir(args.out.c_str(), 0755);
    std::vector<Span> all = window_spans;
    all.insert(all.end(), probe_spans.begin(), probe_spans.end());
    std::string path = args.out + "/spans-" + spec->name + ".tsv";
    std::printf("spans: %zu written to %s\n", all.size(),
                WriteSpans(path, all) ? path.c_str() : "(write failed)");
  }

  env.reset();
  bool correct = failed == 0 && warm_failed == 0 && attempted > 0;
  std::string metrics = args.trace ? layers.Json() : e2e.Json();
  std::printf(
      "RESULT {\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,"
      "\"metrics\":%s}\n",
      correct ? "true" : "false", (long long)attempted,
      (long long)(failed + warm_failed), metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
