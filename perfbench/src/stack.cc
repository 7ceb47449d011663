#include "stack.h"

#include <algorithm>
#include <cstdlib>
#include <mutex>

#include "analysis/product.h"
#include "checks.h"
#include "core/rng.h"
#include "core/strings.h"
#include "dm/hedc_schema.h"
#include "pl/commit.h"
#include "rhessi/raw_unit.h"
#include "rhessi/telemetry.h"
#include "trace.h"
#include "wavelet/codec.h"

namespace perfbench {

using hedc::Result;
using hedc::Status;

namespace {

// The repository's contents (telemetry, ingest telemetry, thumbnails) come
// from this fixed seed, so runs differ only in their request streams:
// across dataset seeds the executed-analysis p50 moved by 20% (first to
// third quartile over 10 seeds), against 4-9% for one dataset.
constexpr uint64_t kDatasetSeed = 5;
constexpr double kTelemetrySeconds = 7200;
constexpr size_t kPhotonsPerUnit = 200000;
constexpr size_t kImageVariants = 16;

const char* const kReadNames[] = {"read.raw", "read.view", "read.image",
                                  "read.blob", "read.other"};

// Static span name for a routine.
const char* RoutineSpanName(const std::string& name) {
  for (const char* known :
       {"lightcurve", "spectrogram", "histogram", "imaging"}) {
    if (name == known) return known;
  }
  return "other";
}

// Item read in progress on this thread: IoLayer streams one item as
// ReadRange calls from offset 0 until a short chunk.
struct PendingRead {
  int64_t first_ns = 0;
  int64_t busy_ns = 0;
  int64_t bytes = 0;
};

// ProcessLayer::WriteViewFile's binning of a unit into 1024 time bins.
void BinUnit(const hedc::rhessi::RawDataUnit& unit, UnitData* out) {
  out->counts.assign(1024, 0.0);
  out->energies.assign(1024, 0.0);
  double lo = unit.t_start;
  double hi = unit.t_stop + 1e-6;
  double width = (hi - lo) / 1024.0;
  for (const hedc::rhessi::PhotonEvent& p : unit.photons) {
    if (p.time_sec < lo || p.time_sec >= hi) continue;
    size_t b = static_cast<size_t>((p.time_sec - lo) / width);
    if (b >= 1024) b = 1023;
    out->counts[b] += 1.0;
    out->energies[b] += p.energy_kev;
  }
}

}  // namespace

ItemClass ClassOfItem(int64_t item_id) {
  if (item_id < 0) return ItemClass::kOther;
  if (item_id >= 4000000000) return ItemClass::kBlob;
  if (item_id >= 3000000000) return ItemClass::kOther;
  if (item_id >= 2000000000) return ItemClass::kImage;
  if (item_id >= 1000000000) return ItemClass::kView;
  return ItemClass::kRaw;
}

const char* ItemClassName(ItemClass c) {
  switch (c) {
    case ItemClass::kRaw: return "raw";
    case ItemClass::kView: return "view";
    case ItemClass::kImage: return "image";
    case ItemClass::kBlob: return "blob";
    case ItemClass::kOther: return "other";
  }
  return "other";
}

int64_t ItemIdFromPath(const std::string& path) {
  size_t slash = path.rfind('/');
  std::string tail = slash == std::string::npos ? path : path.substr(slash + 1);
  int64_t id = 0;
  return hedc::ParseInt64(tail, &id) ? id : -1;
}

int64_t RidFromParams(const hedc::analysis::AnalysisParams& params) {
  std::string run = params.Get("run_id");
  int64_t rid = 0;
  if (run.size() < 2 || run[0] != 'r' ||
      !hedc::ParseInt64(run.substr(1), &rid)) {
    return 0;
  }
  return rid;
}

Status TimingArchive::Write(const std::string& path,
                            const std::vector<uint8_t>& data) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return inner_->Write(path, data);
  int64_t t0 = NowNs();
  Status status = inner_->Write(path, data);
  const SpanContext& ctx = CurrentContext();
  tracer.Record(Span{ctx.rid, tracer.NewSpanId(), ctx.span, "archive",
                     "write", t0, NowNs(),
                     static_cast<int64_t>(data.size())});
  return status;
}

Result<size_t> TimingArchive::ReadRange(const std::string& path,
                                        uint64_t offset, uint8_t* out,
                                        size_t len) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return inner_->ReadRange(path, offset, out, len);
  thread_local PendingRead pending;
  int64_t t0 = NowNs();
  Result<size_t> n = inner_->ReadRange(path, offset, out, len);
  int64_t t1 = NowNs();
  if (offset == 0) pending = PendingRead{t0, 0, 0};
  ItemClass cls = ClassOfItem(ItemIdFromPath(path));
  size_t got = n.ok() ? n.value() : 0;
  const SpanContext& ctx = CurrentContext();
  tracer.Record(Span{ctx.rid, tracer.NewSpanId(), ctx.span, "archive",
                     ItemClassName(cls), t0, t1,
                     static_cast<int64_t>(got)});
  pending.busy_ns += t1 - t0;
  pending.bytes += static_cast<int64_t>(got);
  if (!n.ok() || got < len) {
    tracer.Record(Span{ctx.rid, 0, ctx.span, "archive",
                       kReadNames[static_cast<int>(cls)], pending.first_ns,
                       pending.first_ns + pending.busy_ns, pending.bytes,
                       /*summary=*/true});
  }
  return n;
}

Result<hedc::analysis::AnalysisProduct> TimingRoutine::Run(
    const hedc::rhessi::PhotonList& photons,
    const hedc::analysis::AnalysisParams& params) const {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return inner_->Run(photons, params);
  int64_t rid = RidFromParams(params);
  int64_t t0 = NowNs();
  auto product = inner_->Run(photons, params);
  tracer.Record(Span{rid, tracer.NewSpanId(), rid ? DispatchSpanId(rid) : 0,
                     "analysis", RoutineSpanName(inner_->name()), t0,
                     NowNs(), static_cast<int64_t>(photons.size())});
  return product;
}

const char* const kRoutines[3] = {"lightcurve", "spectrogram", "histogram"};

const char* RoutineQuery(const std::string& routine) {
  if (routine == "lightcurve") return "bin_sec=1";
  if (routine == "spectrogram") return "t_bins=128&e_bins=64";
  return "bins=64";
}

Inputs GenerateInputs(uint64_t seed, size_t ingest_units) {
  Inputs inputs;
  hedc::rhessi::TelemetryOptions telemetry;
  telemetry.duration_sec = kTelemetrySeconds;
  telemetry.flares_per_hour = 9;
  telemetry.saa_per_hour = 0;
  telemetry.seed = kDatasetSeed;
  {
    hedc::rhessi::Telemetry data = hedc::rhessi::GenerateTelemetry(telemetry);
    for (const hedc::rhessi::RawDataUnit& unit :
         hedc::rhessi::SegmentIntoUnits(data.photons, kPhotonsPerUnit, 1)) {
      UnitData u;
      u.packed = unit.Pack();
      // Expectations come from the unit as the repository sees it: packing
      // quantizes photon times and rounds the header's time range.
      hedc::rhessi::RawDataUnit stored =
          hedc::rhessi::RawDataUnit::Unpack(u.packed).value();
      u.unit_id = stored.unit_id;
      u.t_start = stored.t_start;
      u.t_stop = stored.t_stop;
      BinUnit(stored, &u);
      std::vector<uint8_t> stream =
          hedc::wavelet::EncodeSignalProgressive(u.counts);
      for (int level = 0; level < UnitData::kLevels; ++level) {
        auto prefix = hedc::wavelet::SlicePrefixForLevel(stream, level);
        if (!prefix.ok()) continue;
        u.prefix_size[level] = prefix.value().size();
        u.prefix_hash[level] =
            Fnv1a(prefix.value().data(), prefix.value().size());
      }
      inputs.units.push_back(std::move(u));
    }
  }

  // Ingest units: telemetry from a second seed, cycled in a seeded order,
  // with ids above every setup unit.
  if (ingest_units > 0) {
    telemetry.seed = kDatasetSeed * 1000003 + 17;
    hedc::rhessi::Telemetry data = hedc::rhessi::GenerateTelemetry(telemetry);
    std::vector<hedc::rhessi::RawDataUnit> pool =
        hedc::rhessi::SegmentIntoUnits(data.photons, kPhotonsPerUnit, 1);
    hedc::Rng order(seed);
    for (size_t i = pool.size(); i > 1; --i) {
      std::swap(pool[i - 1], pool[order.UniformInt(0, i - 1)]);
    }
    for (size_t k = 0; k < ingest_units && !pool.empty(); ++k) {
      hedc::rhessi::RawDataUnit& unit = pool[k % pool.size()];
      unit.unit_id = 100000 + static_cast<int64_t>(k);
      inputs.ingest_units.push_back(unit.Pack());
    }
  }

  // Thumbnails: light-curve plots of seeded random walks.
  hedc::Rng rng(kDatasetSeed ^ 0x7468756d62ull);
  for (size_t v = 0; v < kImageVariants; ++v) {
    hedc::analysis::Series series;
    double y = 100;
    for (int i = 0; i < 64; ++i) {
      y = std::max(1.0, y + rng.Normal(0, 15));
      series.x.push_back(i);
      series.y.push_back(y);
    }
    inputs.images.push_back(hedc::analysis::RenderSeries(series, 128, 64));
  }
  return inputs;
}

Stack::Stack(const Inputs& in, int anas_per_hle) : inputs(in) {
  hedc::dm::CreateFullSchema(&db);
  archives.Register(
      {1, hedc::archive::ArchiveType::kDisk, "raid1", true},
      std::make_unique<TimingArchive>(
          std::make_unique<hedc::archive::DiskArchive>()));
  hedc::Config mapper_config;
  mapper_config.Set("root.filename", "/hedc");
  mapper = std::make_unique<hedc::archive::NameMapper>(&db, mapper_config);
  mapper->Init();
  mapper->RegisterArchive(1, "disk", "raid1");

  hedc::dm::DataManager::Options dm_options;
  dm_options.pool.connection_setup_cost = 0;
  dm_options.sessions.session_setup_cost = 0;
  data_manager = std::make_unique<hedc::dm::DataManager>(
      "dm0", &db, &archives, mapper.get(), &clock, dm_options);
  process = std::make_unique<hedc::dm::ProcessLayer>(data_manager.get(), 1);

  hedc::dm::UserProfile analyst;
  analyst.can_download = analyst.can_analyze = analyst.can_upload = true;
  for (int i = 0; i < kAnalysts; ++i) {
    data_manager->users().CreateUser("analyst" + std::to_string(i), "pw",
                                     analyst);
  }
  hedc::dm::UserProfile import_user;
  import_user.is_super = true;
  data_manager->users().CreateUser("import", "pw-i", import_user);
  import_session =
      data_manager->sessions()
          .GetOrCreate(
              data_manager->users().Authenticate("import", "pw-i").value(),
              "127.0.0.1", "ck-import", hedc::dm::SessionKind::kHle)
          .value();

  // Data load.
  for (size_t u = 0; u < in.units.size(); ++u) {
    auto report = process->LoadRawUnit(import_session, in.units[u].packed);
    if (!report.ok()) continue;
    for (int64_t hle_id : report.value().hle_ids) {
      auto record = data_manager->semantics().GetHle(import_session, hle_id);
      if (!record.ok()) continue;
      HleData hle;
      hle.hle_id = hle_id;
      hle.unit_id = in.units[u].unit_id;
      hle.unit_index = u;
      hle.t_start = record.value().t_start;
      hle.t_end = record.value().t_end;
      hles.push_back(std::move(hle));
    }
  }

  // PL: two interpreters running the real routines behind timing wrappers.
  routines = hedc::analysis::CreateStandardRegistry();
  registry = std::make_unique<hedc::analysis::RoutineRegistry>();
  for (const std::string& name : routines->Names()) {
    registry->Register(std::make_unique<TimingRoutine>(routines->Get(name)));
  }
  manager = std::make_unique<hedc::pl::IdlServerManager>(
      "host0", hedc::pl::IdlServerManager::Options{});
  for (const char* name : {"idl0", "idl1"}) {
    manager->AddServer(std::make_unique<hedc::pl::IdlServer>(
        name, registry.get(), &clock, hedc::pl::IdlServer::Options{}));
  }
  directory.Register("host0", manager.get(), "local");
  predictor = std::make_unique<hedc::pl::DurationPredictor>();
  product_cache = std::make_unique<hedc::pl::ProductCache>(
      data_manager.get(), hedc::pl::ProductCache::Options{});
  product_cache->LoadFromDm();
  process->SetDerivedProductInvalidator(
      [this](int64_t unit_id) { product_cache->InvalidateUnit(unit_id); });
  process->SetAnaPurgeListener(
      [this](int64_t ana_id) { product_cache->InvalidateAna(ana_id); });

  // Commits are serialized: db::Database holds one transaction at a time,
  // so two dispatchers committing at once fail CreateAna's Begin with
  // "transaction already open". Drop the lock once transactions are
  // caller-scoped.
  committer = [inner = hedc::pl::MakeDmCommitter(data_manager.get(),
                                                 import_session, 1),
               mu = std::make_shared<std::mutex>()](
                  const hedc::pl::ProcessingRequest& request,
                  const hedc::analysis::AnalysisProduct& product)
      -> Result<int64_t> {
    std::lock_guard<std::mutex> lock(*mu);
    Tracer& tracer = Tracer::Get();
    if (!tracer.enabled()) return inner(request, product);
    int64_t rid = RidFromParams(request.params);
    int64_t id = tracer.NewSpanId();
    int64_t t0 = NowNs();
    Result<int64_t> ana = [&] {
      ScopedContext ctx(rid, id);
      return inner(request, product);
    }();
    tracer.Record(Span{rid, id, rid ? DispatchSpanId(rid) : 0, "pl",
                       "commit", t0, NowNs()});
    return ana;
  };
  frontend = std::make_unique<hedc::pl::Frontend>(
      &directory, predictor.get(), &clock, committer,
      hedc::pl::Frontend::Options{});
  frontend->set_product_cache(product_cache.get());

  web = std::make_unique<hedc::web::WebServer>(data_manager.get(),
                                               frontend.get());
  web->RegisterStandardServlets();

  // ANA population: `anas_per_hle` committed analyses per HLE, with the
  // parameters /analyze would derive from the matching request, so the
  // existing-analysis path finds them.
  size_t variant = 0;
  for (HleData& hle : hles) {
    for (int j = 0; j < anas_per_hle; ++j) {
      std::string routine = kRoutines[j % 3];
      std::string query = hedc::StrFormat(
          "hle_id=%lld&routine=%s&%s&run_id=s%d",
          static_cast<long long>(hle.hle_id), routine.c_str(),
          RoutineQuery(routine), j);
      hedc::pl::ProcessingRequest request;
      request.hle_id = hle.hle_id;
      request.routine = routine;
      for (const auto& [key, value] : hedc::web::ParseQueryString(query)) {
        if (key != "hle_id" && key != "routine") {
          request.params.Set(key, value);
        }
      }
      request.params.SetDouble("t_start", hle.t_start);
      request.params.SetDouble("t_end", hle.t_end);
      hedc::analysis::AnalysisProduct product;
      product.routine = routine;
      product.metadata["photons"] = "0";
      product.rendered = in.images[variant++ % in.images.size()];
      Result<int64_t> ana_id = committer(request, product);
      if (!ana_id.ok()) continue;
      SetupAna ana;
      ana.ana_id = ana_id.value();
      ana.image_item = 2000000000 + ana.ana_id;
      ana.query = query;
      image_expect[ana.image_item] = {
          product.rendered.size(),
          Fnv1a(product.rendered.data(), product.rendered.size())};
      hle.anas.push_back(std::move(ana));
    }
  }
}

Stack::~Stack() {
  if (http_ != nullptr) http_->Stop();
}

hedc::web::HttpResponse Stack::Dispatch(
    const hedc::web::HttpRequest& request) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return web->Dispatch(request);
  int64_t rid = 0;
  hedc::ParseInt64(request.GetCookie("bench_rid"), &rid);
  int64_t t0 = NowNs();
  hedc::web::HttpResponse response;
  {
    ScopedContext ctx(rid, DispatchSpanId(rid));
    response = web->Dispatch(request);
  }
  static const char* const kPaths[] = {"/hle",  "/image",  "/ana",
                                       "/catalog", "/view", "/approx",
                                       "/analyze"};
  const char* name = "other";
  for (const char* path : kPaths) {
    if (request.path == path) name = path;
  }
  // A re-requested setup analysis (run_id "s<j>") takes the existing-
  // analysis path, ~100x cheaper than a fresh one that runs its routine.
  if (request.path == "/analyze" &&
      request.GetQuery("run_id").rfind('s', 0) == 0) {
    name = "/analyze_existing";
  }
  tracer.Record(Span{rid, DispatchSpanId(rid), rid ? RootSpanId(rid) : 0,
                     "web", name, t0, NowNs(),
                     static_cast<int64_t>(response.TotalBytes())});
  return response;
}

Status Stack::StartServer() {
  http_ = std::make_unique<hedc::web::HttpTcpServer>(
      [this](const hedc::web::HttpRequest& request) {
        return Dispatch(request);
      },
      hedc::MetricsRegistry::Default(),
      hedc::web::HttpTcpServer::Options::FromConfig(hedc::Config()));
  return http_->Start(0);
}

int64_t Stack::CountRows(const std::string& sql, int64_t param) {
  auto rs = db.Execute(sql, {hedc::db::Value::Int(param)});
  if (!rs.ok() || rs.value().num_rows() == 0) return -1;
  return rs.value().rows[0][0].AsInt();
}

}  // namespace perfbench
