#include "client/streamcorder.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "archive/fits.h"
#include "core/metrics.h"
#include "core/strings.h"
#include "rhessi/raw_unit.h"

namespace hedc::client {

StreamCorder::StreamCorder(dm::DataManager* server,
                           dm::Session server_session, Options options)
    : server_(server),
      server_session_(std::move(server_session)),
      options_(options) {
  // Local clone of the HEDC server: a node of its own, whose product cache
  // serves repeated local analyses. In memory, Boot fails only on a
  // defective schema or page template.
  NodeOptions local_options;
  local_options.cache.capacity_bytes = options_.product_cache_capacity_bytes;
  local_options.cache.metric_prefix = "client.product_cache";
  local_ = std::make_unique<Node>("streamcorder-local", local_options,
                                  server->clock());
  if (Status booted = local_->Boot(); !booted.ok()) {
    std::fprintf(stderr, "local node: %s\n", booted.ToString().c_str());
    std::abort();
  }
  dm::UserProfile local_user;
  local_user.user_id = server_session_.profile.user_id;
  local_user.name = server_session_.profile.name;
  local_user.is_super = true;  // the local clone is fully owned
  Result<dm::Session> local = local_->dm()->sessions().GetOrCreate(
      local_user, "127.0.0.1", "local", dm::SessionKind::kAnalysis);
  if (local.ok()) local_session_ = local.value();

  if (options_.cache_version == 1) {
    cache_ = std::make_unique<PathCache>(options_.cache_capacity_bytes);
  } else {
    cache_ = std::make_unique<DbCache>(options_.cache_capacity_bytes);
  }
  registry_ = analysis::CreateStandardRegistry();
}

Result<std::vector<uint8_t>> StreamCorder::FetchRawUnit(int64_t unit_id) {
  ObjectAttributes attrs{"raw", unit_id, 0};
  Result<std::vector<uint8_t>> cached = cache_->Get(attrs);
  if (cached.ok()) return cached;
  // Peer-to-peer: a peer's cache may already hold the object (§10).
  for (StreamCorder* peer : peers_) {
    Result<std::vector<uint8_t>> from_peer = peer->ServeFromCache(attrs);
    if (from_peer.ok()) {
      ++peer_fetches_;
      HEDC_RETURN_IF_ERROR(cache_->Put(attrs, from_peer.value()));
      return from_peer;
    }
  }
  HEDC_ASSIGN_OR_RETURN(std::vector<uint8_t> data,
                        server_->io().ReadItemFile(unit_id));
  ++server_fetches_;
  HEDC_RETURN_IF_ERROR(cache_->Put(attrs, data));
  return data;
}

void StreamCorder::AddPeer(StreamCorder* peer) {
  if (peer != this) peers_.push_back(peer);
}

Result<std::vector<uint8_t>> StreamCorder::ServeFromCache(
    const ObjectAttributes& attrs) {
  if (!cache_->Contains(attrs)) {
    return Status::NotFound("peer cache miss");
  }
  return cache_->Get(attrs);
}

Result<std::vector<double>> StreamCorder::FetchViewApproximation(
    int64_t unit_id, double fraction) {
  int64_t view_item = dm::ProcessLayer::ViewItemId(unit_id);
  ObjectAttributes attrs{"view", view_item, 0};
  Result<std::vector<uint8_t>> bytes = cache_->Get(attrs);
  if (!bytes.ok()) {
    bytes = server_->io().ReadItemFile(view_item);
    if (!bytes.ok()) return bytes.status();
    ++server_fetches_;
    HEDC_RETURN_IF_ERROR(cache_->Put(attrs, bytes.value()));
  }
  HEDC_ASSIGN_OR_RETURN(archive::FitsFile fits,
                        archive::FitsFile::Parse(bytes.value()));
  const archive::FitsHdu* view = fits.FindHdu("VIEW");
  if (view == nullptr) {
    return Status::Corruption("view file missing VIEW HDU");
  }
  // Decoding happens on the client "to minimize the load at the server"
  // (§6.3).
  return wavelet::DecodeSignal(view->data, fraction);
}

Result<StreamCorder::ProgressiveView> StreamCorder::FetchViewProgressive(
    int64_t unit_id, const RefinementCallback& on_refinement) {
  auto wall_start = std::chrono::steady_clock::now();
  auto elapsed_seconds = [&wall_start]() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         wall_start)
        .count();
  };
  int64_t view_item = dm::ProcessLayer::ViewItemId(unit_id);
  HEDC_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                        server_->io().ReadItemFile(view_item));
  ++server_fetches_;
  HEDC_ASSIGN_OR_RETURN(archive::FitsFile fits,
                        archive::FitsFile::Parse(bytes));
  const archive::FitsHdu* view = fits.FindHdu("VIEW");
  if (view == nullptr) {
    return Status::Corruption("view file missing VIEW HDU");
  }
  HEDC_ASSIGN_OR_RETURN(size_t levels, wavelet::ResolutionLevels(view->data));

  MetricsRegistry* metrics = MetricsRegistry::Default();
  ProgressiveView out;
  out.levels = levels;
  size_t prev_prefix = 0;
  for (size_t level = 0; level < levels; ++level) {
    HEDC_ASSIGN_OR_RETURN(std::vector<uint8_t> prefix,
                          wavelet::SlicePrefixForLevel(view->data, level));
    // A level without surviving coefficients adds no bytes: skip the
    // identical re-decode, the previous render already covers it.
    if (out.refinements > 0 && prefix.size() == prev_prefix) continue;
    prev_prefix = prefix.size();
    HEDC_ASSIGN_OR_RETURN(out.bins,
                          wavelet::DecodeSignalPrefix(prefix,
                                                      &out.final_info));
    out.total_bytes += prefix.size();
    ++out.refinements;
    if (on_refinement) on_refinement(out.bins, level);
    double elapsed = elapsed_seconds();
    if (out.refinements == 1) {
      out.first_paint_bytes = prefix.size();
      out.first_paint_seconds = elapsed;
      metrics->GetHistogram("client.progressive.first_paint_us")
          ->Observe(static_cast<int64_t>(elapsed * 1e6));
    }
    out.full_seconds = elapsed;
    metrics->GetCounter("client.progressive.bytes")
        ->Add(static_cast<int64_t>(prefix.size()));
  }
  if (out.refinements == 0) {
    return Status::Corruption("view stream yields no decodable prefix");
  }
  metrics->GetCounter("client.progressive.fetches")->Add();
  metrics->GetCounter("client.progressive.refinements")
      ->Add(static_cast<int64_t>(out.refinements));
  metrics->GetHistogram("client.progressive.full_us")
      ->Observe(static_cast<int64_t>(out.full_seconds * 1e6));
  return out;
}

// The unit's current calibration version, resolved without unpacking the
// file: local mirror first, then the server's raw_units tuple. -1 when
// the unit is unknown to both (the unpacked header decides later).
int StreamCorder::ResolveCalibrationVersion(int64_t unit_id) {
  for (db::Database* db : {local_->db(), server_->database()}) {
    Result<db::ResultSet> row = db->Execute(
        "SELECT calibration_version FROM raw_units WHERE unit_id = ?",
        {db::Value::Int(unit_id)});
    if (row.ok() && row.value().num_rows() > 0) {
      return static_cast<int>(
          row.value().Get(0, "calibration_version").AsInt());
    }
  }
  return -1;
}

Result<analysis::AnalysisProduct> StreamCorder::AnalyzeLocally(
    int64_t unit_id, const std::string& routine,
    const analysis::AnalysisParams& params) {
  int calibration_version = ResolveCalibrationVersion(unit_id);
  pl::ProductCache* cache = local_->product_cache();
  pl::ProductCache::Ticket ticket;
  if (calibration_version >= 0) {
    pl::ProductCacheKey key = pl::MakeProductCacheKey(
        routine, params, {{unit_id, calibration_version}});
    ticket = cache->Admit(key);
    if (ticket.role == pl::ProductCache::Role::kHit) {
      return pl::DecodeProduct(ticket.hit.bytes);
    }
    if (ticket.role == pl::ProductCache::Role::kFollower) {
      HEDC_ASSIGN_OR_RETURN(pl::ProductCache::CachedProduct shared,
                            cache->Await(ticket));
      return pl::DecodeProduct(shared.bytes);
    }
  }
  bool leader = ticket.role == pl::ProductCache::Role::kLeader;
  auto wall_start = std::chrono::steady_clock::now();
  Result<analysis::AnalysisProduct> product =
      [&]() -> Result<analysis::AnalysisProduct> {
    HEDC_ASSIGN_OR_RETURN(std::vector<uint8_t> packed,
                          FetchRawUnit(unit_id));
    HEDC_ASSIGN_OR_RETURN(rhessi::RawDataUnit unit,
                          rhessi::RawDataUnit::Unpack(packed));
    const analysis::AnalysisRoutine* impl = registry_->Get(routine);
    if (impl == nullptr) return Status::NotFound("routine " + routine);
    return impl->Run(unit.photons, params);
  }();
  if (leader) {
    double seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - wall_start)
                         .count();
    if (product.ok()) {
      cache->CompleteSuccess(ticket, product.value(), seconds, 0);
    } else {
      cache->CompleteFailure(ticket, product.status());
    }
  }
  return product;
}

Result<int64_t> StreamCorder::UploadResult(
    int64_t hle_id, const analysis::AnalysisProduct& product,
    const analysis::AnalysisParams& params) {
  dm::AnaRecord record;
  record.hle_id = hle_id;
  record.routine = product.routine;
  record.parameters = params.Canonical();
  record.status = "done";
  record.image_bytes = static_cast<int64_t>(product.rendered.size());
  record.log_excerpt = product.log;
  record.notes = "uploaded from StreamCorder";
  HEDC_ASSIGN_OR_RETURN(
      int64_t ana_id,
      server_->semantics().CreateAna(server_session_, record));
  if (!product.rendered.empty()) {
    HEDC_RETURN_IF_ERROR(server_->io().WriteItemFile(
        2000000000 + ana_id, 1, "ana", product.rendered));
  }
  return ana_id;
}

Status StreamCorder::MirrorHle(int64_t hle_id) {
  HEDC_ASSIGN_OR_RETURN(dm::HleRecord record,
                        server_->semantics().GetHle(server_session_, hle_id));
  // Insert into the local clone with the same id (clone semantics): go
  // through the local semantic layer only if ids match; here we write the
  // tuple directly to preserve the id.
  HEDC_ASSIGN_OR_RETURN(
      db::ResultSet r,
      local_->db()->Execute(
          "INSERT INTO hle VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, "
          "?, ?, ?, ?, ?, ?, ?)",
          {db::Value::Int(record.hle_id), db::Value::Int(record.owner_id),
           db::Value::Bool(record.is_public),
           db::Value::Text(record.event_type),
           db::Value::Real(record.t_start), db::Value::Real(record.t_end),
           db::Value::Real(record.e_min), db::Value::Real(record.e_max),
           db::Value::Real(record.peak_rate),
           db::Value::Real(record.peak_energy),
           db::Value::Int(record.photon_count),
           db::Value::Int(record.unit_id),
           db::Value::Int(record.calibration_version),
           db::Value::Int(record.version),
           db::Value::Int(record.superseded_by),
           db::Value::Text(record.label), db::Value::Text(record.notes),
           db::Value::Real(record.created_time),
           db::Value::Text(record.source),
           db::Value::Real(record.quality)}));
  (void)r;
  return Status::Ok();
}

Result<int64_t> StreamCorder::MirrorRepository() {
  // 1. Every visible HLE.
  HEDC_ASSIGN_OR_RETURN(
      std::vector<dm::HleRecord> hles,
      server_->semantics().ListHles(server_session_, -1e18, 1e18));
  int64_t mirrored = 0;
  for (const dm::HleRecord& hle : hles) {
    if (LocalHle(hle.hle_id).ok()) continue;  // already mirrored
    HEDC_RETURN_IF_ERROR(MirrorHle(hle.hle_id));
    ++mirrored;
  }
  // 2. Raw-unit tuples and their files (cached locally, so analysis
  // works fully offline afterwards).
  HEDC_ASSIGN_OR_RETURN(
      db::ResultSet units,
      server_->database()->Execute("SELECT * FROM raw_units"));
  for (size_t i = 0; i < units.num_rows(); ++i) {
    int64_t unit_id = units.Get(i, "unit_id").AsInt();
    Result<db::ResultSet> exists = local_->db()->Execute(
        "SELECT COUNT(*) FROM raw_units WHERE unit_id = ?",
        {db::Value::Int(unit_id)});
    if (exists.ok() && exists.value().rows[0][0].AsInt() == 0) {
      HEDC_ASSIGN_OR_RETURN(
          db::ResultSet ins,
          local_->db()->Execute(
              "INSERT INTO raw_units VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
              {units.rows[i][0], units.rows[i][1], units.rows[i][2],
               units.rows[i][3], units.rows[i][4], units.rows[i][5],
               units.rows[i][6], units.rows[i][7], units.rows[i][8]}));
      (void)ins;
    }
    FetchRawUnit(unit_id);  // populates the cache; best effort
  }
  // 3. Public catalogs with their membership.
  HEDC_ASSIGN_OR_RETURN(
      db::ResultSet catalogs,
      server_->database()->Execute(
          "SELECT * FROM catalogs WHERE is_public = TRUE"));
  for (size_t i = 0; i < catalogs.num_rows(); ++i) {
    int64_t catalog_id = catalogs.Get(i, "catalog_id").AsInt();
    Result<db::ResultSet> exists = local_->db()->Execute(
        "SELECT COUNT(*) FROM catalogs WHERE catalog_id = ?",
        {db::Value::Int(catalog_id)});
    if (!exists.ok() || exists.value().rows[0][0].AsInt() > 0) continue;
    HEDC_ASSIGN_OR_RETURN(
        db::ResultSet ins,
        local_->db()->Execute(
            "INSERT INTO catalogs VALUES (?, ?, ?, ?, ?, ?)",
            {catalogs.rows[i][0], catalogs.rows[i][1], catalogs.rows[i][2],
             catalogs.rows[i][3], catalogs.rows[i][4], catalogs.rows[i][5]}));
    (void)ins;
    HEDC_ASSIGN_OR_RETURN(
        db::ResultSet members,
        server_->database()->Execute(
            "SELECT * FROM catalog_members WHERE catalog_id = ?",
            {db::Value::Int(catalog_id)}));
    for (size_t m = 0; m < members.num_rows(); ++m) {
      local_->db()->Execute("INSERT INTO catalog_members VALUES (?, ?, ?)",
                            {members.rows[m][0], members.rows[m][1],
                             members.rows[m][2]});
    }
  }
  return mirrored;
}

Result<dm::HleRecord> StreamCorder::LocalHle(int64_t hle_id) {
  return local_->dm()->semantics().GetHle(local_session_, hle_id);
}

void StreamCorder::RegisterCordlet(std::unique_ptr<Cordlet> cordlet) {
  cordlets_.push_back(std::move(cordlet));
}

std::vector<Cordlet*> StreamCorder::ModulesFor(
    const std::string& data_type) const {
  std::vector<Cordlet*> out;
  for (const auto& cordlet : cordlets_) {
    for (const std::string& type : cordlet->data_types()) {
      if (type == data_type) {
        out.push_back(cordlet.get());
        break;
      }
    }
  }
  return out;
}

}  // namespace hedc::client
