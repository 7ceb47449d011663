#include "pl/product_cache.h"

#include <algorithm>
#include <utility>

#include "core/bytes.h"
#include "core/content_hash.h"
#include "core/crc32.h"
#include "core/strings.h"
#include "dm/dm.h"

namespace hedc::pl {

// One in-flight execution: the leader fills result/status and flips
// `done`; followers block on `cv`. `waiters` counts followers only.
struct Flight {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Status status = Status::Ok();
  ProductCache::CachedProduct result;
  std::atomic<size_t> waiters{0};
};

ProductCacheKey MakeProductCacheKey(const std::string& routine,
                                    const analysis::AnalysisParams& params,
                                    std::vector<InputUnit> inputs) {
  ProductCacheKey key;
  key.routine = routine;
  if (inputs.empty()) return key;  // no lineage -> not content-addressable
  std::sort(inputs.begin(), inputs.end(),
            [](const InputUnit& a, const InputUnit& b) {
              return a.unit_id < b.unit_id;
            });
  std::string canonical = "routine=" + routine;
  canonical += ";params=" + params.Canonical();
  canonical += ";units=";
  for (size_t i = 0; i < inputs.size(); ++i) {
    if (i > 0) canonical += ",";
    canonical += std::to_string(inputs[i].unit_id) + ":v" +
                 std::to_string(inputs[i].calibration_version);
  }
  key.inputs = std::move(inputs);
  key.canonical = std::move(canonical);
  key.hash = Fnv1a64(key.canonical);
  key.valid = true;
  return key;
}

namespace {

constexpr uint32_t kProductMagic = 0x48504331;  // "HPC1"
// Archive holding the encoded blobs of persisted entries.
constexpr int64_t kBlobArchiveId = 1;

}  // namespace

std::vector<uint8_t> EncodeProduct(const analysis::AnalysisProduct& product) {
  ByteBuffer buf;
  buf.PutU32(kProductMagic);
  buf.PutString(product.routine);
  buf.PutVarint(product.metadata.size());
  for (const auto& [k, v] : product.metadata) {
    buf.PutString(k);
    buf.PutString(v);
  }
  buf.PutU8(product.image.has_value() ? 1 : 0);
  if (product.image.has_value()) {
    buf.PutVarint(product.image->width);
    buf.PutVarint(product.image->height);
    buf.PutVarint(product.image->pixels.size());
    for (double p : product.image->pixels) buf.PutF64(p);
  }
  buf.PutU8(product.series.has_value() ? 1 : 0);
  if (product.series.has_value()) {
    buf.PutVarint(product.series->x.size());
    for (double x : product.series->x) buf.PutF64(x);
    buf.PutVarint(product.series->y.size());
    for (double y : product.series->y) buf.PutF64(y);
  }
  buf.PutString(product.log);
  buf.PutVarint(product.rendered.size());
  buf.PutBytes(product.rendered.data(), product.rendered.size());
  uint32_t crc = Crc32(buf.data());
  buf.PutU32(crc);
  return buf.TakeData();
}

Result<analysis::AnalysisProduct> DecodeProduct(
    const std::vector<uint8_t>& bytes) {
  if (bytes.size() < sizeof(uint32_t) * 2) {
    return Status::Corruption("cached product too short");
  }
  size_t payload = bytes.size() - sizeof(uint32_t);
  uint32_t stored_crc = 0;
  for (size_t i = 0; i < sizeof(uint32_t); ++i) {
    stored_crc |= static_cast<uint32_t>(bytes[payload + i]) << (8 * i);
  }
  if (Crc32(bytes.data(), payload) != stored_crc) {
    return Status::Corruption("cached product CRC mismatch");
  }
  ByteReader reader(bytes.data(), payload);
  uint32_t magic = 0;
  HEDC_RETURN_IF_ERROR(reader.GetU32(&magic));
  if (magic != kProductMagic) {
    return Status::Corruption("cached product bad magic");
  }
  analysis::AnalysisProduct product;
  HEDC_RETURN_IF_ERROR(reader.GetString(&product.routine));
  uint64_t n_meta = 0;
  HEDC_RETURN_IF_ERROR(reader.GetVarint(&n_meta));
  if (n_meta > reader.remaining()) {
    return Status::Corruption("cached product metadata count");
  }
  for (uint64_t i = 0; i < n_meta; ++i) {
    std::string k, v;
    HEDC_RETURN_IF_ERROR(reader.GetString(&k));
    HEDC_RETURN_IF_ERROR(reader.GetString(&v));
    product.metadata.emplace(std::move(k), std::move(v));
  }
  uint8_t has_image = 0;
  HEDC_RETURN_IF_ERROR(reader.GetU8(&has_image));
  if (has_image != 0) {
    analysis::Image image;
    uint64_t w = 0, h = 0, n = 0;
    HEDC_RETURN_IF_ERROR(reader.GetVarint(&w));
    HEDC_RETURN_IF_ERROR(reader.GetVarint(&h));
    HEDC_RETURN_IF_ERROR(reader.GetVarint(&n));
    if (n > reader.remaining() / sizeof(double)) {
      return Status::Corruption("cached product image length");
    }
    image.width = w;
    image.height = h;
    image.pixels.resize(n);
    for (uint64_t i = 0; i < n; ++i) {
      HEDC_RETURN_IF_ERROR(reader.GetF64(&image.pixels[i]));
    }
    product.image = std::move(image);
  }
  uint8_t has_series = 0;
  HEDC_RETURN_IF_ERROR(reader.GetU8(&has_series));
  if (has_series != 0) {
    analysis::Series series;
    for (std::vector<double>* axis : {&series.x, &series.y}) {
      uint64_t n = 0;
      HEDC_RETURN_IF_ERROR(reader.GetVarint(&n));
      if (n > reader.remaining() / sizeof(double)) {
        return Status::Corruption("cached product series length");
      }
      axis->resize(n);
      for (uint64_t i = 0; i < n; ++i) {
        HEDC_RETURN_IF_ERROR(reader.GetF64(&(*axis)[i]));
      }
    }
    product.series = std::move(series);
  }
  HEDC_RETURN_IF_ERROR(reader.GetString(&product.log));
  uint64_t n_rendered = 0;
  HEDC_RETURN_IF_ERROR(reader.GetVarint(&n_rendered));
  if (n_rendered > reader.remaining()) {
    return Status::Corruption("cached product rendered length");
  }
  product.rendered.resize(n_rendered);
  if (n_rendered > 0) {
    HEDC_RETURN_IF_ERROR(
        reader.GetBytes(product.rendered.data(), n_rendered));
  }
  return product;
}

ProductCache::ProductCache(dm::DataManager* dm, Options options)
    : dm_(dm), options_(std::move(options)) {
  MetricsRegistry* metrics = MetricsRegistry::Default();
  const std::string& p = options_.metric_prefix;
  hits_ = metrics->GetCounter(p + ".hits");
  misses_ = metrics->GetCounter(p + ".misses");
  coalesced_ = metrics->GetCounter(p + ".coalesced");
  evictions_ = metrics->GetCounter(p + ".evictions");
  invalidations_ = metrics->GetCounter(p + ".invalidations");
  bytes_gauge_ = metrics->GetGauge(p + ".bytes");
  entries_gauge_ = metrics->GetGauge(p + ".entries");
}

double ProductCache::PriorityFor(double cost_seconds,
                                 uint64_t size_bytes) const {
  // Cost in microseconds keeps the value term comparable to L after many
  // evictions; size floor avoids division blow-ups on tiny products.
  double value = (std::max(cost_seconds, 0.0) * 1e6 + 1.0) /
                 static_cast<double>(std::max<uint64_t>(size_bytes, 1));
  return gdsf_clock_ + value;
}

std::vector<std::pair<uint64_t, int64_t>> ProductCache::EvictForLocked(
    uint64_t incoming) {
  std::vector<std::pair<uint64_t, int64_t>> victims;
  while (!entries_.empty() &&
         bytes_total_ + incoming > options_.capacity_bytes) {
    auto victim = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.priority < victim->second.priority) victim = it;
    }
    gdsf_clock_ = std::max(gdsf_clock_, victim->second.priority);
    bytes_total_ -= std::min(bytes_total_, victim->second.size_bytes);
    victims.emplace_back(victim->first, victim->second.item_id);
    entries_.erase(victim);
  }
  return victims;
}

Status ProductCache::LoadFromDm() {
  if (dm_ == nullptr) return Status::Ok();
  HEDC_ASSIGN_OR_RETURN(db::ResultSet rows,
                        dm_->io().Query(dm::QuerySpec("product_cache")));
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < rows.num_rows(); ++i) {
    uint64_t hash =
        static_cast<uint64_t>(rows.Get(i, "cache_key").AsInt());
    Entry entry;
    entry.item_id = rows.Get(i, "item_id").AsInt();
    entry.size_bytes =
        static_cast<uint64_t>(rows.Get(i, "size_bytes").AsInt());
    entry.cost_seconds = rows.Get(i, "cost_seconds").AsReal();
    entry.ana_id = rows.Get(i, "ana_id").AsInt();
    entry.routine = rows.Get(i, "routine").AsText();
    entry.parameters = rows.Get(i, "parameters").AsText();
    entry.versions_csv = rows.Get(i, "calibration_versions").AsText();
    for (const std::string& piece :
         Split(rows.Get(i, "unit_ids").AsText(), ',')) {
      int64_t unit_id = 0;
      if (ParseInt64(piece, &unit_id)) {
        entry.unit_ids.push_back(unit_id);
      }
    }
    entry.priority = PriorityFor(entry.cost_seconds, entry.size_bytes);
    entry.resident = false;  // bytes load lazily on first hit
    if (entry.item_id >= BlobItemId(next_blob_seq_)) {
      next_blob_seq_ = entry.item_id - BlobItemId(0) + 1;
    }
    bytes_total_ += entry.size_bytes;
    entries_[hash] = std::move(entry);
  }
  bytes_gauge_->Set(static_cast<int64_t>(bytes_total_));
  entries_gauge_->Set(static_cast<int64_t>(entries_.size()));
  return Status::Ok();
}

bool ProductCache::Peek(const ProductCacheKey& key) const {
  if (!key.valid) return false;
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.count(key.hash) > 0 || flights_.count(key.hash) > 0;
}

Result<std::vector<uint8_t>> ProductCache::LoadBlob(int64_t item_id) {
  if (dm_ == nullptr) return Status::NotFound("no DM attached");
  // Streamed read: cache delivery reuses the chunked io path instead of
  // a whole-file slurp inside the archive adapter.
  std::vector<uint8_t> bytes;
  HEDC_ASSIGN_OR_RETURN(
      uint64_t total,
      dm_->io().StreamItemFile(
          item_id, [&bytes](uint64_t, const uint8_t* p, size_t n) {
            bytes.insert(bytes.end(), p, p + n);
            return Status::Ok();
          }));
  (void)total;
  return bytes;
}

ProductCache::Ticket ProductCache::Admit(const ProductCacheKey& key) {
  Ticket ticket;
  ticket.key = key;
  if (!key.valid) return ticket;  // kDisabled
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    auto it = entries_.find(key.hash);
    if (it != entries_.end()) {
      if (!it->second.resident) {
        // Lazy blob load (restart recovery): drop the lock for the IO.
        int64_t item_id = it->second.item_id;
        uint64_t expected = it->second.size_bytes;
        lock.unlock();
        Result<std::vector<uint8_t>> bytes = LoadBlob(item_id);
        lock.lock();
        it = entries_.find(key.hash);
        if (it == entries_.end()) continue;  // invalidated meanwhile
        if (!bytes.ok() || bytes.value().size() != expected) {
          // Unreadable or resized blob: self-heal by dropping the entry
          // and re-admitting as a miss.
          bytes_total_ -= std::min(bytes_total_, it->second.size_bytes);
          int64_t stale_item = it->second.item_id;
          entries_.erase(it);
          bytes_gauge_->Set(static_cast<int64_t>(bytes_total_));
          entries_gauge_->Set(static_cast<int64_t>(entries_.size()));
          lock.unlock();
          DeletePersisted(key.hash, stale_item);
          lock.lock();
          continue;
        }
        it->second.bytes = std::move(bytes).value();
        it->second.resident = true;
      }
      // GDSF frequency term: every hit re-floats the entry above the
      // current L.
      it->second.priority =
          PriorityFor(it->second.cost_seconds, it->second.size_bytes);
      ticket.role = Role::kHit;
      ticket.hit.bytes = it->second.bytes;
      ticket.hit.ana_id = it->second.ana_id;
      ticket.hit.cost_seconds = it->second.cost_seconds;
      hits_->Add();
      return ticket;
    }
    auto flight_it = flights_.find(key.hash);
    if (flight_it != flights_.end()) {
      ticket.role = Role::kFollower;
      ticket.flight = flight_it->second;
      ticket.flight->waiters.fetch_add(1, std::memory_order_relaxed);
      coalesced_->Add();
      return ticket;
    }
    ticket.role = Role::kLeader;
    ticket.flight = std::make_shared<Flight>();
    flights_[key.hash] = ticket.flight;
    misses_->Add();
    return ticket;
  }
}

Result<ProductCache::CachedProduct> ProductCache::Await(
    const Ticket& ticket) {
  if (ticket.role != Role::kFollower || ticket.flight == nullptr) {
    return Status::FailedPrecondition("not a follower ticket");
  }
  Flight* flight = ticket.flight.get();
  std::unique_lock<std::mutex> lock(flight->mu);
  flight->cv.wait(lock, [flight] { return flight->done; });
  if (!flight->status.ok()) return flight->status;
  return flight->result;
}

void ProductCache::PublishFlight(const Ticket& ticket, Status status,
                                 CachedProduct result) {
  Flight* flight = ticket.flight.get();
  {
    std::lock_guard<std::mutex> lock(flight->mu);
    flight->status = std::move(status);
    flight->result = std::move(result);
    flight->done = true;
  }
  flight->cv.notify_all();
}

Result<int64_t> ProductCache::Persist(const ProductCacheKey& key,
                                      Entry* entry) {
  int64_t seq;
  {
    std::lock_guard<std::mutex> lock(mu_);
    seq = next_blob_seq_++;
  }
  int64_t item_id = BlobItemId(seq);
  HEDC_RETURN_IF_ERROR(dm_->io().WriteItemFile(
      item_id, kBlobArchiveId, "pcache", entry->bytes));
  std::string unit_csv, version_csv;
  for (size_t i = 0; i < key.inputs.size(); ++i) {
    if (i > 0) {
      unit_csv += ",";
      version_csv += ",";
    }
    unit_csv += std::to_string(key.inputs[i].unit_id);
    version_csv += std::to_string(key.inputs[i].calibration_version);
  }
  // Re-persisting a key after invalidate/recompute replaces the old row.
  dm_->io().Update("product_cache",
                   "DELETE FROM product_cache WHERE cache_key = ?",
                   {db::Value::Int(static_cast<int64_t>(key.hash))});
  HEDC_ASSIGN_OR_RETURN(
      db::ResultSet ins,
      dm_->io().Update(
          "product_cache",
          "INSERT INTO product_cache VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
          {db::Value::Int(static_cast<int64_t>(key.hash)),
           db::Value::Int(item_id), db::Value::Text(key.routine),
           db::Value::Text(entry->parameters), db::Value::Text(unit_csv),
           db::Value::Text(version_csv),
           db::Value::Int(static_cast<int64_t>(entry->size_bytes)),
           db::Value::Real(entry->cost_seconds),
           db::Value::Int(entry->ana_id),
           db::Value::Real(static_cast<double>(dm_->clock()->Now()) /
                           kMicrosPerSecond)}));
  (void)ins;
  return item_id;
}

void ProductCache::DeletePersisted(uint64_t hash, int64_t item_id) {
  if (dm_ == nullptr) return;
  dm_->io().Update("product_cache",
                   "DELETE FROM product_cache WHERE cache_key = ?",
                   {db::Value::Int(static_cast<int64_t>(hash))});
  if (item_id != 0) dm_->io().DeleteItemFile(item_id);
}

void ProductCache::CompleteSuccess(const Ticket& ticket,
                                   const analysis::AnalysisProduct& product,
                                   double cost_seconds, int64_t ana_id) {
  if (ticket.role != Role::kLeader || ticket.flight == nullptr) return;
  Entry entry;
  entry.bytes = EncodeProduct(product);
  entry.size_bytes = entry.bytes.size();
  entry.cost_seconds = cost_seconds;
  entry.ana_id = ana_id;
  entry.resident = true;
  entry.routine = ticket.key.routine;
  entry.parameters = ticket.key.canonical;
  std::string versions;
  for (size_t i = 0; i < ticket.key.inputs.size(); ++i) {
    if (i > 0) versions += ",";
    versions += std::to_string(ticket.key.inputs[i].calibration_version);
    entry.unit_ids.push_back(ticket.key.inputs[i].unit_id);
  }
  entry.versions_csv = versions;

  CachedProduct shared;
  shared.bytes = entry.bytes;
  shared.ana_id = ana_id;
  shared.cost_seconds = cost_seconds;

  bool cacheable = entry.size_bytes <= options_.capacity_bytes;
  if (cacheable && dm_ != nullptr) {
    Result<int64_t> item = Persist(ticket.key, &entry);
    // Persistence failure degrades to a memory-only entry.
    if (item.ok()) entry.item_id = item.value();
  }

  std::vector<std::pair<uint64_t, int64_t>> victims;
  if (cacheable) {
    std::lock_guard<std::mutex> lock(mu_);
    victims = EvictForLocked(entry.size_bytes);
    entry.priority = PriorityFor(entry.cost_seconds, entry.size_bytes);
    auto existing = entries_.find(ticket.key.hash);
    if (existing != entries_.end()) {
      bytes_total_ -= std::min(bytes_total_, existing->second.size_bytes);
    }
    bytes_total_ += entry.size_bytes;
    entries_[ticket.key.hash] = std::move(entry);
    flights_.erase(ticket.key.hash);
    bytes_gauge_->Set(static_cast<int64_t>(bytes_total_));
    entries_gauge_->Set(static_cast<int64_t>(entries_.size()));
  } else {
    // Larger than the whole cache: deliver but do not admit.
    std::lock_guard<std::mutex> lock(mu_);
    flights_.erase(ticket.key.hash);
  }
  for (const auto& [hash, item_id] : victims) {
    evictions_->Add();
    DeletePersisted(hash, item_id);
  }
  PublishFlight(ticket, Status::Ok(), std::move(shared));
}

void ProductCache::CompleteFailure(const Ticket& ticket, Status status) {
  if (ticket.role != Role::kLeader || ticket.flight == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    flights_.erase(ticket.key.hash);
  }
  PublishFlight(ticket, std::move(status), CachedProduct{});
}

int64_t ProductCache::InvalidateUnit(int64_t unit_id) {
  std::vector<std::pair<uint64_t, int64_t>> victims;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = entries_.begin(); it != entries_.end();) {
      bool depends = std::find(it->second.unit_ids.begin(),
                               it->second.unit_ids.end(),
                               unit_id) != it->second.unit_ids.end();
      if (depends) {
        bytes_total_ -= std::min(bytes_total_, it->second.size_bytes);
        victims.emplace_back(it->first, it->second.item_id);
        it = entries_.erase(it);
      } else {
        ++it;
      }
    }
    bytes_gauge_->Set(static_cast<int64_t>(bytes_total_));
    entries_gauge_->Set(static_cast<int64_t>(entries_.size()));
  }
  // Memory first, then the durable row, then the blob: a racing reader
  // either hits the old entry wholesale or misses cleanly; it can never
  // resolve a directory row whose blob is gone.
  for (const auto& [hash, item_id] : victims) {
    invalidations_->Add();
    DeletePersisted(hash, item_id);
  }
  return static_cast<int64_t>(victims.size());
}

int64_t ProductCache::InvalidateAna(int64_t ana_id) {
  if (ana_id == 0) return 0;
  std::vector<std::pair<uint64_t, int64_t>> victims;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (it->second.ana_id == ana_id) {
        bytes_total_ -= std::min(bytes_total_, it->second.size_bytes);
        victims.emplace_back(it->first, it->second.item_id);
        it = entries_.erase(it);
      } else {
        ++it;
      }
    }
    bytes_gauge_->Set(static_cast<int64_t>(bytes_total_));
    entries_gauge_->Set(static_cast<int64_t>(entries_.size()));
  }
  for (const auto& [hash, item_id] : victims) {
    invalidations_->Add();
    DeletePersisted(hash, item_id);
  }
  return static_cast<int64_t>(victims.size());
}

size_t ProductCache::WaitersFor(const ProductCacheKey& key) const {
  if (!key.valid) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = flights_.find(key.hash);
  if (it == flights_.end()) return 0;
  return it->second->waiters.load(std::memory_order_relaxed);
}

uint64_t ProductCache::bytes_cached() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_total_;
}

size_t ProductCache::entry_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace hedc::pl
