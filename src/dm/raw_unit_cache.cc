#include "dm/raw_unit_cache.h"

#include <utility>

namespace hedc::dm {

RawUnitCache::RawUnitCache(size_t budget_bytes)
    : budget_(budget_bytes),
      hits_(MetricsRegistry::Default()->GetCounter("dm.raw_unit_cache.hits")),
      misses_(
          MetricsRegistry::Default()->GetCounter("dm.raw_unit_cache.misses")),
      evictions_(MetricsRegistry::Default()->GetCounter(
          "dm.raw_unit_cache.evictions")),
      bytes_gauge_(
          MetricsRegistry::Default()->GetGauge("dm.raw_unit_cache.bytes")) {}

RawUnitCache::~RawUnitCache() {
  bytes_gauge_->Add(-static_cast<int64_t>(bytes_));
}

size_t RawUnitCache::UnitBytes(const rhessi::RawDataUnit& unit) {
  return sizeof(rhessi::RawDataUnit) +
         unit.photons.capacity() * sizeof(rhessi::PhotonEvent);
}

std::shared_ptr<const rhessi::RawDataUnit> RawUnitCache::Find(
    int64_t unit_id, int calibration_version) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(unit_id);
  if (it == entries_.end() ||
      it->second.unit->calibration_version != calibration_version) {
    misses_->Add();
    return nullptr;
  }
  hits_->Add();
  lru_.splice(lru_.begin(), lru_, it->second.lru);
  return it->second.unit;
}

void RawUnitCache::Insert(int64_t unit_id,
                          std::shared_ptr<const rhessi::RawDataUnit> unit) {
  std::vector<std::shared_ptr<const rhessi::RawDataUnit>> evicted;
  size_t unit_bytes = UnitBytes(*unit);
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = entries_.try_emplace(unit_id);
  Entry& entry = it->second;
  if (inserted) {
    lru_.push_front(unit_id);
    entry.lru = lru_.begin();
  } else {
    // A newer decode of the unit (e.g. another calibration version).
    evicted.push_back(std::move(entry.unit));
    bytes_ -= entry.bytes;
    bytes_gauge_->Add(-static_cast<int64_t>(entry.bytes));
    lru_.splice(lru_.begin(), lru_, entry.lru);
  }
  entry.unit = std::move(unit);
  entry.bytes = unit_bytes;
  bytes_ += unit_bytes;
  bytes_gauge_->Add(static_cast<int64_t>(unit_bytes));
  EvictLocked(&evicted);
}

void RawUnitCache::set_budget_bytes(size_t budget_bytes) {
  std::vector<std::shared_ptr<const rhessi::RawDataUnit>> evicted;
  std::lock_guard<std::mutex> lock(mu_);
  budget_ = budget_bytes;
  EvictLocked(&evicted);
}

void RawUnitCache::EvictLocked(
    std::vector<std::shared_ptr<const rhessi::RawDataUnit>>* evicted) {
  while (bytes_ > budget_ && !lru_.empty()) {
    auto it = entries_.find(lru_.back());
    bytes_ -= it->second.bytes;
    bytes_gauge_->Add(-static_cast<int64_t>(it->second.bytes));
    evicted->push_back(std::move(it->second.unit));
    entries_.erase(it);
    lru_.pop_back();
    evictions_->Add();
  }
}

size_t RawUnitCache::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

size_t RawUnitCache::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace hedc::dm
