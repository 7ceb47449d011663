// Decoded raw units, shared by the requests that analyse them.
//
// The PL keeps delivery apart from fetching the data (§3.5); this cache
// keeps a hot unit's photons "online" for quick-look analysis, so a fresh
// analysis of a unit decoded moments ago pays no archive read, CRC or
// photon decode. Entries are keyed on (unit id, calibration version): a
// recalibrated unit is simply a miss, and no invalidation hook is needed.
#ifndef HEDC_DM_RAW_UNIT_CACHE_H_
#define HEDC_DM_RAW_UNIT_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/metrics.h"
#include "rhessi/raw_unit.h"

namespace hedc::dm {

class RawUnitCache {
 public:
  // 256 MiB holds ~80 decoded 200k-photon units (3.2 MB each).
  static constexpr size_t kBudgetBytes = size_t{256} << 20;

  explicit RawUnitCache(size_t budget_bytes = kBudgetBytes);
  // Takes this cache's bytes off the process-wide gauge.
  ~RawUnitCache();

  RawUnitCache(const RawUnitCache&) = delete;
  RawUnitCache& operator=(const RawUnitCache&) = delete;

  // The unit decoded at `calibration_version`, or nullptr. Counts a hit
  // or a miss and marks a hit most recently used.
  std::shared_ptr<const rhessi::RawDataUnit> Find(int64_t unit_id,
                                                  int calibration_version);

  // Caches `unit` under its header's calibration version, replacing any
  // entry for `unit_id`, then evicts least recently used entries until
  // the cache fits its budget. Callers holding an evicted unit keep it.
  void Insert(int64_t unit_id,
              std::shared_ptr<const rhessi::RawDataUnit> unit);

  // Shrinks or grows the budget, evicting down to it. Tests use a small
  // budget to force eviction; the DM keeps kBudgetBytes.
  void set_budget_bytes(size_t budget_bytes);

  size_t bytes() const;
  size_t entries() const;

  // Memory a decoded unit holds: its photon array and header.
  static size_t UnitBytes(const rhessi::RawDataUnit& unit);

 private:
  struct Entry {
    std::shared_ptr<const rhessi::RawDataUnit> unit;
    size_t bytes = 0;
    std::list<int64_t>::iterator lru;
  };

  // Drops least recently used entries until bytes_ <= budget_; appends
  // them to `evicted` so they are freed after mu_ is released.
  void EvictLocked(
      std::vector<std::shared_ptr<const rhessi::RawDataUnit>>* evicted);

  mutable std::mutex mu_;
  size_t budget_;
  size_t bytes_ = 0;
  std::unordered_map<int64_t, Entry> entries_;
  std::list<int64_t> lru_;  // unit ids, most recently used first

  // dm.raw_unit_cache.* metrics, summed over every DM in the process.
  Counter* const hits_;
  Counter* const misses_;
  Counter* const evictions_;
  Gauge* const bytes_gauge_;
};

}  // namespace hedc::dm

#endif  // HEDC_DM_RAW_UNIT_CACHE_H_
