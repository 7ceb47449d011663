// Content-addressed derived-product cache with single-flight coalescing.
//
// HEDC's central workload claim is that users re-request the same derived
// products: Table 1's C-cached configuration cuts a 150-request histogram
// run from 960s to 438s purely by not recomputing them. This module is
// that cache as a first-class subsystem of the PL:
//
//  * Content addressing. Entries are keyed by a 64-bit FNV-1a over the
//    canonical form of (routine name, canonicalized parameters, input
//    raw-unit ids AND their calibration versions). Recalibrating a unit
//    changes the version and therefore the key — a post-recalibration
//    request can never match a pre-recalibration product, independent of
//    explicit invalidation.
//
//  * Single-flight coalescing. The first miss for a key becomes the
//    leader and runs the one IDL execution; concurrent identical misses
//    become followers and block on the leader's flight. A failed or
//    crashed execution fails every waiter and inserts nothing — failures
//    never poison the cache.
//
//  * Durability through the DM. Successful entries are encoded
//    (ByteBuffer + CRC-32 trailer), stored as archive blobs in their own
//    item-id space, registered with the name mapper, and directoried in
//    the operational `product_cache` table, so a restarted PL recovers
//    its cache index (LoadFromDm) and the recalibration/purge workflows
//    can invalidate by lineage.
//
//  * GDSF eviction. Cost-aware greedy-dual-size-frequency: an entry's
//    priority is L + cost_seconds/size_bytes (cost measured at execution
//    time); eviction removes the minimum and raises the global L to it,
//    so cheap-to-recompute bulky entries go first and frequently-hit
//    entries keep floating above L.
#ifndef HEDC_PL_PRODUCT_CACHE_H_
#define HEDC_PL_PRODUCT_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/routine.h"
#include "core/metrics.h"
#include "core/status.h"

namespace hedc::dm {
class DataManager;
}  // namespace hedc::dm

namespace hedc::pl {

// One input raw unit of a processing request, identified by id and the
// calibration version its photons were derived under. Part of the cache
// key: same unit at a different calibration is different content.
struct InputUnit {
  int64_t unit_id = 0;
  int calibration_version = 0;
};

struct ProductCacheKey {
  bool valid = false;
  uint64_t hash = 0;          // FNV-1a of `canonical`
  std::string canonical;      // routine=..;params=..;units=id:vN,...
  std::string routine;
  std::vector<InputUnit> inputs;  // sorted by unit_id
};

// Builds the canonical key. Parameters canonicalize through
// AnalysisParams::Canonical() (sorted map), inputs sort by unit id, so
// the hash is independent of parameter and input order. An empty input
// list yields an invalid key: content addressing requires lineage.
ProductCacheKey MakeProductCacheKey(const std::string& routine,
                                    const analysis::AnalysisParams& params,
                                    std::vector<InputUnit> inputs);

// --- product codec --------------------------------------------------------
// Self-contained binary encoding of an AnalysisProduct (magic + payload +
// CRC-32 trailer). Decode verifies both and reports kCorruption, so a
// damaged blob fails the request instead of serving garbage.
std::vector<uint8_t> EncodeProduct(const analysis::AnalysisProduct& product);
Result<analysis::AnalysisProduct> DecodeProduct(
    const std::vector<uint8_t>& bytes);

class ProductCache {
 public:
  struct Options {
    uint64_t capacity_bytes = 64ull << 20;
    std::string metric_prefix = "product_cache";
  };

  // What a hit or a completed flight delivers: the encoded product plus
  // the ana id it was committed under (0 = never committed).
  struct CachedProduct {
    std::vector<uint8_t> bytes;
    int64_t ana_id = 0;
    double cost_seconds = 0;
  };

  enum class Role {
    kDisabled,  // key without lineage: run the uncached path
    kHit,       // entry served; `hit` is filled
    kLeader,    // run the execution, then CompleteSuccess/CompleteFailure
    kFollower,  // Await() the leader's flight
  };

  struct Ticket {
    Role role = Role::kDisabled;
    ProductCacheKey key;
    CachedProduct hit;  // filled when role == kHit
    std::shared_ptr<struct Flight> flight;
  };

  // `dm` may be null: the cache then runs memory-only (no persistence,
  // no restart recovery). Borrowed pointers must outlive the cache.
  ProductCache(dm::DataManager* dm, Options options);

  // Recovers the entry index from the product_cache table. Blob bytes are
  // loaded lazily on first hit (streamed through the io layer). Call
  // before serving traffic.
  Status LoadFromDm();

  // Estimation-phase probe: true if `key` is cached or in flight (a
  // matching request would be served without a fresh execution). Does not
  // touch hit/miss counters — Admit() is the accounting point.
  bool Peek(const ProductCacheKey& key) const;

  // Admission point, called once per request at the start of the
  // execution phase. Exactly one concurrent caller per key becomes the
  // leader; the rest follow. Counters: kHit -> hits, kLeader -> misses,
  // kFollower -> coalesced.
  Ticket Admit(const ProductCacheKey& key);

  // Follower side: blocks until the leader completes. Returns the shared
  // product or the leader's failure status.
  Result<CachedProduct> Await(const Ticket& ticket);

  // Leader side: publishes the executed product to all waiters and
  // admits it into the cache (evicting to capacity, persisting through
  // the DM). `cost_seconds` is the measured execution time (GDSF cost);
  // `ana_id` the committed ANA (0 if the request skipped commit).
  void CompleteSuccess(const Ticket& ticket,
                       const analysis::AnalysisProduct& product,
                       double cost_seconds, int64_t ana_id);

  // Leader side, failure: fails every waiter with `status` and caches
  // nothing, so a crash cannot poison the cache.
  void CompleteFailure(const Ticket& ticket, Status status);

  // Lineage invalidation (recalibration bumped `unit_id`'s version):
  // drops every entry derived from the unit — memory, DB row and blob.
  // Returns the number invalidated.
  int64_t InvalidateUnit(int64_t unit_id);
  // Purge-workflow hook: drops entries whose product was committed as
  // `ana_id`.
  int64_t InvalidateAna(int64_t ana_id);

  // Introspection for tests/benches: current follower count on `key`'s
  // flight (0 when idle).
  size_t WaitersFor(const ProductCacheKey& key) const;

  uint64_t bytes_cached() const;
  size_t entry_count() const;
  const Options& options() const { return options_; }

  // Item-id space for cache blobs (raw units own low ids, views 1e9+,
  // ANA images 2e9+, Phoenix 3e9+).
  static int64_t BlobItemId(int64_t seq) { return 4000000000 + seq; }

 private:
  struct Entry {
    int64_t item_id = 0;  // 0 = memory-only (not persisted)
    uint64_t size_bytes = 0;
    double cost_seconds = 0;
    int64_t ana_id = 0;
    std::vector<int64_t> unit_ids;
    double priority = 0;  // GDSF H
    bool resident = false;
    std::vector<uint8_t> bytes;
    std::string routine;
    std::string parameters;
    std::string versions_csv;
  };

  // GDSF priority for an entry under the current global L.
  double PriorityFor(double cost_seconds, uint64_t size_bytes) const;
  // Removes min-priority entries under mu_ until `incoming` fits;
  // returns the victims' (hash, item_id) for out-of-lock blob cleanup.
  std::vector<std::pair<uint64_t, int64_t>> EvictForLocked(
      uint64_t incoming);
  // Persists one entry (blob + directory row); returns the item id.
  Result<int64_t> Persist(const ProductCacheKey& key, Entry* entry);
  void DeletePersisted(uint64_t hash, int64_t item_id);
  Result<std::vector<uint8_t>> LoadBlob(int64_t item_id);
  void PublishFlight(const Ticket& ticket, Status status,
                     CachedProduct result);

  dm::DataManager* dm_;
  Options options_;

  mutable std::mutex mu_;
  std::unordered_map<uint64_t, Entry> entries_;
  std::unordered_map<uint64_t, std::shared_ptr<Flight>> flights_;
  uint64_t bytes_total_ = 0;  // resident + lazily-loadable persisted bytes
  double gdsf_clock_ = 0;     // GDSF L
  int64_t next_blob_seq_ = 1;

  // <prefix>.* counters/gauges per the issue contract.
  Counter* hits_;
  Counter* misses_;
  Counter* coalesced_;
  Counter* evictions_;
  Counter* invalidations_;
  Gauge* bytes_gauge_;
  Gauge* entries_gauge_;
};

}  // namespace hedc::pl

#endif  // HEDC_PL_PRODUCT_CACHE_H_
