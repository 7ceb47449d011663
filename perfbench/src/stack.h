// The single-node HEDC stack under test, its generated inputs, and the
// timing decorators the benchmark wraps around the stack's existing
// injection points.
//
// The stack is wired like the integration-test fixture: db -> name mapper
// and disk archive -> DM -> process layer -> PL front end with product
// cache and 2 IDL servers -> WebServer, served by HttpTcpServer on the
// epoll reactor. The clock is real and every injected cost (connection
// and session setup, archive latency, IDL virtual charging) is 0, so
// timings measure code, not sleeps. The metadata DB runs without a WAL.
#ifndef PERFBENCH_STACK_H_
#define PERFBENCH_STACK_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/routine.h"
#include "archive/archive.h"
#include "core/clock.h"
#include "dm/dm.h"
#include "dm/process_layer.h"
#include "pl/frontend.h"
#include "web/http_tcp.h"
#include "web/web_server.h"

namespace perfbench {

// --- item-id spaces -------------------------------------------------------

enum class ItemClass { kRaw, kView, kImage, kBlob, kOther };
ItemClass ClassOfItem(int64_t item_id);
// "raw", "view", "image", "blob", "other".
const char* ItemClassName(ItemClass c);
// The item id an archive path ends in ("ana/2000000007" -> 2000000007);
// -1 when the path does not end in a number.
int64_t ItemIdFromPath(const std::string& path);

// --- analysis request identity ---------------------------------------------

// Every analysis the benchmark submits carries a "run_id" parameter.
// Fresh /analyze requests use "r<rid>" (the request id, never reused);
// analyses committed at setup use "s<index>". Returns the rid, or 0.
int64_t RidFromParams(const hedc::analysis::AnalysisParams& params);

// --- timing decorators -------------------------------------------------------

// Wraps the registered DiskArchive. When tracing, every ReadRange chunk
// becomes an "archive" span under the calling thread's context, one
// summary per item read ("read.<class>": busy time of all its chunks,
// bytes), and every Write a "write" span.
class TimingArchive : public hedc::archive::Archive {
 public:
  explicit TimingArchive(std::unique_ptr<hedc::archive::Archive> inner)
      : inner_(std::move(inner)) {}

  hedc::archive::ArchiveType type() const override { return inner_->type(); }
  hedc::Status Write(const std::string& path,
                     const std::vector<uint8_t>& data) override;
  hedc::Result<std::vector<uint8_t>> Read(const std::string& path) override {
    return inner_->Read(path);
  }
  bool Exists(const std::string& path) const override {
    return inner_->Exists(path);
  }
  hedc::Status Delete(const std::string& path) override {
    return inner_->Delete(path);
  }
  std::vector<std::string> List() const override { return inner_->List(); }
  hedc::Result<uint64_t> SizeOf(const std::string& path) override {
    return inner_->SizeOf(path);
  }
  hedc::Result<size_t> ReadRange(const std::string& path, uint64_t offset,
                                 uint8_t* out, size_t len) override;
  uint64_t BytesStored() const override { return inner_->BytesStored(); }

 private:
  std::unique_ptr<hedc::archive::Archive> inner_;
};

// Wraps one registered routine. When tracing, each Run becomes an
// "analysis" span parented to its /analyze dispatch (found through the
// run_id parameter), with the photon count as its value.
class TimingRoutine : public hedc::analysis::AnalysisRoutine {
 public:
  explicit TimingRoutine(const hedc::analysis::AnalysisRoutine* inner)
      : inner_(inner) {}
  std::string name() const override { return inner_->name(); }
  hedc::Result<hedc::analysis::AnalysisProduct> Run(
      const hedc::rhessi::PhotonList& photons,
      const hedc::analysis::AnalysisParams& params) const override;
  double EstimateWorkUnits(
      size_t photon_count,
      const hedc::analysis::AnalysisParams& params) const override {
    return inner_->EstimateWorkUnits(photon_count, params);
  }

 private:
  const hedc::analysis::AnalysisRoutine* inner_;
};

// --- generated inputs ----------------------------------------------------------

// One raw unit loaded at setup, with what the checks compare against:
// its view binning (as ProcessLayer bins it) and the bytes of each
// /view prefix.
struct UnitData {
  int64_t unit_id = 0;
  double t_start = 0;
  double t_stop = 0;
  std::vector<uint8_t> packed;
  std::vector<double> counts;    // 1024 bins of photon counts
  std::vector<double> energies;  // 1024 bins of summed keV
  static constexpr int kLevels = 4;  // /view resolutions 0..3
  size_t prefix_size[kLevels] = {};
  uint64_t prefix_hash[kLevels] = {};
};

struct Inputs {
  std::vector<UnitData> units;
  // Raw units for the ingest workload (second seed), packed.
  std::vector<std::vector<uint8_t>> ingest_units;
  // Rendered thumbnails the setup analyses are committed with.
  std::vector<std::vector<uint8_t>> images;
};

// Deterministic: the same `seed` and `ingest_units` give the same inputs.
// The seed orders the `ingest_units` ingest units; everything else is the
// fixed dataset (2 h of telemetry: 21 units of ~0.93 MB packed, 41 HLEs).
Inputs GenerateInputs(uint64_t seed, size_t ingest_units);

// --- the stack ---------------------------------------------------------------------

// An analysis committed at setup, reachable through the existing-analysis
// path of /analyze with `query`.
struct SetupAna {
  int64_t ana_id = 0;
  int64_t image_item = 0;
  std::string query;  // "hle_id=..&routine=..&..&run_id=s<j>"
};

struct HleData {
  int64_t hle_id = 0;
  int64_t unit_id = 0;
  size_t unit_index = 0;  // into Inputs::units
  double t_start = 0;
  double t_end = 0;
  std::vector<SetupAna> anas;
};

// The fixed parameters each routine is requested with (URL form).
extern const char* const kRoutines[3];
const char* RoutineQuery(const std::string& routine);

class Stack {
 public:
  static constexpr int kAnalysts = 4;

  // Builds the stack, loads `inputs.units` and commits `anas_per_hle`
  // analyses per detected HLE through pl::MakeDmCommitter.
  Stack(const Inputs& inputs, int anas_per_hle);
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  hedc::Status StartServer();
  int port() const { return http_->port(); }

  // WebServer::Dispatch as the HTTP server calls it. When tracing, the
  // call is a "web" span (named by path; "/analyze_existing" for an
  // /analyze of a setup analysis) under the request's round trip; the
  // request id comes from the "bench_rid" cookie.
  hedc::web::HttpResponse Dispatch(const hedc::web::HttpRequest& request);

  // The DB row count of `sql` with one integer parameter.
  int64_t CountRows(const std::string& sql, int64_t param);

  const Inputs& inputs;
  hedc::RealClock clock;
  hedc::db::Database db;
  hedc::archive::ArchiveManager archives;
  std::unique_ptr<hedc::archive::NameMapper> mapper;
  std::unique_ptr<hedc::dm::DataManager> data_manager;
  std::unique_ptr<hedc::dm::ProcessLayer> process;
  hedc::dm::Session import_session;
  std::unique_ptr<hedc::analysis::RoutineRegistry> routines;  // real
  std::unique_ptr<hedc::analysis::RoutineRegistry> registry;  // timing
  std::unique_ptr<hedc::pl::IdlServerManager> manager;
  hedc::pl::GlobalDirectory directory;
  std::unique_ptr<hedc::pl::DurationPredictor> predictor;
  std::unique_ptr<hedc::pl::ProductCache> product_cache;  // before frontend
  hedc::pl::Frontend::Committer committer;                // timing wrapper
  std::unique_ptr<hedc::pl::Frontend> frontend;
  std::unique_ptr<hedc::web::WebServer> web;

  std::vector<HleData> hles;
  // Archived thumbnail of every setup analysis: item -> (size, hash).
  std::map<int64_t, std::pair<size_t, uint64_t>> image_expect;

 private:
  std::unique_ptr<hedc::web::HttpTcpServer> http_;  // stopped first
};

}  // namespace perfbench

#endif  // PERFBENCH_STACK_H_
