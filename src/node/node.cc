#include "node/node.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstring>

#include "dm/hedc_schema.h"
#include "pl/commit.h"

namespace hedc {

Node::Node(std::string name, NodeOptions options, Clock* clock)
    : name_(std::move(name)), options_(std::move(options)), clock_(clock) {}

Status Node::Boot() {
  HEDC_RETURN_IF_ERROR(dm::CreateFullSchema(&db_));
  if (!options_.wal_dir.empty()) {
    if (::mkdir(options_.wal_dir.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::Internal("mkdir " + options_.wal_dir + ": " +
                              std::strerror(errno));
    }
    HEDC_RETURN_IF_ERROR(
        db_.OpenWal(options_.wal_dir + "/" + name_ + ".wal"));
  }

  archives_.Register({1, archive::ArchiveType::kDisk, "raid1", true},
                     std::make_unique<archive::DiskArchive>());
  Config mapper_config;
  mapper_config.Set("root.filename", "/hedc");
  mapper_ = std::make_unique<archive::NameMapper>(&db_, mapper_config);
  HEDC_RETURN_IF_ERROR(mapper_->Init());
  HEDC_ASSIGN_OR_RETURN(
      db::ResultSet archive_rows,
      db_.Execute("SELECT COUNT(*) FROM archives WHERE archive_id = 1"));
  if (archive_rows.rows[0][0].AsInt() == 0) {
    HEDC_RETURN_IF_ERROR(mapper_->RegisterArchive(1, "disk", "raid1"));
  }

  dm_ = std::make_unique<dm::DataManager>(name_, &db_, &archives_,
                                          mapper_.get(), clock_, options_.dm);
  process_ = std::make_unique<dm::ProcessLayer>(dm_.get(), 1);

  cache_ = std::make_unique<pl::ProductCache>(dm_.get(), options_.cache);
  HEDC_RETURN_IF_ERROR(cache_->LoadFromDm());
  process_->SetDerivedProductInvalidator(
      [this](int64_t unit_id) { cache_->InvalidateUnit(unit_id); });
  process_->SetAnaPurgeListener(
      [this](int64_t ana_id) { cache_->InvalidateAna(ana_id); });

  frontend_ = std::make_unique<pl::Frontend>(
      &directory_, &predictor_, clock_,
      [this](const pl::ProcessingRequest& request,
             const analysis::AnalysisProduct& product) -> Result<int64_t> {
        // One commit at a time: a second dispatcher's CreateAna would
        // find the database's one transaction open (ROADMAP item 1).
        std::lock_guard<std::mutex> lock(commit_mu_);
        if (!commit_) return Status::FailedPrecondition("PL not started");
        return commit_(request, product);
      },
      pl::Frontend::Options{});
  frontend_->set_product_cache(cache_.get());

  web_ = std::make_unique<web::WebServer>(dm_.get(), frontend_.get());
  return web_->RegisterStandardServlets();
}

void Node::StartPl(const dm::Session& committer) {
  {
    std::lock_guard<std::mutex> lock(commit_mu_);
    commit_ = pl::MakeDmCommitter(dm_.get(), committer, 1);
  }
  registry_ = analysis::CreateStandardRegistry();
  interpreters_ = std::make_unique<pl::IdlServerManager>(
      "host0", pl::IdlServerManager::Options{});
  for (const char* server : {"idl0", "idl1"}) {
    interpreters_->AddServer(std::make_unique<pl::IdlServer>(
        server, registry_.get(), clock_, pl::IdlServer::Options{}));
  }
  directory_.Register("host0", interpreters_.get(), "local");
}

}  // namespace hedc
