#include "cluster/node.h"

#include <sys/stat.h>

#include "dm/hedc_schema.h"

namespace hedc::cluster {

ClusterNode::ClusterNode(std::string name, NodeOptions options, Clock* clock)
    : name_(std::move(name)), options_(std::move(options)), clock_(clock) {}

ClusterNode::~ClusterNode() { StopServing(); }

Status ClusterNode::Boot() {
  HEDC_RETURN_IF_ERROR(dm::CreateFullSchema(&db_));
  if (!options_.wal_dir.empty()) {
    ::mkdir(options_.wal_dir.c_str(), 0755);  // EEXIST is fine
    HEDC_RETURN_IF_ERROR(
        db_.OpenWal(options_.wal_dir + "/" + name_ + ".wal"));
  }
  archives_.Register({1, archive::ArchiveType::kDisk, "raid1", true},
                     std::make_unique<archive::DiskArchive>());
  Config mapper_config;
  mapper_config.Set("root.filename", "/hedc");
  mapper_ = std::make_unique<archive::NameMapper>(&db_, mapper_config);
  HEDC_RETURN_IF_ERROR(mapper_->Init());
  HEDC_RETURN_IF_ERROR(mapper_->RegisterArchive(1, "disk", "raid1"));
  dm_ = std::make_unique<dm::DataManager>(name_, &db_, &archives_,
                                          mapper_.get(), clock_, options_.dm);
  process_ = std::make_unique<dm::ProcessLayer>(dm_.get(), 1);
  cache_ = std::make_unique<pl::ProductCache>(dm_.get(), options_.cache);
  HEDC_RETURN_IF_ERROR(cache_->LoadFromDm());
  // Identity row (allocated first, so user_id 1): "SELECT name FROM users
  // WHERE user_id = 1" answers with the serving node's name, which the
  // routing tests key on. Goes through the user manager so its id
  // generator stays consistent for users created later.
  HEDC_RETURN_IF_ERROR(
      dm_->users().CreateUser(name_, "node-identity", dm::UserProfile{})
          .status());
  rmi_ = std::make_unique<dm::RmiServer>(dm_.get(), &metrics_);
  tcp_ = std::make_unique<dm::TcpRmiServer>(rmi_.get(), &metrics_,
                                            options_.rmi);
  return StartServing();
}

Status ClusterNode::StartServing() {
  if (tcp_ == nullptr) return Status::FailedPrecondition("node not booted");
  return tcp_->Start();
}

void ClusterNode::StopServing() {
  if (tcp_ != nullptr) tcp_->Stop();
}

}  // namespace hedc::cluster
