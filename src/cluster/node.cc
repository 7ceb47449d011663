#include "cluster/node.h"

namespace hedc::cluster {

ClusterNode::ClusterNode(std::string name, NodeOptions options, Clock* clock)
    : hedc::Node(std::move(name), options, clock),
      rmi_options_(std::move(options.rmi)) {}

Status ClusterNode::Boot() {
  HEDC_RETURN_IF_ERROR(hedc::Node::Boot());
  // Identity row (the first user, so user_id 1): "SELECT name FROM users
  // WHERE user_id = 1" answers with the serving node's name, which the
  // routing tests key on. A replayed log already holds it.
  HEDC_ASSIGN_OR_RETURN(
      db::ResultSet identity,
      db()->Execute("SELECT COUNT(*) FROM users WHERE user_id = 1"));
  if (identity.rows[0][0].AsInt() == 0) {
    HEDC_RETURN_IF_ERROR(
        dm()->users().CreateUser(name(), "node-identity", dm::UserProfile{})
            .status());
  }
  rmi_ = std::make_unique<dm::RmiServer>(dm(), &metrics_);
  tcp_ = std::make_unique<dm::TcpRmiServer>(rmi_.get(), &metrics_,
                                            rmi_options_);
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
