// One HEDC node: the whole stack of §4-§6, and the unit the §7 testbed
// replicates as a DM node.
//
// Node assembles, in one fixed order (DESIGN.md §4m): the metadata DBMS
// with the full schema and, optionally, its write-ahead log; disk archive
// 1 and the name mapper; the DM and its process layer; the
// derived-product cache wired to the recalibration and purge workflows;
// the PL front end; and the web server with the standard servlets.
// StartPl adds the two IDL interpreters and the commit session. A caller
// that needs more (another archive, its users) adds it on the accessors.
#ifndef HEDC_NODE_NODE_H_
#define HEDC_NODE_NODE_H_

#include <memory>
#include <mutex>
#include <string>

#include "analysis/routine.h"
#include "archive/archive.h"
#include "archive/name_mapper.h"
#include "core/clock.h"
#include "db/database.h"
#include "dm/dm.h"
#include "dm/process_layer.h"
#include "pl/frontend.h"
#include "pl/product_cache.h"
#include "pl/server_manager.h"
#include "web/web_server.h"

namespace hedc {

struct NodeOptions {
  // Directory of the node's write-ahead log, <wal_dir>/<name>.wal; Boot
  // creates it and replays the log found there. Empty = in memory only.
  std::string wal_dir;
  dm::DataManager::Options dm;
  pl::ProductCache::Options cache;
};

class Node {
 public:
  Node(std::string name, NodeOptions options, Clock* clock);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  // Builds the stack. A replayed log keeps its rows: archive 1 is
  // registered only when the log does not hold it already.
  Status Boot();
  // Starts the PL, once, after Boot: two interpreters over the standard
  // routines. Analyses commit through the DM as `committer`, one at a
  // time (db::Database holds one transaction at a time).
  void StartPl(const dm::Session& committer);

  const std::string& name() const { return name_; }
  db::Database* db() { return &db_; }
  archive::ArchiveManager* archives() { return &archives_; }
  archive::NameMapper* mapper() { return mapper_.get(); }
  dm::DataManager* dm() { return dm_.get(); }
  dm::ProcessLayer* process() { return process_.get(); }
  pl::ProductCache* product_cache() { return cache_.get(); }
  pl::Frontend* frontend() { return frontend_.get(); }
  web::WebServer* web() { return web_.get(); }

 private:
  std::string name_;
  NodeOptions options_;
  Clock* clock_;

  db::Database db_;
  archive::ArchiveManager archives_;
  std::unique_ptr<archive::NameMapper> mapper_;
  std::unique_ptr<dm::DataManager> dm_;
  std::unique_ptr<dm::ProcessLayer> process_;
  std::unique_ptr<pl::ProductCache> cache_;
  // The PL. Declared before frontend_, which commits through commit_ and
  // dispatches onto interpreters_ until it is destroyed.
  std::unique_ptr<analysis::RoutineRegistry> registry_;
  std::unique_ptr<pl::IdlServerManager> interpreters_;
  pl::GlobalDirectory directory_;
  pl::DurationPredictor predictor_;
  std::mutex commit_mu_;
  pl::Frontend::Committer commit_;  // set by StartPl, under commit_mu_
  std::unique_ptr<pl::Frontend> frontend_;
  std::unique_ptr<web::WebServer> web_;
};

}  // namespace hedc

#endif  // HEDC_NODE_NODE_H_
