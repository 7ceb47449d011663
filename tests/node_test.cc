// hedc::Node assembly: a WAL-backed node reopens its own log with the
// same rows and keeps working; a bad WAL directory fails Boot by name.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "cluster/node.h"
#include "node/node.h"
#include "rhessi/raw_unit.h"
#include "rhessi/telemetry.h"

namespace hedc {
namespace {

class NodeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("hedc_node_" + std::to_string(::getpid()));
    options_.wal_dir = dir_.string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  // Creates super user `name` and, as that user, loads unit `unit` of a
  // 600 s telemetry stream.
  static Status AddUserAndLoad(Node* node, const std::string& name,
                               size_t unit) {
    dm::UserProfile super_user;
    super_user.is_super = true;
    HEDC_ASSIGN_OR_RETURN(
        super_user.user_id,
        node->dm()->users().CreateUser(name, "pw", super_user));
    HEDC_ASSIGN_OR_RETURN(dm::Session session,
                          node->dm()->sessions().GetOrCreate(
                              super_user, "127.0.0.1", "ck-" + name,
                              dm::SessionKind::kHle));
    rhessi::TelemetryOptions telemetry;
    telemetry.duration_sec = 600;
    telemetry.saa_per_hour = 0;
    std::vector<rhessi::RawDataUnit> units = rhessi::SegmentIntoUnits(
        rhessi::GenerateTelemetry(telemetry).photons, 100000, 1);
    return node->process()->LoadRawUnit(session, units.at(unit).Pack())
        .status();
  }

  // Every row of the tables a load and a new user write.
  static std::vector<std::vector<db::Row>> Rows(Node* node) {
    std::vector<std::vector<db::Row>> out;
    for (const char* table :
         {"users", "hle", "raw_units", "location_entries", "archives"}) {
      out.push_back(node->db()
                        ->Execute(std::string("SELECT * FROM ") + table)
                        .value()
                        .rows);
    }
    return out;
  }

  std::filesystem::path dir_;
  NodeOptions options_;
  VirtualClock clock_;
};

TEST_F(NodeTest, ReopensItsOwnLog) {
  std::vector<std::vector<db::Row>> before;
  {
    Node node("dm0", options_, &clock_);
    ASSERT_TRUE(node.Boot().ok());
    Status loaded = AddUserAndLoad(&node, "ops", 0);
    ASSERT_TRUE(loaded.ok()) << loaded.ToString();
    before = Rows(&node);
    ASSERT_FALSE(before[1].empty()) << "the load detected no event";
  }
  Node node("dm0", options_, &clock_);
  Status reopened = node.Boot();
  ASSERT_TRUE(reopened.ok()) << reopened.ToString();
  EXPECT_EQ(Rows(&node), before);
  // The replayed node allocates past the replayed ids.
  Status loaded = AddUserAndLoad(&node, "eve", 1);
  EXPECT_TRUE(loaded.ok()) << loaded.ToString();
}

TEST_F(NodeTest, WalDirUnderARegularFileFailsBootByName) {
  std::filesystem::create_directories(dir_);
  std::ofstream(dir_ / "file") << "x";
  options_.wal_dir = (dir_ / "file" / "wal").string();
  Node node("dm0", options_, &clock_);
  Status booted = node.Boot();
  EXPECT_FALSE(booted.ok());
  // The directory, and why it could not be made.
  EXPECT_NE(booted.ToString().find(options_.wal_dir + ": " +
                                   std::strerror(ENOTDIR)),
            std::string::npos)
      << booted.ToString();
}

// A cluster node's bootstrap rows are archive 1 and its identity user;
// neither is added again when its log is replayed.
TEST_F(NodeTest, ClusterNodeRebootsOnItsOwnLog) {
  cluster::NodeOptions options;
  options.wal_dir = dir_.string();
  ASSERT_TRUE(cluster::ClusterNode("dm0", options).Boot().ok());
  cluster::ClusterNode node("dm0", options);
  Status rebooted = node.Boot();
  ASSERT_TRUE(rebooted.ok()) << rebooted.ToString();
  db::ResultSet users =
      node.db()->Execute("SELECT user_id, name FROM users").value();
  ASSERT_EQ(users.num_rows(), 1u);
  EXPECT_EQ(users.rows[0][0].AsInt(), 1);
  EXPECT_EQ(users.rows[0][1].AsText(), "dm0");
}

}  // namespace
}  // namespace hedc
