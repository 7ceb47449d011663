// RMI channel tests: marshalling, remote query/file/log calls, error
// propagation, channel failure, latency accounting.
#include <gtest/gtest.h>

#include "dm/remote.h"
#include "node/node.h"

namespace hedc::dm {
namespace {

class RemoteDmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(node_.Boot().ok());
    server_ = std::make_unique<RmiServer>(node_.dm());
    channel_ = std::make_unique<InProcessChannel>(server_.get(), &clock_,
                                                  /*latency=*/1000,
                                                  /*micros_per_kb=*/100);
    remote_ = std::make_unique<RemoteDm>(channel_.get());

    ASSERT_TRUE(node_.dm()->users().CreateUser("a", "h", UserProfile{}).ok());
  }

  VirtualClock clock_;
  Node node_{"remote-node", NodeOptions{}, &clock_};
  std::unique_ptr<RmiServer> server_;
  std::unique_ptr<InProcessChannel> channel_;
  std::unique_ptr<RemoteDm> remote_;
};

TEST_F(RemoteDmTest, ResultSetCodecRoundTrip) {
  db::ResultSet rs;
  rs.columns = {"a", "b"};
  rs.rows = {{db::Value::Int(1), db::Value::Text("x")},
             {db::Value::Null(), db::Value::Real(2.5)}};
  rs.affected_rows = 3;
  rs.last_insert_row_id = 7;
  ByteBuffer buf;
  EncodeResultSet(rs, &buf);
  ByteReader reader(buf.data());
  db::ResultSet decoded;
  ASSERT_TRUE(DecodeResultSet(&reader, &decoded).ok());
  ASSERT_EQ(decoded.columns.size(), 2u);
  ASSERT_EQ(decoded.num_rows(), 2u);
  EXPECT_EQ(decoded.rows[0][0].AsInt(), 1);
  EXPECT_TRUE(decoded.rows[1][0].is_null());
  EXPECT_EQ(decoded.affected_rows, 3);
  EXPECT_EQ(decoded.last_insert_row_id, 7);
}

TEST_F(RemoteDmTest, QueryOverChannel) {
  QuerySpec spec("users");
  spec.Select("name").Where("user_id", CondOp::kEq, db::Value::Int(1));
  auto rs = remote_->Query(spec);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs.value().num_rows(), 1u);
  EXPECT_EQ(rs.value().rows[0][0].AsText(), "a");
  EXPECT_EQ(server_->calls_handled(), 1);
}

TEST_F(RemoteDmTest, ErrorStatusPropagates) {
  QuerySpec spec("no_such_table");
  auto rs = remote_->Query(spec);
  EXPECT_TRUE(rs.status().IsNotFound()) << rs.status().ToString();
}

TEST_F(RemoteDmTest, FileReadOverChannel) {
  ASSERT_TRUE(node_.dm()->io().WriteItemFile(42, 1, "raw", {9, 8, 7}).ok());
  auto data = remote_->ReadItemFile(42);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(data.value(), (std::vector<uint8_t>{9, 8, 7}));
  EXPECT_TRUE(remote_->ReadItemFile(999).status().IsNotFound());
}

TEST_F(RemoteDmTest, LogOverChannel) {
  ASSERT_TRUE(remote_->LogOperational("remote-test", "hello").ok());
  auto rs = node_.db()->Execute(
      "SELECT COUNT(*) FROM op_logs WHERE component = 'remote-test'");
  EXPECT_EQ(rs.value().rows[0][0].AsInt(), 1);
}

TEST_F(RemoteDmTest, DisconnectedChannelFails) {
  channel_->set_connected(false);
  QuerySpec spec("users");
  EXPECT_TRUE(remote_->Query(spec).status().IsUnavailable());
  channel_->set_connected(true);
  EXPECT_TRUE(remote_->Query(spec).ok());
}

TEST_F(RemoteDmTest, LatencyCharged) {
  Micros t0 = clock_.Now();
  QuerySpec spec("users");
  ASSERT_TRUE(remote_->Query(spec).ok());
  EXPECT_GE(clock_.Now() - t0, 1000);  // at least the per-call latency
}

TEST_F(RemoteDmTest, MalformedFramesAreRejectedNotFatal) {
  std::vector<uint8_t> garbage = {0xff, 0x00, 0x13};
  std::vector<uint8_t> response = server_->Handle(garbage);
  ByteReader reader(response);
  uint8_t tag = 9;
  ASSERT_TRUE(reader.GetU8(&tag).ok());
  EXPECT_EQ(tag, 1);  // error frame
  // Empty frame likewise.
  response = server_->Handle({});
  ASSERT_FALSE(response.empty());
  // A frame with the right magic but a future version is rejected too.
  response = server_->Handle({kRmiFrameMagic, kRmiFrameVersion + 1, 0, 1});
  ByteReader version_reader(response);
  ASSERT_TRUE(version_reader.GetU8(&tag).ok());
  EXPECT_EQ(tag, 1);
}

TEST_F(RemoteDmTest, CallHeaderRoundTrips) {
  CallHeader header{/*trace_id=*/123456789, /*op=*/3};
  ByteBuffer buf;
  EncodeCallHeader(header, &buf);
  ByteReader reader(buf.data());
  CallHeader decoded;
  ASSERT_TRUE(DecodeCallHeader(&reader, &decoded).ok());
  EXPECT_EQ(decoded.trace_id, 123456789);
  EXPECT_EQ(decoded.op, 3);
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST_F(RemoteDmTest, TraceIdPropagatesThroughFrameHeader) {
  MetricsRegistry metrics;
  RmiServer server(node_.dm(), &metrics);
  InProcessChannel channel(&server);
  RemoteDm remote(&channel, &metrics);
  remote.set_trace_id(31337);

  QuerySpec spec("users");
  spec.Select("name").Where("user_id", CondOp::kEq, db::Value::Int(1));
  ASSERT_TRUE(remote.Query(spec).ok());

  bool server_span = false;
  bool client_span = false;
  for (const TraceEvent& event : metrics.traces().SnapshotTrace()) {
    if (event.trace_id != 31337) continue;
    if (event.component == "dm-remote" && event.span == "query") {
      server_span = true;
    }
    if (event.component == "remote-client" && event.span == "query") {
      client_span = true;
    }
  }
  EXPECT_TRUE(server_span);
  EXPECT_TRUE(client_span);
  EXPECT_EQ(metrics.GetCounter("remote.server.calls")->Value(), 1);
}

TEST_F(RemoteDmTest, UpdatesWorkRemotely) {
  auto rs = remote_->Execute(
      "INSERT INTO op_logs VALUES (?, 0, 'INFO', 'x', 'y')",
      {db::Value::Int(777)});
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs.value().affected_rows, 1);
}

}  // namespace
}  // namespace hedc::dm
