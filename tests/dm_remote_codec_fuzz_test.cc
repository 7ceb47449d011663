// Property/fuzz tests for the RMI frame codec: random and mutated frames
// either round-trip exactly or decode to kCorruption — never a crash,
// never an over-read, and the server always answers a well-formed
// response envelope. Seeded, so a failure reproduces.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/rng.h"
#include "db/wal.h"  // value codec
#include "dm/remote.h"
#include "node/node.h"

namespace hedc::dm {
namespace {

constexpr uint64_t kSeed = 0xc0dec;

db::Value RandomValue(Rng* rng) {
  switch (rng->UniformInt(0, 3)) {
    case 0:
      return db::Value::Null();
    case 1:
      return db::Value::Int(rng->UniformInt(-1000000, 1000000));
    case 2:
      return db::Value::Real(rng->Uniform(-1e6, 1e6));
    default: {
      std::string s;
      int64_t len = rng->UniformInt(0, 24);
      for (int64_t i = 0; i < len; ++i) {
        s.push_back(static_cast<char>(rng->UniformInt(32, 126)));
      }
      return db::Value::Text(s);
    }
  }
}

db::ResultSet RandomResultSet(Rng* rng) {
  db::ResultSet rs;
  int64_t cols = rng->UniformInt(0, 5);
  for (int64_t c = 0; c < cols; ++c) {
    rs.columns.push_back("c" + std::to_string(c));
  }
  int64_t rows = rng->UniformInt(0, 8);
  for (int64_t r = 0; r < rows; ++r) {
    db::Row row;
    for (int64_t c = 0; c < cols; ++c) row.push_back(RandomValue(rng));
    rs.rows.push_back(std::move(row));
  }
  rs.affected_rows = rng->UniformInt(-1, 1000);
  rs.last_insert_row_id = rng->UniformInt(-1, 1000);
  return rs;
}

bool ValuesEqual(const db::Value& a, const db::Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() == b.is_null();
  return a.Compare(b) == 0;
}

// ~4k random ResultSets round-trip bit-exactly through the codec.
TEST(RemoteCodecFuzzTest, ResultSetRoundTripProperty) {
  Rng rng(kSeed);
  for (int iter = 0; iter < 4000; ++iter) {
    db::ResultSet rs = RandomResultSet(&rng);
    ByteBuffer buf;
    EncodeResultSet(rs, &buf);
    ByteReader reader(buf.data());
    db::ResultSet decoded;
    ASSERT_TRUE(DecodeResultSet(&reader, &decoded).ok()) << "iter " << iter;
    ASSERT_EQ(decoded.columns, rs.columns) << "iter " << iter;
    ASSERT_EQ(decoded.rows.size(), rs.rows.size()) << "iter " << iter;
    for (size_t r = 0; r < rs.rows.size(); ++r) {
      for (size_t c = 0; c < rs.rows[r].size(); ++c) {
        ASSERT_TRUE(ValuesEqual(decoded.rows[r][c], rs.rows[r][c]))
            << "iter " << iter << " row " << r << " col " << c;
      }
    }
    ASSERT_EQ(decoded.affected_rows, rs.affected_rows);
    ASSERT_EQ(decoded.last_insert_row_id, rs.last_insert_row_id);
    ASSERT_EQ(reader.remaining(), 0u) << "iter " << iter;
  }
}

// Truncating a valid encoding at every possible point yields kCorruption
// (or a clean decode for the full length) — never a crash or over-read.
TEST(RemoteCodecFuzzTest, TruncatedResultSetsDecodeToCorruption) {
  Rng rng(kSeed + 1);
  for (int iter = 0; iter < 50; ++iter) {
    db::ResultSet rs = RandomResultSet(&rng);
    ByteBuffer buf;
    EncodeResultSet(rs, &buf);
    const std::vector<uint8_t>& full = buf.data();
    for (size_t cut = 0; cut < full.size(); ++cut) {
      ByteReader reader(full.data(), cut);
      db::ResultSet decoded;
      Status s = DecodeResultSet(&reader, &decoded);
      // Either an explicit corruption error, or a short-but-valid prefix
      // (possible when the cut lands on a boundary where trailing zero
      // counts decode cleanly); both are fine, crashing is not.
      if (!s.ok()) {
        ASSERT_EQ(s.code(), StatusCode::kCorruption)
            << "iter " << iter << " cut " << cut << ": " << s.ToString();
      }
      ASSERT_LE(reader.position(), cut);
    }
  }
}

TEST(RemoteCodecFuzzTest, CallHeaderRoundTripAndRejectsMutations) {
  Rng rng(kSeed + 2);
  for (int iter = 0; iter < 4000; ++iter) {
    CallHeader header;
    header.trace_id = rng.UniformInt(-5, 1'000'000'000);
    header.op = static_cast<uint8_t>(rng.UniformInt(0, 255));
    ByteBuffer buf;
    EncodeCallHeader(header, &buf);
    ByteReader reader(buf.data());
    CallHeader decoded;
    ASSERT_TRUE(DecodeCallHeader(&reader, &decoded).ok());
    ASSERT_EQ(decoded.trace_id, header.trace_id);
    ASSERT_EQ(decoded.op, header.op);

    // A mutated magic or version byte must be rejected as corruption.
    std::vector<uint8_t> bytes = buf.data();
    size_t pos = static_cast<size_t>(rng.UniformInt(0, 1));
    uint8_t original = bytes[pos];
    bytes[pos] ^= static_cast<uint8_t>(rng.UniformInt(1, 255));
    if (bytes[pos] != original) {
      ByteReader mutated(bytes);
      CallHeader ignored;
      Status s = DecodeCallHeader(&mutated, &ignored);
      ASSERT_FALSE(s.ok()) << "iter " << iter;
      ASSERT_EQ(s.code(), StatusCode::kCorruption);
    }
  }
}

class RmiServerFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(node_.Boot().ok());
    server_ = std::make_unique<RmiServer>(node_.dm(), &metrics_);
  }

  // The server must answer a parseable envelope: 0x00 (payload follows)
  // or 0x01 + status code + message.
  void ExpectWellFormedResponse(const std::vector<uint8_t>& response) {
    ByteReader reader(response);
    uint8_t tag = 0xee;
    ASSERT_TRUE(reader.GetU8(&tag).ok());
    ASSERT_TRUE(tag == 0 || tag == 1) << static_cast<int>(tag);
    if (tag == 1) {
      uint8_t code = 0;
      std::string message;
      ASSERT_TRUE(reader.GetU8(&code).ok());
      ASSERT_TRUE(reader.GetString(&message).ok());
      ASSERT_NE(code, 0);  // an error frame never carries kOk
    }
  }

  VirtualClock clock_;
  MetricsRegistry metrics_;
  Node node_{"fuzz-node", NodeOptions{}, &clock_};
  std::unique_ptr<RmiServer> server_;
};

// ~10k fully random frames: the server never crashes and always answers a
// well-formed envelope. Random bytes almost never carry the magic, so
// nearly all are rejected as corruption before touching the DM.
TEST_F(RmiServerFuzzTest, RandomFramesNeverCrashTheServer) {
  Rng rng(kSeed + 3);
  for (int iter = 0; iter < 10000; ++iter) {
    std::vector<uint8_t> frame(
        static_cast<size_t>(rng.UniformInt(0, 64)));
    for (uint8_t& b : frame) {
      b = static_cast<uint8_t>(rng.UniformInt(0, 255));
    }
    std::vector<uint8_t> response = server_->Handle(frame);
    ExpectWellFormedResponse(response);
  }
  EXPECT_EQ(server_->calls_handled(), 10000);
  EXPECT_GT(metrics_.GetCounter("remote.server.bad_frames")->Value(), 9000);
}

// Valid headers with random opcodes and random payload bytes: exercises
// every opcode's payload decoder against hostile input.
TEST_F(RmiServerFuzzTest, RandomPayloadsBehindValidHeadersAreSafe) {
  Rng rng(kSeed + 4);
  for (int iter = 0; iter < 10000; ++iter) {
    ByteBuffer frame;
    CallHeader header;
    header.trace_id = rng.UniformInt(0, 1 << 20);
    // Bias towards real opcodes (1..4) but include invalid ones.
    header.op = static_cast<uint8_t>(
        rng.Bernoulli(0.8) ? rng.UniformInt(1, 4) : rng.UniformInt(0, 255));
    EncodeCallHeader(header, &frame);
    size_t payload_len = static_cast<size_t>(rng.UniformInt(0, 48));
    for (size_t i = 0; i < payload_len; ++i) {
      frame.PutU8(static_cast<uint8_t>(rng.UniformInt(0, 255)));
    }
    std::vector<uint8_t> response = server_->Handle(frame.data());
    ExpectWellFormedResponse(response);
  }
}

// Bit-flip and truncation mutations of real, well-formed call frames.
TEST_F(RmiServerFuzzTest, MutatedRealFramesAreSafe) {
  Rng rng(kSeed + 5);
  // A realistic query frame, as RemoteDm would build it.
  ByteBuffer valid;
  EncodeCallHeader({/*trace_id=*/42, /*op=*/1}, &valid);
  valid.PutString("SELECT name FROM users WHERE user_id = ?");
  valid.PutVarint(1);
  ByteBuffer param;
  db::EncodeValue(db::Value::Int(1), &param);
  valid.PutBytes(param.data().data(), param.size());

  for (int iter = 0; iter < 10000; ++iter) {
    std::vector<uint8_t> frame = valid.data();
    int mutations = static_cast<int>(rng.UniformInt(1, 4));
    for (int m = 0; m < mutations; ++m) {
      if (rng.Bernoulli(0.3) && frame.size() > 1) {
        frame.resize(static_cast<size_t>(
            rng.UniformInt(1, static_cast<int64_t>(frame.size()) - 1)));
      } else {
        size_t pos = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(frame.size()) - 1));
        frame[pos] ^= static_cast<uint8_t>(rng.UniformInt(1, 255));
      }
    }
    std::vector<uint8_t> response = server_->Handle(frame);
    ExpectWellFormedResponse(response);
  }
  // The node is still fully functional afterwards.
  InProcessChannel channel(server_.get());
  RemoteDm remote(&channel, &metrics_);
  EXPECT_TRUE(remote.Execute("SELECT COUNT(*) FROM users", {}).ok());
}

}  // namespace
}  // namespace hedc::dm
