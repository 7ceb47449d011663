#include "dm/remote.h"

#include "core/bytes.h"
#include "db/wal.h"  // value/row codec

namespace hedc::dm {

namespace {

enum class RmiOp : uint8_t {
  kQuery = 1,       // sql + params -> ResultSet
  kExecute = 2,     // sql + params -> ResultSet (update pool)
  kReadFile = 3,    // item_id -> bytes
  kLog = 4,         // component + message -> ok
};

enum class RmiResult : uint8_t { kOk = 0, kError = 1 };

const char* OpName(uint8_t op) {
  switch (static_cast<RmiOp>(op)) {
    case RmiOp::kQuery:
      return "query";
    case RmiOp::kExecute:
      return "execute";
    case RmiOp::kReadFile:
      return "read_file";
    case RmiOp::kLog:
      return "log";
  }
  return "unknown";
}

void EncodeParams(const std::vector<db::Value>& params, ByteBuffer* out) {
  out->PutVarint(params.size());
  for (const db::Value& v : params) db::EncodeValue(v, out);
}

Status DecodeParams(ByteReader* in, std::vector<db::Value>* out) {
  uint64_t n = 0;
  HEDC_RETURN_IF_ERROR(in->GetVarint(&n));
  out->clear();
  for (uint64_t i = 0; i < n; ++i) {
    db::Value v;
    HEDC_RETURN_IF_ERROR(db::DecodeValue(in, &v));
    out->push_back(std::move(v));
  }
  return Status::Ok();
}

std::vector<uint8_t> ErrorFrame(const Status& status) {
  ByteBuffer out;
  out.PutU8(static_cast<uint8_t>(RmiResult::kError));
  out.PutU8(static_cast<uint8_t>(status.code()));
  out.PutString(status.message());
  return std::move(out).TakeData();
}

// Decodes a response frame into either a payload reader position or an
// error status.
Status CheckResponse(ByteReader* reader) {
  uint8_t tag = 0;
  HEDC_RETURN_IF_ERROR(reader->GetU8(&tag));
  if (tag == static_cast<uint8_t>(RmiResult::kOk)) return Status::Ok();
  uint8_t code = 0;
  std::string message;
  HEDC_RETURN_IF_ERROR(reader->GetU8(&code));
  HEDC_RETURN_IF_ERROR(reader->GetString(&message));
  return Status(static_cast<StatusCode>(code), std::move(message));
}

}  // namespace

void EncodeCallHeader(const CallHeader& header, ByteBuffer* out) {
  out->PutU8(kRmiFrameMagic);
  out->PutU8(kRmiFrameVersion);
  out->PutSignedVarint(header.trace_id);
  out->PutU8(header.op);
}

Status DecodeCallHeader(ByteReader* in, CallHeader* out) {
  uint8_t magic = 0;
  uint8_t version = 0;
  HEDC_RETURN_IF_ERROR(in->GetU8(&magic));
  if (magic != kRmiFrameMagic) {
    return Status::Corruption("bad RMI frame magic");
  }
  HEDC_RETURN_IF_ERROR(in->GetU8(&version));
  if (version != kRmiFrameVersion) {
    return Status::Corruption("unsupported RMI frame version " +
                              std::to_string(version));
  }
  HEDC_RETURN_IF_ERROR(in->GetSignedVarint(&out->trace_id));
  return in->GetU8(&out->op);
}

void EncodeResultSet(const db::ResultSet& rs, ByteBuffer* out) {
  out->PutVarint(rs.columns.size());
  for (const std::string& c : rs.columns) out->PutString(c);
  out->PutVarint(rs.rows.size());
  for (const db::Row& row : rs.rows) db::EncodeRow(row, out);
  out->PutSignedVarint(rs.affected_rows);
  out->PutSignedVarint(rs.last_insert_row_id);
}

Status DecodeResultSet(ByteReader* in, db::ResultSet* out) {
  uint64_t num_cols = 0;
  HEDC_RETURN_IF_ERROR(in->GetVarint(&num_cols));
  out->columns.clear();
  for (uint64_t i = 0; i < num_cols; ++i) {
    std::string c;
    HEDC_RETURN_IF_ERROR(in->GetString(&c));
    out->columns.push_back(std::move(c));
  }
  uint64_t num_rows = 0;
  HEDC_RETURN_IF_ERROR(in->GetVarint(&num_rows));
  out->rows.clear();
  for (uint64_t i = 0; i < num_rows; ++i) {
    db::Row row;
    HEDC_RETURN_IF_ERROR(db::DecodeRow(in, &row));
    out->rows.push_back(std::move(row));
  }
  HEDC_RETURN_IF_ERROR(in->GetSignedVarint(&out->affected_rows));
  HEDC_RETURN_IF_ERROR(in->GetSignedVarint(&out->last_insert_row_id));
  return Status::Ok();
}

std::vector<uint8_t> RmiServer::Handle(const std::vector<uint8_t>& request) {
  calls_handled_.fetch_add(1, std::memory_order_relaxed);
  dm_->CountRequest();
  calls_->Add();
  ByteReader reader(request);
  CallHeader header;
  Status header_status = DecodeCallHeader(&reader, &header);
  if (!header_status.ok()) {
    metrics_->GetCounter("remote.server.bad_frames")->Add();
    return ErrorFrame(header_status);
  }
  uint8_t op = header.op;
  TraceSpan span(header.trace_id, "dm-remote", OpName(op), metrics_);

  switch (static_cast<RmiOp>(op)) {
    case RmiOp::kQuery:
    case RmiOp::kExecute: {
      std::string sql;
      std::vector<db::Value> params;
      Status s = reader.GetString(&sql);
      if (s.ok()) s = DecodeParams(&reader, &params);
      if (!s.ok()) return ErrorFrame(s);
      Result<db::ResultSet> rs = dm_->database()->Execute(sql, params);
      if (!rs.ok()) return ErrorFrame(rs.status());
      ByteBuffer out;
      out.PutU8(static_cast<uint8_t>(RmiResult::kOk));
      EncodeResultSet(rs.value(), &out);
      return std::move(out).TakeData();
    }
    case RmiOp::kReadFile: {
      int64_t item_id = 0;
      Status s = reader.GetSignedVarint(&item_id);
      if (!s.ok()) return ErrorFrame(s);
      Result<std::vector<uint8_t>> data = dm_->io().ReadItemFile(item_id);
      if (!data.ok()) return ErrorFrame(data.status());
      ByteBuffer out;
      out.PutU8(static_cast<uint8_t>(RmiResult::kOk));
      out.PutVarint(data.value().size());
      out.PutBytes(data.value().data(), data.value().size());
      return std::move(out).TakeData();
    }
    case RmiOp::kLog: {
      std::string component, message;
      Status s = reader.GetString(&component);
      if (s.ok()) s = reader.GetString(&message);
      if (s.ok()) s = dm_->LogOperational(component, message);
      if (!s.ok()) return ErrorFrame(s);
      ByteBuffer out;
      out.PutU8(static_cast<uint8_t>(RmiResult::kOk));
      return std::move(out).TakeData();
    }
  }
  return ErrorFrame(Status::Corruption("unknown RMI opcode"));
}

Result<std::vector<uint8_t>> InProcessChannel::Call(
    const std::vector<uint8_t>& request) {
  if (!connected_) return Status::Unavailable("channel disconnected");
  std::vector<uint8_t> response = server_->Handle(request);
  if (clock_ != nullptr) {
    clock_->SleepFor(per_call_latency_ +
                     static_cast<Micros>(
                         micros_per_kb_ *
                         static_cast<double>(request.size() +
                                             response.size()) /
                         1024.0));
  }
  return response;
}

Result<db::ResultSet> RemoteDm::Query(const QuerySpec& spec) {
  std::vector<db::Value> params;
  HEDC_ASSIGN_OR_RETURN(std::string sql, spec.ToSql(&params));
  return Execute(sql, params);
}

Result<std::vector<uint8_t>> RemoteDm::Roundtrip(uint8_t op,
                                                 const char* span_name,
                                                 ByteBuffer payload) {
  ByteBuffer request;
  EncodeCallHeader({trace_id_, op}, &request);
  request.PutBytes(payload.data().data(), payload.size());
  TraceSpan span(trace_id_, "remote-client", span_name, metrics_);
  return channel_->Call(request.data());
}

Result<db::ResultSet> RemoteDm::Execute(
    const std::string& sql, const std::vector<db::Value>& params) {
  ByteBuffer payload;
  payload.PutString(sql);
  EncodeParams(params, &payload);
  HEDC_ASSIGN_OR_RETURN(
      std::vector<uint8_t> response,
      Roundtrip(static_cast<uint8_t>(RmiOp::kQuery), "query",
                std::move(payload)));
  ByteReader reader(response);
  HEDC_RETURN_IF_ERROR(CheckResponse(&reader));
  db::ResultSet rs;
  HEDC_RETURN_IF_ERROR(DecodeResultSet(&reader, &rs));
  return rs;
}

Result<std::vector<uint8_t>> RemoteDm::ReadItemFile(int64_t item_id) {
  ByteBuffer payload;
  payload.PutSignedVarint(item_id);
  HEDC_ASSIGN_OR_RETURN(
      std::vector<uint8_t> response,
      Roundtrip(static_cast<uint8_t>(RmiOp::kReadFile), "read_file",
                std::move(payload)));
  ByteReader reader(response);
  HEDC_RETURN_IF_ERROR(CheckResponse(&reader));
  uint64_t n = 0;
  HEDC_RETURN_IF_ERROR(reader.GetVarint(&n));
  if (n > reader.remaining()) {
    return Status::Corruption("file payload length past end of frame");
  }
  std::vector<uint8_t> data(n);
  HEDC_RETURN_IF_ERROR(reader.GetBytes(data.data(), n));
  return data;
}

Status RemoteDm::LogOperational(const std::string& component,
                                const std::string& message) {
  ByteBuffer payload;
  payload.PutString(component);
  payload.PutString(message);
  HEDC_ASSIGN_OR_RETURN(
      std::vector<uint8_t> response,
      Roundtrip(static_cast<uint8_t>(RmiOp::kLog), "log",
                std::move(payload)));
  ByteReader reader(response);
  return CheckResponse(&reader);
}

}  // namespace hedc::dm
