// Remote DM access over a byte channel (§2.3: the application-logic
// components "communicate through RMI and HTTP"; §5.4 call redirection).
//
// A DM call is marshalled into a length-delimited byte frame, carried by
// a Channel (in-process with optional simulated latency here; a socket in
// a networked deployment), handled by an RmiServer wrapping the target
// DataManager, and the response unmarshalled on the caller's side. The
// RemoteDm client therefore exercises exactly the serialization work a
// networked redirection would.
#ifndef HEDC_DM_REMOTE_H_
#define HEDC_DM_REMOTE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/clock.h"
#include "core/metrics.h"
#include "core/status.h"
#include "dm/dm.h"
#include "dm/query_spec.h"

namespace hedc::dm {

// Transport abstraction: one request frame in, one response frame out.
class ByteChannel {
 public:
  virtual ~ByteChannel() = default;
  virtual Result<std::vector<uint8_t>> Call(
      const std::vector<uint8_t>& request) = 0;
};

// Call-frame header (version 2). Every request frame starts with a magic
// byte and version, then the originating request's trace id — so one
// analysis request can be followed across the node boundary — then the
// opcode. Frames with a bad magic/version decode as kCorruption.
struct CallHeader {
  int64_t trace_id = 0;
  uint8_t op = 0;
};

inline constexpr uint8_t kRmiFrameMagic = 0xDA;
inline constexpr uint8_t kRmiFrameVersion = 2;

void EncodeCallHeader(const CallHeader& header, ByteBuffer* out);
Status DecodeCallHeader(ByteReader* in, CallHeader* out);

// Server side of the transport: anything that can turn one request frame
// into one response frame. TcpRmiServer serves any RmiHandler, so a
// cluster node can interpose capacity gates or instrumentation between
// the socket and the RmiServer proper.
class RmiHandler {
 public:
  virtual ~RmiHandler() = default;
  virtual std::vector<uint8_t> Handle(const std::vector<uint8_t>& request) = 0;
};

// Server side: decodes call frames and executes them against a DM node.
// Thread-safe: concurrent channels may Handle() in parallel (the DM and
// database below do their own locking).
class RmiServer : public RmiHandler {
 public:
  explicit RmiServer(DataManager* dm, MetricsRegistry* metrics = nullptr)
      : dm_(dm),
        metrics_(metrics != nullptr ? metrics : MetricsRegistry::Default()),
        calls_(metrics_->GetCounter("remote.server.calls")) {}

  // Handles one frame; the response encodes either a result or an error
  // status. Malformed frames yield a kCorruption response, never a crash.
  std::vector<uint8_t> Handle(const std::vector<uint8_t>& request) override;

  int64_t calls_handled() const {
    return calls_handled_.load(std::memory_order_relaxed);
  }

 private:
  DataManager* dm_;
  MetricsRegistry* metrics_;
  Counter* calls_;  // remote.server.calls
  std::atomic<int64_t> calls_handled_{0};
};

// In-process channel with optional per-call latency and payload bandwidth
// cost charged to a clock (models the RMI hop).
class InProcessChannel : public ByteChannel {
 public:
  InProcessChannel(RmiServer* server, Clock* clock = nullptr,
                   Micros per_call_latency = 0,
                   double micros_per_kb = 0.0)
      : server_(server),
        clock_(clock),
        per_call_latency_(per_call_latency),
        micros_per_kb_(micros_per_kb) {}

  Result<std::vector<uint8_t>> Call(
      const std::vector<uint8_t>& request) override;

  void set_connected(bool connected) { connected_ = connected; }

 private:
  RmiServer* server_;
  Clock* clock_;
  Micros per_call_latency_;
  double micros_per_kb_;
  bool connected_ = true;
};

// Client-side stub: the DM operations a peer node exposes.
class RemoteDm {
 public:
  explicit RemoteDm(ByteChannel* channel, MetricsRegistry* metrics = nullptr)
      : channel_(channel),
        metrics_(metrics != nullptr ? metrics : MetricsRegistry::Default()) {}

  // Trace id stamped into the call-frame header of subsequent calls (0 =
  // untraced); the server side opens its spans under the same id.
  void set_trace_id(int64_t trace_id) { trace_id_ = trace_id; }
  int64_t trace_id() const { return trace_id_; }

  // Executes a verified QuerySpec on the remote node.
  Result<db::ResultSet> Query(const QuerySpec& spec);
  // Raw parameterized SQL (update path).
  Result<db::ResultSet> Execute(const std::string& sql,
                                const std::vector<db::Value>& params);
  // File access through the remote node's I/O layer.
  Result<std::vector<uint8_t>> ReadItemFile(int64_t item_id);
  Status LogOperational(const std::string& component,
                        const std::string& message);

 private:
  // Builds the request frame for `op` (header + payload already encoded
  // into `request`), sends it, and validates the response envelope.
  Result<std::vector<uint8_t>> Roundtrip(uint8_t op, const char* span_name,
                                         ByteBuffer request);

  ByteChannel* channel_;
  MetricsRegistry* metrics_;
  int64_t trace_id_ = 0;
};

// Frame codec, exposed for tests.
void EncodeResultSet(const db::ResultSet& rs, ByteBuffer* out);
Status DecodeResultSet(ByteReader* in, db::ResultSet* out);

}  // namespace hedc::dm

#endif  // HEDC_DM_REMOTE_H_
