#include "dm/tcp_remote.h"

#include "core/crc32.h"

namespace hedc::dm {

namespace {

// Per-connection state machine for [u32 len][payload][u32 crc32] frames on
// the reactor. A hostile length or checksum mismatch drops the connection
// without a response (peers observe kUnavailable on their next read); a
// valid frame executes inline on the reactor thread and always produces a
// response frame.
class RmiFrameProtocol : public net::ReactorProtocol {
 public:
  RmiFrameProtocol(RmiHandler* rmi, Counter* frames, Counter* oversized,
                   size_t max_frame)
      : rmi_(rmi), frames_(frames), oversized_(oversized),
        max_frame_(max_frame) {}

  size_t OnData(const uint8_t* data, size_t n,
                net::ReactorContext* ctx) override {
    if (n < 4) return 0;
    uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<uint32_t>(data[i]) << (8 * i);
    }
    if (len > max_frame_) {
      // Rejected on the 4 header bytes alone — no payload-sized
      // allocation ever happens for a hostile length.
      oversized_->Add();
      ctx->Close();
      return 0;
    }
    size_t total = 4 + static_cast<size_t>(len) + 4;
    if (n < total) return 0;
    uint32_t crc = 0;
    for (int i = 0; i < 4; ++i) {
      crc |= static_cast<uint32_t>(data[4 + len + i]) << (8 * i);
    }
    std::vector<uint8_t> payload(data + 4, data + 4 + len);
    if (crc != Crc32(payload)) {
      ctx->Close();
      return 0;
    }
    // Transport-level frame count; the RMI codec layer above counts
    // remote.server.calls (one per decoded call).
    frames_->Add();
    ctx->Reply({net::EncodeFrame(rmi_->Handle(payload)),
                /*close_after=*/false});
    return total;
  }

 private:
  RmiHandler* rmi_;
  Counter* frames_;
  Counter* oversized_;
  size_t max_frame_;
};

}  // namespace

TcpRmiServer::Options TcpRmiServer::Options::FromConfig(
    const Config& config) {
  Options options;
  options.reactor = net::Reactor::Options::FromConfig(config);
  options.max_frame = static_cast<size_t>(
      config.GetInt("net.max_frame_bytes",
                    static_cast<int64_t>(options.max_frame)));
  return options;
}

TcpRmiServer::~TcpRmiServer() {
  Stop();
  if (own_reactor_ != nullptr) own_reactor_->Stop();
}

net::Reactor* TcpRmiServer::reactor() {
  if (options_.shared_reactor != nullptr) return options_.shared_reactor;
  if (own_reactor_ == nullptr) {
    net::Reactor::Options reactor_options = options_.reactor;
    if (reactor_options.metrics == nullptr) reactor_options.metrics = metrics_;
    own_reactor_ = std::make_unique<net::Reactor>(reactor_options);
  }
  return own_reactor_.get();
}

Status TcpRmiServer::Start(int port) {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) return Status::FailedPrecondition("server already running");
  net::Reactor* r = reactor();
  if (!r->running()) {
    // Owned reactor: boots on first Start and survives Stop/Start cycles
    // (only this server's listener is drained on Stop).
    HEDC_RETURN_IF_ERROR(r->Start());
  }
  RmiHandler* rmi = rmi_;
  Counter* connections = metrics_->GetCounter("remote.server.connections");
  Counter* frames = metrics_->GetCounter("remote.server.frames");
  Counter* oversized = metrics_->GetCounter("net.oversized_frames");
  size_t max_frame = options_.max_frame;
  Result<net::Reactor::ListenerInfo> listener = r->AddListener(
      port, [rmi, connections, frames, oversized, max_frame] {
        connections->Add();
        return std::make_unique<RmiFrameProtocol>(rmi, frames, oversized,
                                                  max_frame);
      });
  if (!listener.ok()) return listener.status();
  listener_ = listener.value();
  running_ = true;
  return Status::Ok();
}

int TcpRmiServer::port() const {
  std::lock_guard<std::mutex> lock(mu_);
  return listener_.port;
}

bool TcpRmiServer::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

void TcpRmiServer::Stop() {
  int listener_id = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    running_ = false;
    listener_id = listener_.id;
    listener_ = net::Reactor::ListenerInfo{};
  }
  // Closes this listener's connections, dropping the replies of frames
  // in flight; must run outside mu_ (port() readers proceed meanwhile).
  reactor()->CloseListener(listener_id);
}

Result<std::vector<uint8_t>> TcpChannel::Call(
    const std::vector<uint8_t>& request) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!socket_.valid()) {
    Result<net::TcpSocket> connected = net::TcpConnect(host_, port_);
    if (!connected.ok()) return connected.status();
    // Adopt the fresh socket only once the old one is provably gone —
    // move-assignment closes it, but the explicit disconnect keeps the
    // no-two-fds invariant local to this function.
    DisconnectLocked();
    socket_ = std::move(connected).value();
    Status s = socket_.SetRecvTimeout(recv_timeout_);
    if (!s.ok()) {
      DisconnectLocked();
      return s;
    }
  }
  Status sent = net::SendFrame(socket_, request);
  if (!sent.ok()) {
    DisconnectLocked();
    return sent;
  }
  Result<std::vector<uint8_t>> response = net::RecvFrame(socket_);
  if (!response.ok()) {
    // Timeout or corruption leaves the stream desynchronized; reconnect on
    // the next call rather than trying to resynchronize mid-stream.
    DisconnectLocked();
  }
  return response;
}

}  // namespace hedc::dm
