// TCP transport for remote DM calls (§2.3 "RMI and HTTP", §5.4).
//
// TcpRmiServer accepts loopback connections and serves length-delimited,
// CRC-checked call frames (web/tcp.h) against an RmiServer; TcpChannel is
// the matching client-side ByteChannel. One connection carries a sequence
// of request/response frames; a TcpChannel serializes its calls and
// reconnects lazily after any transport error, so a ResilientChannel
// layered on top can simply retry.
//
// The server parses each connection with a frame state machine on
// whichever reactor thread takes its event (net/reactor.h) and executes
// each frame inline on that thread, so it holds C10K keep-alive
// connections without a thread each. Many servers can share one Reactor (Options::shared_reactor),
// which is how a whole cluster's nodes serve without thread explosion.
// Client-visible semantics are locked down by
// tests/net_conformance_test.cc: framing errors drop the connection
// (peers observe kUnavailable), valid frames always get a response, and
// Stop() kills in-flight calls.
#ifndef HEDC_DM_TCP_REMOTE_H_
#define HEDC_DM_TCP_REMOTE_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/metrics.h"
#include "dm/remote.h"
#include "net/reactor.h"
#include "web/tcp.h"

namespace hedc::dm {

// Serves RMI frames over TCP. Start() after Stop() reboots the server (on
// a fresh ephemeral port when port 0 is used), which is how a cluster
// node restarts. Stop() drains this server's listener (an owned reactor
// keeps running for the next Start(); a shared one is untouched).
class TcpRmiServer {
 public:
  struct Options {
    // Reactor tuning when this server owns its reactor.
    net::Reactor::Options reactor;
    // Serve on an existing (already started) reactor instead; not owned.
    net::Reactor* shared_reactor = nullptr;
    // Frames whose header claims more than this are rejected before any
    // payload allocation and the connection dropped.
    size_t max_frame = 64u << 20;

    // Reads the net.* reactor knobs (see net::Reactor::Options::FromConfig)
    // and net.max_frame_bytes.
    static Options FromConfig(const Config& config);
  };

  explicit TcpRmiServer(RmiHandler* rmi, MetricsRegistry* metrics = nullptr)
      : TcpRmiServer(rmi, metrics, Options()) {}
  TcpRmiServer(RmiHandler* rmi, MetricsRegistry* metrics, Options options)
      : rmi_(rmi),
        metrics_(metrics != nullptr ? metrics : MetricsRegistry::Default()),
        options_(options) {}
  ~TcpRmiServer();
  TcpRmiServer(const TcpRmiServer&) = delete;
  TcpRmiServer& operator=(const TcpRmiServer&) = delete;

  // Port 0 picks an ephemeral port; see port().
  Status Start(int port = 0);
  // Locked: a restart (Stop + Start) rebinds the listener, and clients
  // may read the port concurrently with the rebind.
  int port() const;
  bool running() const;
  // Idempotent; kills in-flight calls mid-frame (clients observe a reset).
  void Stop();

 private:
  // The serving reactor (shared or lazily created owned instance).
  net::Reactor* reactor();

  RmiHandler* rmi_;
  MetricsRegistry* metrics_;
  Options options_;
  std::unique_ptr<net::Reactor> own_reactor_;

  mutable std::mutex mu_;
  bool running_ = false;
  net::Reactor::ListenerInfo listener_;
};

// Client-side channel: connects on first use, one in-flight call at a
// time, reconnects after errors. Transport failures map to kUnavailable
// (connect/reset/EOF), kTimeout (receive deadline) or kCorruption (bad
// frame checksum), which is exactly the retryable set of
// ResilientChannel.
class TcpChannel : public ByteChannel {
 public:
  TcpChannel(std::string host, int port,
             Micros recv_timeout = 2 * kMicrosPerSecond)
      : host_(std::move(host)), port_(port), recv_timeout_(recv_timeout) {}

  Result<std::vector<uint8_t>> Call(
      const std::vector<uint8_t>& request) override;

 private:
  // Every transport error funnels through here before the next call may
  // reconnect, so an error can never strand the old fd (regression:
  // tests/net_adversarial_test.cc reconnect hammer).
  void DisconnectLocked() { socket_.Close(); }

  std::string host_;
  int port_;

  std::mutex mu_;
  const Micros recv_timeout_;
  net::TcpSocket socket_;  // invalid when disconnected
};

}  // namespace hedc::dm

#endif  // HEDC_DM_TCP_REMOTE_H_
