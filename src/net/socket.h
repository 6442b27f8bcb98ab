#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "net/protocol.h"

namespace cq::net {

/// Thrown for transport-level failures: connect/bind/accept errors,
/// writes to a closed peer, reads cut off mid-frame. Distinct from
/// ProtocolError (the bytes arrived fine but are not a valid frame).
class NetError : public std::runtime_error {
 public:
  explicit NetError(const std::string& what) : std::runtime_error(what) {}
};

/// Move-only RAII owner of one TCP socket fd.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void close();

  /// O_NONBLOCK on or off; throws NetError on fcntl failure.
  void set_nonblocking(bool enabled);

  /// Blocking: writes all `size` bytes or throws NetError (EPIPE /
  /// ECONNRESET surface here when the peer went away).
  void send_all(const void* data, std::size_t size);

  /// One recv: returns bytes read (0 = orderly peer shutdown). On a
  /// nonblocking socket returns kAgain when no data is ready. Throws
  /// NetError on hard errors.
  static constexpr std::size_t kAgain = static_cast<std::size_t>(-1);
  std::size_t recv_some(void* data, std::size_t size);

  /// One send (MSG_NOSIGNAL): returns bytes written, kAgain when a
  /// nonblocking socket's buffer is full. Throws NetError on hard
  /// errors (EPIPE when the peer vanished).
  std::size_t send_some(const void* data, std::size_t size);

 private:
  int fd_ = -1;
};

/// Listening TCP socket. Port 0 binds an ephemeral port; port() reports
/// the one actually bound (tests and --port=0 daemons print it).
class Listener {
 public:
  /// Binds and listens. loopback_only restricts to 127.0.0.1 (the
  /// default — serving all interfaces is an explicit choice).
  explicit Listener(std::uint16_t port, bool loopback_only = true, int backlog = 64);

  std::uint16_t port() const { return port_; }
  int fd() const { return socket_.fd(); }

  /// Accepts one pending connection; on a nonblocking listener returns
  /// an invalid Socket when none is pending.
  Socket accept();

  void set_nonblocking(bool enabled) { socket_.set_nonblocking(enabled); }

  /// Stops listening: later connects are refused. Idempotent.
  void close() { socket_.close(); }

 private:
  Socket socket_;
  std::uint16_t port_ = 0;
};

/// Blocking TCP connect to host:port. `host` is a dotted-quad IPv4
/// address or "localhost". Throws NetError on failure.
Socket tcp_connect(const std::string& host, std::uint16_t port);

/// Encodes and fully writes one frame.
void send_frame(Socket& socket, const Frame& frame);

/// Blocks until one complete frame is decoded from the stream. Returns
/// false on a clean EOF at a frame boundary; throws NetError when the
/// peer disconnects mid-frame, ProtocolError on malformed bytes.
bool recv_frame(Socket& socket, FrameDecoder& decoder, Frame& out);

}  // namespace cq::net
