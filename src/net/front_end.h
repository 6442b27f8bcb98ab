#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.h"
#include "obs/metrics.h"
#include "serve/model_registry.h"

namespace cq::net {

struct FrontEndConfig {
  std::uint16_t port = 0;     ///< 0 binds an ephemeral port; see port()
  bool loopback_only = true;  ///< serving all interfaces is an explicit choice
  /// Open-connection cap: while at it, the listener simply stops
  /// accepting (the kernel backlog queues or refuses the rest).
  int max_connections = 64;
  /// Global cap on admitted-but-unanswered requests across all
  /// connections and models — the front end's own overload valve,
  /// above each model's bounded queue in the registry.
  /// Exceeding it answers kBusy, never blocks the event loop.
  std::size_t max_inflight = 1024;
  /// Threads that wait on admitted futures and encode replies. The
  /// event loop itself never blocks on inference.
  int responders = 2;
  /// Per-connection cap on encoded-but-unsent reply bytes; a client
  /// that stops reading long enough to exceed it is disconnected
  /// (visible as a connection drop, never a silent reply loss on a
  /// healthy connection).
  std::size_t max_outbox_bytes = std::size_t{64} << 20;
};

/// Counter snapshot for tests/ops; metrics() has the live registry.
struct FrontEndStats {
  std::size_t connections_accepted = 0;
  std::size_t connections_open = 0;
  std::size_t protocol_errors = 0;
  std::size_t replies_result = 0;
  std::size_t replies_busy = 0;
  std::size_t replies_error = 0;
};

/// Socket front end over a serve::ModelRegistry: one poll()-based event
/// loop thread owns the listener and every connection socket
/// (nonblocking reads, FrameDecoder per connection, outbox writes on
/// POLLOUT); kInfer frames are admitted through
/// ModelRegistry::submit — admission never blocks, a shed request is
/// answered kBusy from the loop itself — and admitted futures are
/// awaited by a small responder pool that encodes kResult/kError
/// replies into the connection outbox and wakes the loop via a
/// self-pipe.
///
/// Protocol errors (ProtocolError from the decoder) are answered with
/// one kError frame, then the connection is closed after the flush:
/// length-prefixed framing cannot resync past a corrupt length word.
/// Clients may pipeline: request_id is echoed per reply, and replies
/// can complete out of order.
///
/// stop() is the graceful drain (the daemon's SIGTERM path): stop
/// accepting and reading, let every admitted request finish on the
/// plan it started on, flush all outboxes, join, then close the
/// listener so later connects are refused. Idempotent; the destructor
/// calls it.
class FrontEnd {
 public:
  explicit FrontEnd(serve::ModelRegistry& registry, FrontEndConfig config = {});
  ~FrontEnd();

  FrontEnd(const FrontEnd&) = delete;
  FrontEnd& operator=(const FrontEnd&) = delete;

  /// The port actually bound (resolves config.port == 0).
  std::uint16_t port() const { return listener_.port(); }

  void stop();

  FrontEndStats stats() const;

  /// Live front-end instruments: connections_accepted / open gauges,
  /// protocol_errors, per-type reply counters, inflight gauge.
  const obs::Registry& metrics() const { return metrics_; }

 private:
  /// Per-connection state. The event loop owns the socket and decoder
  /// exclusively; responders touch only the mutex-guarded outbox.
  struct Conn {
    Socket socket;
    FrameDecoder decoder;
    std::uint64_t id = 0;
    bool read_open = true;  ///< loop-only: still polling for requests
    /// Admitted requests whose reply is not yet in the outbox (loop
    /// increments on admission, responders decrement after enqueue).
    std::atomic<int> inflight{0};

    std::mutex mutex;  ///< guards everything below
    std::deque<std::vector<std::uint8_t>> outbox;
    std::size_t out_offset = 0;   ///< bytes of outbox.front() already sent
    std::size_t outbox_bytes = 0;
    bool close_after_flush = false;  ///< poisoned stream: flush, then close
    bool dead = false;  ///< socket gone or hopeless; drop replies, close now
  };

  struct Pending {
    std::shared_ptr<Conn> conn;
    std::uint64_t request_id = 0;
    std::future<tensor::Tensor> result;
  };

  void loop();
  void responder_loop();
  void wake();
  void accept_ready();
  /// Drains readable bytes + dispatches decoded frames; returns false
  /// when the connection should stop being read.
  bool read_ready(const std::shared_ptr<Conn>& conn);
  void dispatch(const std::shared_ptr<Conn>& conn, Frame& frame);
  /// Encodes `frame` into the outbox (drops it when the conn is dead).
  void enqueue_reply(const std::shared_ptr<Conn>& conn, const Frame& frame);
  /// Flushes as much outbox as the socket accepts; returns false when
  /// the connection died mid-write.
  bool flush_ready(const std::shared_ptr<Conn>& conn);
  bool finished(const std::shared_ptr<Conn>& conn);

  serve::ModelRegistry& registry_;
  FrontEndConfig config_;
  Listener listener_;
  int wake_rd_ = -1;
  int wake_wr_ = -1;

  std::atomic<bool> stopping_{false};    ///< stop accepting/reading
  std::atomic<bool> flush_exit_{false};  ///< flush outboxes, then exit loop

  /// Completion queue: admitted requests, in admission order.
  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Pending> queue_;
  bool queue_closed_ = false;
  std::size_t inflight_ = 0;  ///< admitted, reply not yet in an outbox
  std::condition_variable drained_cv_;

  /// Loop-thread-only state.
  std::vector<std::shared_ptr<Conn>> conns_;
  std::uint64_t next_conn_id_ = 1;

  obs::Registry metrics_;
  obs::Counter& accepted_;
  obs::Counter& proto_errors_;
  obs::Counter& replies_result_;
  obs::Counter& replies_busy_;
  obs::Counter& replies_error_;
  obs::Gauge& open_gauge_;
  obs::Gauge& inflight_gauge_;

  std::mutex stop_mutex_;
  bool stopped_ = false;

  std::vector<std::thread> responders_;
  std::thread loop_thread_;
};

}  // namespace cq::net
