#include "net/front_end.h"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "util/logging.h"

namespace cq::net {

namespace {

void set_fd_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw NetError(std::string("net: fcntl(wake pipe): ") + std::strerror(errno));
  }
}

}  // namespace

FrontEnd::FrontEnd(serve::ModelRegistry& registry, FrontEndConfig config)
    : registry_(registry),
      config_(config),
      listener_(config.port, config.loopback_only),
      accepted_(metrics_.counter("connections_accepted", "client connections accepted")),
      proto_errors_(metrics_.counter("protocol_errors",
                                     "malformed frames (connection closed after)")),
      replies_result_(metrics_.counter("replies_result", "kResult replies sent")),
      replies_busy_(metrics_.counter("replies_busy", "kBusy replies (load shed)")),
      replies_error_(metrics_.counter("replies_error", "kError replies sent")),
      open_gauge_(metrics_.gauge("connections_open", "currently open connections")),
      inflight_gauge_(metrics_.gauge("inflight", "admitted requests awaiting reply")) {
  config_.max_connections = std::max(1, config_.max_connections);
  config_.max_inflight = std::max<std::size_t>(1, config_.max_inflight);
  config_.responders = std::max(1, config_.responders);

  int fds[2];
  if (::pipe(fds) != 0) {
    throw NetError(std::string("net: pipe: ") + std::strerror(errno));
  }
  wake_rd_ = fds[0];
  wake_wr_ = fds[1];
  set_fd_nonblocking(wake_rd_);
  set_fd_nonblocking(wake_wr_);
  listener_.set_nonblocking(true);

  responders_.reserve(static_cast<std::size_t>(config_.responders));
  for (int i = 0; i < config_.responders; ++i) {
    responders_.emplace_back([this] { responder_loop(); });
  }
  loop_thread_ = std::thread([this] { loop(); });
}

FrontEnd::~FrontEnd() {
  stop();
  if (wake_rd_ >= 0) ::close(wake_rd_);
  if (wake_wr_ >= 0) ::close(wake_wr_);
}

void FrontEnd::wake() {
  const char byte = 'w';
  if (::write(wake_wr_, &byte, 1) < 0) {
    // EAGAIN: the pipe already holds an undrained wakeup — good enough.
  }
}

void FrontEnd::stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  {
    // Same critical section as dispatch()'s admission reservation, so
    // after this block no new request can slip past the drain wait.
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stopping_.store(true, std::memory_order_release);
  }
  wake();  // the loop stops accepting and reading

  {
    // Drain: every admitted request finishes (on the plan/version it
    // started on) and its reply lands in a connection outbox.
    std::unique_lock<std::mutex> lock(queue_mutex_);
    drained_cv_.wait(lock, [this] { return inflight_ == 0; });
    queue_closed_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& t : responders_) t.join();

  flush_exit_.store(true, std::memory_order_release);
  wake();  // the loop flushes every outbox, closes, exits
  loop_thread_.join();
  // The loop no longer polls the listener; closing it refuses new
  // clients instead of parking them in the backlog until destruction.
  listener_.close();
}

FrontEndStats FrontEnd::stats() const {
  FrontEndStats s;
  s.connections_accepted = static_cast<std::size_t>(accepted_.value());
  s.connections_open = static_cast<std::size_t>(open_gauge_.value());
  s.protocol_errors = static_cast<std::size_t>(proto_errors_.value());
  s.replies_result = static_cast<std::size_t>(replies_result_.value());
  s.replies_busy = static_cast<std::size_t>(replies_busy_.value());
  s.replies_error = static_cast<std::size_t>(replies_error_.value());
  return s;
}

void FrontEnd::loop() {
  std::vector<pollfd> pfds;
  std::vector<std::shared_ptr<Conn>> polled;
  bool flushing = false;
  std::chrono::steady_clock::time_point flush_deadline{};

  for (;;) {
    const bool stopping = stopping_.load(std::memory_order_acquire);

    pfds.clear();
    polled.clear();
    pollfd wakefd{};
    wakefd.fd = wake_rd_;
    wakefd.events = POLLIN;
    pfds.push_back(wakefd);
    const bool accepting =
        !stopping && static_cast<int>(conns_.size()) < config_.max_connections;
    if (accepting) {
      pollfd lfd{};
      lfd.fd = listener_.fd();
      lfd.events = POLLIN;
      pfds.push_back(lfd);
    }
    for (const std::shared_ptr<Conn>& conn : conns_) {
      short events = 0;
      if (conn->read_open && !stopping) events |= POLLIN;
      {
        std::lock_guard<std::mutex> lock(conn->mutex);
        if (!conn->outbox.empty()) events |= POLLOUT;
      }
      pollfd cfd{};
      cfd.fd = conn->socket.fd();
      cfd.events = events;
      pfds.push_back(cfd);
      polled.push_back(conn);
    }

    if (::poll(pfds.data(), pfds.size(), 200) < 0 && errno != EINTR) {
      util::log_error() << "net::FrontEnd: poll: " << std::strerror(errno);
    }

    if ((pfds[0].revents & POLLIN) != 0) {
      char buf[64];
      while (::read(wake_rd_, buf, sizeof(buf)) > 0) {
      }
    }
    std::size_t base = 1;
    if (accepting) {
      if ((pfds[1].revents & POLLIN) != 0) accept_ready();
      base = 2;
    }
    for (std::size_t i = 0; i < polled.size(); ++i) {
      const std::shared_ptr<Conn>& conn = polled[i];
      const short revents = pfds[base + i].revents;
      if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0 && conn->read_open &&
          !stopping_.load(std::memory_order_acquire)) {
        if (!read_ready(conn)) conn->read_open = false;
      }
      if ((revents & POLLOUT) != 0) flush_ready(conn);
    }

    conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                [this](const std::shared_ptr<Conn>& conn) {
                                  return finished(conn);
                                }),
                 conns_.end());
    open_gauge_.set(static_cast<double>(conns_.size()));

    if (flush_exit_.load(std::memory_order_acquire)) {
      const auto now = std::chrono::steady_clock::now();
      if (!flushing) {
        flushing = true;
        flush_deadline = now + std::chrono::seconds(5);
      }
      bool pending = false;
      for (const std::shared_ptr<Conn>& conn : conns_) {
        std::lock_guard<std::mutex> lock(conn->mutex);
        if (!conn->dead && !conn->outbox.empty()) pending = true;
      }
      if (!pending || now >= flush_deadline) break;
    }
  }

  for (const std::shared_ptr<Conn>& conn : conns_) {
    std::lock_guard<std::mutex> lock(conn->mutex);
    conn->dead = true;
    conn->socket.close();
  }
  conns_.clear();
  open_gauge_.set(0.0);
}

void FrontEnd::accept_ready() {
  while (static_cast<int>(conns_.size()) < config_.max_connections) {
    Socket socket = listener_.accept();
    if (!socket.valid()) return;
    socket.set_nonblocking(true);
    auto conn = std::make_shared<Conn>();
    conn->socket = std::move(socket);
    conn->id = next_conn_id_++;
    conns_.push_back(std::move(conn));
    accepted_.inc();
  }
}

bool FrontEnd::read_ready(const std::shared_ptr<Conn>& conn) {
  std::uint8_t chunk[16384];
  for (;;) {
    std::size_t n = 0;
    try {
      n = conn->socket.recv_some(chunk, sizeof(chunk));
    } catch (const NetError&) {
      // Hard reset: nothing can be delivered in either direction.
      std::lock_guard<std::mutex> lock(conn->mutex);
      conn->dead = true;
      return false;
    }
    if (n == Socket::kAgain) return true;
    if (n == 0) {
      // Orderly half-close: stop reading, but queued and in-flight
      // replies still flush — the peer may shutdown(SHUT_WR) and read.
      return false;
    }
    try {
      conn->decoder.feed(chunk, n);
      Frame frame;
      while (conn->decoder.next(frame)) dispatch(conn, frame);
    } catch (const ProtocolError& error) {
      // One explicit kError, then close after the flush: a corrupt
      // length word poisons everything after it, resync is impossible.
      proto_errors_.inc();
      Frame reply;
      reply.type = FrameType::kError;
      reply.request_id = 0;  // the offending frame's id is unknowable
      reply.message = error.what();
      enqueue_reply(conn, reply);
      std::lock_guard<std::mutex> lock(conn->mutex);
      conn->close_after_flush = true;
      return false;
    }
  }
}

void FrontEnd::dispatch(const std::shared_ptr<Conn>& conn, Frame& frame) {
  Frame reply;
  reply.request_id = frame.request_id;
  switch (frame.type) {
    case FrameType::kInfer: {
      {
        // Reserve an in-flight slot under the same mutex stop() uses
        // to raise stopping_: either this request is refused BUSY, or
        // the drain wait is guaranteed to see it.
        std::unique_lock<std::mutex> lock(queue_mutex_);
        if (stopping_.load(std::memory_order_acquire)) {
          lock.unlock();
          reply.type = FrameType::kBusy;
          reply.message = "server is draining";
          enqueue_reply(conn, reply);
          return;
        }
        if (inflight_ >= config_.max_inflight) {
          lock.unlock();
          reply.type = FrameType::kBusy;
          reply.message = "server at max in-flight (" +
                          std::to_string(config_.max_inflight) + ")";
          enqueue_reply(conn, reply);
          return;
        }
        ++inflight_;
        inflight_gauge_.set(static_cast<double>(inflight_));
      }
      serve::ModelRegistry::Admission admission =
          registry_.submit(frame.model, std::move(frame.tensor));
      if (admission.outcome == serve::ModelRegistry::Outcome::kAdmitted) {
        conn->inflight.fetch_add(1, std::memory_order_acq_rel);
        Pending pending;
        pending.conn = conn;
        pending.request_id = frame.request_id;
        pending.result = std::move(admission.result);
        {
          std::lock_guard<std::mutex> lock(queue_mutex_);
          queue_.push_back(std::move(pending));
        }
        queue_cv_.notify_one();
        return;
      }
      {  // release the reserved slot
        std::lock_guard<std::mutex> lock(queue_mutex_);
        --inflight_;
        inflight_gauge_.set(static_cast<double>(inflight_));
        if (inflight_ == 0) drained_cv_.notify_all();
      }
      reply.type = admission.outcome == serve::ModelRegistry::Outcome::kShed
                       ? FrameType::kBusy
                       : FrameType::kError;
      reply.message = admission.reason;
      enqueue_reply(conn, reply);
      return;
    }
    case FrameType::kInfo: {
      try {
        const serve::ModelInfo info = registry_.info(frame.model);
        reply.type = FrameType::kInfoReply;
        reply.sample_shape = info.sample_shape;
        reply.num_classes = info.num_classes;
        reply.model_version = info.version;
      } catch (const serve::RegistryError& error) {
        reply.type = FrameType::kError;
        reply.message = error.what();
      }
      enqueue_reply(conn, reply);
      return;
    }
    default: {
      // A reply-direction frame arriving at the server: confused peer.
      reply.type = FrameType::kError;
      reply.message = std::string("net: unexpected ") +
                      frame_type_name(frame.type) + " frame from client";
      enqueue_reply(conn, reply);
      conn->read_open = false;
      std::lock_guard<std::mutex> lock(conn->mutex);
      conn->close_after_flush = true;
      return;
    }
  }
}

void FrontEnd::enqueue_reply(const std::shared_ptr<Conn>& conn, const Frame& frame) {
  std::vector<std::uint8_t> bytes = encode_frame(frame);
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    if (conn->dead) return;
    conn->outbox_bytes += bytes.size();
    conn->outbox.push_back(std::move(bytes));
    if (conn->outbox_bytes > config_.max_outbox_bytes) {
      // The peer stopped reading; disconnecting is visible, a silently
      // growing buffer is not.
      conn->dead = true;
      return;
    }
  }
  switch (frame.type) {
    case FrameType::kResult:
      replies_result_.inc();
      break;
    case FrameType::kBusy:
      replies_busy_.inc();
      break;
    case FrameType::kError:
      replies_error_.inc();
      break;
    default:
      break;  // kInfoReply
  }
}

bool FrontEnd::flush_ready(const std::shared_ptr<Conn>& conn) {
  std::lock_guard<std::mutex> lock(conn->mutex);
  while (!conn->outbox.empty()) {
    const std::vector<std::uint8_t>& front = conn->outbox.front();
    std::size_t n = 0;
    try {
      n = conn->socket.send_some(front.data() + conn->out_offset,
                                 front.size() - conn->out_offset);
    } catch (const NetError&) {
      conn->dead = true;
      return false;
    }
    if (n == Socket::kAgain) return true;
    conn->out_offset += n;
    conn->outbox_bytes -= n;
    if (conn->out_offset == front.size()) {
      conn->outbox.pop_front();
      conn->out_offset = 0;
    }
  }
  return true;
}

bool FrontEnd::finished(const std::shared_ptr<Conn>& conn) {
  std::lock_guard<std::mutex> lock(conn->mutex);
  if (conn->dead) {
    conn->socket.close();
    return true;
  }
  if (!conn->outbox.empty()) return false;
  const bool drained = conn->inflight.load(std::memory_order_acquire) == 0;
  if (conn->close_after_flush || (!conn->read_open && drained)) {
    conn->dead = true;  // responders racing in drop their replies
    conn->socket.close();
    return true;
  }
  return false;
}

void FrontEnd::responder_loop() {
  for (;;) {
    Pending pending;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return queue_closed_ || !queue_.empty(); });
      if (queue_.empty()) return;  // closed and drained
      pending = std::move(queue_.front());
      queue_.pop_front();
    }
    Frame reply;
    reply.request_id = pending.request_id;
    try {
      reply.type = FrameType::kResult;
      reply.tensor = pending.result.get();
    } catch (const std::exception& error) {
      reply.type = FrameType::kError;
      reply.message = error.what();
    }
    enqueue_reply(pending.conn, reply);
    pending.conn->inflight.fetch_sub(1, std::memory_order_acq_rel);
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      --inflight_;
      inflight_gauge_.set(static_cast<double>(inflight_));
      if (inflight_ == 0) drained_cv_.notify_all();
    }
    wake();  // the loop adds POLLOUT for the reply's connection
  }
}

}  // namespace cq::net
