#include "net/server.h"

#include <algorithm>
#include <utility>

#include "net/codec.h"

namespace pverify {
namespace net {

namespace {

std::vector<uint8_t> ErrorFrame(uint64_t request_id, ErrorCode code,
                                const std::string& message) {
  WireWriter body;
  EncodeErrorBody(code, message, body);
  return EncodeFrame(MessageType::kError, request_id, body);
}

}  // namespace

Server::Server(Engine& engine, ServerOptions options)
    : engine_(engine), options_(options) {}

Server::~Server() { Stop(); }

void Server::Start() {
  listener_ = Listener::Bind(options_.port, options_.listen_backlog);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  started_ = true;
}

bool Server::Drain(uint32_t deadline_ms) {
  if (!started_) return true;
  draining_.store(true, std::memory_order_release);
  listener_.Shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  // In-flight work is everything admitted but not yet answered on the
  // wire; readers reject anything new with kShuttingDown from here on.
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(deadline_ms);
  while (global_pending_.load(std::memory_order_acquire) > 0) {
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

void Server::Stop() {
  if (!started_) return;
  stopping_.store(true, std::memory_order_release);
  listener_.Shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();

  std::lock_guard<std::mutex> lock(conns_mu_);
  for (auto& conn : conns_) {
    conn->sock.ShutdownBoth();
    // Under the lock, so a writer between its stopping_ check and its wait
    // cannot miss the wake-up.
    std::lock_guard<std::mutex> conn_lock(conn->mu);
    conn->cv.notify_all();
  }
  for (auto& conn : conns_) JoinAndClose(*conn);
  conns_.clear();
  started_ = false;
}

void Server::JoinAndClose(Connection& conn) {
  if (conn.reader.joinable()) conn.reader.join();
  if (conn.writer.joinable()) conn.writer.join();
  // Completions still held by the engine keep the Connection alive but
  // never use its socket; release the descriptor now.
  conn.sock.Close();
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

void Server::ReapFinishedLocked() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    Connection& conn = **it;
    if (conn.finished.load(std::memory_order_acquire)) {
      JoinAndClose(conn);
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire) &&
         !draining_.load(std::memory_order_acquire)) {
    Socket sock = listener_.Accept();
    if (!sock.valid()) continue;  // shutdown or a racing client; re-check
    try {
      if (options_.write_timeout_ms > 0) {
        sock.SetSendTimeoutMs(options_.write_timeout_ms);
      }
      if (options_.send_buffer_bytes > 0) {
        sock.SetSendBufferBytes(options_.send_buffer_bytes);
      }
    } catch (const WireError&) {
      // Losing the options degrades the slow-reader bound, nothing else.
    }
    std::lock_guard<std::mutex> lock(conns_mu_);
    ReapFinishedLocked();
    if (conns_.size() >= options_.max_connections) {
      // Over the cap: tell the client why, then hang up. A best-effort
      // write — a peer that already vanished only costs us the syscall.
      // Counted before the write, like every rejection: a client that has
      // read the rejection frame must already observe the counter.
      Count(&ServerStats::connections_rejected);
      const std::vector<uint8_t> frame = ErrorFrame(
          0, ErrorCode::kOverloaded, "server connection limit reached");
      try {
        sock.WriteAll(frame.data(), frame.size());
      } catch (const WireError&) {
      }
      continue;
    }
    auto conn = std::make_shared<Connection>();
    conn->sock = std::move(sock);
    conn->reader = std::thread([this, conn] { ReaderLoop(conn); });
    conn->writer = std::thread([this, raw = conn.get()] { WriterLoop(raw); });
    conns_.push_back(std::move(conn));
    Count(&ServerStats::connections_accepted);
  }
}

void Server::Count(uint64_t ServerStats::*counter) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++(stats_.*counter);
}

bool Server::WriteOnConn(Connection* conn,
                         const std::vector<uint8_t>& frame) {
  std::lock_guard<std::mutex> lock(conn->write_mu);
  try {
    conn->sock.WriteAll(frame.data(), frame.size());
    return true;
  } catch (const WireTimeout&) {
    // The peer stopped draining its socket: the slow-reader policy cuts it
    // loose rather than let one stalled connection pin a writer thread and
    // an unbounded backlog.
    Count(&ServerStats::slow_reader_disconnects);
    conn->sock.ShutdownBoth();
    return false;
  } catch (const WireError&) {
    conn->sock.ShutdownBoth();
    return false;
  }
}

bool Server::RejectNow(Connection* conn, uint64_t request_id, ErrorCode code,
                       const std::string& message,
                       uint64_t ServerStats::*counter) {
  Count(counter);
  return WriteOnConn(conn, ErrorFrame(request_id, code, message));
}

bool Server::Deliver(Connection* conn, const Outgoing& out) {
  // Expiries count before the write, like rejections; answers once written.
  const bool expired = out.counter == &ServerStats::deadline_expirations;
  if (expired) Count(out.counter);
  const bool sent = WriteOnConn(conn, out.frame);
  if (sent && !expired) Count(out.counter);
  conn->inflight.fetch_sub(1, std::memory_order_acq_rel);
  global_pending_.fetch_sub(1, std::memory_order_acq_rel);
  return sent;
}

void Server::QueueProtocolError(Connection* conn, uint64_t request_id,
                                ErrorCode code, const std::string& message) {
  Count(&ServerStats::protocol_errors);
  std::vector<uint8_t> frame = ErrorFrame(request_id, code, message);
  std::lock_guard<std::mutex> lock(conn->mu);
  if (!conn->writer_exited) conn->final_error = std::move(frame);
}

Completion Server::MakeCompletion(std::shared_ptr<Connection> conn,
                                  uint64_t seq, const Pending& pending) {
  return [this, conn = std::move(conn), seq, pending,
          reader = std::this_thread::get_id()](QueryResult result,
                                               std::exception_ptr error) {
    // Encode outside the connection lock, on the completing thread.
    Outgoing out;
    if (Clock::now() >= pending.deadline) {
      out.counter = &ServerStats::deadline_expirations;
      out.frame = ErrorFrame(pending.request_id, ErrorCode::kDeadlineExceeded,
                             "deadline exceeded while queued or executing");
    } else {
      WireWriter body;
      MessageType type = MessageType::kResponse;
      try {
        if (error != nullptr) std::rethrow_exception(error);
        EncodeResult(result, body);
      } catch (const std::exception& e) {
        // Request-level failure (the engine rejected the query): report it
        // on this request id and keep the connection alive.
        type = MessageType::kError;
        out.counter = &ServerStats::request_errors;
        body.Clear();
        EncodeErrorBody(ErrorCode::kInvalidRequest, e.what(), body);
      }
      out.frame = EncodeFrame(type, pending.request_id, body);
    }
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      // Already answered at its deadline, or the connection is gone.
      if (conn->pending.erase(seq) == 0) return;
      if (std::this_thread::get_id() != reader) {
        conn->queue.push_back(std::move(out));
        conn->cv.notify_one();
        return;
      }
    }
    // Completed inside the reader's Submit call (a cache hit): the reader
    // thread sends it now. A failed send shuts the socket down, so the
    // reader's next receive ends the connection.
    Deliver(conn.get(), out);
  };
}

void Server::ReaderLoop(const std::shared_ptr<Connection>& conn) {
  uint64_t next_seq = 0;
  for (;;) {
    ReceivedFrame frame;
    uint64_t request_id = 0;
    try {
      if (!ReceiveFrame(conn->sock, options_.max_body_bytes, &frame)) {
        break;  // clean EOF between frames: client is done
      }
      request_id = frame.header.request_id;
      if (frame.header.type != MessageType::kRequest) {
        throw WireError("wire: expected a request frame");
      }
      WireReader reader(frame.body.data(), frame.body.size());
      const RequestExtensions ext = DecodeRequestExtensions(reader);
      QueryRequest request = DecodeRequest(reader);
      reader.ExpectEnd();

      // Admission control, in rejection-priority order. Every rejection is
      // sent by this thread directly, so a client whose earlier requests
      // are stuck in a stalled engine still hears the backpressure
      // immediately.
      Pending pending;
      pending.request_id = request_id;
      const bool has_deadline = ext.deadline_ms > 0;
      if (has_deadline) {
        pending.deadline =
            frame.header_at + std::chrono::milliseconds(ext.deadline_ms);
      }
      ErrorCode code = ErrorCode::kOverloaded;
      const char* refusal = nullptr;
      uint64_t ServerStats::*counter = &ServerStats::overload_rejections;
      if (Clock::now() >= pending.deadline) {
        // Expired on arrival (or while the body trickled in): answer
        // without ever running the engine.
        code = ErrorCode::kDeadlineExceeded;
        refusal = "deadline expired before execution";
        counter = &ServerStats::deadline_expirations;
      } else if (draining_.load(std::memory_order_acquire)) {
        code = ErrorCode::kShuttingDown;
        refusal = "server is draining";
        counter = &ServerStats::shutdown_rejections;
      } else if (options_.max_pending > 0 &&
                 global_pending_.load(std::memory_order_acquire) >=
                     options_.max_pending) {
        refusal = "server admission limit reached";
      } else if (options_.max_inflight_per_conn > 0 &&
                 conn->inflight.load(std::memory_order_acquire) >=
                     options_.max_inflight_per_conn) {
        refusal = "per-connection in-flight limit reached";
      }
      if (refusal != nullptr) {
        if (!RejectNow(conn.get(), request_id, code, refusal, counter)) break;
        continue;
      }

      const uint64_t seq = ++next_seq;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        if (conn->writer_exited) break;
        // Counted under the lock, so an exiting writer releases exactly
        // the admissions it saw pending.
        global_pending_.fetch_add(1, std::memory_order_acq_rel);
        conn->inflight.fetch_add(1, std::memory_order_acq_rel);
        conn->pending.emplace(seq, pending);
        // A new deadline may be earlier than the one the writer sleeps to.
        if (has_deadline) conn->cv.notify_one();
      }
      engine_.Submit(std::move(request), MakeCompletion(conn, seq, pending));
    } catch (const WireTooLarge& e) {
      // Oversized frame: answer kTooLarge (after pending requests are
      // answered), then close — resynchronizing with an unread
      // multi-megabyte body is not worth trusting the peer's framing again.
      QueueProtocolError(conn.get(), request_id, ErrorCode::kTooLarge,
                         e.what());
      break;
    } catch (const WireError& e) {
      // Malformed frame (or socket error): owe a final error frame and drop
      // the connection once pending requests are answered. The frame is
      // best effort — if the socket itself died, the writer's send just
      // fails and the teardown path is the same.
      QueueProtocolError(conn.get(), request_id, ErrorCode::kProtocol,
                         e.what());
      break;
    }
  }
  std::lock_guard<std::mutex> lock(conn->mu);
  conn->reader_done = true;
  conn->cv.notify_all();
}

Server::Clock::time_point Server::ExpireOverdueLocked(Connection* conn) {
  Clock::time_point next = Clock::time_point::max();
  const Clock::time_point now = Clock::now();
  for (auto it = conn->pending.begin(); it != conn->pending.end();) {
    const Pending& p = it->second;
    if (p.deadline <= now) {
      conn->queue.push_back(
          Outgoing{ErrorFrame(p.request_id, ErrorCode::kDeadlineExceeded,
                              "deadline exceeded while queued or executing"),
                   &ServerStats::deadline_expirations});
      it = conn->pending.erase(it);
    } else {
      next = std::min(next, p.deadline);
      ++it;
    }
  }
  return next;
}

void Server::WriterLoop(Connection* conn) {
  std::unique_lock<std::mutex> lock(conn->mu);
  while (!stopping_.load(std::memory_order_acquire)) {
    if (!conn->queue.empty()) {
      Outgoing out = std::move(conn->queue.front());
      conn->queue.pop_front();
      lock.unlock();
      const bool sent = Deliver(conn, out);
      lock.lock();
      if (!sent) break;
      continue;
    }
    const Clock::time_point next = ExpireOverdueLocked(conn);
    if (!conn->queue.empty()) continue;
    if (conn->reader_done && conn->pending.empty()) {
      if (!conn->final_error.empty()) {
        const std::vector<uint8_t> frame = std::move(conn->final_error);
        lock.unlock();
        WriteOnConn(conn, frame);
        lock.lock();
      }
      break;
    }
    if (next == Clock::time_point::max()) {
      conn->cv.wait(lock);
    } else {
      conn->cv.wait_until(lock, next);
    }
  }
  // Release the admissions of everything this writer will never answer
  // (and stop the reader from admitting more), so Drain's gauge cannot
  // leak; late completions find nothing pending and drop their frames.
  conn->writer_exited = true;
  const size_t dropped = conn->queue.size() + conn->pending.size();
  conn->queue.clear();
  conn->pending.clear();
  lock.unlock();
  conn->inflight.fetch_sub(dropped, std::memory_order_acq_rel);
  global_pending_.fetch_sub(dropped, std::memory_order_acq_rel);
  // Unblock the reader if it is still parked in recv, then let the accept
  // loop (or Stop) reap both threads.
  conn->sock.ShutdownBoth();
  conn->finished.store(true, std::memory_order_release);
}

}  // namespace net
}  // namespace pverify
