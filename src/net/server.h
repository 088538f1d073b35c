// pverify_serve's multi-client TCP server.
//
// Thread model: one reader and one writer thread per accepted socket behind
// a hard connection cap — NOT epoll. A pverify query costs milliseconds of
// CPU, so the bottleneck is the worker pool, not socket readiness: every
// request goes through Engine::Submit, where the SubmitQueue coalesces all
// connections' traffic into shared pool batches (and an optional
// CachingEngine memoizes across connections). Blocking reads keep the
// decode path a straight line, and the cap bounds the thread count
// (2 × max_connections).
//
// Responses go out in COMPLETION order, tagged with the client's request
// ids. The reader decodes and admits a frame, then Submits it with a
// completion that encodes the response frame. A completion running on the
// reader thread — a cache hit answered inside Submit — sends its frame at
// once under the connection's write lock, so a hit never waits on another
// thread. Any other completion appends its frame to the connection's
// queue, so a fast request overtakes a slower one submitted before it. The
// writer is a byte pump: it writes queued frames and sleeps until the next
// one or the earliest pending deadline, never on an engine future.
// Completions hold shared ownership of their connection: one that fires
// after a disconnect or Stop() finds its request no longer pending and
// drops its frame, and off the reader thread a completion never touches
// the server itself.
//
// Overload and failure discipline:
//  * backpressure — a per-connection in-flight cap and a global admission
//    limit on admitted-but-unanswered requests. Requests over either cap
//    are answered kOverloaded immediately by the reader, so a client
//    pipelining into a stalled engine still hears it and can back off; the
//    connection survives. The in-flight cap also bounds the write queue.
//  * deadlines — a request may carry deadline_ms, anchored when its frame
//    header arrives and checked at decode (an expired request never
//    reaches the engine), at completion, and by the writer, which wakes at
//    the earliest pending deadline and answers kDeadlineExceeded for every
//    request still unfinished; the late completion then sends nothing.
//  * slow readers — sends run under options.write_timeout_ms (SO_SNDTIMEO)
//    with an optionally shrunk kernel send buffer; a peer that stops
//    draining its socket is disconnected (slow_reader_disconnects), other
//    connections are unaffected.
//  * graceful drain — Drain(deadline) stops accepting, answers new
//    requests kShuttingDown and waits for admitted ones to be answered.
//    pverify_serve calls it on SIGTERM.
//  * protocol errors (bad magic/version, checksum mismatch, oversized
//    length, unknown kind, truncated body) → a typed kError frame
//    (kTooLarge for cap violations, else kProtocol) once the connection's
//    pending requests are answered, then the connection closes. The server
//    itself always stays up.
//  * request-level failures (engine exceptions, e.g. a 2-D query against a
//    1-D-only engine) → kError/kInvalidRequest on that request id; the
//    connection stays open.
#ifndef PVERIFY_NET_SERVER_H_
#define PVERIFY_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/engine.h"
#include "net/frame.h"
#include "net/socket.h"
#include "net/wire.h"

namespace pverify {
namespace net {

struct ServerOptions {
  /// TCP port; 0 binds an ephemeral port (read it back via Server::port()).
  uint16_t port = 0;
  /// Hard cap on concurrent connections; connection attempts beyond it get
  /// a kError/kOverloaded frame and an immediate close. Bounds the
  /// server's thread count at 2 × max_connections + 1.
  size_t max_connections = 64;
  /// Frame-body size cap enforced on every received header.
  uint32_t max_body_bytes = kDefaultMaxBodyBytes;
  int listen_backlog = 64;
  /// Requests one connection may have submitted-but-unanswered before the
  /// reader answers kOverloaded instead of Submitting. Also bounds the
  /// write queue. 0 = unlimited.
  size_t max_inflight_per_conn = 128;
  /// Global admission limit across all connections on
  /// submitted-but-unanswered requests; over it the reader answers
  /// kOverloaded. 0 = unlimited.
  size_t max_pending = 1024;
  /// SO_SNDTIMEO on every response send; a send blocked past this is the
  /// slow-reader signal and drops the connection. 0 = wait forever.
  uint32_t write_timeout_ms = 5000;
  /// When > 0, shrink each accepted socket's kernel send buffer so a slow
  /// reader's backlog is bounded by the kernel too (tests use this to
  /// trip the write timeout quickly).
  int send_buffer_bytes = 0;
};

/// Point-in-time server telemetry.
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_rejected = 0;  ///< over the max_connections cap
  uint64_t requests_served = 0;       ///< response frames sent
  uint64_t request_errors = 0;        ///< kError frames for failed requests
  uint64_t protocol_errors = 0;       ///< malformed frames (connection dropped)
  uint64_t overload_rejections = 0;   ///< kOverloaded answers (either cap)
  uint64_t deadline_expirations = 0;  ///< kDeadlineExceeded answers
  uint64_t slow_reader_disconnects = 0;  ///< write-timeout teardowns
  uint64_t shutdown_rejections = 0;   ///< kShuttingDown answers while draining
};

/// Serves one Engine over TCP. The engine must outlive the server; Stop()
/// (or destruction) joins every thread before returning.
class Server {
 public:
  explicit Server(Engine& engine, ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and starts the accept loop. Throws WireError when the
  /// port cannot be bound.
  void Start();

  /// Graceful shutdown, phase 1: stop accepting, answer new requests with
  /// kShuttingDown, wait up to `deadline_ms` for in-flight requests to be
  /// answered. Returns true when everything drained, false on deadline.
  /// Call Stop() afterwards either way; callable before Start() (no-op).
  bool Drain(uint32_t deadline_ms);

  /// Hard stop: shuts every socket down and joins every thread. Responses
  /// still in flight are dropped (their completions, if the engine ever
  /// runs them, find nothing pending). Idempotent.
  void Stop();

  /// The bound port (valid after Start(); the ephemeral port when
  /// options.port was 0).
  uint16_t port() const { return listener_.port(); }

  /// Adjusts the frame-body cap; only valid before Start().
  void set_max_body_bytes(uint32_t bytes) { options_.max_body_bytes = bytes; }

  ServerStats stats() const;

 private:
  using Clock = std::chrono::steady_clock;

  /// One encoded answer to an admitted request, ready to write.
  struct Outgoing {
    std::vector<uint8_t> frame;  ///< header ‖ body ‖ CRC trailer
    /// What the answer counts as: served, request error or expiry.
    uint64_t ServerStats::*counter = &ServerStats::requests_served;
  };

  /// An admitted request the engine has not completed yet.
  struct Pending {
    uint64_t request_id = 0;
    Clock::time_point deadline = Clock::time_point::max();  ///< max: none
  };

  struct Connection {
    Socket sock;
    std::thread reader;
    std::thread writer;
    std::mutex mu;
    std::condition_variable cv;
    // Guarded by mu:
    std::deque<Outgoing> queue;  ///< completed answers, in completion order
    /// Admitted, unanswered requests by admission sequence number; the
    /// first of completion, deadline sweep and teardown to erase an entry
    /// owns its answer.
    std::unordered_map<uint64_t, Pending> pending;
    /// Protocol-error frame (empty when none) owed once every pending
    /// request is answered; the connection closes after it.
    std::vector<uint8_t> final_error;
    bool reader_done = false;
    bool writer_exited = false;  ///< the reader stops admitting
    std::atomic<bool> finished{false};  ///< writer exited; reapable
    /// Admitted requests whose answer is not yet written.
    std::atomic<size_t> inflight{0};
    /// Serializes the reader's and the writer's frames on the one socket.
    std::mutex write_mu;
  };

  void AcceptLoop();
  void ReaderLoop(const std::shared_ptr<Connection>& conn);
  void WriterLoop(Connection* conn);
  /// The completion Submit gets for admission `seq`: encodes the answer,
  /// then sends it when running on the reader thread (inside Submit) or
  /// queues it for the writer. Off the reader thread it touches only the
  /// connection, never the server.
  Completion MakeCompletion(std::shared_ptr<Connection> conn, uint64_t seq,
                            const Pending& pending);
  /// Answers every pending request whose deadline has passed (queued for
  /// the writer) and returns the earliest deadline still ahead (max when
  /// none). Requires conn->mu.
  static Clock::time_point ExpireOverdueLocked(Connection* conn);
  /// Writes one encoded frame under the connection's write lock. Returns
  /// false when the send failed (timeout counts a slow reader) — the
  /// connection is already shut down then.
  bool WriteOnConn(Connection* conn, const std::vector<uint8_t>& frame);
  /// Writes the answer to an admitted request, counts it and releases its
  /// admission. Returns false when the connection must close.
  bool Deliver(Connection* conn, const Outgoing& out);
  /// Reader-side immediate rejection (kOverloaded / kDeadlineExceeded /
  /// kShuttingDown) of a request that was never admitted; bumps `counter`
  /// before the write.
  bool RejectNow(Connection* conn, uint64_t request_id, ErrorCode code,
                 const std::string& message, uint64_t ServerStats::*counter);
  void Count(uint64_t ServerStats::*counter);
  /// Records the final typed error frame for a malformed frame; the writer
  /// sends it after the connection's pending requests are answered, then
  /// closes.
  void QueueProtocolError(Connection* conn, uint64_t request_id,
                          ErrorCode code, const std::string& message);
  /// Joins and erases connections whose writer has exited. Called from the
  /// accept loop so a long-lived server does not accumulate dead threads.
  void ReapFinishedLocked();
  static void JoinAndClose(Connection& conn);

  Engine& engine_;
  ServerOptions options_;
  Listener listener_;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};
  bool started_ = false;

  /// Submitted-but-unanswered requests across all connections (the
  /// admission-limit gauge; also Drain's "work left" signal).
  std::atomic<size_t> global_pending_{0};

  std::mutex conns_mu_;
  /// Shared with the completions of the connections' pending requests.
  std::list<std::shared_ptr<Connection>> conns_;

  mutable std::mutex stats_mu_;
  ServerStats stats_;
};

}  // namespace net
}  // namespace pverify

#endif  // PVERIFY_NET_SERVER_H_
