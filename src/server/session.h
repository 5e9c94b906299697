#ifndef MORSELDB_SERVER_SESSION_H_
#define MORSELDB_SERVER_SESSION_H_

// One client connection (DESIGN.md §12). Thread-per-connection: the
// session thread owns the socket, decodes frames, and drives queries
// through the Engine via the shared external worker context — the same
// path concurrent PreparedQuery executions already use. Query work
// itself runs on the engine's pinned workers; the session thread only
// blocks on Wait/FETCH.
//
// Lifecycle guarantees:
//  - every admitted execution releases its admission reservation after
//    its Query object (operator state, tracked memory) is destroyed;
//  - any exit from the loop — CLOSE, EOF, protocol error, idle timeout,
//    server shutdown, send failure (client killed mid-EXECUTE) — runs
//    TeardownExecutions, which cancels still-running queries, waits for
//    the QEP drain, and destroys them. A vanished client therefore
//    leaves NumaAllocatedBytes() at baseline.

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "engine/query.h"
#include "exec/result.h"
#include "server/stmt_cache.h"
#include "server/wire.h"

namespace morsel::server {

class Server;

// Per-session execution defaults, set at HELLO and overridable per
// EXECUTE. Zero / non-positive fields defer to the server's defaults
// (priority) or mean "none" (budget, deadline, max_workers).
struct SessionLimits {
  double priority = 1.0;
  int64_t memory_budget_bytes = 0;
  int64_t deadline_ms = 0;
  int max_workers = 0;
};

class Session {
 public:
  Session(Server* server, int fd, uint64_t id);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // The connection loop; returns when the session ends. Runs on the
  // session thread.
  void Run();

  // Async-safe nudge from Server::Stop: half-closes the socket so a
  // blocked ReadFrame returns, and flags running FETCH waits to cancel.
  void Shutdown();

  uint64_t id() const { return id_; }
  bool finished() const { return finished_.load(std::memory_order_acquire); }

 private:
  struct Execution {
    std::unique_ptr<Query> query;   // null once harvested/cancelled
    int64_t reserved_bytes = 0;
    bool released = false;
    bool harvested = false;
    ResultSet result;
    int64_t cursor = 0;  // next row for FETCH paging
  };

  // Handlers return false when the session must end (protocol error or
  // the client went away mid-reply).
  bool HandleHello(WireReader& r);
  bool HandlePrepare(WireReader& r);
  bool HandleExecute(WireReader& r);
  bool HandleFetch(WireReader& r);
  bool HandleCancel(WireReader& r);

  bool SendError(const QueryStatus& status);
  bool SendOk();
  // Encodes [cursor, cursor + n) of `result` as one kRows frame.
  bool SendRows(const ResultSet& result, int64_t begin, int64_t n,
                bool done);

  // Cancels and destroys the execution, releasing its admission
  // reservation. Safe on harvested executions.
  void DestroyExecution(Execution& e);
  void TeardownExecutions();

  // Blocks until `q` finishes, cancelling it if the session is shutting
  // down.
  void WaitInterruptibly(Query* q);

  Server* server_;
  int fd_;
  uint64_t id_;
  SessionLimits limits_;
  std::unordered_map<uint32_t, std::shared_ptr<const StatementCache::Entry>>
      stmts_;
  uint32_t next_stmt_id_ = 1;
  std::unordered_map<uint64_t, Execution> execs_;
  uint64_t next_query_id_ = 1;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> finished_{false};
};

}  // namespace morsel::server

#endif  // MORSELDB_SERVER_SESSION_H_
