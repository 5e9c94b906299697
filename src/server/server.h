#ifndef MORSELDB_SERVER_SERVER_H_
#define MORSELDB_SERVER_SERVER_H_

// TCP query-serving front end (DESIGN.md §12): a small acceptor thread
// plus one thread per connection, speaking the length-prefixed binary
// protocol of server/wire.h over the Engine / PreparedQuery API.
//
// Statements are registered server-side by name (stored-procedure
// style: this repo has no SQL text layer); PREPARE resolves a name to a
// plan, fingerprints it, and deduplicates against the shared
// StatementCache. EXECUTE passes through the shared AdmissionController
// before any lowering happens, so an overloaded server queues or sheds
// load *before* burning memory and dispatcher slots.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/fault_injector.h"
#include "engine/engine.h"
#include "server/admission.h"
#include "server/session.h"
#include "server/stmt_cache.h"

namespace morsel::server {

struct ServerOptions {
  int port = 0;  // 0 = ephemeral; read the bound port back via port()
  int backlog = 128;
  // Concurrent connections; excess accepts are answered with a
  // kAdmissionRejected error frame and closed.
  int max_sessions = 1024;
  // Idle / half-open reaper: a connection with no complete frame for
  // this long is torn down (running queries cancelled + drained).
  // 0 = never.
  int64_t idle_timeout_ms = 0;
  SessionLimits session_defaults;
  AdmissionOptions admission;
  // Test hook: applied to every query the server starts, so protocol
  // tests can replay the chaos suite's seeded faults through the full
  // network path.
  FaultInjectionOptions fault_injection;
};

class Server {
 public:
  Server(Engine* engine, ServerOptions opts);
  ~Server();  // Stop() if still running

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Registers a named statement; clients PREPARE by name. Callable
  // before or between queries at any time; re-registering a name
  // replaces it for future PREPAREs.
  void RegisterStatement(const std::string& name, LogicalPlan plan);

  // Binds, listens and starts accepting. False if the port is taken.
  bool Start();
  // Stops accepting, shuts down every session (cancelling + draining
  // in-flight queries), joins all threads. Idempotent.
  void Stop();

  int port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }

  struct Stats {
    uint64_t sessions_accepted = 0;
    uint64_t sessions_rejected = 0;
    uint64_t protocol_errors = 0;
    uint64_t queries_executed = 0;
  };
  Stats stats() const;

  // --- session-facing internals ---------------------------------------------
  Engine* engine() { return engine_; }
  const ServerOptions& options() const { return opts_; }
  StatementCache& cache() { return cache_; }
  AdmissionController& admission() { return admission_; }
  // False when unknown. The returned plan is a cheap shared-tree copy.
  bool FindStatement(const std::string& name, LogicalPlan* out) const;
  void CountProtocolError() {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
  }
  void CountQueryExecuted() {
    queries_executed_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  struct SessionSlot {
    std::unique_ptr<Session> session;
    std::thread thread;
  };

  void AcceptLoop();
  void ReapFinishedLocked();  // joins finished sessions; call under mu_

  Engine* engine_;
  ServerOptions opts_;
  StatementCache cache_;
  AdmissionController admission_;

  mutable std::mutex stmt_mu_;
  std::unordered_map<std::string, LogicalPlan> statements_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::thread acceptor_;
  std::mutex mu_;  // guards sessions_
  std::vector<SessionSlot> sessions_;
  std::atomic<uint64_t> next_session_id_{1};

  std::atomic<uint64_t> sessions_accepted_{0};
  std::atomic<uint64_t> sessions_rejected_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> queries_executed_{0};
};

}  // namespace morsel::server

#endif  // MORSELDB_SERVER_SERVER_H_
