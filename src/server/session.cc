#include "server/session.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "server/server.h"

namespace morsel::server {

namespace {
// Granularity at which a blocked FETCH wait re-checks for session
// shutdown. Coarse enough to stay off the futex hot path, fine enough
// that Server::Stop never waits noticeably on a healthy query.
constexpr auto kWaitSlice = std::chrono::milliseconds(20);
}  // namespace

Session::Session(Server* server, int fd, uint64_t id)
    : server_(server), fd_(fd), id_(id) {
  limits_ = server_->options().session_defaults;
}

Session::~Session() {
  TeardownExecutions();
  if (fd_ >= 0) close(fd_);
}

void Session::Shutdown() {
  stopping_.store(true, std::memory_order_release);
  // Unblocks a ReadFrame parked in recv/poll; the loop then exits and
  // tears down. The fd stays open (owned and closed by the destructor)
  // so there is no close/use race with the session thread.
  shutdown(fd_, SHUT_RDWR);
}

void Session::Run() {
  const int timeout_ms =
      server_->options().idle_timeout_ms > 0
          ? static_cast<int>(server_->options().idle_timeout_ms)
          : -1;
  std::vector<uint8_t> payload;
  bool alive = true;
  while (alive && !stopping_.load(std::memory_order_acquire)) {
    uint8_t type = 0;
    switch (ReadFrame(fd_, &type, &payload, timeout_ms)) {
      case ReadResult::kOk:
        break;
      case ReadResult::kTimeout:
        // Half-open / idle connection: the peer may be gone without a
        // FIN ever arriving. Reap it; teardown below drains any query
        // it abandoned mid-EXECUTE.
        alive = false;
        continue;
      case ReadResult::kOversized:
        server_->CountProtocolError();
        alive = false;
        continue;
      case ReadResult::kError:
        server_->CountProtocolError();
        alive = false;
        continue;
      case ReadResult::kEof:
        alive = false;
        continue;
    }
    WireReader r(payload.data(), payload.size());
    switch (static_cast<MsgType>(type)) {
      case MsgType::kHello:
        alive = HandleHello(r);
        break;
      case MsgType::kPrepare:
        alive = HandlePrepare(r);
        break;
      case MsgType::kExecute:
        alive = HandleExecute(r);
        break;
      case MsgType::kFetch:
        alive = HandleFetch(r);
        break;
      case MsgType::kCancel:
        alive = HandleCancel(r);
        break;
      case MsgType::kClose:
        SendOk();
        alive = false;
        break;
      default:
        server_->CountProtocolError();
        SendError(QueryStatus::Internal(
            "unknown message type " + std::to_string(type)));
        alive = false;
        break;
    }
  }
  TeardownExecutions();
  // FIN the peer now: the Session object (and the fd it owns) lives on
  // until the acceptor reaps it, but the client should see EOF as soon
  // as the protocol conversation is over.
  shutdown(fd_, SHUT_RDWR);
  finished_.store(true, std::memory_order_release);
}

bool Session::HandleHello(WireReader& r) {
  const uint32_t version = r.U32();
  SessionLimits l;
  l.priority = r.F64();
  l.memory_budget_bytes = r.I64();
  l.deadline_ms = r.I64();
  l.max_workers = static_cast<int>(r.I32());
  if (!r.ok() || !r.AtEnd()) {
    server_->CountProtocolError();
    SendError(QueryStatus::Internal("malformed HELLO frame"));
    return false;
  }
  if (version != kProtocolVersion) {
    SendError(QueryStatus::Internal("unsupported protocol version " +
                                    std::to_string(version)));
    return false;
  }
  // Non-positive fields keep the server's session defaults.
  if (l.priority > 0) limits_.priority = l.priority;
  if (l.memory_budget_bytes > 0) {
    limits_.memory_budget_bytes = l.memory_budget_bytes;
  }
  if (l.deadline_ms > 0) limits_.deadline_ms = l.deadline_ms;
  if (l.max_workers > 0) limits_.max_workers = l.max_workers;
  WireWriter w(MsgType::kHelloOk);
  w.U32(kProtocolVersion);
  w.U64(id_);
  return SendFrame(fd_, w.Finish());
}

bool Session::HandlePrepare(WireReader& r) {
  const std::string name = r.Str();
  if (!r.ok() || !r.AtEnd()) {
    server_->CountProtocolError();
    SendError(QueryStatus::Internal("malformed PREPARE frame"));
    return false;
  }
  LogicalPlan plan;
  if (!server_->FindStatement(name, &plan)) {
    return SendError(
        QueryStatus::Internal("unknown statement \"" + name + "\""));
  }
  const uint32_t stmt_id = next_stmt_id_++;
  bool cache_hit = false;
  std::shared_ptr<const StatementCache::Entry> entry =
      server_->cache().GetOrPrepare(plan, &cache_hit);
  stmts_[stmt_id] = entry;
  WireWriter w(MsgType::kPrepared);
  w.U32(stmt_id);
  w.U64(entry->fingerprint);
  w.U8(cache_hit ? 1 : 0);
  w.U16(static_cast<uint16_t>(entry->names.size()));
  for (size_t c = 0; c < entry->names.size(); ++c) {
    w.U8(static_cast<uint8_t>(entry->types[c]));
    w.Str(entry->names[c]);
  }
  return SendFrame(fd_, w.Finish());
}

bool Session::HandleExecute(WireReader& r) {
  const uint32_t stmt_id = r.U32();
  const double priority_override = r.F64();
  const int64_t budget_override = r.I64();
  const int64_t deadline_override = r.I64();
  if (!r.ok() || !r.AtEnd()) {
    server_->CountProtocolError();
    SendError(QueryStatus::Internal("malformed EXECUTE frame"));
    return false;
  }
  auto it = stmts_.find(stmt_id);
  if (it == stmts_.end()) {
    return SendError(QueryStatus::Internal("unknown statement id " +
                                           std::to_string(stmt_id)));
  }
  const double priority =
      priority_override > 0 ? priority_override : limits_.priority;
  const int64_t budget = budget_override > 0 ? budget_override
                                             : limits_.memory_budget_bytes;
  const int64_t deadline_ms =
      deadline_override > 0 ? deadline_override : limits_.deadline_ms;

  // Admission first: nothing is lowered, allocated or scheduled for a
  // query the server cannot run. The budget doubles as the admission
  // reservation.
  bool queued = false;
  QueryStatus admit = server_->admission().Admit(budget, priority, &queued);
  if (!admit.ok()) {
    return SendError(admit);
  }
  Execution e;
  e.reserved_bytes = budget;
  // MakeQuery re-checks plan staleness under the prepared query's
  // refresh lock on every execution — a cache hit whose table sealed a
  // partition mid-stream re-resolves here instead of serving the stale
  // splice. Lowering failures (e.g. the budget trips during SetPlan)
  // surface as an errored query, harvested on FETCH.
  e.query = it->second->prepared.MakeQuery(priority, budget);
  if (deadline_ms > 0) {
    e.query->SetDeadline(std::chrono::milliseconds(deadline_ms));
  }
  if (limits_.max_workers > 0) e.query->SetMaxWorkers(limits_.max_workers);
  if (server_->options().fault_injection.enabled) {
    e.query->SetFaultInjection(server_->options().fault_injection);
  }
  e.query->Start();
  server_->CountQueryExecuted();
  const uint64_t query_id = next_query_id_++;
  execs_.emplace(query_id, std::move(e));
  WireWriter w(MsgType::kExecuting);
  w.U64(query_id);
  w.U8(queued ? 1 : 0);
  return SendFrame(fd_, w.Finish());
}

void Session::WaitInterruptibly(Query* q) {
  while (!q->WaitFor(kWaitSlice)) {
    if (stopping_.load(std::memory_order_acquire)) {
      q->Cancel();
      q->Wait();  // cancellation drains promptly (morsel granularity)
      return;
    }
  }
}

bool Session::HandleFetch(WireReader& r) {
  const uint64_t query_id = r.U64();
  const uint32_t max_rows = r.U32();
  if (!r.ok() || !r.AtEnd()) {
    server_->CountProtocolError();
    SendError(QueryStatus::Internal("malformed FETCH frame"));
    return false;
  }
  auto it = execs_.find(query_id);
  if (it == execs_.end()) {
    return SendError(QueryStatus::Internal("unknown query id " +
                                           std::to_string(query_id)));
  }
  Execution& e = it->second;
  if (!e.harvested) {
    WaitInterruptibly(e.query.get());
    e.result = e.query->TakeResult();
    e.harvested = true;
    // Operator state is freed by the query's destructor: destroy before
    // releasing the admission reservation so the reservation covers the
    // query's whole memory lifetime.
    e.query.reset();
    server_->admission().Release(e.reserved_bytes);
    e.released = true;
  }
  if (!e.result.ok()) {
    const bool sent = SendError(e.result.status());
    execs_.erase(it);
    return sent;
  }
  const int64_t total = e.result.num_rows();
  const int64_t n = max_rows == 0
                        ? total - e.cursor
                        : std::min<int64_t>(max_rows, total - e.cursor);
  const bool done = e.cursor + n >= total;
  const bool sent = SendRows(e.result, e.cursor, n, done);
  e.cursor += n;
  if (done) execs_.erase(it);
  return sent;
}

bool Session::HandleCancel(WireReader& r) {
  const uint64_t query_id = r.U64();
  if (!r.ok() || !r.AtEnd()) {
    server_->CountProtocolError();
    SendError(QueryStatus::Internal("malformed CANCEL frame"));
    return false;
  }
  auto it = execs_.find(query_id);
  if (it == execs_.end()) {
    // Benign: the query may have been fully fetched already.
    return SendOk();
  }
  DestroyExecution(it->second);
  execs_.erase(it);
  return SendOk();
}

bool Session::SendError(const QueryStatus& status) {
  WireWriter w(MsgType::kError);
  w.I32(StatusCodeToWire(status.code));
  w.Str(status.message);
  return SendFrame(fd_, w.Finish());
}

bool Session::SendOk() {
  WireWriter w(MsgType::kOk);
  return SendFrame(fd_, w.Finish());
}

bool Session::SendRows(const ResultSet& result, int64_t begin, int64_t n,
                       bool done) {
  WireWriter w(MsgType::kRows);
  w.U8(done ? 1 : 0);
  w.U32(static_cast<uint32_t>(n));
  w.U16(static_cast<uint16_t>(result.num_cols()));
  for (int c = 0; c < result.num_cols(); ++c) {
    const LogicalType t = result.type(c);
    w.U8(static_cast<uint8_t>(t));
    for (int64_t i = begin; i < begin + n; ++i) {
      switch (t) {
        case LogicalType::kInt32:
          w.I32(result.I32(i, c));
          break;
        case LogicalType::kInt64:
          w.I64(result.I64(i, c));
          break;
        case LogicalType::kDouble:
          w.F64(result.F64(i, c));
          break;
        case LogicalType::kString:
          w.Str(result.Str(i, c));
          break;
      }
    }
  }
  return SendFrame(fd_, w.Finish());
}

void Session::DestroyExecution(Execution& e) {
  if (e.query != nullptr) {
    e.query->Cancel();
    e.query->Wait();
    e.query.reset();
  }
  if (!e.released) {
    server_->admission().Release(e.reserved_bytes);
    e.released = true;
  }
}

void Session::TeardownExecutions() {
  for (auto& [id, e] : execs_) {
    DestroyExecution(e);
  }
  execs_.clear();
}

}  // namespace morsel::server
