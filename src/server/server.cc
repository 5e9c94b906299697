#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <utility>

#include "common/macros.h"
#include "server/wire.h"

namespace morsel::server {

Server::Server(Engine* engine, ServerOptions opts)
    : engine_(engine),
      opts_(std::move(opts)),
      cache_(engine),
      admission_(opts_.admission) {}

Server::~Server() { Stop(); }

void Server::RegisterStatement(const std::string& name, LogicalPlan plan) {
  MORSEL_CHECK_MSG(plan.valid(), "RegisterStatement requires a built plan");
  std::lock_guard<std::mutex> lk(stmt_mu_);
  statements_[name] = std::move(plan);
}

bool Server::FindStatement(const std::string& name,
                           LogicalPlan* out) const {
  std::lock_guard<std::mutex> lk(stmt_mu_);
  auto it = statements_.find(name);
  if (it == statements_.end()) return false;
  *out = it->second;  // cheap: shared tree
  return true;
}

bool Server::Start() {
  MORSEL_CHECK_MSG(!running(), "server already started");
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return false;
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  // Loopback only: this is a front door for local benchmarking and
  // tests, not a hardened public listener.
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(opts_.port));
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
      listen(listen_fd_, opts_.backlog) < 0) {
    close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  sockaddr_in bound{};
  socklen_t blen = sizeof bound;
  getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &blen);
  port_ = ntohs(bound.sin_port);
  running_.store(true, std::memory_order_release);
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void Server::AcceptLoop() {
  while (running_.load(std::memory_order_acquire)) {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (!running_.load(std::memory_order_acquire)) break;
      continue;  // EINTR / transient
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    std::lock_guard<std::mutex> lk(mu_);
    ReapFinishedLocked();
    if (static_cast<int>(sessions_.size()) >= opts_.max_sessions) {
      sessions_rejected_.fetch_add(1, std::memory_order_relaxed);
      WireWriter w(MsgType::kError);
      w.I32(StatusCodeToWire(StatusCode::kAdmissionRejected));
      w.Str("server session limit reached");
      SendFrame(fd, w.Finish());
      close(fd);
      continue;
    }
    sessions_accepted_.fetch_add(1, std::memory_order_relaxed);
    SessionSlot slot;
    slot.session = std::make_unique<Session>(
        this, fd, next_session_id_.fetch_add(1, std::memory_order_relaxed));
    Session* s = slot.session.get();
    slot.thread = std::thread([s] { s->Run(); });
    sessions_.push_back(std::move(slot));
  }
}

void Server::ReapFinishedLocked() {
  for (size_t i = 0; i < sessions_.size();) {
    if (sessions_[i].session->finished()) {
      sessions_[i].thread.join();
      sessions_.erase(sessions_.begin() + static_cast<long>(i));
    } else {
      ++i;
    }
  }
}

void Server::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // Unblock the acceptor, then the sessions. shutdown() (not close)
  // wakes a thread parked in accept/recv without invalidating the fd
  // under it.
  shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  close(listen_fd_);
  listen_fd_ = -1;
  std::lock_guard<std::mutex> lk(mu_);
  for (SessionSlot& slot : sessions_) slot.session->Shutdown();
  for (SessionSlot& slot : sessions_) {
    if (slot.thread.joinable()) slot.thread.join();
  }
  sessions_.clear();
}

Server::Stats Server::stats() const {
  Stats s;
  s.sessions_accepted = sessions_accepted_.load(std::memory_order_relaxed);
  s.sessions_rejected = sessions_rejected_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  s.queries_executed = queries_executed_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace morsel::server
