// Query-serving front end (DESIGN.md §12): the TCP session server,
// wire framing, prepared-statement cache and admission controller.
//  - wire: writer/reader round-trip, overrun safety;
//  - admission: cap + priority queue (FIFO within a class), timeout,
//    shed, memory reservations;
//  - fingerprint/cache: structural identity, literal sensitivity,
//    stability across epoch refreshes, server-wide deduplication;
//  - TakeResult is single-shot under two concurrent waiters;
//  - end-to-end over real sockets: PREPARE/EXECUTE/FETCH matches a
//    direct Execute, pagination, cancel, malformed/oversized frames,
//    half-open reaping, client death mid-EXECUTE draining to the
//    NumaAllocatedBytes() baseline, overload shedding with structured
//    codes, and the chaos suite's seeded faults through the full
//    network path.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "numa/allocator.h"
#include "server/admission.h"
#include "server/client.h"
#include "server/server.h"
#include "server/stmt_cache.h"
#include "server/wire.h"
#include "test_util.h"

namespace morsel {
namespace {

using server::AdmissionController;
using server::AdmissionOptions;
using server::Client;
using server::MsgType;
using server::ReadResult;
using server::Server;
using server::ServerOptions;
using server::SessionLimits;
using server::StatementCache;
using server::WireReader;
using server::WireWriter;
using testutil::SmallTopo;
using testutil::SortedRows;

constexpr int64_t kFactRows = 60000;
constexpr int64_t kKeyRange = 256;

// Engine + table shared by the socket tests (static: sessions hold
// pointers into them across threads).
Engine& ServeEngine() {
  static Engine* engine = [] {
    EngineOptions opts;
    opts.morsel_size = 512;
    return new Engine(SmallTopo(), opts);
  }();
  return *engine;
}

const Table* Fact() {
  static Table* t = [] {
    std::vector<std::pair<int64_t, int64_t>> rows;
    for (int64_t i = 0; i < kFactRows; ++i) {
      rows.push_back({i % kKeyRange, i});
    }
    return testutil::MakeKv(SmallTopo(), rows, "k", "v").release();
  }();
  return t;
}

LogicalPlan ScanLtPlan(int64_t bound = 100) {
  PlanBuilder pb = PlanBuilder::Scan(Fact(), {"k", "v"});
  pb.Filter(Lt(pb.Col("k"), ConstI64(bound)));
  pb.CollectResult();
  return pb.Build();
}

LogicalPlan SortPlan() {
  // Sorts call CheckQueryInterrupt inside their element loops, so this
  // statement is the one stall/deadline injection can reliably stretch
  // (scan/filter morsels only hit hand-out-time checkpoints).
  PlanBuilder pb = PlanBuilder::Scan(Fact(), {"k", "v"});
  pb.OrderBy({{"v", /*ascending=*/true}});
  return pb.Build();
}

LogicalPlan AggPlan() {
  PlanBuilder pb = PlanBuilder::Scan(Fact(), {"k", "v"});
  std::vector<AggItem> aggs;
  aggs.push_back({AggFunc::kCount, nullptr, "n"});
  aggs.push_back({AggFunc::kSum, pb.Col("v"), "sv"});
  pb.GroupBy({"k"}, std::move(aggs));
  pb.CollectResult();
  return pb.Build();
}

// --- wire framing ------------------------------------------------------------

TEST(Wire, WriterReaderRoundTrip) {
  WireWriter w(MsgType::kRows);
  w.U8(7);
  w.U16(65535);
  w.U32(123456789u);
  w.U64(0xdeadbeefcafef00dull);
  w.I32(-5);
  w.I64(INT64_MIN);
  w.F64(3.5);
  w.Str("hello, wire");
  w.Str("");
  const std::string frame = w.Finish();
  // Frame layout: u32 LE length (type byte + payload), u8 type, payload.
  ASSERT_GE(frame.size(), 5u);
  uint32_t len = 0;
  std::memcpy(&len, frame.data(), 4);
  EXPECT_EQ(len, frame.size() - 4);
  EXPECT_EQ(static_cast<uint8_t>(frame[4]),
            static_cast<uint8_t>(MsgType::kRows));

  WireReader r(reinterpret_cast<const uint8_t*>(frame.data()) + 5,
               frame.size() - 5);
  EXPECT_EQ(r.U8(), 7);
  EXPECT_EQ(r.U16(), 65535);
  EXPECT_EQ(r.U32(), 123456789u);
  EXPECT_EQ(r.U64(), 0xdeadbeefcafef00dull);
  EXPECT_EQ(r.I32(), -5);
  EXPECT_EQ(r.I64(), INT64_MIN);
  EXPECT_EQ(r.F64(), 3.5);
  EXPECT_EQ(r.Str(), "hello, wire");
  EXPECT_EQ(r.Str(), "");
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
}

TEST(Wire, ReaderOverrunIsSticky) {
  const uint8_t buf[3] = {1, 2, 3};
  WireReader r(buf, sizeof buf);
  EXPECT_EQ(r.U16(), 0x0201);
  r.U64();  // only 1 byte left
  EXPECT_FALSE(r.ok());
  // Every further read stays failed and returns zero values.
  EXPECT_EQ(r.U32(), 0u);
  EXPECT_EQ(r.Str(), "");
  EXPECT_FALSE(r.ok());
}

TEST(Wire, ReaderStrLengthBeyondBufferFails) {
  // A declared string length larger than the remaining bytes must not
  // read out of bounds.
  WireWriter w(MsgType::kOk);
  w.U32(1000);  // claims a 1000-byte string...
  w.U8('x');    // ...but only one byte follows
  const std::string frame = w.Finish();
  WireReader r(reinterpret_cast<const uint8_t*>(frame.data()) + 5,
               frame.size() - 5);
  EXPECT_EQ(r.Str(), "");
  EXPECT_FALSE(r.ok());
}

// --- admission control -------------------------------------------------------

TEST(Admission, CapThenFifoReleaseAdmitsWaiter) {
  AdmissionOptions opts;
  opts.max_concurrent = 2;
  opts.queue_timeout_ms = 5000;
  AdmissionController ac(opts);
  bool queued = false;
  ASSERT_TRUE(ac.Admit(0, 1.0, &queued).ok());
  EXPECT_FALSE(queued);
  ASSERT_TRUE(ac.Admit(0, 1.0, &queued).ok());
  EXPECT_FALSE(queued);

  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    bool q = false;
    QueryStatus st = ac.Admit(0, 1.0, &q);
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_TRUE(q);
    admitted.store(true);
  });
  // The waiter must actually wait until a slot frees.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(admitted.load());
  EXPECT_EQ(ac.stats().waiting, 1);
  ac.Release(0);
  waiter.join();
  EXPECT_TRUE(admitted.load());

  AdmissionController::Stats s = ac.stats();
  EXPECT_EQ(s.admitted, 3u);
  EXPECT_EQ(s.queued, 1u);
  EXPECT_EQ(s.running, 2);
  EXPECT_EQ(s.waiting, 0);
  ac.Release(0);
  ac.Release(0);
  EXPECT_EQ(ac.stats().running, 0);
}

TEST(Admission, PriorityOrdersWaitersFifoWithinClass) {
  AdmissionOptions opts;
  opts.max_concurrent = 1;
  opts.queue_timeout_ms = 5000;
  AdmissionController ac(opts);
  ASSERT_TRUE(ac.Admit(0).ok());  // occupy the only slot

  // Three waiters arrive in order: low, high #1, high #2. Slots must go
  // high #1, high #2, low — priority first, FIFO within a class.
  std::mutex mu;
  std::vector<int> admitted_order;
  std::atomic<int> waiting{0};
  auto waiter = [&](int id, double prio) {
    ++waiting;
    QueryStatus st = ac.Admit(0, prio);
    ASSERT_TRUE(st.ok()) << st.ToString();
    {
      std::lock_guard<std::mutex> lk(mu);
      admitted_order.push_back(id);
    }
    ac.Release(0);
  };
  std::thread low(waiter, 0, 1.0);
  while (ac.stats().waiting < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::thread high1(waiter, 1, 8.0);
  while (ac.stats().waiting < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::thread high2(waiter, 2, 8.0);
  while (ac.stats().waiting < 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  ac.Release(0);  // free the slot; waiters chain-release afterwards
  low.join();
  high1.join();
  high2.join();
  EXPECT_EQ(admitted_order, (std::vector<int>{1, 2, 0}));
  EXPECT_EQ(ac.stats().running, 0);
}

TEST(Admission, QueueTimeoutSurfacesStructuredCode) {
  AdmissionOptions opts;
  opts.max_concurrent = 1;
  opts.queue_timeout_ms = 50;
  AdmissionController ac(opts);
  ASSERT_TRUE(ac.Admit(0).ok());
  QueryStatus st = ac.Admit(0);
  EXPECT_EQ(st.code, StatusCode::kAdmissionTimeout) << st.ToString();
  EXPECT_EQ(ac.stats().timed_out, 1u);
  EXPECT_EQ(ac.stats().waiting, 0);  // the expired ticket left the queue
  ac.Release(0);
  // The slot is usable again after the timed-out waiter cleaned up.
  EXPECT_TRUE(ac.Admit(0).ok());
  ac.Release(0);
}

TEST(Admission, FullQueueRejectsImmediately) {
  AdmissionOptions opts;
  opts.max_concurrent = 1;
  opts.max_queued = 0;
  opts.queue_timeout_ms = 60'000;  // must not be reached
  AdmissionController ac(opts);
  ASSERT_TRUE(ac.Admit(0).ok());
  const auto t0 = std::chrono::steady_clock::now();
  QueryStatus st = ac.Admit(0);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(st.code, StatusCode::kAdmissionRejected) << st.ToString();
  EXPECT_LT(elapsed, std::chrono::seconds(10));
  EXPECT_EQ(ac.stats().rejected, 1u);
  ac.Release(0);
}

TEST(Admission, ImpossibleReservationRejectsEvenWhenIdle) {
  AdmissionOptions opts;
  opts.max_reserved_bytes = 1000;
  AdmissionController ac(opts);
  QueryStatus st = ac.Admit(2000);
  EXPECT_EQ(st.code, StatusCode::kAdmissionRejected) << st.ToString();
  EXPECT_EQ(ac.stats().rejected, 1u);
  EXPECT_EQ(ac.stats().running, 0);
}

TEST(Admission, MemoryReservationGatesIndependentlyOfSlots) {
  AdmissionOptions opts;
  opts.max_concurrent = 8;
  opts.max_reserved_bytes = 1000;
  opts.queue_timeout_ms = 50;
  AdmissionController ac(opts);
  ASSERT_TRUE(ac.Admit(800).ok());
  // Fits the slot cap but not the remaining memory: waits, then times
  // out (the reservation is possible in principle, so no hard reject).
  EXPECT_EQ(ac.Admit(400).code, StatusCode::kAdmissionTimeout);
  ac.Release(800);
  EXPECT_TRUE(ac.Admit(400).ok());
  EXPECT_EQ(ac.stats().reserved_bytes, 400);
  ac.Release(400);
  EXPECT_EQ(ac.stats().reserved_bytes, 0);
}

// --- plan fingerprints & statement cache -------------------------------------

TEST(PlanFingerprintTest, StructuralIdentityAndLiteralSensitivity) {
  const uint64_t a = PlanFingerprint(ScanLtPlan(100));
  const uint64_t b = PlanFingerprint(ScanLtPlan(100));
  EXPECT_EQ(a, b) << "identical plans must collide";
  // A literal is part of the statement: x < 100 and x < 101 are
  // different cache keys.
  EXPECT_NE(a, PlanFingerprint(ScanLtPlan(101)));
  // Different shapes diverge too.
  EXPECT_NE(a, PlanFingerprint(AggPlan()));
  // Same shape over a different table diverges (identity by table).
  auto other = testutil::MakeKv(SmallTopo(), {{1, 2}, {3, 4}}, "k", "v");
  PlanBuilder pb = PlanBuilder::Scan(other.get(), {"k", "v"});
  pb.Filter(Lt(pb.Col("k"), ConstI64(100)));
  pb.CollectResult();
  EXPECT_NE(a, PlanFingerprint(pb.Build()));
}

TEST(PlanFingerprintTest, StableAcrossEpochRefresh) {
  // Scan statistics and epoch snapshots are refreshed by RefreshScanStats
  // when a table seals new data; the fingerprint must not move, or every
  // bulk load would orphan the whole statement cache.
  auto t = testutil::MakeKv(SmallTopo(), {{1, 2}, {3, 4}}, "k", "v");
  auto make_plan = [&] {
    PlanBuilder pb = PlanBuilder::Scan(t.get(), {"k", "v"});
    pb.Filter(Lt(pb.Col("k"), ConstI64(3)));
    pb.CollectResult();
    return pb.Build();
  };
  const uint64_t before = PlanFingerprint(make_plan());
  t->Int64Col(0, 0)->Append(9);
  t->Int64Col(0, 1)->Append(9);
  t->SealPartition(0);  // epoch moves, stats change
  EXPECT_EQ(before, PlanFingerprint(make_plan()));
}

TEST(StatementCacheTest, DeduplicatesByFingerprint) {
  StatementCache cache(&ServeEngine());
  bool hit = true;
  auto e1 = cache.GetOrPrepare(ScanLtPlan(100), &hit);
  EXPECT_FALSE(hit);
  auto e2 = cache.GetOrPrepare(ScanLtPlan(100), &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(e1.get(), e2.get()) << "same statement must share one entry";
  auto e3 = cache.GetOrPrepare(ScanLtPlan(101), &hit);
  EXPECT_FALSE(hit);
  EXPECT_NE(e1.get(), e3.get());
  StatementCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.entries, 2u);
  // The shared entry captured the output schema.
  ASSERT_EQ(e1->names.size(), 2u);
  EXPECT_EQ(e1->names[0], "k");
  EXPECT_EQ(e1->types[0], LogicalType::kInt64);
}

// --- TakeResult single-shot (two concurrent waiters) -------------------------

TEST(QueryResult, TakeResultIsSingleShotAcrossTwoWaiters) {
  // Two consumers race Wait + TakeResult on one query: exactly one gets
  // the rows, the other gets an empty kInternal result — never a double
  // move of the underlying buffers, never a hang.
  for (int round = 0; round < 8; ++round) {
    std::unique_ptr<Query> q =
        ServeEngine().CreateQuery(ScanLtPlan(100));
    q->Start();
    std::atomic<int> winners{0};
    std::atomic<int> losers{0};
    auto consume = [&] {
      q->Wait();
      ResultSet r = q->TakeResult();
      if (r.ok() && r.num_rows() > 0) {
        winners.fetch_add(1);
      } else {
        EXPECT_EQ(r.status().code, StatusCode::kInternal)
            << r.status().ToString();
        EXPECT_EQ(r.num_rows(), 0);
        losers.fetch_add(1);
      }
    };
    std::thread t1(consume), t2(consume);
    t1.join();
    t2.join();
    EXPECT_EQ(winners.load(), 1);
    EXPECT_EQ(losers.load(), 1);
  }
}

// --- end-to-end over sockets -------------------------------------------------

class ServerFixture {
 public:
  explicit ServerFixture(ServerOptions opts = {}) {
    server_ = std::make_unique<Server>(&ServeEngine(), std::move(opts));
    server_->RegisterStatement("scan_lt", ScanLtPlan(100));
    server_->RegisterStatement("agg_by_k", AggPlan());
    server_->RegisterStatement("sort_v", SortPlan());
    EXPECT_TRUE(server_->Start());
  }
  ~ServerFixture() { server_->Stop(); }
  Server& server() { return *server_; }
  int port() const { return server_->port(); }

 private:
  std::unique_ptr<Server> server_;
};

TEST(ServerTest, PrepareExecuteFetchMatchesDirectExecution) {
  ServerFixture fx;
  Client c;
  ASSERT_TRUE(c.Connect(fx.port()).ok());

  Client::Prepared p = c.Prepare("scan_lt");
  ASSERT_TRUE(p.status.ok()) << p.status.ToString();
  ASSERT_EQ(p.col_names.size(), 2u);
  EXPECT_EQ(p.col_names[0], "k");
  EXPECT_EQ(p.col_names[1], "v");
  EXPECT_EQ(p.col_types[0], LogicalType::kInt64);

  Client::Executing e = c.Execute(p.stmt_id);
  ASSERT_TRUE(e.status.ok()) << e.status.ToString();
  Client::RowBatch rb = c.Fetch(e.query_id);
  ASSERT_TRUE(rb.status.ok()) << rb.status.ToString();
  EXPECT_TRUE(rb.done);

  // Differential against a direct in-process execution.
  ResultSet direct = ServeEngine().CreateQuery(ScanLtPlan(100))->Execute();
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(rb.num_rows, direct.num_rows());
  ASSERT_EQ(rb.cols.size(), 2u);
  int64_t wire_k = 0, wire_v = 0, direct_k = 0, direct_v = 0;
  for (int64_t i = 0; i < rb.num_rows; ++i) {
    wire_k += rb.cols[0].ints[i];
    wire_v += rb.cols[1].ints[i];
    direct_k += direct.I64(i, 0);
    direct_v += direct.I64(i, 1);
  }
  EXPECT_EQ(wire_k, direct_k);
  EXPECT_EQ(wire_v, direct_v);

  // A second session preparing the same statement hits the shared cache.
  Client c2;
  ASSERT_TRUE(c2.Connect(fx.port()).ok());
  Client::Prepared p2 = c2.Prepare("scan_lt");
  ASSERT_TRUE(p2.status.ok());
  EXPECT_TRUE(p2.cache_hit);
  EXPECT_EQ(p2.fingerprint, p.fingerprint);
  c2.Close();
  c.Close();
  EXPECT_GE(fx.server().stats().queries_executed, 1u);
}

TEST(ServerTest, FetchPaginatesWithCursor) {
  ServerFixture fx;
  Client c;
  ASSERT_TRUE(c.Connect(fx.port()).ok());
  Client::Prepared p = c.Prepare("agg_by_k");
  ASSERT_TRUE(p.status.ok());
  Client::Executing e = c.Execute(p.stmt_id);
  ASSERT_TRUE(e.status.ok());

  int64_t total = 0;
  int batches = 0;
  while (true) {
    Client::RowBatch rb = c.Fetch(e.query_id, /*max_rows=*/100);
    ASSERT_TRUE(rb.status.ok()) << rb.status.ToString();
    EXPECT_LE(rb.num_rows, 100);
    total += rb.num_rows;
    ++batches;
    if (rb.done) break;
    ASSERT_LT(batches, 100) << "pagination failed to terminate";
  }
  EXPECT_EQ(total, kKeyRange);  // one group per key
  EXPECT_GE(batches, 3);
  // The cursor is spent: the query id is gone after the final page.
  Client::RowBatch again = c.Fetch(e.query_id, 100);
  EXPECT_FALSE(again.status.ok());
  c.Close();
}

TEST(ServerTest, CancelAndUnknownIdsAreStructuredErrors) {
  ServerFixture fx;
  Client c;
  ASSERT_TRUE(c.Connect(fx.port()).ok());
  Client::Prepared p = c.Prepare("scan_lt");
  ASSERT_TRUE(p.status.ok());

  // Cancel an in-flight query: the slot drains and the id disappears.
  Client::Executing e = c.Execute(p.stmt_id);
  ASSERT_TRUE(e.status.ok());
  EXPECT_TRUE(c.Cancel(e.query_id).ok());
  EXPECT_FALSE(c.Fetch(e.query_id).status.ok());
  // Cancel of an unknown (e.g. already-drained) id is benign.
  EXPECT_TRUE(c.Cancel(e.query_id).ok());

  // Unknown statement names and ids come back as errors, with the
  // session still usable afterwards.
  EXPECT_FALSE(c.Prepare("no_such_statement").status.ok());
  EXPECT_FALSE(c.Execute(9999).status.ok());
  Client::Executing ok_again = c.Execute(p.stmt_id);
  EXPECT_TRUE(ok_again.status.ok());
  Client::RowBatch rb = c.Fetch(ok_again.query_id);
  EXPECT_TRUE(rb.status.ok());
  c.Close();
}

TEST(ServerTest, MalformedFramesCountAndCloseTheSession) {
  ServerFixture fx;
  const uint64_t before = fx.server().stats().protocol_errors;

  {
    // Unknown message type: the server answers with an error frame and
    // hangs up.
    Client c;
    ASSERT_TRUE(c.Connect(fx.port()).ok());
    WireWriter w(static_cast<MsgType>(99));
    w.U32(0);
    const std::string frame = w.Finish();
    ASSERT_TRUE(c.SendRaw(frame.data(), frame.size()));
    uint8_t type = 0;
    std::vector<uint8_t> payload;
    ASSERT_EQ(c.ReadResponse(&type, &payload, 2000), ReadResult::kOk);
    EXPECT_EQ(type, static_cast<uint8_t>(MsgType::kError));
    EXPECT_EQ(c.ReadResponse(&type, &payload, 2000), ReadResult::kEof);
  }
  {
    // Well-typed frame with a short payload: handler-level validation.
    Client c;
    ASSERT_TRUE(c.Connect(fx.port()).ok());
    WireWriter w(MsgType::kExecute);
    w.U32(1);  // EXECUTE requires stmt_id + overrides; this is truncated
    const std::string frame = w.Finish();
    ASSERT_TRUE(c.SendRaw(frame.data(), frame.size()));
    uint8_t type = 0;
    std::vector<uint8_t> payload;
    ASSERT_EQ(c.ReadResponse(&type, &payload, 2000), ReadResult::kOk);
    EXPECT_EQ(type, static_cast<uint8_t>(MsgType::kError));
  }
  {
    // Truncated frame then abrupt close: EOF mid-frame.
    Client c;
    ASSERT_TRUE(c.Connect(fx.port()).ok());
    const uint8_t partial[6] = {200, 0, 0, 0,
                                static_cast<uint8_t>(MsgType::kPrepare), 1};
    ASSERT_TRUE(c.SendRaw(partial, sizeof partial));
    c.Kill();
  }
  // Give the sessions a beat to account their exits.
  for (int i = 0; i < 100 && fx.server().stats().protocol_errors < before + 3;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(fx.server().stats().protocol_errors, before + 3);
}

TEST(ServerTest, OversizedFrameIsDroppedWithoutAllocation) {
  ServerFixture fx;
  Client c;
  ASSERT_TRUE(c.Connect(fx.port()).ok());
  // Declare a payload beyond kMaxFramePayload; the server must refuse
  // before buffering any of it.
  const uint32_t huge = server::kMaxFramePayload + 1;
  uint8_t header[5];
  std::memcpy(header, &huge, 4);
  header[4] = static_cast<uint8_t>(MsgType::kPrepare);
  ASSERT_TRUE(c.SendRaw(header, sizeof header));
  uint8_t type = 0;
  std::vector<uint8_t> payload;
  EXPECT_EQ(c.ReadResponse(&type, &payload, 2000), ReadResult::kEof);
  for (int i = 0; i < 100 && fx.server().stats().protocol_errors < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(fx.server().stats().protocol_errors, 1u);
}

TEST(ServerTest, HalfOpenConnectionIsReaped) {
  ServerOptions opts;
  opts.idle_timeout_ms = 100;
  ServerFixture fx(std::move(opts));
  Client c;
  ASSERT_TRUE(c.Connect(fx.port()).ok());
  // Say nothing. The peer never FINs (from the server's view the client
  // may be a dead host); the idle reaper must tear the session down.
  uint8_t type = 0;
  std::vector<uint8_t> payload;
  EXPECT_EQ(c.ReadResponse(&type, &payload, 5000), ReadResult::kEof);
}

TEST(ServerTest, SessionLimitRejectsThenRecovers) {
  ServerOptions opts;
  opts.max_sessions = 1;
  ServerFixture fx(std::move(opts));
  Client a;
  ASSERT_TRUE(a.Connect(fx.port()).ok());
  Client b;
  QueryStatus st = b.Connect(fx.port());
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code, StatusCode::kAdmissionRejected) << st.ToString();
  EXPECT_GE(fx.server().stats().sessions_rejected, 1u);
  a.Close();
  // Finished sessions are reaped on the accept path, so a retry goes
  // through once the old session thread has wound down.
  bool reconnected = false;
  for (int i = 0; i < 200 && !reconnected; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    reconnected = b.Connect(fx.port()).ok();
  }
  EXPECT_TRUE(reconnected);
  b.Close();
}

TEST(ServerTest, ClientKillMidExecuteDrainsToMemoryBaseline) {
  Fact();  // materialize the shared table before taking the baseline
  const size_t baseline = NumaAllocatedBytes();
  {
    ServerOptions opts;
    // Stalls slow the query down (benign chaos mode 3) so the kill
    // reliably lands mid-execution.
    opts.fault_injection.enabled = true;
    opts.fault_injection.seed = 17;
    opts.fault_injection.stall_every_checks = 4;
    opts.fault_injection.stall_us = 200;
    ServerFixture fx(std::move(opts));
    Client c;
    ASSERT_TRUE(c.Connect(fx.port()).ok());
    Client::Prepared p = c.Prepare("agg_by_k");
    ASSERT_TRUE(p.status.ok());
    Client::Executing e = c.Execute(p.stmt_id);
    ASSERT_TRUE(e.status.ok());
    // Vanish without a goodbye while the query runs. The session must
    // notice the EOF, cancel the in-flight query via the drain path,
    // and release its operator state and admission reservation.
    c.Kill();
    // Fixture teardown: Stop() joins the session after it drained.
  }
  EXPECT_EQ(NumaAllocatedBytes(), baseline)
      << "abandoned query leaked operator memory";
}

TEST(ServerTest, OverloadShedsWithStructuredCodes) {
  ServerOptions opts;
  opts.admission.max_concurrent = 1;
  opts.admission.max_queued = 0;  // shed, don't queue
  opts.fault_injection.enabled = true;
  opts.fault_injection.seed = 3;
  opts.fault_injection.stall_every_checks = 2;
  opts.fault_injection.stall_us = 500;
  ServerFixture fx(std::move(opts));

  Client a, b;
  ASSERT_TRUE(a.Connect(fx.port()).ok());
  ASSERT_TRUE(b.Connect(fx.port()).ok());
  Client::Prepared pa = a.Prepare("scan_lt");
  Client::Prepared pb = b.Prepare("scan_lt");
  ASSERT_TRUE(pa.status.ok());
  ASSERT_TRUE(pb.status.ok());

  Client::Executing ea = a.Execute(pa.stmt_id);
  ASSERT_TRUE(ea.status.ok());
  // The slot is held until a's query is destroyed; b is shed with a
  // structured retryable code, not a hang and not a protocol error.
  Client::Executing eb = b.Execute(pb.stmt_id);
  ASSERT_FALSE(eb.status.ok());
  EXPECT_EQ(eb.status.code, StatusCode::kAdmissionRejected)
      << eb.status.ToString();

  // a drains; the slot frees; b can run.
  EXPECT_TRUE(a.Fetch(ea.query_id).status.ok());
  bool ran = false;
  for (int i = 0; i < 100 && !ran; ++i) {
    Client::Executing retry = b.Execute(pb.stmt_id);
    if (retry.status.ok()) {
      EXPECT_TRUE(b.Fetch(retry.query_id).status.ok());
      ran = true;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(ran);
  a.Close();
  b.Close();
}

TEST(ServerTest, ChaosSeedsSurfaceStructuredErrorsOverTheWire) {
  Fact();
  const size_t baseline = NumaAllocatedBytes();
  {
    // Chaos mode 0: the Nth governed allocation throws. The failure
    // must arrive as a structured error frame, not a dead socket.
    ServerOptions opts;
    opts.fault_injection.enabled = true;
    opts.fault_injection.seed = 29;  // chaos suite seed shape
    opts.fault_injection.fail_alloc_nth = 3;
    ServerFixture fx(std::move(opts));
    Client c;
    ASSERT_TRUE(c.Connect(fx.port()).ok());
    Client::Prepared p = c.Prepare("agg_by_k");
    ASSERT_TRUE(p.status.ok());
    Client::Executing e = c.Execute(p.stmt_id);
    ASSERT_TRUE(e.status.ok());
    Client::RowBatch rb = c.Fetch(e.query_id);
    ASSERT_FALSE(rb.status.ok());
    EXPECT_EQ(rb.status.code, StatusCode::kMemoryExceeded)
        << rb.status.ToString();
    // The session survives a failed query.
    Client::Executing e2 = c.Execute(p.stmt_id);
    EXPECT_TRUE(e2.status.ok());
    c.Close();
  }
  {
    // Chaos mode 2: a forced deadline expiry mid-query.
    ServerOptions opts;
    opts.fault_injection.enabled = true;
    opts.fault_injection.seed = 31;
    opts.fault_injection.deadline_within_morsels = 20;
    ServerFixture fx(std::move(opts));
    Client c;
    ASSERT_TRUE(c.Connect(fx.port()).ok());
    Client::Prepared p = c.Prepare("scan_lt");
    ASSERT_TRUE(p.status.ok());
    Client::Executing e = c.Execute(p.stmt_id);
    ASSERT_TRUE(e.status.ok());
    Client::RowBatch rb = c.Fetch(e.query_id);
    ASSERT_FALSE(rb.status.ok());
    EXPECT_EQ(rb.status.code, StatusCode::kDeadlineExceeded)
        << rb.status.ToString();
    c.Close();
  }
  EXPECT_EQ(NumaAllocatedBytes(), baseline)
      << "failed queries leaked operator memory";
}

TEST(ServerTest, SessionDeadlineDefaultAppliesToQueries) {
  ServerOptions opts;
  opts.fault_injection.enabled = true;
  opts.fault_injection.seed = 5;
  opts.fault_injection.stall_every_checks = 1;
  opts.fault_injection.stall_us = 2000;
  ServerFixture fx(std::move(opts));
  Client c;
  SessionLimits limits;
  limits.deadline_ms = 20;  // far below the stalled sort's runtime
  ASSERT_TRUE(c.Connect(fx.port(), limits).ok());
  Client::Prepared p = c.Prepare("sort_v");
  ASSERT_TRUE(p.status.ok());
  Client::Executing e = c.Execute(p.stmt_id);
  ASSERT_TRUE(e.status.ok());
  Client::RowBatch rb = c.Fetch(e.query_id);
  ASSERT_FALSE(rb.status.ok());
  EXPECT_EQ(rb.status.code, StatusCode::kDeadlineExceeded)
      << rb.status.ToString();
  c.Close();
}

// --- statement-cache staleness under a live writer ---------------------------

TEST(ServerTest, CacheHitReResolvesWhenWriterSealsMidStream) {
  // A writer thread bulk-loads and seals partitions while reader
  // threads execute cache-hit statements. Storage requires seals to be
  // externally synchronized against scans (single-writer contract), so
  // the test brokers that with a shared_mutex; what is under test is
  // the staleness protocol above it: every MakeQuery on the shared
  // cached PreparedQuery must notice the advanced Table::epoch(),
  // re-resolve via RefreshScanStats, and return a full sealed snapshot
  // — never a stale splice, never a torn batch.
  constexpr int64_t kBatch = 4000;
  constexpr int64_t kBatches = 8;
  constexpr int64_t kInitial = 8000;
  constexpr int64_t kFinal = kInitial + kBatch * kBatches;

  EngineOptions eopts;
  eopts.morsel_size = 512;
  Engine engine(SmallTopo(), eopts);
  Schema schema({{"k", LogicalType::kInt64}, {"v", LogicalType::kInt64}});
  Table table("stream", schema, SmallTopo());
  const int nparts = table.num_partitions();
  for (int p = 0; p < nparts; ++p) {
    // Reserve final capacity up front so appends never reallocate the
    // column storage mid-run.
    table.Int64Col(p, 0)->Reserve(static_cast<size_t>(kFinal));
    table.Int64Col(p, 1)->Reserve(static_cast<size_t>(kFinal));
  }
  int64_t next_row = 0;
  auto append_rows = [&](int64_t n) {
    for (int64_t i = 0; i < n; ++i, ++next_row) {
      int p = static_cast<int>(next_row % nparts);
      table.Int64Col(p, 0)->Append(next_row);
      table.Int64Col(p, 1)->Append(next_row * 2);
    }
    for (int p = 0; p < nparts; ++p) table.SealPartition(p);
  };
  append_rows(kInitial);

  auto make_plan = [&] {
    PlanBuilder pb = PlanBuilder::Scan(&table, {"k", "v"});
    pb.Filter(Ge(pb.Col("k"), ConstI64(0)));  // all rows
    pb.CollectResult();
    return pb.Build();
  };
  StatementCache cache(&engine);
  auto entry = cache.GetOrPrepare(make_plan());

  std::shared_mutex storage_mu;  // scans shared, seal exclusive
  std::atomic<bool> writing{true};
  std::atomic<int64_t> relowers_observed{0};

  std::thread writer([&] {
    for (int64_t b = 0; b < kBatches; ++b) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      std::unique_lock lk(storage_mu);
      append_rows(kBatch);
    }
    writing.store(false, std::memory_order_release);
  });

  auto reader = [&] {
    int64_t last = 0;
    while (writing.load(std::memory_order_acquire) || last < kFinal) {
      std::shared_lock lk(storage_mu);
      auto q = entry->prepared.MakeQuery();
      ResultSet r = q->Execute();
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      const int64_t n = r.num_rows();
      // Always a complete sealed snapshot: a batch multiple, never
      // shrinking, never beyond what the writer has sealed.
      EXPECT_EQ((n - kInitial) % kBatch, 0) << "torn batch: " << n;
      EXPECT_GE(n, last) << "snapshot went backwards";
      EXPECT_LE(n, kFinal);
      if (n > last) relowers_observed.fetch_add(1);
      last = n;
      lk.unlock();
      // A concurrent PREPARE of the same statement keeps hitting the
      // cache while the epochs churn.
      bool hit = false;
      cache.GetOrPrepare(make_plan(), &hit);
      EXPECT_TRUE(hit);
    }
    EXPECT_EQ(last, kFinal);
  };
  std::thread r1(reader), r2(reader);
  writer.join();
  r1.join();
  r2.join();
  // The cached plan really did re-resolve across epochs (at least the
  // final advance was observed by each reader).
  EXPECT_GE(relowers_observed.load(), 2);
  EXPECT_EQ(cache.stats().entries, 1u);
}

}  // namespace
}  // namespace morsel
