// Tests of query resource governance: admission control (api/governor.h),
// cooperative cancellation / deadlines / row and memory budgets
// (exec/query_context.h) across the sequential, morsel-parallel and
// recursive-fixpoint execution paths, SYS$QUERIES, and the governor.*
// metrics.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/database.h"
#include "api/governor.h"
#include "exec/query_context.h"
#include "obs/metrics.h"
#include "tests/paper_db.h"

namespace xnfdb {
namespace {

// A context whose deadline is already in the past: any governed execution
// must fail its very first cooperative check, regardless of how fast the
// query would otherwise be. This makes deadline tests deterministic.
std::shared_ptr<QueryContext> ExpiredContext() {
  auto ctx = std::make_shared<QueryContext>();
  QueryLimits limits;
  limits.deadline_us = QueryContext::NowUs() - 1;
  ctx->SetLimits(limits);
  return ctx;
}

bool IsTerminal(const Status& s) {
  return s.ok() || s.IsGovernorTermination();
}

// Loads a table large enough that budgets trip mid-execution rather than
// never (several thousand rows across multiple morsels).
void LoadWide(Database* db, int rows) {
  ASSERT_TRUE(db->Execute("CREATE TABLE WIDE (K INTEGER, PAYLOAD VARCHAR)")
                  .ok());
  std::string script;
  for (int i = 0; i < rows; ++i) {
    script += "INSERT INTO WIDE VALUES (" + std::to_string(i) +
              ", 'payload-payload-payload-" + std::to_string(i) + "');";
  }
  ASSERT_TRUE(db->ExecuteScript(script).ok());
}

TEST(GovernorTest, ExpiredDeadlineTerminatesSequentialQuery) {
  Database db;
  ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
  ExecOptions eo;
  eo.context = ExpiredContext();
  Result<QueryResult> r = db.Query("SELECT * FROM EMP", {}, eo);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
      << r.status().ToString();
  // The termination reports how far execution got.
  EXPECT_NE(r.status().ToString().find("rows produced"), std::string::npos);
}

TEST(GovernorTest, ExpiredDeadlineTerminatesParallelAndMorselQueries) {
  Database db;
  ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
  {
    ExecOptions eo;
    eo.morsel_workers = 4;
    eo.morsel_rows = 2;
    eo.context = ExpiredContext();
    Result<QueryResult> r = db.Query(testing_util::kDepsArcQuery, {}, eo);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
        << r.status().ToString();
  }
  {
    ExecOptions eo;
    eo.morsel_workers = 4;
    eo.morsel_rows = 2;
    eo.context = ExpiredContext();
    Result<QueryResult> r = db.Query("SELECT * FROM EMP WHERE SAL > 0", {}, eo);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
        << r.status().ToString();
  }
}

TEST(GovernorTest, ExpiredDeadlineTerminatesFixpointQuery) {
  Database db;
  Result<size_t> loaded = db.ExecuteScript(R"sql(
    CREATE TABLE PART (PNO INTEGER, PNAME VARCHAR, PRIMARY KEY (PNO));
    CREATE TABLE USAGE (ASSEMBLY INTEGER, COMPONENT INTEGER);
    INSERT INTO PART VALUES (1, 'root'), (2, 'a'), (3, 'b'), (4, 'c');
    INSERT INTO USAGE VALUES (1, 2), (2, 3), (3, 4);
  )sql");
  ASSERT_TRUE(loaded.ok());
  ExecOptions eo;
  eo.context = ExpiredContext();
  Result<QueryResult> r = db.Query(R"sql(
    OUT OF root AS (SELECT * FROM PART WHERE PNO = 1),
           xpart AS PART,
           anchor AS (RELATE root VIA ANCHORS, xpart USING USAGE u
                      WHERE root.pno = u.assembly AND u.component = xpart.pno),
           uses AS (RELATE xpart VIA USES, xpart USING USAGE u
                    WHERE uses.pno = u.assembly AND u.component = xpart.pno)
    TAKE *
  )sql", {}, eo);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
      << r.status().ToString();
}

TEST(GovernorTest, RowBudgetTerminatesWithResourceExhausted) {
  Database db;
  LoadWide(&db, 2000);
  ExecOptions eo;
  eo.max_result_rows = 10;
  Result<QueryResult> r = db.Query("SELECT * FROM WIDE", {}, eo);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
      << r.status().ToString();
  EXPECT_NE(r.status().ToString().find("row budget"), std::string::npos);
}

TEST(GovernorTest, MemoryBudgetTerminatesMaterializingQuery) {
  Database db;
  LoadWide(&db, 2000);
  ExecOptions eo;
  eo.mem_budget_bytes = 4096;
  // DISTINCT forces server-side materialization of every group.
  Result<QueryResult> r =
      db.Query("SELECT DISTINCT K, PAYLOAD FROM WIDE", {}, eo);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
      << r.status().ToString();
  EXPECT_NE(r.status().ToString().find("memory budget"), std::string::npos);
}

TEST(GovernorTest, RowBudgetAppliesUnderMorselParallelism) {
  Database db;
  LoadWide(&db, 2000);
  ExecOptions eo;
  eo.morsel_workers = 4;
  eo.morsel_rows = 64;
  eo.max_result_rows = 10;
  Result<QueryResult> r = db.Query("SELECT * FROM WIDE WHERE K >= 0", {}, eo);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
      << r.status().ToString();
}

TEST(GovernorTest, ZeroLimitsMeanUnlimited) {
  Database db;
  ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
  ExecOptions eo;
  eo.timeout_ms = 0;
  eo.max_result_rows = 0;
  eo.mem_budget_bytes = 0;
  Result<QueryResult> r = db.Query(testing_util::kDepsArcQuery, {}, eo);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
}

TEST(GovernorTest, CancelUnknownIdIsNotFound) {
  Database db;
  Status s = db.Cancel(424242);
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_NE(s.ToString().find("424242"), std::string::npos);
}

TEST(GovernorTest, SysQueriesShowsTheRunningQueryItself) {
  Database db;
  Result<QueryResult> r = db.Query("SELECT STATE, TEXT FROM SYS$QUERIES");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::vector<Tuple> rows = r.value().rows();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsString(), "running");
  EXPECT_NE(rows[0][1].AsString().find("SYS$QUERIES"), std::string::npos);
}

TEST(GovernorTest, AdmissionRejectsWhenQueueIsFull) {
  obs::MetricsRegistry registry;
  GovernorOptions opts;
  opts.max_concurrent = 1;
  opts.max_queue = 0;
  Governor governor(opts, &registry);
  auto ctx1 = std::make_shared<QueryContext>();
  Result<int64_t> a1 = governor.Admit("q1", ctx1);
  ASSERT_TRUE(a1.ok());
  auto ctx2 = std::make_shared<QueryContext>();
  Result<int64_t> a2 = governor.Admit("q2", ctx2);
  ASSERT_FALSE(a2.ok());
  EXPECT_EQ(a2.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(registry.GetCounter("governor.rejected")->value(), 1);
  governor.Release(a1.value(), Status::Ok());
  EXPECT_EQ(registry.GetCounter("governor.completed")->value(), 1);
  EXPECT_EQ(governor.running(), 0);
}

TEST(GovernorTest, QueuedQueryAdmittedWhenSlotFrees) {
  obs::MetricsRegistry registry;
  GovernorOptions opts;
  opts.max_concurrent = 1;
  opts.max_queue = 1;
  Governor governor(opts, &registry);
  auto ctx1 = std::make_shared<QueryContext>();
  Result<int64_t> a1 = governor.Admit("holder", ctx1);
  ASSERT_TRUE(a1.ok());

  std::atomic<bool> admitted{false};
  Status waiter_status = Status::Ok();
  std::thread waiter([&] {
    auto ctx2 = std::make_shared<QueryContext>();
    Result<int64_t> a2 = governor.Admit("waiter", ctx2);
    if (a2.ok()) {
      admitted.store(true);
      governor.Release(a2.value(), Status::Ok());
    } else {
      waiter_status = a2.status();
    }
  });
  // Wait until the waiter is visibly queued, then free the slot.
  while (governor.queued() == 0) std::this_thread::yield();
  EXPECT_FALSE(admitted.load());
  governor.Release(a1.value(), Status::Ok());
  waiter.join();
  EXPECT_TRUE(admitted.load()) << waiter_status.ToString();
  EXPECT_EQ(registry.GetCounter("governor.queued")->value(), 1);
  EXPECT_EQ(registry.GetCounter("governor.admitted")->value(), 2);
  EXPECT_GE(registry.Snapshot().histograms.at("governor.queue_wait.us").count,
            2);
}

TEST(GovernorTest, QueuedQueryCanBeKilledWhileWaiting) {
  obs::MetricsRegistry registry;
  GovernorOptions opts;
  opts.max_concurrent = 1;
  opts.max_queue = 1;
  Governor governor(opts, &registry);
  auto holder_ctx = std::make_shared<QueryContext>();
  Result<int64_t> holder = governor.Admit("holder", holder_ctx);
  ASSERT_TRUE(holder.ok());

  Status waiter_status = Status::Ok();
  std::thread waiter([&] {
    auto ctx = std::make_shared<QueryContext>();
    Result<int64_t> a = governor.Admit("victim", ctx);
    if (a.ok()) {
      governor.Release(a.value(), Status::Ok());
    } else {
      waiter_status = a.status();
    }
  });
  while (governor.queued() == 0) std::this_thread::yield();
  // The queued entry is visible in the snapshot; kill it by id.
  int64_t victim_id = -1;
  for (const Governor::QueryInfo& q : governor.Snapshot()) {
    if (q.state == "queued") victim_id = q.id;
  }
  ASSERT_GE(victim_id, 0);
  ASSERT_TRUE(governor.Cancel(victim_id).ok());
  waiter.join();
  EXPECT_EQ(waiter_status.code(), StatusCode::kCancelled)
      << waiter_status.ToString();
  governor.Release(holder.value(), Status::Ok());
}

TEST(GovernorTest, QueuedQueryHonoursItsDeadline) {
  obs::MetricsRegistry registry;
  GovernorOptions opts;
  opts.max_concurrent = 1;
  opts.max_queue = 1;
  Governor governor(opts, &registry);
  auto holder_ctx = std::make_shared<QueryContext>();
  Result<int64_t> holder = governor.Admit("holder", holder_ctx);
  ASSERT_TRUE(holder.ok());

  auto ctx = std::make_shared<QueryContext>();
  QueryLimits limits;
  limits.deadline_us = QueryContext::NowUs() + 20 * 1000;  // 20ms
  ctx->SetLimits(limits);
  Result<int64_t> a = governor.Admit("deadline-waiter", ctx);
  ASSERT_FALSE(a.ok());
  EXPECT_EQ(a.status().code(), StatusCode::kDeadlineExceeded)
      << a.status().ToString();
  EXPECT_EQ(registry.GetCounter("governor.timed_out")->value(), 1);
  governor.Release(holder.value(), Status::Ok());
}

TEST(GovernorTest, DatabaseAdmissionControlEndToEnd) {
  Database db;
  ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
  GovernorOptions opts = db.governor().options();
  opts.max_concurrent = 1;
  opts.max_queue = 0;
  db.governor().SetOptions(opts);

  // Hold the only slot directly, then observe a real query being shed.
  auto ctx = std::make_shared<QueryContext>();
  Result<int64_t> held = db.governor().Admit("holder", ctx);
  ASSERT_TRUE(held.ok());
  Result<QueryResult> r = db.Query("SELECT * FROM EMP");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
      << r.status().ToString();
  db.governor().Release(held.value(), Status::Ok());

  // With the slot free the same query succeeds.
  Result<QueryResult> ok = db.Query("SELECT * FROM EMP");
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

// The hammer: many threads run morsel-parallel and recursive queries while
// a killer thread cancels whatever SYS$QUERIES-visible work it finds and
// random deadlines fire. Every outcome must be a clean terminal status —
// ok, kCancelled, kDeadlineExceeded or kResourceExhausted — and the engine
// must survive (no crash, no hang; ASan/UBSan-clean under the sanitizer
// job).
TEST(GovernorTest, CancellationHammerProducesOnlyTerminalStatuses) {
  Database db;
  ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
  Result<size_t> loaded = db.ExecuteScript(R"sql(
    CREATE TABLE PART (PNO INTEGER, PNAME VARCHAR, PRIMARY KEY (PNO));
    CREATE TABLE USAGE (ASSEMBLY INTEGER, COMPONENT INTEGER);
    INSERT INTO PART VALUES (1, 'root'), (2, 'a'), (3, 'b'), (4, 'c'),
                            (5, 'd');
    INSERT INTO USAGE VALUES (1, 2), (2, 3), (3, 4), (4, 5);
  )sql");
  ASSERT_TRUE(loaded.ok());

  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 25;
  std::atomic<bool> stop{false};
  std::atomic<int> bad_statuses{0};
  std::vector<std::string> bad_messages;
  std::mutex bad_mu;

  std::thread killer([&] {
    uint64_t rng = 0x243f6a8885a308d3ull;
    while (!stop.load()) {
      for (const Governor::QueryInfo& q : db.governor().Snapshot()) {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        if (rng % 3 == 0) (void)db.Cancel(q.id);
      }
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kQueriesPerThread; ++i) {
        ExecOptions eo;
        // Mix deadlines in: every third query gets a tight budget that may
        // or may not fire depending on scheduling.
        if (i % 3 == 0) eo.timeout_ms = 1 + (i % 5);
        Status status = Status::Ok();
        switch ((t + i) % 3) {
          case 0: {
            eo.morsel_workers = 4;
            eo.morsel_rows = 2;
            auto r = db.Query("SELECT * FROM EMP WHERE SAL > 0", {}, eo);
            if (!r.ok()) status = r.status();
            break;
          }
          case 1: {
            eo.morsel_workers = 4;
            eo.morsel_rows = 2;
            auto r = db.Query(testing_util::kDepsArcQuery, {}, eo);
            if (!r.ok()) status = r.status();
            break;
          }
          default: {
            auto r = db.Query(R"sql(
              OUT OF root AS (SELECT * FROM PART WHERE PNO = 1),
                     xpart AS PART,
                     anchor AS (RELATE root VIA ANCHORS, xpart USING USAGE u
                                WHERE root.pno = u.assembly
                                  AND u.component = xpart.pno),
                     uses AS (RELATE xpart VIA USES, xpart USING USAGE u
                              WHERE uses.pno = u.assembly
                                AND u.component = xpart.pno)
              TAKE *
            )sql", {}, eo);
            if (!r.ok()) status = r.status();
            break;
          }
        }
        if (!IsTerminal(status)) {
          bad_statuses.fetch_add(1);
          std::lock_guard<std::mutex> lock(bad_mu);
          bad_messages.push_back(status.ToString());
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  stop.store(true);
  killer.join();

  std::string all_bad;
  for (const std::string& m : bad_messages) all_bad += m + "\n";
  EXPECT_EQ(bad_statuses.load(), 0) << all_bad;
  // Nothing is left behind in the live-query registry.
  EXPECT_EQ(db.governor().running(), 0);
  EXPECT_EQ(db.governor().queued(), 0);
  // Every run was admitted and classified.
  obs::MetricsRegistry& reg = db.metrics();
  EXPECT_GE(reg.GetCounter("governor.admitted")->value(),
            kThreads * kQueriesPerThread);
}

TEST(GovernorTest, GovernorTerminationIsAttributedInStatementStats) {
  Database db;
  LoadWide(&db, 500);
  ExecOptions eo;
  eo.max_result_rows = 5;
  Result<QueryResult> r = db.Query("SELECT * FROM WIDE", {}, eo);
  ASSERT_FALSE(r.ok());
  // The failed execution is recorded as an error under its fingerprint.
  bool found = false;
  for (const auto& row : db.digest_store().Snapshot()) {
    if (row.kind != "query" || row.text.find("WIDE") == std::string::npos) {
      continue;
    }
    found = true;
    EXPECT_GE(row.errors, 1);
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace xnfdb
