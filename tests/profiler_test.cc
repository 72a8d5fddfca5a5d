// Tests of the continuous workload profiler: the metrics time-series
// sampler (obs/sampler.h, SYS$METRICS_HISTORY), the always-on per-query
// profiles (obs/query_profile.h, kept per digest in obs/digest_store.h;
// SYS$QUERY_PROFILES and the SYS$STATEMENTS self-time rollup), and the
// stuck-query watchdog (api/watchdog.h) including auto-cancel of a
// deliberately wedged query.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/database.h"
#include "api/watchdog.h"
#include "common/log.h"
#include "obs/metrics.h"
#include "obs/digest_store.h"
#include "obs/query_profile.h"
#include "obs/sampler.h"
#include "storage/sysview.h"
#include "tests/paper_db.h"

namespace xnfdb {
namespace {

std::vector<Tuple> MustRows(Database* db, const std::string& sql) {
  Result<QueryResult> r = db->Query(sql);
  EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  if (!r.ok()) return {};
  return r.value().rows();
}

// Polls `pred` until it holds or ~5s elapse.
bool WaitFor(const std::function<bool()>& pred) {
  for (int i = 0; i < 1000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

// --- sampler ---------------------------------------------------------------

TEST(SamplerTest, RingEvictsOldestAtCapacity) {
  obs::MetricsRegistry registry;
  registry.GetCounter("c")->Increment(10);
  obs::MetricsSampler::Options opts;
  opts.ring_capacity = 3;
  obs::MetricsSampler sampler(&registry, opts);

  for (int i = 0; i < 5; ++i) sampler.SampleNow();
  EXPECT_EQ(sampler.samples_taken(), 5);
  EXPECT_EQ(sampler.ring_size(), 3u);
  EXPECT_EQ(sampler.evictions(), 2);

  // History holds exactly the 3 newest samples: the registry has 3
  // counters ("c" + the sampler's own two), so 9 rows; the oldest retained
  // sample is #3, whose sampler.samples series reads 2 (self-metrics are
  // reported one sample late).
  std::vector<obs::MetricsSampler::Row> rows = sampler.History();
  EXPECT_EQ(rows.size(), 9u);
  int64_t prev = -1;
  int64_t oldest_samples_value = -1;
  for (const obs::MetricsSampler::Row& row : rows) {
    EXPECT_GE(row.sample_ts_us, prev);
    prev = row.sample_ts_us;
    if (oldest_samples_value < 0 && row.name == "sampler.samples") {
      oldest_samples_value = row.value;
    }
  }
  EXPECT_EQ(oldest_samples_value, 2);
}

TEST(SamplerTest, DeltasAndRatesTrackCounterGrowth) {
  obs::MetricsRegistry registry;
  obs::Counter* c = registry.GetCounter("work.done");
  obs::MetricsSampler sampler(&registry, {});

  c->Increment(7);
  sampler.SampleNow();
  c->Increment(5);
  sampler.SampleNow();

  int64_t first_delta = -1, second_delta = -1;
  for (const obs::MetricsSampler::Row& row : sampler.History()) {
    if (row.name != "work.done") continue;
    EXPECT_EQ(row.kind, "counter");
    if (first_delta < 0) {
      first_delta = row.delta;
      EXPECT_EQ(row.value, 7);
    } else {
      second_delta = row.delta;
      EXPECT_EQ(row.value, 12);
      EXPECT_GE(row.rate_per_s, 0);
    }
  }
  EXPECT_EQ(first_delta, 7);  // first sight reports the full value
  EXPECT_EQ(second_delta, 5);
}

TEST(SamplerTest, HistogramsExpandToCountAndQuantiles) {
  obs::MetricsRegistry registry;
  registry.GetHistogram("lat.us")->Observe(100);
  registry.GetHistogram("lat.us")->Observe(200);
  obs::MetricsSampler sampler(&registry, {});
  sampler.SampleNow();

  std::set<std::string> names;
  for (const obs::MetricsSampler::Row& row : sampler.History()) {
    names.insert(row.name);
  }
  EXPECT_TRUE(names.count("lat.us.count"));
  EXPECT_TRUE(names.count("lat.us.p50"));
  EXPECT_TRUE(names.count("lat.us.p99"));
}

TEST(SamplerTest, BackgroundThreadTakesSamples) {
  obs::MetricsRegistry registry;
  registry.GetCounter("c")->Increment();
  obs::MetricsSampler sampler(&registry, {});

  sampler.Start(5);
  EXPECT_TRUE(sampler.running());
  sampler.Start(5);  // idempotent
  EXPECT_TRUE(WaitFor([&] { return sampler.samples_taken() >= 2; }));
  sampler.Stop();
  EXPECT_FALSE(sampler.running());
  sampler.Stop();  // idempotent
}

TEST(SamplerTest, StartStopRacesAreSafe) {
  obs::MetricsRegistry registry;
  obs::Counter* c = registry.GetCounter("c");
  obs::MetricsSampler::Options opts;
  opts.ring_capacity = 8;
  obs::MetricsSampler sampler(&registry, opts);

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&sampler, c] {
      for (int i = 0; i < 25; ++i) {
        sampler.Start(1);
        c->Increment();
        sampler.SampleNow();
        sampler.Stop();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(sampler.running());
  EXPECT_GE(sampler.samples_taken(), 100);
}

TEST(SamplerTest, MetricsHistoryQueryableThroughSql) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE T (A INTEGER)").ok());
  db.sampler().SampleNow();
  db.sampler().SampleNow();

  std::vector<Tuple> rows = MustRows(
      &db, "SELECT SAMPLE_TS, NAME, KIND, VALUE, DELTA, RATE_PER_S "
           "FROM SYS$METRICS_HISTORY WHERE NAME = 'server.calls'");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][2].AsString(), "counter");
  EXPECT_GE(rows[1][0].AsInt(), rows[0][0].AsInt());

  std::vector<Tuple> count = MustRows(
      &db, "SELECT COUNT(*) FROM SYS$METRICS_HISTORY "
           "WHERE NAME = 'server.calls'");
  ASSERT_EQ(count.size(), 1u);
  EXPECT_EQ(count[0][0].AsInt(), 2);
}

// --- query profiles --------------------------------------------------------

TEST(QueryProfileTest, ClassifyOpBuckets) {
  EXPECT_STREQ(obs::ClassifyOp("scan"), "scan");
  EXPECT_STREQ(obs::ClassifyOp("index_scan"), "scan");
  EXPECT_STREQ(obs::ClassifyOp("virtual_scan"), "scan");
  EXPECT_STREQ(obs::ClassifyOp("hash_join"), "join");
  EXPECT_STREQ(obs::ClassifyOp("index_join"), "join");
  EXPECT_STREQ(obs::ClassifyOp("nl_join"), "join");
  EXPECT_STREQ(obs::ClassifyOp("filter"), "filter");
  EXPECT_STREQ(obs::ClassifyOp("exists"), "filter");
  EXPECT_STREQ(obs::ClassifyOp("sort"), "other");
  EXPECT_STREQ(obs::ClassifyOp("agg"), "other");
}

TEST(QueryProfileTest, StoreIsBoundedAndCountsDrops) {
  obs::DigestStore store(2);
  obs::QueryProfile p;
  p.wall_us = 10;
  auto capture = [&](uint64_t digest, const char* text) {
    store.RecordExecution(digest, text, p.wall_us, &p, 0, "", {});
  };
  capture(1, "one");
  capture(2, "two");
  capture(3, "three");  // over capacity: dropped
  p.wall_us = 15;
  capture(1, "one");  // existing digest still accumulates
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.dropped(), 1);

  std::vector<obs::DigestRecord> snap = store.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].digest, 1u);
  EXPECT_EQ(snap[0].text, "one");
  EXPECT_EQ(snap[0].captures, 2);
  EXPECT_EQ(snap[0].last_profile.wall_us, 15);

  store.Reset();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.dropped(), 0);
}

TEST(QueryProfileTest, ClassSelfTimesAccumulateByBucket) {
  obs::DigestStore store;
  obs::QueryProfile p;
  obs::OpProfile scan;
  scan.op = "scan";
  scan.self_us = 30;
  obs::OpProfile join;
  join.op = "hash_join";
  join.self_us = 20;
  p.ops = {scan, join};
  store.RecordExecution(9, "q", 0, &p, 0, "", {});
  store.RecordExecution(9, "q", 0, &p, 0, "", {});
  // A digest with statement outcomes but no capture yet.
  store.RecordStatement(12345, "r", "query", true, 0, 1);

  std::vector<obs::DigestRecord> snap = store.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].digest, 9u);
  EXPECT_EQ(snap[0].scan_self_us, 60);
  EXPECT_EQ(snap[0].join_self_us, 40);
  EXPECT_EQ(snap[0].filter_self_us, 0);
  EXPECT_EQ(snap[0].other_self_us, 0);
  // Digests without a capture report zeros.
  EXPECT_EQ(snap[1].digest, 12345u);
  EXPECT_EQ(snap[1].scan_self_us, 0);
  EXPECT_EQ(snap[1].join_self_us, 0);
}

TEST(QueryProfileTest, ExecutionCapturesProfileForFingerprint) {
  Database db;
  ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
  ASSERT_TRUE(db.Execute("SELECT * FROM EMP WHERE SAL > 0").ok());

  std::vector<obs::DigestRecord> snap = db.digest_store().Snapshot();
  const obs::DigestRecord* entry = nullptr;
  for (const obs::DigestRecord& s : snap) {
    // The loader's DDL/DML on EMP have records too, but no profile.
    if (s.kind == "query" && s.text.find("EMP") != std::string::npos) {
      entry = &s;
    }
  }
  ASSERT_NE(entry, nullptr) << "no profile captured for the EMP query";
  EXPECT_EQ(entry->captures, 1);
  EXPECT_GT(entry->last_profile.rows_out, 0);
  bool saw_scan = false;
  for (const obs::OpProfile& op : entry->last_profile.ops) {
    if (op.op == "scan") {
      saw_scan = true;
      EXPECT_GT(op.rows, 0);
      EXPECT_GT(op.loops, 0);
    }
  }
  EXPECT_TRUE(saw_scan) << "profile has no scan-operator class row";
}

// Every operator produces batches, so the profile and EXPLAIN ANALYZE time
// every operator: also the scan a Sort drains and the scan a hash join
// builds from.
TEST(QueryProfileTest, EveryOperatorReportsBatches) {
  Database db;
  db.matviews().set_enabled(false);  // every run must really execute
  ASSERT_TRUE(db.ExecuteScript("CREATE TABLE A (K INTEGER, V INTEGER);"
                               "CREATE TABLE B (K INTEGER, W INTEGER);"
                               "INSERT INTO A VALUES (1, 10), (2, 20), (3, 30);"
                               "INSERT INTO B VALUES (1, 100), (2, 200);")
                  .ok());
  const std::string kSorted = "SELECT K, V FROM A ORDER BY V DESC";
  const std::string kJoined = "SELECT A.V, B.W FROM A, B WHERE A.K = B.K";
  // Pinned so the batch counts below hold under the batch and morsel knobs.
  ExecOptions eo;
  eo.batch_size = 1024;
  eo.morsel_workers = 1;
  auto scan_profile = [&](const std::string& sql) {
    obs::OpProfile scan;
    Result<QueryResult> r = db.Query(sql, {}, eo);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    if (!r.ok()) return scan;
    for (const obs::OpProfile& op : r.value().profile.ops) {
      if (op.op == "scan") scan = op;
    }
    return scan;
  };

  // The only scan feeds the Sort.
  obs::OpProfile sorted = scan_profile(kSorted);
  EXPECT_EQ(sorted.rows, 3);
  EXPECT_GE(sorted.batches, 1);
  // No indexes: a hash join whose probe and build sides each scan one
  // batch.
  obs::OpProfile joined = scan_profile(kJoined);
  EXPECT_EQ(joined.rows, 5);
  EXPECT_EQ(joined.batches, 2);

  eo.analyze = true;
  for (const std::string& sql : {kSorted, kJoined}) {
    Result<QueryResult> r = db.Query(sql, {}, eo);
    ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    ASSERT_FALSE(r.value().plan_texts.empty());
    for (const std::string& text : r.value().plan_texts) {
      std::istringstream lines(text);
      std::string line;
      while (std::getline(lines, line)) {
        if (line.find("(actual") == std::string::npos) continue;
        EXPECT_NE(line.find("batches="), std::string::npos) << sql << "\n"
                                                            << text;
      }
    }
  }
}

TEST(QueryProfileTest, SysQueryProfilesQueryableThroughSql) {
  Database db;
  ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
  ASSERT_TRUE(db.Execute("SELECT * FROM EMP").ok());

  std::vector<Tuple> rows = MustRows(
      &db, "SELECT DIGEST, OP, OP_ROWS, ROWS_OUT FROM SYS$QUERY_PROFILES "
           "WHERE OP = 'scan'");
  ASSERT_GE(rows.size(), 1u);
  EXPECT_GT(rows[0][2].AsInt(), 0);
  EXPECT_GT(rows[0][3].AsInt(), 0);
}

TEST(QueryProfileTest, SysStatementsRollsUpSelfTimes) {
  Database db;
  ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
  ASSERT_TRUE(
      db.Execute("SELECT e.ENAME, d.DNAME FROM EMP e, DEPT d "
                 "WHERE e.EDNO = d.DNO")
          .ok());

  // The self-time columns exist and are consistent: each is >= 0 and the
  // EMP/DEPT join statement has a row.
  std::vector<Tuple> rows = MustRows(
      &db, "SELECT TEXT, SCAN_SELF_US, JOIN_SELF_US, FILTER_SELF_US, "
           "OTHER_SELF_US FROM SYS$STATEMENTS");
  bool saw_join_stmt = false;
  for (const Tuple& row : rows) {
    for (int i = 1; i <= 4; ++i) EXPECT_GE(row[i].AsInt(), 0);
    if (row[0].AsString().find("EMP") != std::string::npos &&
        row[0].AsString().find("DEPT") != std::string::npos) {
      saw_join_stmt = true;
    }
  }
  EXPECT_TRUE(saw_join_stmt);
}

TEST(QueryProfileTest, EnvKnobDisablesCapture) {
  ::setenv("XNFDB_QUERY_PROFILES", "0", 1);
  Database db;
  ::unsetenv("XNFDB_QUERY_PROFILES");
  ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
  ASSERT_TRUE(db.Execute("SELECT * FROM EMP").ok());
  // The profile view stays registered and queryable — just empty — while
  // the statement itself is still counted.
  EXPECT_TRUE(MustRows(&db, "SELECT * FROM SYS$QUERY_PROFILES").empty());
  std::vector<Tuple> stmts = MustRows(
      &db, "SELECT CALLS, SCAN_SELF_US FROM SYS$STATEMENTS "
           "WHERE TEXT = 'SELECT * FROM EMP'");
  ASSERT_EQ(stmts.size(), 1u);
  EXPECT_EQ(stmts[0][0].AsInt(), 1);
  EXPECT_EQ(stmts[0][1].AsInt(), 0);
}

TEST(QueryProfileTest, MorselExecutionRecordsWorkerRows) {
  Database db;
  // A scan-heavy single-stream query qualifies for morsel parallelism
  // (plain scan pipeline, no breaker); small morsels force several claims.
  ASSERT_TRUE(db.Execute("CREATE TABLE T (A INTEGER)").ok());
  std::string script;
  for (int i = 0; i < 64; ++i) {
    script += "INSERT INTO T VALUES (" + std::to_string(i) + ");";
  }
  ASSERT_TRUE(db.ExecuteScript(script).ok());
  ExecOptions eo;
  eo.morsel_workers = 4;
  eo.morsel_rows = 8;
  Result<QueryResult> r = db.Query("SELECT A FROM T WHERE A >= 10", {}, eo);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_FALSE(r.value().profile.workers.empty());
  int64_t rows = 0;
  std::set<int64_t> ids;
  for (const obs::WorkerProfile& w : r.value().profile.workers) {
    EXPECT_TRUE(ids.insert(w.worker).second) << "duplicate worker id";
    rows += w.rows;
    EXPECT_GE(w.wall_us, 0);
  }
  EXPECT_GT(rows, 0);

  // The worker breakdown also surfaces as SYS$QUERY_PROFILES rows.
  std::vector<Tuple> worker_rows = MustRows(
      &db, "SELECT WORKER, OP_ROWS FROM SYS$QUERY_PROFILES "
           "WHERE OP = 'morsel_worker'");
  EXPECT_GE(worker_rows.size(), 1u);
}

// --- watchdog --------------------------------------------------------------

// The watchdog owns no thread: its scan rides the sampler tick. With
// neither XNFDB_METRICS_SAMPLE_MS nor XNFDB_WATCHDOG_STALL_MS set the tick
// is off; arming the watchdog alone starts it at half the stall bound, each
// tick both samples and scans, and disarming stops it again.
TEST(WatchdogTest, ArmingAloneStartsTheSamplerTick) {
  Database db;
  EXPECT_FALSE(db.sampler().running());
  obs::Counter* scans = db.metrics().GetCounter("watchdog.scans");
  obs::Counter* samples = db.metrics().GetCounter("sampler.samples");
  const int64_t scans_before = scans->value();
  const int64_t samples_before = samples->value();

  WatchdogOptions o;
  o.stall_ms = 10;
  db.SetWatchdogOptions(o);
  EXPECT_TRUE(db.sampler().running());
  EXPECT_EQ(db.sampler().interval_ms(), 5);
  EXPECT_TRUE(WaitFor([&] {
    return scans->value() >= scans_before + 2 &&
           samples->value() >= samples_before + 2;
  }));

  o.stall_ms = 0;
  db.SetWatchdogOptions(o);
  EXPECT_FALSE(db.sampler().running());
  // Disarmed: a sample no longer scans.
  const int64_t scans_off = db.watchdog().scans();
  db.sampler().SampleNow();
  EXPECT_EQ(db.watchdog().scans(), scans_off);
}

TEST(WatchdogTest, DoesNotFlagQueriesThatFinishNormally) {
  Database db;
  ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
  int64_t stalled_before =
      db.metrics().GetCounter("watchdog.stalled")->value();

  WatchdogOptions o;
  o.stall_ms = 10000;  // far beyond any test query
  db.SetWatchdogOptions(o);
  db.sampler().Start(1);  // tick faster than half the stall bound
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(db.Execute("SELECT * FROM EMP").ok());
  }
  EXPECT_TRUE(WaitFor([&] { return db.watchdog().scans() >= 3; }));
  db.SetWatchdogOptions(WatchdogOptions{});
  EXPECT_EQ(db.metrics().GetCounter("watchdog.stalled")->value(),
            stalled_before);
}

// A virtual table whose Generate() wedges inside one call until `release`
// is set (or a generous timeout passes) — no progress ticks while it
// sleeps, which is exactly the watchdog's definition of "stuck".
class SleepyProvider : public VirtualTableProvider {
 public:
  explicit SleepyProvider(std::atomic<bool>* release)
      : name_("SLEEPY"),
        schema_(Schema(std::vector<Column>{{"K", DataType::kInt}})),
        release_(release) {}

  const std::string& name() const override { return name_; }
  const Schema& schema() const override { return schema_; }

  Result<std::vector<Tuple>> Generate() const override {
    for (int i = 0; i < 2000 && !release_->load(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return std::vector<Tuple>{{Value(int64_t{1})}, {Value(int64_t{2})}};
  }

 private:
  std::string name_;
  Schema schema_;
  std::atomic<bool>* release_;
};

TEST(WatchdogTest, AutoCancelKillsStalledQuery) {
  Database db;
  std::atomic<bool> release{false};
  ASSERT_TRUE(
      db.catalog()
          .RegisterVirtualTable(std::make_unique<SleepyProvider>(&release))
          .ok());

  std::vector<std::string> log_lines;
  std::mutex log_mu;
  Logger::Default().SetSink([&](const std::string& line) {
    std::lock_guard<std::mutex> lock(log_mu);
    log_lines.push_back(line);
  });

  int64_t cancelled_before =
      db.metrics().GetCounter("watchdog.cancelled")->value();
  WatchdogOptions o;
  o.stall_ms = 30;  // the tick runs every 15ms
  o.auto_cancel = true;
  db.SetWatchdogOptions(o);

  obs::Counter* cancelled = db.metrics().GetCounter("watchdog.cancelled");
  std::thread releaser([&] {
    // Let the query run until the watchdog cancels it, then unwedge the
    // provider so the cooperative check can fire.
    WaitFor([&] { return cancelled->value() > cancelled_before; });
    release.store(true);
  });

  Result<QueryResult> r = db.Query("SELECT * FROM SLEEPY");
  releaser.join();
  db.SetWatchdogOptions(WatchdogOptions{});
  Logger::Default().SetSink(nullptr);

  ASSERT_FALSE(r.ok()) << "stalled query was not cancelled";
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled)
      << r.status().ToString();
  EXPECT_GT(cancelled->value(), cancelled_before);
  EXPECT_GT(db.metrics().GetCounter("watchdog.stalled")->value(), 0);

  bool saw_log = false;
  {
    std::lock_guard<std::mutex> lock(log_mu);
    for (const std::string& line : log_lines) {
      if (line.find("watchdog") != std::string::npos &&
          line.find("stalled query") != std::string::npos) {
        saw_log = true;
      }
    }
  }
  EXPECT_TRUE(saw_log) << "no structured watchdog log line emitted";
}

TEST(WatchdogTest, ScanOnceReportsWithoutCancelWhenAutoCancelOff) {
  Database db;
  std::atomic<bool> release{false};
  ASSERT_TRUE(
      db.catalog()
          .RegisterVirtualTable(std::make_unique<SleepyProvider>(&release))
          .ok());

  int64_t stalled_before =
      db.metrics().GetCounter("watchdog.stalled")->value();
  WatchdogOptions o;
  o.stall_ms = 20;
  o.auto_cancel = false;
  db.watchdog().SetOptions(o);  // armed without a tick: manual scans only

  obs::Counter* stalled = db.metrics().GetCounter("watchdog.stalled");
  std::thread runner([&] {
    // Report-only: the query must finish normally once released.
    Result<QueryResult> r = db.Query("SELECT K FROM SLEEPY");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  });

  // First scan baselines the fingerprint; later scans see it unchanged.
  EXPECT_TRUE(WaitFor([&] {
    db.watchdog().ScanOnce();
    return stalled->value() > stalled_before;
  }));
  // Reported once: further scans of the same stall do not re-report.
  int64_t after_first = stalled->value();
  db.watchdog().ScanOnce();
  db.watchdog().ScanOnce();
  EXPECT_EQ(stalled->value(), after_first);

  release.store(true);
  runner.join();
}

}  // namespace
}  // namespace xnfdb
