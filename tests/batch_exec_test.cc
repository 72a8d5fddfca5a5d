// Tests of vectorized batch execution (ExecOptions::batch_size) and
// morsel-driven scan parallelism (ExecOptions::morsel_workers): results
// must be identical at every batch size — batch_size=1 runs one-row
// batches through the same code — and batch boundaries (empty input,
// exactly batch_size rows, batch_size ± 1, fully filtered batches) must
// not lose or duplicate rows.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "api/database.h"
#include "tests/paper_db.h"

namespace xnfdb {
namespace {

std::set<std::string> Canonical(const QueryResult& result) {
  std::set<std::string> out;
  std::map<std::pair<int, TupleId>, std::string> rows;
  std::map<std::string, int> by_name;
  for (size_t i = 0; i < result.outputs.size(); ++i) {
    by_name[result.outputs[i].name] = static_cast<int>(i);
  }
  for (const StreamItem& item : result.stream) {
    if (item.kind == StreamItem::Kind::kRow) {
      rows[{item.output, item.tid}] = TupleToString(item.values);
      out.insert(result.outputs[item.output].name + ":" +
                 TupleToString(item.values));
    }
  }
  for (const StreamItem& item : result.stream) {
    if (item.kind != StreamItem::Kind::kConnection) continue;
    const OutputDesc& desc = result.outputs[item.output];
    std::string s = desc.name + ":";
    for (size_t pi = 0; pi < item.tids.size(); ++pi) {
      s += rows[{by_name[desc.partner_names[pi]], item.tids[pi]}];
    }
    out.insert(std::move(s));
  }
  return out;
}

// A single-column table with rows 0..n-1, for exercising batch boundaries.
void LoadCounterTable(Database* db, int n) {
  ASSERT_TRUE(
      db->Execute("CREATE TABLE T (A INTEGER, PRIMARY KEY (A))").ok());
  for (int i = 0; i < n; ++i) {
    Result<Database::Outcome> r =
        db->Execute("INSERT INTO T VALUES (" + std::to_string(i) + ")");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
}

Result<QueryResult> RunAt(Database* db, const std::string& sql,
                          int batch_size) {
  ExecOptions opts;
  opts.batch_size = batch_size;
  return db->Query(sql, {}, opts);
}

// Row counts must agree between one-row and four-row batches for every
// table size around a batch boundary, including the empty table.
TEST(BatchExecTest, BatchBoundariesPreserveRowCounts) {
  const int kBatch = 4;
  for (int n : {0, 1, kBatch - 1, kBatch, kBatch + 1, 3 * kBatch}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    Database db;
    LoadCounterTable(&db, n);
    Result<QueryResult> batched =
        RunAt(&db, "SELECT A FROM T ORDER BY A", kBatch);
    ASSERT_TRUE(batched.ok()) << batched.status().ToString();
    Result<QueryResult> row_at_a_time =
        RunAt(&db, "SELECT A FROM T ORDER BY A", 1);
    ASSERT_TRUE(row_at_a_time.ok()) << row_at_a_time.status().ToString();
    ASSERT_EQ(batched.value().rows().size(), static_cast<size_t>(n));
    ASSERT_EQ(row_at_a_time.value().rows().size(), static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(batched.value().rows()[i][0].AsInt(), i);
    }
  }
}

// A filter whose matches all land in the last batch: earlier batches come
// back with every row deselected, and the executor must keep pulling
// through them instead of treating an all-filtered batch as end-of-stream.
TEST(BatchExecTest, WholeBatchFilteredBySelectionVector) {
  const int kBatch = 4;
  Database db;
  LoadCounterTable(&db, 3 * kBatch);
  Result<QueryResult> r =
      RunAt(&db, "SELECT A FROM T WHERE A >= 8 ORDER BY A", kBatch);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().rows().size(), 4u);
  EXPECT_EQ(r.value().rows()[0][0].AsInt(), 8);
  EXPECT_EQ(r.value().rows()[3][0].AsInt(), 11);

  // And the degenerate case: no row anywhere survives the filter.
  Result<QueryResult> empty =
      RunAt(&db, "SELECT A FROM T WHERE A < 0", kBatch);
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_TRUE(empty.value().rows().empty());
}

// Batched runs actually emit batches (visible in the run's ExecStats);
// batch_size 1 emits one-row batches through the same code.
TEST(BatchExecTest, BatchedRunReportsBatchesEmitted) {
  Database db;
  LoadCounterTable(&db, 10);
  Result<QueryResult> batched = RunAt(&db, "SELECT A FROM T", 4);
  ASSERT_TRUE(batched.ok());
  EXPECT_GE(batched.value().stats.batches_emitted.load(), 3);
  Result<QueryResult> rows = RunAt(&db, "SELECT A FROM T", 1);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().stats.batches_emitted.load(), 10);
}

// LIMIT asks its child for no more rows than it still needs, so a scan
// below it, bare or under a filter, reads exactly offset + limit rows at
// every batch size.
TEST(BatchExecTest, LimitReadsWhatItReturns) {
  Database db;
  db.matviews().set_enabled(false);  // every run must really execute
  ASSERT_TRUE(db.Execute("CREATE TABLE T (A INTEGER)").ok());
  std::string insert = "INSERT INTO T VALUES (0)";
  for (int i = 1; i < 3000; ++i) insert += ", (" + std::to_string(i) + ")";
  ASSERT_TRUE(db.Execute(insert).ok());
  struct Case {
    const char* sql;
    int64_t scanned;
    int64_t first;
  };
  const Case kCases[] = {
      {"SELECT A FROM T LIMIT 3", 3, 0},
      {"SELECT A FROM T LIMIT 3 OFFSET 5", 8, 5},
      {"SELECT A FROM T WHERE A >= 0 LIMIT 3", 3, 0},
      {"SELECT A FROM T WHERE A >= 0 LIMIT 3 OFFSET 5", 8, 5},
  };
  for (int bs : {1, 7, 1024}) {
    for (const Case& c : kCases) {
      SCOPED_TRACE(std::string(c.sql) + " batch_size=" + std::to_string(bs));
      Result<QueryResult> r = RunAt(&db, c.sql, bs);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r.value().stats.rows_scanned.load(), c.scanned);
      std::vector<Tuple> rows = r.value().rows();
      ASSERT_EQ(rows.size(), 3u);
      for (size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i][0].AsInt(), c.first + static_cast<int64_t>(i));
      }
    }
  }
}

// The Table 1 query set (the eight single-component SQL derivations over
// the stored views plus the full XNF query) must produce identical answer
// sets at batch_size=1 and batch_size=1024.
TEST(BatchExecTest, EqualitySweepOverTable1Queries) {
  Database db;
  ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
  ASSERT_TRUE(db.Execute("CREATE VIEW DEPT_ARC AS SELECT * FROM DEPT "
                         "WHERE LOC = 'ARC'")
                  .ok());
  ASSERT_TRUE(db.Execute("CREATE VIEW XEMP_V AS SELECT e.* FROM EMP e WHERE "
                         "EXISTS (SELECT 1 FROM DEPT_ARC d WHERE "
                         "d.DNO = e.EDNO)")
                  .ok());
  ASSERT_TRUE(db.Execute("CREATE VIEW XPROJ_V AS SELECT p.* FROM PROJ p "
                         "WHERE EXISTS (SELECT 1 FROM DEPT_ARC d WHERE "
                         "d.DNO = p.PDNO)")
                  .ok());
  const char* kTable1Queries[] = {
      "SELECT * FROM DEPT_ARC",
      "SELECT * FROM XEMP_V",
      "SELECT * FROM XPROJ_V",
      "SELECT xd.DNO, xe.ENO FROM DEPT_ARC xd, XEMP_V xe "
      "WHERE xd.DNO = xe.EDNO",
      "SELECT xd.DNO, xp.PNO FROM DEPT_ARC xd, XPROJ_V xp "
      "WHERE xd.DNO = xp.PDNO",
      "SELECT s.SNO, s.SNAME FROM SKILLS s WHERE "
      "EXISTS (SELECT 1 FROM XEMP_V xe, EMPSKILLS es "
      "        WHERE xe.ENO = es.ESENO AND es.ESSNO = s.SNO) OR "
      "EXISTS (SELECT 1 FROM XPROJ_V xp, PROJSKILLS ps "
      "        WHERE xp.PNO = ps.PSPNO AND ps.PSSNO = s.SNO)",
      "SELECT xe.ENO, es.ESSNO FROM XEMP_V xe, EMPSKILLS es "
      "WHERE xe.ENO = es.ESENO",
      "SELECT xp.PNO, ps.PSSNO FROM XPROJ_V xp, PROJSKILLS ps "
      "WHERE xp.PNO = ps.PSPNO",
      testing_util::kDepsArcQuery,
  };
  for (const char* sql : kTable1Queries) {
    SCOPED_TRACE(sql);
    Result<QueryResult> one = RunAt(&db, sql, 1);
    ASSERT_TRUE(one.ok()) << one.status().ToString();
    Result<QueryResult> big = RunAt(&db, sql, 1024);
    ASSERT_TRUE(big.ok()) << big.status().ToString();
    EXPECT_EQ(Canonical(one.value()), Canonical(big.value()));
    // Awkward in-between sizes exercise boundaries the extremes miss.
    for (int bs : {2, 3, 7}) {
      Result<QueryResult> mid = RunAt(&db, sql, bs);
      ASSERT_TRUE(mid.ok()) << mid.status().ToString();
      EXPECT_EQ(Canonical(one.value()), Canonical(mid.value()))
          << "batch_size=" << bs;
    }
  }
}

// A scan-heavy single-stream query with small morsels must be executed by
// more than one claimed morsel, and still return the sequential answer in
// the sequential order.
TEST(BatchExecTest, MorselClaimingSplitsScanAcrossWorkers) {
  Database db;
  const int kN = 64;
  LoadCounterTable(&db, kN);
  ExecOptions seq;
  seq.morsel_workers = 1;
  Result<QueryResult> a = db.Query("SELECT A FROM T WHERE A >= 10", {}, seq);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_EQ(a.value().stats.morsels_claimed.load(), 0);

  ExecOptions par;
  par.morsel_workers = 4;
  par.morsel_rows = 8;
  Result<QueryResult> b = db.Query("SELECT A FROM T WHERE A >= 10", {}, par);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_GE(b.value().stats.morsels_claimed.load(), 2);
  ASSERT_EQ(a.value().rows().size(), b.value().rows().size());
  for (size_t i = 0; i < a.value().rows().size(); ++i) {
    EXPECT_EQ(a.value().rows()[i][0].AsInt(), b.value().rows()[i][0].AsInt());
  }
}

// Morsel execution of the full XNF query matches sequential execution.
TEST(BatchExecTest, MorselXnfMatchesSequential) {
  Database db;
  ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
  Result<QueryResult> seq =
      db.Query(testing_util::kDepsArcQuery, {}, ExecOptions{});
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  ExecOptions par;
  par.morsel_workers = 4;
  par.morsel_rows = 2;
  Result<QueryResult> r = db.Query(testing_util::kDepsArcQuery, {}, par);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(Canonical(seq.value()), Canonical(r.value()));
}

// Under four workers with tiny morsels, the XNF answer stream is the
// sequential one item for item (tids and order included), and so are the
// counters that do not depend on how many plan clones ran. XDEPT is a
// plain DEPT scan, so it runs on morsels; the connections carry its tids.
TEST(BatchExecTest, MorselStreamAndCountersMatchSequential) {
  Database db;
  ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
  // Repeats of one statement would flip to a matview serve.
  db.matviews().set_enabled(false);
  const char* kQuery = R"sql(
    OUT OF xdept AS DEPT,
           xemp AS (SELECT * FROM EMP WHERE SAL > 0),
           employment AS (RELATE xdept VIA EMPLOYS, xemp
                          WHERE xdept.dno = xemp.edno),
           xskills AS SKILLS,
           empproperty AS (RELATE xemp VIA POSSESSES, xskills USING
                           EMPSKILLS es WHERE xemp.eno = es.eseno
                           AND es.essno = xskills.sno)
    TAKE *
  )sql";
  ExecOptions seq;
  seq.morsel_workers = 1;
  Result<QueryResult> a = db.Query(kQuery, {}, seq);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ExecOptions par;
  par.morsel_workers = 4;
  par.morsel_rows = 1;
  Result<QueryResult> b = db.Query(kQuery, {}, par);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_GE(b.value().stats.morsels_claimed.load(), 2);
  const std::vector<StreamItem>& sa = a.value().stream;
  const std::vector<StreamItem>& sb = b.value().stream;
  ASSERT_EQ(sa.size(), sb.size());
  for (size_t i = 0; i < sa.size(); ++i) {
    SCOPED_TRACE("item " + std::to_string(i));
    EXPECT_EQ(sa[i].kind, sb[i].kind);
    EXPECT_EQ(sa[i].output, sb[i].output);
    EXPECT_EQ(sa[i].tid, sb[i].tid);
    EXPECT_EQ(TupleToString(sa[i].values), TupleToString(sb[i].values));
    EXPECT_EQ(sa[i].tids, sb[i].tids);
  }
  EXPECT_EQ(a.value().stats.rows_output.load(),
            b.value().stats.rows_output.load());
  EXPECT_EQ(a.value().stats.spool_builds.load(),
            b.value().stats.spool_builds.load());
}

// A runtime error raised inside a morsel worker fails the whole query.
TEST(BatchExecTest, MorselWorkerErrorFailsQuery) {
  Database db;
  ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
  ExecOptions par;
  par.morsel_workers = 4;
  par.morsel_rows = 1;
  // The same pipeline without the failing expression runs on morsels.
  Result<QueryResult> ok = db.Query("SELECT ENAME FROM EMP", {}, par);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_GE(ok.value().stats.morsels_claimed.load(), 2);
  // String arithmetic survives compilation and fails per row at runtime.
  Result<QueryResult> bad = db.Query("SELECT ENAME + 1 FROM EMP", {}, par);
  EXPECT_FALSE(bad.ok());
}

}  // namespace
}  // namespace xnfdb
