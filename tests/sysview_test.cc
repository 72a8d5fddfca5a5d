// Tests of the sys$ virtual system tables (storage/sysview.h): name
// resolution through the catalog, VirtualScanOp plans, per-shape statement
// statistics, and CO views built over two system views (the paper's
// machinery applied to the engine's own state).

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "api/database.h"
#include "obs/digest_store.h"

namespace xnfdb {
namespace {

std::vector<Tuple> MustRows(Database* db, const std::string& sql) {
  Result<QueryResult> r = db->Query(sql);
  EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  if (!r.ok()) return {};
  return r.value().rows();
}

TEST(SysViewTest, SelectOverSysMetricsSeesRegisteredCounters) {
  Database db;
  // Lower-case works: identifiers (including `$`) are case-normalized.
  std::vector<Tuple> rows = MustRows(
      &db, "SELECT name, kind, value FROM sys$metrics "
           "WHERE name = 'server.calls'");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][1].AsString(), "counter");
  EXPECT_GE(rows[0][2].AsInt(), 0);
}

TEST(SysViewTest, SysTablesListsTablesViewsAndVirtuals) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE T (A INTEGER, B VARCHAR)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO T VALUES (1, 'x'), (2, 'y')").ok());
  ASSERT_TRUE(db.Execute("CREATE VIEW V AS SELECT A FROM T").ok());

  std::vector<Tuple> rows =
      MustRows(&db, "SELECT NAME, KIND, ROW_COUNT, COLUMN_COUNT "
                    "FROM SYS$TABLES");
  bool saw_table = false, saw_view = false, saw_virtual = false;
  for (const Tuple& row : rows) {
    if (row[0].AsString() == "T") {
      saw_table = true;
      EXPECT_EQ(row[1].AsString(), "table");
      EXPECT_EQ(row[2].AsInt(), 2);
      EXPECT_EQ(row[3].AsInt(), 2);
    } else if (row[0].AsString() == "V") {
      saw_view = true;
      EXPECT_EQ(row[1].AsString(), "view");
      EXPECT_TRUE(row[2].is_null());
    } else if (row[0].AsString() == "SYS$METRICS") {
      saw_virtual = true;
      EXPECT_EQ(row[1].AsString(), "virtual");
      EXPECT_EQ(row[3].AsInt(), 3);
    }
  }
  EXPECT_TRUE(saw_table);
  EXPECT_TRUE(saw_view);
  EXPECT_TRUE(saw_virtual);
}

TEST(SysViewTest, PlanUsesVirtualScan) {
  Database db;
  Result<std::string> plan = db.Explain("SELECT * FROM SYS$CACHE");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan.value().find("VirtualScan(SYS$CACHE)"), std::string::npos)
      << plan.value();
}

TEST(SysViewTest, SysCacheRowsAreCacheNamespaceOnly) {
  Database db;
  Result<QueryResult> r = db.Query("SELECT NAME, VALUE FROM SYS$CACHE");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  for (const Tuple& row : r.value().rows()) {
    const std::string& name = row[0].AsString();
    EXPECT_TRUE(name.rfind("cache.", 0) == 0 ||
                name.rfind("writeback.", 0) == 0)
        << name;
  }
}

TEST(SysViewTest, SysStatementsKeepsOneRowPerShape) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE T (A INTEGER)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO T VALUES (1), (2), (3)").ok());
  // Two literal variants of one shape, plus one distinct shape.
  ASSERT_TRUE(db.Query("SELECT A FROM T WHERE A = 1").ok());
  ASSERT_TRUE(db.Query("SELECT A FROM T WHERE A = 2").ok());
  ASSERT_TRUE(db.Query("SELECT A FROM T").ok());

  std::vector<Tuple> rows = MustRows(
      &db, "SELECT DIGEST, TEXT, CALLS, ROWS_OUT, KIND FROM SYS$STATEMENTS");
  int shape_rows = 0;
  for (const Tuple& row : rows) {
    if (row[1].AsString() == "SELECT A FROM T WHERE (A = ?)") {
      ++shape_rows;
      EXPECT_EQ(row[2].AsInt(), 2);      // both literal variants
      EXPECT_EQ(row[3].AsInt(), 2);      // one row returned each
      EXPECT_EQ(row[4].AsString(), "query");
      EXPECT_EQ(row[0].AsString().size(), 16u);
    }
  }
  EXPECT_EQ(shape_rows, 1);

  // The store is queryable through the API too, and agrees.
  bool found = false;
  for (const obs::DigestRecord& s : db.digest_store().Snapshot()) {
    if (s.text == "SELECT A FROM T WHERE (A = ?)") {
      found = true;
      EXPECT_EQ(s.calls, 2);
    }
  }
  EXPECT_TRUE(found);
}

TEST(SysViewTest, EveryQueryDigestHasRowsInEveryPerDigestView) {
  // 300 distinct query shapes, within the store's 512-digest capacity:
  // every query listed in SYS$STATEMENTS must also have its profile and its
  // plan history (any per-part bound below 300 would drop some).
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE T (A INTEGER)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO T VALUES (1), (2)").ok());
  constexpr int kShapes = 300;
  for (int i = 0; i < kShapes; ++i) {
    const std::string q = "SELECT A AS C" + std::to_string(i) + " FROM T";
    Result<QueryResult> r = db.Query(q);
    ASSERT_TRUE(r.ok()) << q << ": " << r.status().ToString();
  }
  auto digests = [&](const std::string& sql) {
    std::set<std::string> out;
    for (const Tuple& row : MustRows(&db, sql)) out.insert(row[0].AsString());
    return out;
  };
  std::set<std::string> queries =
      digests("SELECT DIGEST FROM SYS$STATEMENTS WHERE KIND = 'query'");
  EXPECT_EQ(queries.size(), size_t{kShapes});
  std::set<std::string> profiled =
      digests("SELECT DIGEST FROM SYS$QUERY_PROFILES");
  std::set<std::string> planned =
      digests("SELECT DIGEST FROM SYS$PLAN_HISTORY");
  int missing_profile = 0;
  int missing_plan = 0;
  for (const std::string& d : queries) {
    if (profiled.count(d) == 0) ++missing_profile;
    if (planned.count(d) == 0) ++missing_plan;
  }
  EXPECT_EQ(missing_profile, 0);
  EXPECT_EQ(missing_plan, 0);
}

TEST(SysViewTest, SysHistogramsEmitsOneRowPerBucket) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE T (A INTEGER)").ok());
  ASSERT_TRUE(db.Query("SELECT A FROM T").ok());

  std::vector<Tuple> rows = MustRows(
      &db, "SELECT NAME, LE, BUCKET_COUNT, CUM_COUNT FROM SYS$HISTOGRAMS");
  ASSERT_FALSE(rows.empty());
  // Per-statement latency histograms surface as stmt.<digest>.us with a
  // monotone cumulative count and a trailing NULL-LE overflow bucket.
  bool saw_stmt = false, saw_overflow = false;
  std::string current;
  int64_t cum = 0;
  for (const Tuple& row : rows) {
    const std::string& name = row[0].AsString();
    if (name != current) {
      current = name;
      cum = 0;
    }
    EXPECT_GE(row[3].AsInt(), cum) << name;
    cum = row[3].AsInt();
    if (name.rfind("stmt.", 0) == 0) saw_stmt = true;
    if (row[1].is_null()) saw_overflow = true;
  }
  EXPECT_TRUE(saw_stmt);
  EXPECT_TRUE(saw_overflow);
}

TEST(SysViewTest, XnfRelateJoinsStatementsToTheirHistograms) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE T (A INTEGER)").ok());
  ASSERT_TRUE(db.Query("SELECT A FROM T").ok());  // seed one statement shape

  Result<QueryResult> r = db.Query(
      "OUT OF s AS SYS$STATEMENTS, h AS SYS$HISTOGRAMS, "
      "lat AS (RELATE s VIA LATENCY, h WHERE s.HIST = h.NAME) "
      "TAKE s(DIGEST, CALLS), h(NAME, BUCKET_COUNT), lat");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const QueryResult& result = r.value();
  int s_out = result.FindOutput("S");
  int lat_out = result.FindOutput("LAT");
  ASSERT_GE(s_out, 0);
  ASSERT_GE(lat_out, 0);
  EXPECT_GE(result.RowCount(s_out), 1u);
  // Every statement joins to its full latency histogram: one connection
  // per bucket row of its stmt.<digest>.us histogram.
  EXPECT_GE(result.ConnectionCount(lat_out), result.RowCount(s_out));
}

TEST(SysViewTest, CoViewOverSystemViewsCompilesAndRuns) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE T (A INTEGER)").ok());
  ASSERT_TRUE(db.Query("SELECT A FROM T").ok());
  ASSERT_TRUE(
      db.Execute(
            "CREATE VIEW SYSMON AS OUT OF s AS SYS$STATEMENTS, "
            "h AS SYS$HISTOGRAMS, "
            "lat AS (RELATE s VIA LATENCY, h WHERE s.HIST = h.NAME) TAKE *")
          .ok());
  Result<QueryResult> r = db.Query("SYSMON");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GE(r.value().RowCount(r.value().FindOutput("S")), 1u);
}

TEST(SysViewTest, SysViewNamesAreReserved) {
  Database db;
  EXPECT_FALSE(db.Execute("CREATE TABLE SYS$METRICS (A INTEGER)").ok());
  EXPECT_FALSE(
      db.Execute("CREATE VIEW SYS$TABLES AS SELECT NAME FROM SYS$METRICS")
          .ok());
  // The providers are still intact afterwards.
  EXPECT_FALSE(MustRows(&db, "SELECT NAME FROM SYS$TABLES").empty());
}

TEST(SysViewTest, FilterAndProjectComposeOverVirtualScan) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE T (A INTEGER)").ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE U (B INTEGER)").ok());
  std::vector<Tuple> rows = MustRows(
      &db, "SELECT NAME FROM SYS$TABLES WHERE KIND = 'table' ORDER BY NAME");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].AsString(), "T");
  EXPECT_EQ(rows[1][0].AsString(), "U");
}

}  // namespace
}  // namespace xnfdb
