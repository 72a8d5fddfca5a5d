// Tests of the Database facade: statement dispatch, DDL validation, view
// management, scripts, server-call accounting, and EXPLAIN.

#include <gtest/gtest.h>

#include "api/database.h"
#include "tests/paper_db.h"

namespace xnfdb {
namespace {

TEST(DatabaseTest, CreateTableWithKeysAndInsert) {
  Database db;
  Result<Database::Outcome> r = db.Execute(
      "CREATE TABLE T (A INTEGER, B VARCHAR, PRIMARY KEY (A))");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  Result<Database::Outcome> ins =
      db.Execute("INSERT INTO T VALUES (1, 'x'), (2, 'y')");
  ASSERT_TRUE(ins.ok());
  EXPECT_EQ(ins.value().kind, Database::Outcome::Kind::kAffected);
  EXPECT_EQ(ins.value().affected, 2u);
  EXPECT_EQ(db.catalog().PrimaryKeyColumn("T"), 0);
}

TEST(DatabaseTest, ForeignKeyToMissingTableFails) {
  Database db;
  Result<Database::Outcome> r = db.Execute(
      "CREATE TABLE T (A INTEGER, FOREIGN KEY (A) REFERENCES GHOST (G))");
  EXPECT_FALSE(r.ok());
}

TEST(DatabaseTest, CreateViewValidatesBody) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE T (A INTEGER)").ok());
  // References a missing column: rejected at CREATE time.
  EXPECT_FALSE(db.Execute("CREATE VIEW V AS SELECT NOPE FROM T").ok());
  EXPECT_FALSE(db.catalog().HasView("V"));
  ASSERT_TRUE(db.Execute("CREATE VIEW V AS SELECT A FROM T").ok());
  // Duplicate names rejected.
  EXPECT_FALSE(db.Execute("CREATE VIEW V AS SELECT A FROM T").ok());
  ASSERT_TRUE(db.Execute("DROP VIEW V").ok());
  EXPECT_FALSE(db.Execute("DROP VIEW V").ok());
}

TEST(DatabaseTest, ScriptStopsAtFirstError) {
  Database db;
  Result<size_t> r = db.ExecuteScript(
      "CREATE TABLE T (A INTEGER); INSERT INTO GHOST VALUES (1); "
      "CREATE TABLE U (B INTEGER)");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(db.catalog().HasTable("T"));
  EXPECT_FALSE(db.catalog().HasTable("U"));
}

TEST(DatabaseTest, ServerCallAccounting) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE T (A INTEGER)").ok());
  db.ResetServerCalls();
  ASSERT_TRUE(db.Execute("INSERT INTO T VALUES (1)").ok());
  ASSERT_TRUE(db.Query("SELECT * FROM T").ok());
  EXPECT_EQ(db.server_calls(), 2);
}

TEST(DatabaseTest, DirectXnfStatementThroughExecute) {
  Database db;
  ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
  Result<Database::Outcome> r =
      db.Execute("OUT OF x AS EMP TAKE *");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().kind, Database::Outcome::Kind::kRows);
  EXPECT_EQ(r.value().result.RowCount(0), 4u);
}

TEST(DatabaseTest, ExplainSqlQueryShowsAccessPath) {
  Database db;
  ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
  Result<std::string> plan =
      db.Explain("SELECT ENAME FROM EMP WHERE ENO = 10");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // ENO is the PK: the plan must use the index.
  EXPECT_NE(plan.value().find("IndexScan(EMP.ENO = 10)"), std::string::npos)
      << plan.value();
}

TEST(DatabaseTest, ExplainXnfShowsAllOutputStreams) {
  Database db;
  ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
  Result<std::string> plan = db.Explain(testing_util::kDepsArcQuery);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const std::string& p = plan.value();
  for (const char* output :
       {"output XDEPT", "output XEMP", "output XSKILLS",
        "output EMPLOYMENT [connection]", "output PROJPROPERTY"}) {
    EXPECT_NE(p.find(output), std::string::npos) << output << "\n" << p;
  }
  // Shared connection boxes appear as spool reads; Table 1's op counts are
  // reported up front.
  EXPECT_NE(p.find("SpoolRead"), std::string::npos) << p;
  EXPECT_NE(p.find("joins=6"), std::string::npos) << p;
}

TEST(DatabaseTest, ExplainShowsSpoolBuildPlansWithoutRunning) {
  Database db;
  ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
  Result<std::string> plan = db.Explain(testing_util::kDepsArcQuery);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const std::string& p = plan.value();
  // The shared EMPLOYMENT box is spooled; its output shows the join that
  // builds the spool.
  const size_t start = p.find("output EMPLOYMENT [connection]:");
  ASSERT_NE(start, std::string::npos) << p;
  const size_t end = p.find("output ", start + 1);
  const std::string section = p.substr(start, end - start);
  EXPECT_NE(section.find("Join("), std::string::npos) << p;
  // Each spool's build plan is printed once.
  size_t scans = 0;
  for (size_t at = p.find("Scan(EMP)"); at != std::string::npos;
       at = p.find("Scan(EMP)", at + 1)) {
    ++scans;
  }
  EXPECT_EQ(scans, 1u) << p;
  // Nothing ran: EXPLAIN reports no actuals.
  EXPECT_EQ(p.find("rows)"), std::string::npos) << p;
}

TEST(DatabaseTest, UnreadSpoolsAndGroupsAreNeverBuilt) {
  Database db;
  ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
  ASSERT_TRUE(
      db.Execute("CREATE VIEW ARCD AS SELECT * FROM DEPT WHERE LOC = 'ARC'")
          .ok());
  // The group reads the view twice (a spool); only an outer row that
  // reaches the filter probes it.
  auto query = [&](const std::string& outer) {
    return db.Query(
        "SELECT e.ENO FROM EMP e WHERE " + outer +
        " AND NOT EXISTS (SELECT 1 FROM ARCD a, ARCD b WHERE a.DNO = b.DNO "
        "AND a.DNO = e.EDNO)");
  };
  Result<QueryResult> none = query("e.ENO < 0");
  ASSERT_TRUE(none.ok()) << none.status().ToString();
  EXPECT_EQ(none.value().stats.spool_builds, 0);
  EXPECT_EQ(none.value().stats.exists_probes, 0);
  Result<QueryResult> outer_only = db.Query("SELECT e.ENO FROM EMP e WHERE "
                                            "e.ENO < 0");
  ASSERT_TRUE(outer_only.ok());
  EXPECT_EQ(none.value().stats.rows_scanned,
            outer_only.value().stats.rows_scanned);

  Result<QueryResult> all = query("e.ENO > 0");
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_EQ(all.value().stats.spool_builds, 1);
  EXPECT_GT(all.value().stats.rows_scanned,
            outer_only.value().stats.rows_scanned);
}

TEST(DatabaseTest, ExplainJoinShowsHashJoin) {
  Database db;
  ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
  Result<std::string> plan = db.Explain(
      "SELECT e.ENO FROM EMP e, DEPT d WHERE e.EDNO = d.DNO");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan.value().find("HashJoin"), std::string::npos)
      << plan.value();
  // With hash joins disabled the same query plans nested loops.
  ExecOptions nl;
  nl.plan.use_hash_join = false;
  Result<std::string> plan2 = db.Explain(
      "SELECT e.ENO FROM EMP e, DEPT d WHERE e.EDNO = d.DNO", {}, nl);
  ASSERT_TRUE(plan2.ok());
  EXPECT_NE(plan2.value().find("NestedLoopJoin"), std::string::npos)
      << plan2.value();
}

TEST(DatabaseTest, ExplainRecursiveQueryReportsFixpoint) {
  Database db;
  ASSERT_TRUE(db.ExecuteScript(R"sql(
    CREATE TABLE PART (PNO INTEGER);
    CREATE TABLE BOM (A INTEGER, C INTEGER);
  )sql")
                  .ok());
  Result<std::string> plan = db.Explain(R"sql(
    OUT OF root AS (SELECT * FROM PART WHERE PNO = 1),
           xpart AS PART,
           anchor AS (RELATE root VIA R, xpart USING BOM b
                      WHERE root.pno = b.a AND b.c = xpart.pno),
           sub AS (RELATE xpart VIA USES, xpart USING BOM b
                   WHERE uses.pno = b.a AND b.c = xpart.pno)
    TAKE *
  )sql");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan.value().find("fixpoint"), std::string::npos);
}

TEST(DatabaseTest, DropTableInvalidatesDependentViewAtUse) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE T (A INTEGER)").ok());
  ASSERT_TRUE(db.Execute("CREATE VIEW V AS SELECT A FROM T").ok());
  ASSERT_TRUE(db.Execute("DROP TABLE T").ok());
  // The view is resolved lazily; using it now fails cleanly.
  EXPECT_FALSE(db.Query("SELECT * FROM V").ok());
}

TEST(DatabaseTest, UpdateDeleteWithoutWhereAffectAllRows) {
  Database db;
  ASSERT_TRUE(db.ExecuteScript(
                     "CREATE TABLE T (A INTEGER);"
                     "INSERT INTO T VALUES (1), (2), (3)")
                  .ok());
  Result<Database::Outcome> upd = db.Execute("UPDATE T SET A = 0");
  ASSERT_TRUE(upd.ok());
  EXPECT_EQ(upd.value().affected, 3u);
  Result<Database::Outcome> del = db.Execute("DELETE FROM T");
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(del.value().affected, 3u);
  EXPECT_EQ(db.Query("SELECT * FROM T").value().rows().size(), 0u);
}

}  // namespace
}  // namespace xnfdb
