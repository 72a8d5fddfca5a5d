// SQL behaviour tests: the relational substrate must be dependable before
// XNF sits on top of it. Covers filters, joins, join methods, index access
// paths, DISTINCT, ORDER BY, GROUP BY/aggregates, EXISTS/IN, LIKE, NULL
// semantics, views, and DML.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "api/database.h"

namespace xnfdb {
namespace {

class SqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<size_t> r = db_.ExecuteScript(R"sql(
      CREATE TABLE DEPT (DNO INTEGER, DNAME VARCHAR, LOC VARCHAR,
                         PRIMARY KEY (DNO));
      CREATE TABLE EMP (ENO INTEGER, ENAME VARCHAR, EDNO INTEGER,
                        SAL DOUBLE, PRIMARY KEY (ENO));
      INSERT INTO DEPT VALUES (1, 'DB', 'ARC'), (2, 'OS', 'ARC'),
                              (3, 'HW', 'YKT');
      INSERT INTO EMP VALUES (10, 'alice', 1, 90000.0),
                             (20, 'bob', 1, 80000.0),
                             (30, 'carol', 2, 85000.0),
                             (40, 'dave', 3, 70000.0),
                             (50, 'erin', NULL, 60000.0);
    )sql");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }

  std::vector<Tuple> Rows(const std::string& sql) {
    Result<QueryResult> r = db_.Query(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    if (!r.ok()) return {};
    return r.value().rows();
  }

  Database db_;
};

TEST_F(SqlTest, FilterAndProjection) {
  std::vector<Tuple> rows =
      Rows("SELECT ENAME, SAL / 1000 FROM EMP WHERE SAL > 80000.0");
  ASSERT_EQ(rows.size(), 2u);
  std::set<std::string> names;
  for (const Tuple& r : rows) names.insert(r[0].AsString());
  EXPECT_EQ(names, (std::set<std::string>{"alice", "carol"}));
}

TEST_F(SqlTest, JoinProducesAllMatches) {
  std::vector<Tuple> rows = Rows(
      "SELECT e.ENAME, d.DNAME FROM EMP e, DEPT d WHERE e.EDNO = d.DNO");
  EXPECT_EQ(rows.size(), 4u);  // erin has NULL dept: no match
}

TEST_F(SqlTest, NullNeverJoins) {
  std::vector<Tuple> rows =
      Rows("SELECT ENAME FROM EMP WHERE EDNO = EDNO");
  // NULL = NULL is unknown, filtered.
  EXPECT_EQ(rows.size(), 4u);
}

TEST_F(SqlTest, ThreeWayJoin) {
  ASSERT_TRUE(db_.ExecuteScript(
                     "CREATE TABLE PROJ (PNO INTEGER, PDNO INTEGER);"
                     "INSERT INTO PROJ VALUES (100, 1), (200, 2), (300, 9)")
                  .ok());
  std::vector<Tuple> rows = Rows(
      "SELECT e.ENAME, p.PNO FROM EMP e, DEPT d, PROJ p "
      "WHERE e.EDNO = d.DNO AND p.PDNO = d.DNO");
  // dept1: {alice,bob} x {100}; dept2: {carol} x {200}.
  EXPECT_EQ(rows.size(), 3u);
}

TEST_F(SqlTest, CrossJoinWithoutPredicate) {
  std::vector<Tuple> rows = Rows("SELECT 1 FROM DEPT d1, DEPT d2");
  EXPECT_EQ(rows.size(), 9u);
}

TEST_F(SqlTest, NonEquiJoinUsesNestedLoops) {
  std::vector<Tuple> rows = Rows(
      "SELECT e1.ENO, e2.ENO FROM EMP e1, EMP e2 WHERE e1.SAL < e2.SAL");
  EXPECT_EQ(rows.size(), 10u);  // strict ordering pairs of 5 distinct sals
}

TEST_F(SqlTest, DistinctCollapsesDuplicates) {
  std::vector<Tuple> rows = Rows("SELECT DISTINCT LOC FROM DEPT");
  EXPECT_EQ(rows.size(), 2u);
}

TEST_F(SqlTest, OrderByAscDescAndOrdinal) {
  std::vector<Tuple> rows =
      Rows("SELECT ENAME, SAL FROM EMP ORDER BY SAL DESC");
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0][0].AsString(), "alice");
  EXPECT_EQ(rows[4][0].AsString(), "erin");

  rows = Rows("SELECT ENAME FROM EMP ORDER BY 1");
  EXPECT_EQ(rows[0][0].AsString(), "alice");
}

TEST_F(SqlTest, GroupByWithAggregates) {
  std::vector<Tuple> rows = Rows(
      "SELECT EDNO, COUNT(*), SUM(SAL), MIN(SAL), MAX(SAL), AVG(SAL) "
      "FROM EMP WHERE EDNO = 1 GROUP BY EDNO");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][1].AsInt(), 2);
  EXPECT_DOUBLE_EQ(rows[0][2].AsDouble(), 170000.0);
  EXPECT_DOUBLE_EQ(rows[0][3].AsDouble(), 80000.0);
  EXPECT_DOUBLE_EQ(rows[0][4].AsDouble(), 90000.0);
  EXPECT_DOUBLE_EQ(rows[0][5].AsDouble(), 85000.0);
}

// GROUP BY groups on the key values themselves: DOUBLE keys that print
// alike at six significant digits stay three groups, while INT 2 and
// DOUBLE 2.0 are one group, as they are one value for DISTINCT. Groups come
// out in ascending key order.
TEST_F(SqlTest, GroupByDoubleKeepsDistinctValues) {
  ASSERT_TRUE(db_.ExecuteScript(
                     "CREATE TABLE G (K DOUBLE, V INTEGER);"
                     "INSERT INTO G VALUES (1234567.5, 1), (1234568.0, 2), "
                     "(1234568.25, 4), (1234568.25, 8), (2, 16), (2.0, 32);")
                  .ok());
  std::vector<Tuple> rows =
      Rows("SELECT K, COUNT(*), SUM(V) FROM G GROUP BY K");
  ASSERT_EQ(rows.size(), 4u);
  const double keys[] = {2.0, 1234567.5, 1234568.0, 1234568.25};
  const int64_t counts[] = {2, 1, 1, 2};
  const int64_t sums[] = {48, 1, 2, 12};
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_DOUBLE_EQ(rows[i][0].AsDouble(), keys[i]);
    EXPECT_EQ(rows[i][1].AsInt(), counts[i]);
    EXPECT_EQ(rows[i][2].AsInt(), sums[i]);
  }
  EXPECT_EQ(Rows("SELECT DISTINCT K FROM G").size(), rows.size());
}

TEST_F(SqlTest, GlobalAggregateOnEmptyInput) {
  std::vector<Tuple> rows =
      Rows("SELECT COUNT(*), SUM(SAL) FROM EMP WHERE SAL > 1000000.0");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsInt(), 0);
  EXPECT_TRUE(rows[0][1].is_null());
}

TEST_F(SqlTest, HavingFiltersGroups) {
  // Departments with more than one employee: only dept 1.
  std::vector<Tuple> rows = Rows(
      "SELECT EDNO, COUNT(*) FROM EMP GROUP BY EDNO HAVING COUNT(*) > 1");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsInt(), 1);
  EXPECT_EQ(rows[0][1].AsInt(), 2);
}

TEST_F(SqlTest, HavingWithHiddenAggregate) {
  // The HAVING aggregate is not in the select list.
  std::vector<Tuple> rows = Rows(
      "SELECT EDNO FROM EMP GROUP BY EDNO HAVING SUM(SAL) > 100000.0");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsInt(), 1);
  // The hidden aggregate column must not leak into the output.
  Result<QueryResult> r = db_.Query(
      "SELECT EDNO FROM EMP GROUP BY EDNO HAVING SUM(SAL) > 100000.0");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().outputs[0].schema.size(), 1u);
}

TEST_F(SqlTest, HavingReferencesGroupedOutputColumn) {
  std::vector<Tuple> rows = Rows(
      "SELECT EDNO, COUNT(*) AS N FROM EMP GROUP BY EDNO "
      "HAVING N >= 1 AND EDNO < 3");
  EXPECT_EQ(rows.size(), 2u);
}

TEST_F(SqlTest, HavingErrors) {
  // HAVING without aggregation.
  EXPECT_FALSE(db_.Query("SELECT ENO FROM EMP HAVING ENO > 1").ok());
  // Ungrouped column in HAVING.
  EXPECT_FALSE(db_.Query("SELECT EDNO, COUNT(*) FROM EMP GROUP BY EDNO "
                         "HAVING ENAME = 'x'")
                   .ok());
}

TEST_F(SqlTest, ScalarFunctions) {
  std::vector<Tuple> rows =
      Rows("SELECT UPPER(ENAME), LENGTH(ENAME) FROM EMP WHERE ENO = 10");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsString(), "ALICE");
  EXPECT_EQ(rows[0][1].AsInt(), 5);

  rows = Rows("SELECT ABS(0 - ENO), MOD(ENO, 3) FROM EMP WHERE ENO = 10");
  EXPECT_EQ(rows[0][0].AsInt(), 10);
  EXPECT_EQ(rows[0][1].AsInt(), 1);

  rows = Rows(
      "SELECT CONCAT(ENAME, LOWER(DNAME)) FROM EMP e, DEPT d "
      "WHERE e.EDNO = d.DNO AND e.ENO = 10");
  EXPECT_EQ(rows[0][0].AsString(), "alicedb");

  rows = Rows("SELECT ROUND(SAL / 1000) FROM EMP WHERE ENO = 20");
  EXPECT_EQ(rows[0][0].AsInt(), 80);

  // Functions compose with predicates and aggregates.
  rows = Rows("SELECT COUNT(*) FROM EMP WHERE LENGTH(ENAME) = 5");
  EXPECT_EQ(rows[0][0].AsInt(), 2);  // alice, carol
  rows = Rows("SELECT MAX(LENGTH(ENAME)) FROM EMP");
  EXPECT_EQ(rows[0][0].AsInt(), 5);
}

TEST_F(SqlTest, ScalarFunctionErrors) {
  EXPECT_FALSE(db_.Query("SELECT NOSUCHFN(ENO) FROM EMP").ok());
  EXPECT_FALSE(db_.Query("SELECT MOD(ENO) FROM EMP").ok());      // arity
  EXPECT_FALSE(db_.Query("SELECT UPPER(ENO, 1) FROM EMP").ok()); // arity
  // NULL propagates instead of erroring.
  Result<QueryResult> r =
      db_.Query("SELECT UPPER(NULL) FROM EMP WHERE ENO = 10");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().rows()[0][0].is_null());
}

TEST_F(SqlTest, CountSkipsNulls) {
  std::vector<Tuple> rows = Rows("SELECT COUNT(EDNO), COUNT(*) FROM EMP");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsInt(), 4);
  EXPECT_EQ(rows[0][1].AsInt(), 5);
}

TEST_F(SqlTest, ExistsSubqueryCorrelated) {
  std::vector<Tuple> rows = Rows(
      "SELECT ENAME FROM EMP e WHERE EXISTS (SELECT 1 FROM DEPT d WHERE "
      "d.DNO = e.EDNO AND d.LOC = 'ARC')");
  std::set<std::string> names;
  for (const Tuple& r : rows) names.insert(r[0].AsString());
  EXPECT_EQ(names, (std::set<std::string>{"alice", "bob", "carol"}));
}

TEST_F(SqlTest, InSubquery) {
  std::vector<Tuple> rows = Rows(
      "SELECT DNAME FROM DEPT WHERE DNO IN (SELECT EDNO FROM EMP WHERE "
      "SAL >= 85000.0)");
  std::set<std::string> names;
  for (const Tuple& r : rows) names.insert(r[0].AsString());
  EXPECT_EQ(names, (std::set<std::string>{"DB", "OS"}));
}

TEST_F(SqlTest, ConjunctiveExistsRequiresBothWitnesses) {
  ASSERT_TRUE(db_.ExecuteScript(
                     "CREATE TABLE BADGES (BENO INTEGER);"
                     "INSERT INTO BADGES VALUES (10), (40)")
                  .ok());
  // Employees that are in an ARC department AND have a badge: only alice.
  std::vector<Tuple> rows = Rows(
      "SELECT ENAME FROM EMP e WHERE "
      "EXISTS (SELECT 1 FROM DEPT d WHERE d.DNO = e.EDNO AND d.LOC = 'ARC') "
      "AND EXISTS (SELECT 1 FROM BADGES b WHERE b.BENO = e.ENO)");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsString(), "alice");
}

TEST_F(SqlTest, DisjunctiveExistsAcceptsEitherWitness) {
  ASSERT_TRUE(db_.ExecuteScript(
                     "CREATE TABLE BADGES (BENO INTEGER);"
                     "INSERT INTO BADGES VALUES (40)")
                  .ok());
  // Employees in an ARC department OR holding a badge.
  std::vector<Tuple> rows = Rows(
      "SELECT ENAME FROM EMP e WHERE "
      "EXISTS (SELECT 1 FROM DEPT d WHERE d.DNO = e.EDNO AND d.LOC = 'ARC') "
      "OR EXISTS (SELECT 1 FROM BADGES b WHERE b.BENO = e.ENO)");
  std::set<std::string> names;
  for (const Tuple& r : rows) names.insert(r[0].AsString());
  EXPECT_EQ(names, (std::set<std::string>{"alice", "bob", "carol", "dave"}));
}

TEST_F(SqlTest, NotExistsAntiJoin) {
  // Employees without a department row (erin has NULL, nobody references a
  // missing dept here; dave's dept 3 exists) => only erin.
  std::vector<Tuple> rows = Rows(
      "SELECT ENAME FROM EMP e WHERE NOT EXISTS (SELECT 1 FROM DEPT d "
      "WHERE d.DNO = e.EDNO)");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsString(), "erin");
}

TEST_F(SqlTest, NotInSubquery) {
  std::vector<Tuple> rows = Rows(
      "SELECT DNAME FROM DEPT WHERE DNO NOT IN (SELECT EDNO FROM EMP "
      "WHERE EDNO = 1)");
  std::set<std::string> names;
  for (const Tuple& r : rows) names.insert(r[0].AsString());
  EXPECT_EQ(names, (std::set<std::string>{"OS", "HW"}));
}

// The first column of every row, as sorted text (a multiset; NULL sorts
// as "NULL").
std::vector<std::string> Column0(const std::vector<Tuple>& rows) {
  std::vector<std::string> out;
  for (const Tuple& r : rows) out.push_back(r[0].ToString());
  std::sort(out.begin(), out.end());
  return out;
}

TEST_F(SqlTest, NotInSubqueryIsNullAware) {
  ASSERT_TRUE(db_.ExecuteScript(R"sql(
    CREATE TABLE T2 (A INTEGER);
    CREATE TABLE U3 (A INTEGER);
    INSERT INTO T2 VALUES (1), (NULL), (2);
    INSERT INTO U3 VALUES (1);
  )sql")
                  .ok());
  // NULL NOT IN {1} is unknown: only 2 qualifies.
  const std::string q = "SELECT A FROM T2 WHERE A NOT IN (SELECT A FROM U3)";
  EXPECT_EQ(Column0(Rows(q)), (std::vector<std::string>{"2"}));
  EXPECT_EQ(Column0(Rows("SELECT A FROM T2 WHERE NOT (A IN (SELECT A FROM "
                         "U3))")),
            (std::vector<std::string>{"2"}));
  // A NULL in the set makes every comparison that is not true unknown.
  ASSERT_TRUE(db_.Execute("INSERT INTO U3 VALUES (NULL)").ok());
  EXPECT_TRUE(Rows(q).empty());
  // An empty set admits every row, NULL included.
  ASSERT_TRUE(db_.Execute("DELETE FROM U3").ok());
  EXPECT_EQ(Column0(Rows(q)), (std::vector<std::string>{"1", "2", "NULL"}));
  // The literal-list form agrees: NOT IN (1, NULL) holds for no row.
  EXPECT_TRUE(Rows("SELECT A FROM T2 WHERE A NOT IN (1, NULL)").empty());
}

TEST_F(SqlTest, CorrelatedNotInIsNullAwarePerOuterRow) {
  ASSERT_TRUE(db_.ExecuteScript(R"sql(
    CREATE TABLE T2 (K INTEGER, A INTEGER);
    CREATE TABLE U3 (K INTEGER, A INTEGER);
    INSERT INTO T2 VALUES (1, 5), (2, 5), (3, NULL), (4, NULL);
    INSERT INTO U3 VALUES (1, 6), (2, NULL), (4, 7);
  )sql")
                  .ok());
  // K=1: 5 NOT IN {6}; K=2: {NULL} blocks; K=3: empty set admits NULL;
  // K=4: NULL against {7} is unknown.
  EXPECT_EQ(Column0(Rows("SELECT K FROM T2 WHERE A NOT IN (SELECT U.A FROM "
                         "U3 U WHERE U.K = T2.K)")),
            (std::vector<std::string>{"1", "3"}));
}

TEST_F(SqlTest, InAndExistsKeepOuterDuplicates) {
  ASSERT_TRUE(db_.ExecuteScript(R"sql(
    CREATE TABLE T (A INTEGER, C VARCHAR);
    CREATE TABLE U (A INTEGER);
    CREATE TABLE UK (A INTEGER, PRIMARY KEY (A));
    INSERT INTO T VALUES (2, 'p'), (2, 'q'), (3, 'r');
    INSERT INTO U VALUES (2), (3), (3);
    INSERT INTO UK VALUES (2), (3);
  )sql")
                  .ok());
  const std::vector<std::string> want{"2", "2", "3"};
  EXPECT_EQ(Column0(Rows("SELECT X.A FROM T X WHERE X.A IN (SELECT U2.A "
                         "FROM U U2)")),
            want);
  EXPECT_EQ(Column0(Rows("SELECT X.A FROM T X WHERE EXISTS (SELECT 1 FROM "
                         "U U2 WHERE U2.A = X.A)")),
            want);
  // A keyed inner side is joined (one match per outer row) without DISTINCT.
  EXPECT_EQ(Column0(Rows("SELECT X.A FROM T X WHERE X.A IN (SELECT K.A "
                         "FROM UK K)")),
            want);
  // DISTINCT asked for by the query itself still applies.
  EXPECT_EQ(Column0(Rows("SELECT DISTINCT X.A FROM T X WHERE X.A IN (SELECT "
                         "U2.A FROM U U2)")),
            (std::vector<std::string>{"2", "3"}));
}

TEST_F(SqlTest, MixedExistsAndNotExistsConjuncts) {
  // In an ARC department AND earning the department's top salary... use a
  // NOT EXISTS for "no colleague earns more".
  std::vector<Tuple> rows = Rows(
      "SELECT ENAME FROM EMP e WHERE "
      "EXISTS (SELECT 1 FROM DEPT d WHERE d.DNO = e.EDNO AND "
      "        d.LOC = 'ARC') AND "
      "NOT EXISTS (SELECT 1 FROM EMP e2 WHERE e2.EDNO = e.EDNO AND "
      "            e2.SAL > e.SAL)");
  std::set<std::string> names;
  for (const Tuple& r : rows) names.insert(r[0].AsString());
  EXPECT_EQ(names, (std::set<std::string>{"alice", "carol"}));
}

TEST_F(SqlTest, BetweenAndInList) {
  std::vector<Tuple> rows =
      Rows("SELECT ENAME FROM EMP WHERE SAL BETWEEN 80000.0 AND 85000.0");
  EXPECT_EQ(rows.size(), 2u);  // bob, carol
  rows = Rows("SELECT ENAME FROM EMP WHERE SAL NOT BETWEEN 80000.0 AND "
              "85000.0");
  EXPECT_EQ(rows.size(), 3u);
  rows = Rows("SELECT ENAME FROM EMP WHERE ENO IN (10, 30, 999)");
  EXPECT_EQ(rows.size(), 2u);
  rows = Rows("SELECT ENAME FROM EMP WHERE ENO NOT IN (10, 30)");
  EXPECT_EQ(rows.size(), 3u);
}

TEST_F(SqlTest, UnsupportedSubqueryPlacementsRejectedNotMisevaluated) {
  // EXISTS OR plain predicate.
  Result<QueryResult> r2 = db_.Query(
      "SELECT ENO FROM EMP e WHERE EXISTS (SELECT 1 FROM DEPT d WHERE "
      "d.DNO = e.EDNO) OR SAL > 0.0");
  EXPECT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kUnsupported);
  // Mixed conjunctive and disjunctive groups.
  Result<QueryResult> r3 = db_.Query(
      "SELECT ENO FROM EMP e WHERE "
      "EXISTS (SELECT 1 FROM DEPT d WHERE d.DNO = e.EDNO) AND "
      "(EXISTS (SELECT 1 FROM DEPT d2 WHERE d2.DNO = e.EDNO) OR "
      "EXISTS (SELECT 1 FROM DEPT d3 WHERE d3.DNO = e.EDNO))");
  EXPECT_FALSE(r3.ok());
}

TEST_F(SqlTest, LikePatterns) {
  std::vector<Tuple> rows = Rows("SELECT ENAME FROM EMP WHERE ENAME LIKE '%a%'");
  EXPECT_EQ(rows.size(), 3u);  // alice, carol, dave
  rows = Rows("SELECT ENAME FROM EMP WHERE ENAME NOT LIKE '%a%'");
  EXPECT_EQ(rows.size(), 2u);  // bob, erin
}

TEST_F(SqlTest, EqualsNullMatchesNoRowThroughAnIndex) {
  ASSERT_TRUE(db_.ExecuteScript(R"sql(
    CREATE TABLE T (K INTEGER, V INTEGER);
    CREATE INDEX ON T (K);
    INSERT INTO T VALUES (NULL, 1), (2, 2);
  )sql")
                  .ok());
  ExecOptions scans;
  scans.plan.use_indexes = false;
  for (const char* sql : {"SELECT V FROM T WHERE K = NULL",
                          "SELECT V FROM T WHERE NULL = K"}) {
    for (const ExecOptions& opts : {ExecOptions{}, scans}) {
      Result<QueryResult> r = db_.Query(sql, {}, opts);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_TRUE(r.value().rows().empty())
          << sql << " use_indexes=" << opts.plan.use_indexes;
    }
  }
}

TEST_F(SqlTest, IndexAccessPathUsed) {
  // DNO is the PK and indexed; equality predicates should use it.
  Result<QueryResult> r = db_.Query("SELECT DNAME FROM DEPT WHERE DNO = 2");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().rows().size(), 1u);
  EXPECT_GE(r.value().stats.index_lookups, 1);
  EXPECT_LE(r.value().stats.rows_scanned, 1);  // no full scan

  // With indexes disabled the same query scans.
  ExecOptions opts;
  opts.plan.use_indexes = false;
  Result<QueryResult> r2 =
      db_.Query("SELECT DNAME FROM DEPT WHERE DNO = 2", {}, opts);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value().stats.index_lookups, 0);
  EXPECT_EQ(r2.value().stats.rows_scanned, 3);
}

TEST_F(SqlTest, OrderedIndexServesRangePredicates) {
  ASSERT_TRUE(db_.Execute("CREATE ORDERED INDEX ON EMP (SAL)").ok());
  Result<QueryResult> r = db_.Query(
      "SELECT ENAME FROM EMP WHERE SAL >= 80000.0 AND SAL < 90000.0");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::set<std::string> names;
  for (const Tuple& row : r.value().rows()) names.insert(row[0].AsString());
  EXPECT_EQ(names, (std::set<std::string>{"bob", "carol"}));
  // The range scan touched only the qualifying rows, not the whole table.
  EXPECT_GE(r.value().stats.index_lookups.load(), 1);
  EXPECT_EQ(r.value().stats.rows_scanned.load(), 2);

  // The plan names the range.
  Result<std::string> plan = db_.Explain(
      "SELECT ENAME FROM EMP WHERE SAL >= 80000.0 AND SAL < 90000.0");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan.value().find("RangeScan"), std::string::npos)
      << plan.value();
}

TEST_F(SqlTest, RangeScanMatchesFullScanOnBoundaryShapes) {
  ASSERT_TRUE(db_.Execute("CREATE ORDERED INDEX ON EMP (SAL)").ok());
  const char* queries[] = {
      "SELECT ENO FROM EMP WHERE SAL > 80000.0",
      "SELECT ENO FROM EMP WHERE SAL >= 80000.0",
      "SELECT ENO FROM EMP WHERE SAL < 80000.0",
      "SELECT ENO FROM EMP WHERE SAL <= 80000.0",
      "SELECT ENO FROM EMP WHERE SAL = 80000.0",
      "SELECT ENO FROM EMP WHERE 80000.0 <= SAL AND SAL <= 85000.0",
      "SELECT ENO FROM EMP WHERE SAL > 90000.0",  // empty
  };
  for (const char* sql : queries) {
    ExecOptions with, without;
    without.plan.use_indexes = false;
    Result<QueryResult> a = db_.Query(sql, {}, with);
    Result<QueryResult> b = db_.Query(sql, {}, without);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    std::multiset<int64_t> ra, rb;
    for (const Tuple& row : a.value().rows()) ra.insert(row[0].AsInt());
    for (const Tuple& row : b.value().rows()) rb.insert(row[0].AsInt());
    EXPECT_EQ(ra, rb) << sql;
  }
}

TEST_F(SqlTest, OrderedIndexMaintainedAcrossMutations) {
  ASSERT_TRUE(db_.Execute("CREATE ORDERED INDEX ON EMP (SAL)").ok());
  ASSERT_TRUE(db_.Execute("UPDATE EMP SET SAL = 95000.0 WHERE ENO = 20").ok());
  ASSERT_TRUE(db_.Execute("DELETE FROM EMP WHERE ENO = 30").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO EMP VALUES (60, 'fred', 1, "
                          "99000.0)")
                  .ok());
  Result<QueryResult> r =
      db_.Query("SELECT ENO FROM EMP WHERE SAL > 90000.0");
  ASSERT_TRUE(r.ok());
  std::set<int64_t> enos;
  for (const Tuple& row : r.value().rows()) enos.insert(row[0].AsInt());
  EXPECT_EQ(enos, (std::set<int64_t>{20, 60}));
}

TEST_F(SqlTest, HashJoinVersusNestedLoopSameResult) {
  const char* sql =
      "SELECT e.ENO, d.DNO FROM EMP e, DEPT d WHERE e.EDNO = d.DNO";
  ExecOptions hash, nl;
  nl.plan.use_hash_join = false;
  Result<QueryResult> a = db_.Query(sql, {}, hash);
  Result<QueryResult> b = db_.Query(sql, {}, nl);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto key = [](const QueryResult& qr) {
    std::multiset<std::pair<int64_t, int64_t>> k;
    for (const Tuple& row : qr.rows()) {
      k.emplace(row[0].AsInt(), row[1].AsInt());
    }
    return k;
  };
  EXPECT_EQ(key(a.value()), key(b.value()));
}

TEST_F(SqlTest, UnionDeduplicatesAcrossMembers) {
  std::vector<Tuple> rows = Rows(
      "SELECT LOC FROM DEPT UNION SELECT ENAME FROM EMP WHERE ENO = 10");
  // ARC, ARC, YKT dedup to 2, plus 'alice'.
  EXPECT_EQ(rows.size(), 3u);
}

TEST_F(SqlTest, UnionAllKeepsDuplicates) {
  std::vector<Tuple> rows =
      Rows("SELECT LOC FROM DEPT UNION ALL SELECT LOC FROM DEPT");
  EXPECT_EQ(rows.size(), 6u);
}

TEST_F(SqlTest, UnionWithOrderByAndLimit) {
  std::vector<Tuple> rows = Rows(
      "SELECT ENO FROM EMP WHERE ENO < 30 UNION "
      "SELECT ENO FROM EMP WHERE ENO >= 30 ORDER BY ENO DESC LIMIT 2");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].AsInt(), 50);
  EXPECT_EQ(rows[1][0].AsInt(), 40);
}

TEST_F(SqlTest, UnionArityMismatchRejected) {
  EXPECT_FALSE(
      db_.Query("SELECT ENO FROM EMP UNION SELECT ENO, ENAME FROM EMP")
          .ok());
}

TEST_F(SqlTest, UnsupportedExistsSubqueryShapesRejected) {
  // These must fail loudly, not be silently mis-evaluated.
  EXPECT_FALSE(db_.Query(
                     "SELECT ENO FROM EMP e WHERE EXISTS (SELECT DNO FROM "
                     "DEPT UNION SELECT EDNO FROM EMP)")
                   .ok());
  EXPECT_FALSE(db_.Query(
                     "SELECT ENO FROM EMP e WHERE EXISTS (SELECT EDNO FROM "
                     "EMP GROUP BY EDNO HAVING COUNT(*) > 1)")
                   .ok());
  EXPECT_FALSE(db_.Query(
                     "SELECT ENO FROM EMP e WHERE EXISTS (SELECT DNO FROM "
                     "DEPT LIMIT 1)")
                   .ok());
}

TEST_F(SqlTest, ThreeWayUnionChain) {
  std::vector<Tuple> rows = Rows(
      "SELECT 1 FROM DEPT WHERE DNO = 1 UNION ALL "
      "SELECT 2 FROM DEPT WHERE DNO = 1 UNION ALL "
      "SELECT 3 FROM DEPT WHERE DNO = 1");
  EXPECT_EQ(rows.size(), 3u);
}

TEST_F(SqlTest, LimitAndOffset) {
  std::vector<Tuple> rows =
      Rows("SELECT ENO FROM EMP ORDER BY ENO LIMIT 2");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].AsInt(), 10);
  rows = Rows("SELECT ENO FROM EMP ORDER BY ENO LIMIT 2 OFFSET 3");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].AsInt(), 40);
  rows = Rows("SELECT ENO FROM EMP ORDER BY ENO LIMIT 0");
  EXPECT_TRUE(rows.empty());
  rows = Rows("SELECT ENO FROM EMP LIMIT 100");
  EXPECT_EQ(rows.size(), 5u);
}

TEST_F(SqlTest, DerivedTableInFrom) {
  std::vector<Tuple> rows = Rows(
      "SELECT t.ENAME FROM (SELECT ENAME, SAL FROM EMP WHERE SAL > "
      "75000.0) t WHERE t.SAL < 90000.0");
  EXPECT_EQ(rows.size(), 2u);  // bob, carol
}

TEST_F(SqlTest, SqlViewExpandsInline) {
  ASSERT_TRUE(db_.Execute("CREATE VIEW ARC_EMPS AS SELECT e.* FROM EMP e, "
                          "DEPT d WHERE e.EDNO = d.DNO AND d.LOC = 'ARC'")
                  .ok());
  std::vector<Tuple> rows =
      Rows("SELECT ENAME FROM ARC_EMPS WHERE SAL > 80000.0");
  EXPECT_EQ(rows.size(), 2u);
}

TEST_F(SqlTest, UpdateWithRowExpression) {
  Result<Database::Outcome> r =
      db_.Execute("UPDATE EMP SET SAL = SAL * 2 WHERE ENO = 10");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().affected, 1u);
  std::vector<Tuple> rows = Rows("SELECT SAL FROM EMP WHERE ENO = 10");
  EXPECT_DOUBLE_EQ(rows[0][0].AsDouble(), 180000.0);
}

TEST_F(SqlTest, DeleteWithPredicate) {
  Result<Database::Outcome> r =
      db_.Execute("DELETE FROM EMP WHERE SAL < 80000.0");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().affected, 2u);
  EXPECT_EQ(Rows("SELECT ENO FROM EMP").size(), 3u);
}

TEST_F(SqlTest, SemanticErrors) {
  EXPECT_FALSE(db_.Query("SELECT NOPE FROM EMP").ok());
  EXPECT_FALSE(db_.Query("SELECT * FROM NOPE").ok());
  EXPECT_FALSE(db_.Query("SELECT e.ENO FROM EMP e, EMP e").ok());  // dup alias
  // Ambiguous unqualified column across two tables.
  EXPECT_FALSE(db_.Query("SELECT ENO FROM EMP a, EMP b").ok());
  // Aggregate mixed with plain column without GROUP BY.
  EXPECT_FALSE(db_.Query("SELECT ENAME, COUNT(*) FROM EMP").ok());
}

TEST_F(SqlTest, XnfViewCannotBeUsedAsPlainTable) {
  ASSERT_TRUE(db_.Execute("CREATE VIEW COV AS OUT OF x AS EMP TAKE *").ok());
  Result<QueryResult> r = db_.Query("SELECT * FROM COV");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kSemanticError);
}

TEST_F(SqlTest, StoredXnfViewQueryableByName) {
  ASSERT_TRUE(db_.Execute("CREATE VIEW COV AS OUT OF x AS EMP TAKE *").ok());
  Result<QueryResult> r = db_.Query("COV");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().RowCount(0), 5u);
}

}  // namespace
}  // namespace xnfdb
