// Unit tests for the write-back planner: updatability analysis of component
// and relationship definitions (paper Sect. 2's updatability rules) and the
// generated SQL.

#include <gtest/gtest.h>

#include <functional>
#include <random>

#include "cache/writeback.h"
#include "cache/xnf_cache.h"
#include "obs/metrics.h"
#include "parser/parser.h"
#include "tests/paper_db.h"

namespace xnfdb {
namespace {

class WriteBackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(testing_util::LoadPaperDb(&db_).ok());
  }

  // Evaluates a query and analyzes one component.
  ComponentPlan Analyze(const std::string& query,
                        const std::string& component) {
    cache_ = XNFCache::Evaluate(&db_, query).value();
    WriteBackPlanner planner(&db_, &cache_->definition());
    ComponentTable* comp =
        cache_->workspace().component(component).value();
    return planner.AnalyzeComponent(*comp).value();
  }

  RelationshipPlan AnalyzeRel(const std::string& query,
                              const std::string& rel) {
    cache_ = XNFCache::Evaluate(&db_, query).value();
    WriteBackPlanner planner(&db_, &cache_->definition());
    Relationship* r = cache_->workspace().relationship(rel).value();
    return planner.AnalyzeRelationship(*r, &cache_->workspace()).value();
  }

  Database db_;
  std::unique_ptr<XNFCache> cache_;
};

TEST_F(WriteBackTest, ShortcutComponentIsUpdatable) {
  ComponentPlan plan = Analyze("OUT OF x AS EMP TAKE *", "X");
  EXPECT_TRUE(plan.updatable);
  EXPECT_EQ(plan.base_table, "EMP");
  EXPECT_EQ(plan.column_map, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(plan.key_cached_col, 0);  // ENO is the PK
}

TEST_F(WriteBackTest, SelectionViewIsUpdatable) {
  ComponentPlan plan = Analyze(
      "OUT OF x AS (SELECT * FROM EMP WHERE SAL > 0.0) TAKE *", "X");
  EXPECT_TRUE(plan.updatable);
}

TEST_F(WriteBackTest, ProjectedColumnsMapThroughAliases) {
  ComponentPlan plan = Analyze(
      "OUT OF x AS (SELECT ENAME AS N, ENO FROM EMP) TAKE *", "X");
  ASSERT_TRUE(plan.updatable);
  EXPECT_EQ(plan.column_map, (std::vector<int>{1, 0}));  // N->ENAME, ENO
  EXPECT_EQ(plan.key_cached_col, 1);
}

TEST_F(WriteBackTest, JoinViewIsNotUpdatable) {
  ComponentPlan plan = Analyze(
      "OUT OF x AS (SELECT e.ENO, d.DNAME FROM EMP e, DEPT d "
      "WHERE e.EDNO = d.DNO) TAKE *",
      "X");
  EXPECT_FALSE(plan.updatable);
  EXPECT_NE(plan.reason.find("join"), std::string::npos);
}

TEST_F(WriteBackTest, ComputedColumnIsNotUpdatable) {
  ComponentPlan plan = Analyze(
      "OUT OF x AS (SELECT ENO, SAL * 2 AS DOUBLE_SAL FROM EMP) TAKE *",
      "X");
  EXPECT_FALSE(plan.updatable);
}

TEST_F(WriteBackTest, DistinctViewIsNotUpdatable) {
  ComponentPlan plan = Analyze(
      "OUT OF x AS (SELECT DISTINCT EDNO FROM EMP) TAKE *", "X");
  EXPECT_FALSE(plan.updatable);
}

TEST_F(WriteBackTest, ProjectedOutPrimaryKeyFallsBackToFullMatch) {
  ComponentPlan plan = Analyze(
      "OUT OF x AS (SELECT ENAME, SAL FROM EMP) TAKE *", "X");
  ASSERT_TRUE(plan.updatable);
  EXPECT_EQ(plan.key_cached_col, -1);  // no PK in the cache
}

TEST_F(WriteBackTest, ForeignKeyRelationshipPlan) {
  RelationshipPlan plan = AnalyzeRel(
      "OUT OF d AS DEPT, e AS EMP, "
      "r AS (RELATE d VIA EMPLOYS, e WHERE d.DNO = e.EDNO) TAKE *",
      "R");
  EXPECT_EQ(plan.kind, RelationshipPlan::Kind::kForeignKey);
  EXPECT_EQ(plan.child_base, "EMP");
  EXPECT_EQ(plan.child_fk_column, "EDNO");
}

TEST_F(WriteBackTest, ConnectTableRelationshipPlan) {
  RelationshipPlan plan = AnalyzeRel(
      "OUT OF e AS EMP, s AS SKILLS, "
      "r AS (RELATE e VIA HAS, s USING EMPSKILLS es "
      "      WHERE e.ENO = es.ESENO AND es.ESSNO = s.SNO) TAKE *",
      "R");
  EXPECT_EQ(plan.kind, RelationshipPlan::Kind::kConnectTable);
  EXPECT_EQ(plan.connect_table, "EMPSKILLS");
  EXPECT_EQ(plan.ct_parent_column, "ESENO");
  EXPECT_EQ(plan.ct_child_column, "ESSNO");
}

TEST_F(WriteBackTest, UndeclaredForeignKeyRejected) {
  // DEPT.DNO = PROJ.PNO has no declared FK from PROJ.PNO to DEPT.
  RelationshipPlan plan = AnalyzeRel(
      "OUT OF d AS DEPT, p AS PROJ, "
      "r AS (RELATE d VIA OWNS, p WHERE d.DNO = p.PNO) TAKE *",
      "R");
  EXPECT_EQ(plan.kind, RelationshipPlan::Kind::kNotUpdatable);
  EXPECT_NE(plan.reason.find("foreign key"), std::string::npos);
}

TEST_F(WriteBackTest, RichPredicateRejected) {
  RelationshipPlan plan = AnalyzeRel(
      "OUT OF d AS DEPT, e AS EMP, "
      "r AS (RELATE d VIA EMPLOYS, e WHERE d.DNO = e.EDNO AND e.SAL > 0.0) "
      "TAKE *",
      "R");
  // The extra non-join conjunct is tolerated only if it is an equality;
  // SAL > 0 makes the predicate richer than FK form.
  EXPECT_EQ(plan.kind, RelationshipPlan::Kind::kNotUpdatable);
}

TEST_F(WriteBackTest, SqlLiteralEscapesQuotes) {
  EXPECT_EQ(SqlLiteral(Value("it's")), "'it''s'");
  EXPECT_EQ(SqlLiteral(Value(int64_t{42})), "42");
  EXPECT_EQ(SqlLiteral(Value::Null()), "NULL");
  EXPECT_EQ(SqlLiteral(Value(1234567.5)), "1234567.5");
  EXPECT_EQ(SqlLiteral(Value(45000.0)), "45000.0");
  EXPECT_EQ(SqlLiteral(Value(0.1)), "0.1");
  EXPECT_EQ(SqlLiteral(Value(-2.5e-300)), "-2.5e-300");
  EXPECT_EQ(SqlLiteral(Value(0.1 + 0.2)), "0.30000000000000004");
  EXPECT_EQ(SqlLiteral(Value(1e300)), "1e+300");
}

TEST_F(WriteBackTest, UpdateWithoutPkMatchesOnAllOriginalColumns) {
  auto cache = XNFCache::Evaluate(
      &db_, "OUT OF x AS (SELECT ENAME, SAL FROM EMP) TAKE *");
  ASSERT_TRUE(cache.ok());
  ComponentTable* x = cache.value()->workspace().component("X").value();
  CachedRow* row = x->FindByValue(0, Value("e1"));
  ASSERT_NE(row, nullptr);
  ASSERT_TRUE(cache.value()->Update(row, "SAL", Value(123.0)).ok());
  Result<std::vector<std::string>> stmts = cache.value()->WriteBack();
  ASSERT_TRUE(stmts.ok()) << stmts.status().ToString();
  ASSERT_EQ(stmts.value().size(), 1u);
  // The predicate must use both original values.
  EXPECT_NE(stmts.value()[0].find("ENAME = 'e1'"), std::string::npos);
  EXPECT_NE(stmts.value()[0].find("AND"), std::string::npos);
}

TEST_F(WriteBackTest, DisconnectThenWriteBackDeletesConnectRow) {
  auto cache = XNFCache::Evaluate(&db_, testing_util::kDepsArcQuery);
  ASSERT_TRUE(cache.ok());
  Workspace& ws = cache.value()->workspace();
  CachedRow* e1 = ws.component("XEMP").value()->FindByValue(
      0, Value(int64_t{10}));
  CachedRow* s1 = ws.component("XSKILLS").value()->FindByValue(
      0, Value(int64_t{1000}));
  ASSERT_TRUE(
      cache.value()->Disconnect("EMPPROPERTY", e1, s1).ok());
  Result<std::vector<std::string>> stmts = cache.value()->WriteBack();
  ASSERT_TRUE(stmts.ok()) << stmts.status().ToString();
  Result<QueryResult> check = db_.Query(
      "SELECT ESSNO FROM EMPSKILLS WHERE ESENO = 10");
  ASSERT_TRUE(check.ok());
  EXPECT_TRUE(check.value().rows().empty());
}

// In a self-relationship the role names the parent and the bare component
// name the child, so both equalities find their side and a connect writes
// one connect-table row from the parent to the child.
TEST_F(WriteBackTest, SelfRelationshipConnectWritesConnectRow) {
  ASSERT_TRUE(db_.ExecuteScript(
                     "CREATE TABLE PART (PNO INTEGER);"
                     "CREATE TABLE CONNECTION (CFROM INTEGER, CTO INTEGER);"
                     "INSERT INTO PART VALUES (1), (2), (3);"
                     "INSERT INTO CONNECTION VALUES (1, 2), (1, 3);")
                  .ok());
  Result<std::unique_ptr<XNFCache>> cache = XNFCache::Evaluate(
      &db_,
      "OUT OF root AS (SELECT * FROM PART WHERE PNO = 1), xpart AS PART, "
      "anchor AS (RELATE root VIA ANCHORS, xpart USING CONNECTION c "
      "           WHERE root.PNO = c.CFROM AND c.CTO = xpart.PNO), "
      "links AS (RELATE xpart VIA LINKS, xpart USING CONNECTION c "
      "          WHERE links.PNO = c.CFROM AND c.CTO = xpart.PNO) "
      "TAKE *");
  ASSERT_TRUE(cache.ok()) << cache.status().ToString();
  cache_ = std::move(cache).value();
  ComponentTable* parts = cache_->workspace().component("XPART").value();
  CachedRow* from = parts->FindByValue(0, Value(int64_t{2}));
  CachedRow* to = parts->FindByValue(0, Value(int64_t{3}));
  ASSERT_NE(from, nullptr);
  ASSERT_NE(to, nullptr);
  ASSERT_TRUE(cache_->workspace().Connect("LINKS", from, to).ok());
  Result<std::vector<std::string>> stmts = cache_->WriteBack();
  ASSERT_TRUE(stmts.ok()) << stmts.status().ToString();
  EXPECT_EQ(stmts.value(),
            std::vector<std::string>{"INSERT INTO CONNECTION VALUES (2, 3)"});
  Result<QueryResult> check =
      db_.Query("SELECT CFROM, CTO FROM CONNECTION WHERE CFROM = 2");
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  ASSERT_EQ(check.value().rows().size(), 1u);
  EXPECT_EQ(check.value().rows()[0][0].AsInt(), 2);
  EXPECT_EQ(check.value().rows()[0][1].AsInt(), 3);
}

// DOUBLE values are written with the shortest digits that read back
// exactly, and always as DOUBLE literals, so the server stores exactly the
// cached value.
TEST_F(WriteBackTest, DoubleValuesRoundTripThroughWriteBack) {
  for (double sal : {1234567.5, 45000.0, 0.1, -2.5e-300, 0.1 + 0.2}) {
    cache_ = XNFCache::Evaluate(&db_, "OUT OF x AS EMP TAKE *").value();
    CachedRow* row = cache_->workspace().component("X").value()->FindByValue(
        0, Value(int64_t{10}));
    ASSERT_NE(row, nullptr);
    ASSERT_TRUE(cache_->Update(row, "SAL", Value(sal)).ok());
    Result<std::vector<std::string>> stmts = cache_->WriteBack();
    ASSERT_TRUE(stmts.ok()) << stmts.status().ToString();
    Result<QueryResult> check =
        db_.Query("SELECT SAL FROM EMP WHERE ENO = 10");
    ASSERT_TRUE(check.ok()) << check.status().ToString();
    ASSERT_EQ(check.value().rows().size(), 1u);
    const Value stored = check.value().rows()[0][0];
    ASSERT_EQ(stored.type(), DataType::kDouble)
        << sal << " written as: " << stmts.value()[0];
    EXPECT_EQ(stored.AsDouble(), sal) << "written as: " << stmts.value()[0];
  }
}

// Write-back visits only the pending rows and connections, but emits them
// in row and connection order whatever order the edits were made in. The
// edits touch every statement kind on the Fig. 1 cache; at most one
// connect per relationship and one insert per component, whose positions
// are fixed by the edit order.
TEST_F(WriteBackTest, PendingChangesPlanInRowOrderForAnyEditOrder) {
  const std::vector<std::string> want = {
      "UPDATE DEPT SET DNAME = 'OS2' WHERE DNO = 2",
      "UPDATE EMP SET ENAME = 'x''s' WHERE ENO = 10",
      "UPDATE EMP SET SAL = 45000.0 WHERE ENO = 20",
      "UPDATE EMP SET SAL = 1234567.5 WHERE ENO = 30",
      "INSERT INTO PROJ VALUES (400, 'p4', 1)",
      "UPDATE EMP SET EDNO = NULL WHERE ENO = 30",
      "UPDATE EMP SET EDNO = 1 WHERE ENO = 30",
      "DELETE FROM EMPSKILLS WHERE ESENO = 20 AND ESSNO = 3000",
      "INSERT INTO EMPSKILLS VALUES (10, 4000)",
      "DELETE FROM SKILLS WHERE SNO = 5000",
  };
  for (uint32_t seed = 1; seed <= 20; ++seed) {
    cache_ = XNFCache::Evaluate(&db_, testing_util::kDepsArcQuery).value();
    Workspace& ws = cache_->workspace();
    auto row = [&](const char* comp, int64_t key) {
      return ws.component(comp).value()->FindByValue(0, Value(key));
    };
    std::vector<std::function<Status()>> edits = {
        [&] { return ws.UpdateRow(row("XEMP", 30), 3, Value(1234567.5)); },
        [&] { return ws.UpdateRow(row("XEMP", 10), 1, Value("x's")); },
        [&] { return ws.UpdateRow(row("XDEPT", 2), 1, Value("OS2")); },
        [&] { return ws.UpdateRow(row("XEMP", 20), 3, Value(45000.0)); },
        [&] {
          return ws.InsertRow("XPROJ", {Value(int64_t{400}), Value("p4"),
                                        Value(int64_t{1})})
              .status();
        },
        [&] { return ws.DeleteRow(row("XSKILLS", 5000)); },
        [&] {
          return ws.Disconnect("EMPLOYMENT", row("XDEPT", 2), row("XEMP", 30));
        },
        [&] {
          return ws.Connect("EMPLOYMENT", row("XDEPT", 1), row("XEMP", 30));
        },
        [&] {
          return ws.Disconnect("EMPPROPERTY", row("XEMP", 20),
                               row("XSKILLS", 3000));
        },
        [&] {
          return ws.Connect("EMPPROPERTY", row("XEMP", 10),
                            row("XSKILLS", 4000));
        },
        // Edits that plan nothing: an unchanged value, a connect undone.
        [&] { return ws.UpdateRow(row("XPROJ", 200), 1, Value("p2")); },
        [&] {
          XNFDB_RETURN_IF_ERROR(ws.Connect("PROJPROPERTY", row("XPROJ", 100),
                                           row("XSKILLS", 1000)));
          return ws.Disconnect("PROJPROPERTY", row("XPROJ", 100),
                               row("XSKILLS", 1000));
        },
    };
    // Fisher-Yates with the raw engine output: the same order everywhere.
    std::mt19937 rng(seed);
    for (size_t i = edits.size() - 1; i > 0; --i) {
      std::swap(edits[i], edits[rng() % (i + 1)]);
    }
    for (auto& edit : edits) ASSERT_TRUE(edit().ok()) << "seed " << seed;
    ASSERT_TRUE(ws.HasPendingChanges());
    WriteBackPlanner planner(&db_, &cache_->definition());
    Result<std::vector<std::string>> plan = planner.Plan(&ws);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_EQ(plan.value(), want) << "seed " << seed;
  }
}

// Injected transient failures used to be invisible to callers; now every
// retry and every exhausted operation lands in the process-wide registry.
TEST_F(WriteBackTest, TransientRetriesAreCountedAsMetrics) {
  cache_ = XNFCache::Evaluate(&db_, "OUT OF x AS EMP TAKE *").value();
  CachedRow* row = cache_->workspace().component("X").value()->FindByValue(
      0, Value(int64_t{10}));
  ASSERT_NE(row, nullptr);
  ASSERT_TRUE(cache_->Update(row, "SAL", Value(95000.0)).ok());

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  const int64_t retries_before = reg.GetCounter("writeback.retries")->value();
  const int64_t failures_before =
      reg.GetCounter("writeback.failures")->value();

  db_.InjectTransientFailures(2);
  WriteBackOptions options;
  options.backoff_initial_ms = 0;
  Result<std::vector<std::string>> stmts = cache_->WriteBack(options);
  ASSERT_TRUE(stmts.ok()) << stmts.status().ToString();

  EXPECT_EQ(reg.GetCounter("writeback.retries")->value() - retries_before, 2);
  EXPECT_EQ(reg.GetCounter("writeback.failures")->value() - failures_before,
            0);
}

TEST_F(WriteBackTest, ExhaustedRetriesCountAsFailure) {
  cache_ = XNFCache::Evaluate(&db_, "OUT OF x AS EMP TAKE *").value();
  CachedRow* row = cache_->workspace().component("X").value()->FindByValue(
      0, Value(int64_t{10}));
  ASSERT_NE(row, nullptr);
  ASSERT_TRUE(cache_->Update(row, "SAL", Value(96000.0)).ok());

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  const int64_t retries_before = reg.GetCounter("writeback.retries")->value();
  const int64_t failures_before =
      reg.GetCounter("writeback.failures")->value();

  db_.InjectTransientFailures(100);
  WriteBackOptions options;
  options.backoff_initial_ms = 0;
  options.max_retries = 2;
  Result<std::vector<std::string>> stmts = cache_->WriteBack(options);
  ASSERT_FALSE(stmts.ok());
  db_.InjectTransientFailures(0);

  EXPECT_EQ(reg.GetCounter("writeback.retries")->value() - retries_before, 2);
  EXPECT_EQ(reg.GetCounter("writeback.failures")->value() - failures_before,
            1);
}

TEST_F(WriteBackTest, BackoffJitterIsBoundedAndDeterministicWithSeed) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  obs::Counter* backoff = reg.GetCounter("writeback.backoff_ms");
  int64_t slept[2] = {0, 0};
  for (int run = 0; run < 2; ++run) {
    cache_ = XNFCache::Evaluate(&db_, "OUT OF x AS EMP TAKE *").value();
    CachedRow* row = cache_->workspace().component("X").value()->FindByValue(
        0, Value(int64_t{10}));
    ASSERT_NE(row, nullptr);
    ASSERT_TRUE(cache_->Update(row, "SAL", Value(97000.0 + run)).ok());

    db_.InjectTransientFailures(100);
    WriteBackOptions options;
    options.backoff_initial_ms = 2;
    options.max_retries = 3;
    options.jitter_seed = 0x9e3779b97f4a7c15ull;
    const int64_t before = backoff->value();
    Result<std::vector<std::string>> stmts = cache_->WriteBack(options);
    ASSERT_FALSE(stmts.ok());
    db_.InjectTransientFailures(0);
    slept[run] = backoff->value() - before;

    // Equal jitter keeps each sleep within [delay/2, delay]: three retries
    // at exponential delays 2, 4, 8 ms sleep between 7 and 14 ms total.
    EXPECT_GE(slept[run], 1 + 2 + 4);
    EXPECT_LE(slept[run], 2 + 4 + 8);
  }
  // Identical seed, identical jitter sequence.
  EXPECT_EQ(slept[0], slept[1]);
}

}  // namespace
}  // namespace xnfdb
