// Plan-quality observability: rewrite-rule traces, cardinality feedback and
// plan-change detection (SYS$REWRITES / SYS$PLAN_FEEDBACK /
// SYS$PLAN_HISTORY), plus the q-error edge cases and the store's bounds.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "api/database.h"
#include "common/log.h"
#include "obs/digest_store.h"
#include "obs/plan_feedback.h"
#include "tests/paper_db.h"
#include "xnf/compiler.h"

namespace xnfdb {
namespace {

std::vector<Tuple> MustRows(Database* db, const std::string& sql) {
  Result<QueryResult> r = db->Query(sql);
  EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  if (!r.ok()) return {};
  return r.value().rows();
}

int64_t CounterOr0(Database* db, const std::string& name) {
  obs::MetricsSnapshot snap = db->metrics().Snapshot();
  auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

TEST(QErrorTest, EdgesAreFiniteAndSymmetric) {
  // Both sides clamp to >= 1 row, so the zero edges stay finite.
  EXPECT_DOUBLE_EQ(obs::QError(0.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(obs::QError(0.0, 5.0), 5.0);
  EXPECT_DOUBLE_EQ(obs::QError(5.0, 0.0), 5.0);
  EXPECT_DOUBLE_EQ(obs::QError(10.0, 1000.0), 100.0);
  EXPECT_DOUBLE_EQ(obs::QError(1000.0, 10.0), 100.0);
  EXPECT_DOUBLE_EQ(obs::QError(42.0, 42.0), 1.0);
}

TEST(RewriteTraceTest, CompileTraceIsDeterministic) {
  Database db;
  ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
  Result<CompiledQuery> a =
      CompileQueryString(db.catalog(), testing_util::kDepsArcQuery);
  Result<CompiledQuery> b =
      CompileQueryString(db.catalog(), testing_util::kDepsArcQuery);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const obs::RewriteTrace& ta = a.value().rewrite_stats.trace;
  const obs::RewriteTrace& tb = b.value().rewrite_stats.trace;
  ASSERT_FALSE(ta.events.empty());
  ASSERT_EQ(ta.events.size(), tb.events.size());
  for (size_t i = 0; i < ta.events.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(ta.events[i].rule, tb.events[i].rule);
    EXPECT_EQ(ta.events[i].pass, tb.events[i].pass);
    EXPECT_EQ(ta.events[i].fired, tb.events[i].fired);
    EXPECT_EQ(ta.events[i].rejected, tb.events[i].rejected);
    EXPECT_EQ(ta.events[i].boxes_before, tb.events[i].boxes_before);
    EXPECT_EQ(ta.events[i].boxes_after, tb.events[i].boxes_after);
  }
  // The XNF semantic rewrite phase leads the log as a pass-0 pseudo-rule.
  EXPECT_EQ(ta.events[0].rule, "XnfSemanticRewrite");
  EXPECT_EQ(ta.events[0].pass, 0);
  EXPECT_TRUE(ta.events[0].fired);
}

TEST(RewriteTraceTest, ExplainRewritePrintsOrderedRuleLog) {
  Database db;
  ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
  Database::ExplainOptions xopts;
  xopts.rewrite = true;
  Result<std::string> out =
      db.Explain(testing_util::kDepsArcQuery, xopts);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  const std::string& text = out.value();
  EXPECT_NE(text.find("rewrite log ("), std::string::npos) << text;
  EXPECT_NE(text.find("XnfSemanticRewrite"), std::string::npos) << text;
  // The log precedes the plan body, and the body is still the plain
  // EXPLAIN rendering.
  EXPECT_LT(text.find("rewrite log ("), text.find("operations: "));
  EXPECT_NE(text.find("output XDEPT:"), std::string::npos) << text;
  // Events are numbered in firing order.
  EXPECT_NE(text.find("#1"), std::string::npos) << text;
}

TEST(RewriteTraceTest, RuleMetricsPublishedToRegistry) {
  Database db;
  ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
  ASSERT_TRUE(db.Query(testing_util::kDepsArcQuery).ok());
  obs::MetricsSnapshot snap = db.metrics().Snapshot();
  EXPECT_GT(snap.counters.at("rewrite.rule.XnfSemanticRewrite.fired"), 0);
  bool saw_engine_rule = false;
  for (const auto& [name, v] : snap.counters) {
    if (name.rfind("rewrite.rule.", 0) == 0 &&
        name.find("XnfSemanticRewrite") == std::string::npos && v > 0) {
      saw_engine_rule = true;
    }
  }
  EXPECT_TRUE(saw_engine_rule);
}

TEST(PlanFeedbackTest, PlanHashStableAcrossExecutionKnobs) {
  Database db;
  // This test is about the join-tree plan shape of repeated real
  // executions; keep the matview store from flipping the third run to a
  // matview_scan plan (that flip has its own coverage in matview_test).
  db.matviews().set_enabled(false);
  ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
  const char* q = "SELECT ENAME FROM EMP WHERE SAL > 75000.0";
  ExecOptions base;
  Result<QueryResult> a = db.Query(q, {}, base);
  ASSERT_TRUE(a.ok());
  ASSERT_NE(a.value().plan_hash, 0u);
  ExecOptions small_batches;
  small_batches.batch_size = 1;
  Result<QueryResult> b = db.Query(q, {}, small_batches);
  ASSERT_TRUE(b.ok());
  ExecOptions morsels;
  morsels.morsel_workers = 4;
  morsels.morsel_rows = 2;
  Result<QueryResult> c = db.Query(q, {}, morsels);
  ASSERT_TRUE(c.ok());
  // The plan-shape hash keys plan-change detection: execution knobs that
  // do not change the operator tree must not flip it.
  EXPECT_EQ(a.value().plan_hash, b.value().plan_hash);
  EXPECT_EQ(a.value().plan_hash, c.value().plan_hash);
  EXPECT_EQ(a.value().plan_shape, c.value().plan_shape);
}

TEST(PlanFeedbackTest, IndexCreationFlipsPlanAndWarns) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE T (A INTEGER, B INTEGER)").ok());
  std::string script;
  for (int i = 0; i < 32; ++i) {
    script += "INSERT INTO T VALUES (" + std::to_string(i) + ", 0);";
  }
  ASSERT_TRUE(db.ExecuteScript(script).ok());
  const char* q = "SELECT B FROM T WHERE A = 7";
  ASSERT_TRUE(db.Query(q).ok());
  const int64_t changes_before = CounterOr0(&db, "plan.changes");
  std::vector<std::string> lines;
  Logger::Default().SetSink([&](const std::string& l) { lines.push_back(l); });
  ASSERT_TRUE(db.Execute("CREATE INDEX ON T (A)").ok());
  Result<QueryResult> after = db.Query(q);
  Logger::Default().SetSink(nullptr);
  ASSERT_TRUE(after.ok());
  EXPECT_NE(after.value().plan_shape.find("index_scan:T.A"),
            std::string::npos)
      << after.value().plan_shape;
  EXPECT_EQ(CounterOr0(&db, "plan.changes"), changes_before + 1);
  bool warned = false;
  for (const std::string& l : lines) {
    if (l.find("planchange") != std::string::npos &&
        l.find("statement plan changed") != std::string::npos) {
      warned = true;
      EXPECT_NE(l.find("from_plan"), std::string::npos) << l;
      EXPECT_NE(l.find("to_plan"), std::string::npos) << l;
    }
  }
  EXPECT_TRUE(warned);
  // The history keeps both plans, with the index plan marked current.
  std::vector<Tuple> rows = MustRows(
      &db, "SELECT PLAN_SHAPE, CURRENT FROM SYS$PLAN_HISTORY");
  int for_t = 0, current_index_plan = 0;
  for (const Tuple& row : rows) {
    const std::string& shape = row[0].AsString();
    if (shape.find("scan:T") == std::string::npos) continue;
    ++for_t;
    if (shape.find("index_scan:T.A") != std::string::npos &&
        row[1].AsInt() == 1) {
      ++current_index_plan;
    }
  }
  EXPECT_GE(for_t, 2);
  EXPECT_EQ(current_index_plan, 1);
}

TEST(PlanFeedbackTest, AllThreeViewsQueryableThroughSql) {
  Database db;
  ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
  ASSERT_TRUE(db.Query("SELECT ENAME FROM EMP WHERE SAL > 75000.0").ok());
  ASSERT_TRUE(db.Query(testing_util::kDepsArcQuery).ok());
  std::vector<Tuple> rewrites = MustRows(
      &db, "SELECT DIGEST, SEQ, RULE, FIRED FROM SYS$REWRITES");
  EXPECT_FALSE(rewrites.empty());
  std::vector<Tuple> feedback = MustRows(
      &db,
      "SELECT DIGEST, RANK, OP, EST_ROWS, ACTUAL_ROWS, Q_ERROR "
      "FROM SYS$PLAN_FEEDBACK");
  ASSERT_FALSE(feedback.empty());
  for (const Tuple& row : feedback) {
    EXPECT_GE(row[1].AsInt(), 1);          // RANK
    EXPECT_GE(row[5].AsDouble(), 1.0);     // Q_ERROR is always >= 1
  }
  std::vector<Tuple> plans = MustRows(
      &db,
      "SELECT DIGEST, PLAN_HASH, PLAN_SHAPE, EXECUTIONS, CURRENT "
      "FROM SYS$PLAN_HISTORY");
  ASSERT_FALSE(plans.empty());
  for (const Tuple& row : plans) {
    EXPECT_GE(row[3].AsInt(), 1);
  }
  // Worst offenders are ranked: within a digest, rank 1 has the highest
  // q-error.
  std::vector<Tuple> ranked = MustRows(
      &db, "SELECT DIGEST, RANK, Q_ERROR FROM SYS$PLAN_FEEDBACK");
  for (const Tuple& a : ranked) {
    for (const Tuple& b : ranked) {
      if (a[0].AsString() == b[0].AsString() &&
          a[1].AsInt() < b[1].AsInt()) {
        EXPECT_GE(a[2].AsDouble(), b[2].AsDouble());
      }
    }
  }
}

TEST(PlanFeedbackTest, StoreIsBoundedAndEvictsOldestPlan) {
  obs::DigestStore store(/*capacity=*/2);
  obs::RewriteTrace trace;
  store.RecordCompile(1, "q1", trace);
  store.RecordCompile(2, "q2", trace);
  store.RecordCompile(3, "q3", trace);  // over capacity: dropped
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.dropped(), 1);
  // kMaxPlans + 1 distinct plans for digest 1: the oldest-seen one is
  // evicted.
  const uint64_t kPlans = obs::DigestStore::kMaxPlans + 1;
  for (uint64_t h = 1; h <= kPlans; ++h) {
    store.RecordExecution(1, "q1", 100, nullptr, /*plan_hash=*/h * 11,
                          "shape-" + std::to_string(h), {});
  }
  std::vector<obs::DigestRecord> snap = store.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  const obs::DigestRecord& s1 = snap[0];
  EXPECT_EQ(s1.digest, 1u);
  ASSERT_EQ(s1.plans.size(), obs::DigestStore::kMaxPlans);
  for (const obs::PlanRecord& p : s1.plans) {
    EXPECT_NE(p.plan_hash, 11u);  // the first plan was evicted
    EXPECT_EQ(p.total_execute_us, 100);
  }
  EXPECT_EQ(s1.current_plan, kPlans * 11);
  EXPECT_EQ(s1.executions, static_cast<int64_t>(kPlans));
  EXPECT_EQ(s1.plan_changes, static_cast<int64_t>(kPlans) - 1);
  // Worst-offender list is truncated to kMaxOps, sorted by q-error: of
  // kMaxOps + 2 offenders with growing actuals, the two smallest drop out.
  std::vector<obs::OpFeedback> fb;
  const int kOffenders = static_cast<int>(obs::DigestStore::kMaxOps) + 2;
  for (int i = 0; i < kOffenders; ++i) {
    const double actual = 20.0 * (i + 1);
    fb.push_back({"OUT", "op" + std::to_string(i), 10.0,
                  static_cast<int64_t>(actual), 1, obs::QError(10.0, actual)});
  }
  store.RecordExecution(2, "q2", 100, nullptr, 44, "shape-d", std::move(fb));
  snap = store.Snapshot();
  const obs::DigestRecord& s2 = snap[1];
  ASSERT_EQ(s2.worst.size(), obs::DigestStore::kMaxOps);
  for (size_t i = 0; i < s2.worst.size(); ++i) {
    EXPECT_EQ(s2.worst[i].op, "op" + std::to_string(kOffenders - 1 - i));
  }
  obs::OpFeedback top = store.TopMisestimate(2);
  EXPECT_EQ(top.op, "op" + std::to_string(kOffenders - 1));
  EXPECT_TRUE(store.TopMisestimate(999).op.empty());
  store.Reset();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.dropped(), 0);
}

TEST(PlanFeedbackTest, EnvKnobDisablesCapture) {
  ::setenv("XNFDB_PLAN_FEEDBACK", "0", 1);
  Database db;
  ::unsetenv("XNFDB_PLAN_FEEDBACK");
  ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
  ASSERT_TRUE(db.Query("SELECT ENO FROM EMP").ok());
  // The views stay registered and queryable — just empty — while the
  // statement itself is still counted.
  EXPECT_TRUE(MustRows(&db, "SELECT * FROM SYS$REWRITES").empty());
  EXPECT_TRUE(MustRows(&db, "SELECT * FROM SYS$PLAN_FEEDBACK").empty());
  EXPECT_TRUE(MustRows(&db, "SELECT * FROM SYS$PLAN_HISTORY").empty());
  std::vector<Tuple> stmts = MustRows(
      &db,
      "SELECT CALLS FROM SYS$STATEMENTS WHERE TEXT = 'SELECT ENO FROM EMP'");
  ASSERT_EQ(stmts.size(), 1u);
  EXPECT_EQ(stmts[0][0].AsInt(), 1);
}

TEST(PlanFeedbackTest, SlowlogCarriesTopMisestimate) {
  Database db;
  ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
  // Prime the store so the digest has feedback, then arm the slow-query
  // log at zero and re-run: the line must name the worst-estimated
  // operator.
  const char* q = "SELECT ENAME FROM EMP WHERE SAL > 75000.0";
  ASSERT_TRUE(db.Query(q).ok());
  db.SetSlowQueryThreshold(0);
  std::vector<std::string> lines;
  Logger::Default().SetSink([&](const std::string& l) { lines.push_back(l); });
  Result<QueryResult> r = db.Query(q);
  Logger::Default().SetSink(nullptr);
  db.SetSlowQueryThreshold(-1);
  ASSERT_TRUE(r.ok());
  bool annotated = false;
  for (const std::string& l : lines) {
    if (l.find("slowlog") != std::string::npos &&
        l.find("top_misestimate") != std::string::npos) {
      annotated = true;
    }
  }
  EXPECT_TRUE(annotated);
}

TEST(PlanFeedbackTest, AnalyzeFooterReportsWorstEstimate) {
  Database db;
  ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
  Result<std::string> out = db.Explain("SELECT ENAME FROM EMP WHERE SAL > "
                                       "75000.0",
                                       Database::ExplainOptions{true});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_NE(out.value().find("feedback: worst estimate"), std::string::npos)
      << out.value();
  EXPECT_NE(out.value().find("q-error="), std::string::npos) << out.value();
}

}  // namespace
}  // namespace xnfdb
