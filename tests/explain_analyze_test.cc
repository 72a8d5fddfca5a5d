// EXPLAIN ANALYZE and the unified metrics snapshot: per-operator actuals on
// the deps_ARC query of Fig. 1, their agreement with ExecStats, and the
// whole-system MetricsJson / trace coverage of one query lifecycle.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "api/database.h"
#include "tests/paper_db.h"

namespace xnfdb {
namespace {

// Parses "actual rows=N" out of the first operator line of `plan`.
int64_t RootActualRows(const std::string& plan) {
  size_t pos = plan.find("actual rows=");
  if (pos == std::string::npos) return -1;
  return std::stoll(plan.substr(pos + std::string("actual rows=").size()));
}

TEST(ExplainAnalyzeTest, AnnotatesEveryDepsArcOperator) {
  Database db;
  ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
  Result<std::string> out = db.Explain(testing_util::kDepsArcQuery,
                                       Database::ExplainOptions{true});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  const std::string& text = out.value();
  EXPECT_NE(text.find("output XDEPT:"), std::string::npos) << text;
  EXPECT_NE(text.find("output EMPLOYMENT [connection]:"), std::string::npos)
      << text;
  EXPECT_NE(text.find("stats: "), std::string::npos) << text;
  // The skills components are fetched through the SKILLS key index.
  EXPECT_NE(text.find("IndexJoin(SKILLS.SNO = "), std::string::npos) << text;
  // Every operator line carries actuals (ExistsFilter group-detail lines
  // are descriptions, not operators, and stay unannotated).
  const std::vector<std::string> kOps = {
      "Scan(",   "IndexScan(", "RangeScan(",      "SpoolRead(",
      "Filter(", "Project(",   "HashJoin(",       "NestedLoopJoin(",
      "Union",   "Aggregate(", "ExistsFilter(",   "Distinct",
      "Sort(",   "Limit(",     "IndexJoin("};
  size_t operator_lines = 0, annotated_lines = 0;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    std::string line = text.substr(start, end - start);
    start = end + 1;
    bool is_op = false;
    for (const std::string& op : kOps) {
      size_t pos = line.find(op);
      if (pos != std::string::npos &&
          line.find_first_not_of(' ') == pos) {
        is_op = true;
        break;
      }
    }
    if (!is_op) continue;
    ++operator_lines;
    if (line.find("actual rows=") != std::string::npos &&
        line.find("loops=") != std::string::npos &&
        line.find("time=") != std::string::npos) {
      ++annotated_lines;
    }
  }
  EXPECT_GT(operator_lines, 0u);
  EXPECT_EQ(operator_lines, annotated_lines) << text;
}

TEST(ExplainAnalyzeTest, WithoutAnalyzeFallsBackToPlainExplain) {
  Database db;
  ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
  Result<std::string> plain =
      db.Explain(testing_util::kDepsArcQuery, Database::ExplainOptions{});
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain.value().find("actual rows="), std::string::npos);
}

TEST(ExplainAnalyzeTest, PlainExplainShowsEstimatedRows) {
  Database db;
  ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
  // Plain EXPLAIN (no execution) prints the planner's estimates, so a plan
  // can be sanity-checked before it is run.
  Result<std::string> plain = db.Explain("SELECT ENO FROM EMP");
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_NE(plain.value().find("est rows="), std::string::npos)
      << plain.value();
  Result<std::string> arc = db.Explain(testing_util::kDepsArcQuery);
  ASSERT_TRUE(arc.ok());
  EXPECT_NE(arc.value().find("est rows="), std::string::npos) << arc.value();
}

TEST(ExplainAnalyzeTest, AnalyzeAnnotatesQError) {
  Database db;
  ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
  Result<std::string> out = db.Explain("SELECT ENO FROM EMP",
                                       Database::ExplainOptions{true});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // With both an estimate and actuals on the line, the q-error is printed.
  EXPECT_NE(out.value().find("est rows="), std::string::npos) << out.value();
  EXPECT_NE(out.value().find(" q="), std::string::npos) << out.value();
}

TEST(ExplainAnalyzeTest, RootActualRowsMatchExecStatsOnSql) {
  Database db;
  ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
  ExecOptions eo;
  eo.analyze = true;
  Result<QueryResult> r = db.Query("SELECT ENO FROM EMP", {}, eo);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().plan_texts.size(), 1u);
  // The root operator produced exactly the rows the query output.
  EXPECT_EQ(RootActualRows(r.value().plan_texts[0]), 4);
  EXPECT_EQ(r.value().stats.rows_output.load(), 4);
  EXPECT_EQ(r.value().rows().size(), 4u);
}

TEST(ExplainAnalyzeTest, ActualRowsCoverStreamCountsOnDepsArc) {
  Database db;
  ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
  ExecOptions eo;
  eo.analyze = true;
  Result<QueryResult> r = db.Query(testing_util::kDepsArcQuery, {}, eo);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().plan_texts.size(), r.value().outputs.size());
  int64_t total_emitted = 0;
  for (size_t i = 0; i < r.value().outputs.size(); ++i) {
    SCOPED_TRACE(r.value().outputs[i].name);
    int64_t root_rows = RootActualRows(r.value().plan_texts[i]);
    ASSERT_GE(root_rows, 0) << r.value().plan_texts[i];
    // The executor dedups component rows after the root produced them, so
    // the root's actual rows bound the emitted count from above.
    int idx = static_cast<int>(i);
    int64_t emitted = r.value().outputs[i].is_connection
                          ? static_cast<int64_t>(r.value().ConnectionCount(idx))
                          : static_cast<int64_t>(r.value().RowCount(idx));
    EXPECT_GE(root_rows, emitted);
    total_emitted += emitted;
  }
  // rows_output is the consistent post-join snapshot of emitted items.
  EXPECT_EQ(r.value().stats.rows_output.load(), total_emitted);
}

TEST(ExplainAnalyzeTest, PlanTextsAbsentWithoutAnalyze) {
  Database db;
  ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
  Result<QueryResult> r = db.Query(testing_util::kDepsArcQuery);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().plan_texts.empty());
}

// Analyze mode runs morsel-eligible outputs sequentially, so asking for
// morsel workers still reports the sequential root actuals.
TEST(ExplainAnalyzeTest, AnalyzeWorksUnderParallelExecution) {
  Database db;
  ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
  ExecOptions seq;
  seq.analyze = true;
  seq.morsel_workers = 1;
  Result<QueryResult> a = db.Query(testing_util::kDepsArcQuery, {}, seq);
  ASSERT_TRUE(a.ok());
  ExecOptions par = seq;
  par.morsel_workers = 4;
  par.morsel_rows = 2;
  Result<QueryResult> b = db.Query(testing_util::kDepsArcQuery, {}, par);
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a.value().plan_texts.size(), b.value().plan_texts.size());
  for (size_t i = 0; i < a.value().plan_texts.size(); ++i) {
    EXPECT_EQ(RootActualRows(a.value().plan_texts[i]),
              RootActualRows(b.value().plan_texts[i]));
  }
}

// A part chain 1 -> 2 -> 3 -> 4 with indexed join columns, and its
// recursive CO: the root part plus every part it transitively uses.
void LoadPartChain(Database* db) {
  Result<size_t> load = db->ExecuteScript(R"sql(
    CREATE TABLE PART (PNO INTEGER, PRIMARY KEY (PNO));
    CREATE TABLE USAGE (ASSEMBLY INTEGER, COMPONENT INTEGER);
    CREATE INDEX ON USAGE (ASSEMBLY);
    INSERT INTO PART VALUES (1), (2), (3), (4);
    INSERT INTO USAGE VALUES (1, 2), (2, 3), (3, 4);
  )sql");
  ASSERT_TRUE(load.ok()) << load.status().ToString();
}

const char* kPartChainCo = R"sql(
  OUT OF root AS (SELECT * FROM PART WHERE PNO = 1),
         xpart AS PART,
         toplevel AS (RELATE root VIA ANCHORS, xpart USING USAGE u
                      WHERE root.pno = u.assembly AND u.component = xpart.pno),
         usage AS (RELATE xpart VIA USES, xpart USING USAGE u
                   WHERE uses.pno = u.assembly AND u.component = xpart.pno)
  TAKE *
)sql";

// The line of `text` containing `needle`, or "".
std::string LineWith(const std::string& text, const std::string& needle) {
  size_t at = text.find(needle);
  if (at == std::string::npos) return "";
  size_t begin = text.rfind('\n', at);
  begin = begin == std::string::npos ? 0 : begin + 1;
  return text.substr(begin, text.find('\n', at) - begin);
}

TEST(ExplainAnalyzeTest, RecursiveCoShowsDeltaPlanActualsOverRounds) {
  Database db;
  LoadPartChain(&db);
  Result<std::string> out =
      db.Explain(kPartChainCo, Database::ExplainOptions{true});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  const std::string& text = out.value();
  EXPECT_NE(text.find("strategy: recursive CO"), std::string::npos) << text;
  EXPECT_NE(text.find("delta plan TOPLEVEL (frontier ROOT):"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("delta plan USAGE (frontier XPART):"), std::string::npos)
      << text;
  // The frontier is walked through the indexes, never by whole-table joins.
  EXPECT_NE(text.find("IndexJoin(USAGE.ASSEMBLY = "), std::string::npos)
      << text;
  EXPECT_NE(text.find("IndexJoin(PART.PNO = "), std::string::npos) << text;
  EXPECT_EQ(text.find("Scan(USAGE)"), std::string::npos) << text;
  // Round 1 joins the root; rounds 2-4 join parts 2, 3 and 4 in turn, and
  // part 4's round finds nothing new. USAGE's plan ran in rounds 2-4, one
  // frontier row each, and its actuals sum over them.
  EXPECT_NE(text.find("fixpoint: rounds=4 reached=4"), std::string::npos)
      << text;
  const std::string frontier = LineWith(text, "Frontier(XPART)");
  EXPECT_NE(frontier.find("actual rows=3 loops=3"), std::string::npos)
      << text;
  EXPECT_NE(LineWith(text, "Frontier(ROOT)").find("actual rows=1 loops=1"),
            std::string::npos)
      << text;
}

TEST(ExplainAnalyzeTest, RecursiveCoFeedsTheQueryProfile) {
  Database db;
  LoadPartChain(&db);
  Result<QueryResult> r = db.Query(kPartChainCo);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  Result<QueryResult> profile = db.Query(
      "SELECT OP, OP_ROWS FROM SYS$QUERY_PROFILES WHERE OP = 'frontier'");
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  std::vector<Tuple> rows = profile.value().rows();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][1].AsInt(), 4);  // the root, then parts 2, 3 and 4
}

TEST(MetricsJsonTest, OneSnapshotCoversAllSubsystems) {
  Database db;
  ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
  Result<QueryResult> r = db.Query(testing_util::kDepsArcQuery);
  ASSERT_TRUE(r.ok());
  std::string json = db.MetricsJson();
  for (const char* name :
       {"\"server.calls\"", "\"exec.rows_scanned\"", "\"exec.rows_output\"",
        "\"phase.parse.us\"", "\"phase.semantics.us\"",
        "\"phase.nf_rewrite.us\"", "\"phase.plan.us\"",
        "\"phase.execute.us\"", "\"phase.deliver.us\""}) {
    EXPECT_NE(json.find(name), std::string::npos) << name << "\n" << json;
  }
}

TEST(MetricsJsonTest, ServerCallsCounterTracksCalls) {
  Database db;
  ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
  int64_t before =
      db.metrics().Snapshot().counters.count("server.calls") != 0
          ? db.metrics().Snapshot().counters.at("server.calls")
          : 0;
  db.ResetServerCalls();
  ASSERT_TRUE(db.Query("SELECT ENO FROM EMP").ok());
  EXPECT_EQ(db.server_calls(), 1);
  EXPECT_EQ(db.metrics().Snapshot().counters.at("server.calls"), before + 1);
}

TEST(TraceTest, QueryLifecycleProducesNestedSpans) {
  Database db;
  db.tracer().set_enabled(true);
  ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
  db.tracer().Clear();
  ASSERT_TRUE(db.Query(testing_util::kDepsArcQuery).ok());
  std::vector<obs::SpanRecord> spans = db.tracer().Spans();
  std::set<std::string> names;
  for (const obs::SpanRecord& s : spans) names.insert(s.name);
  for (const char* expected :
       {"query", "parse", "semantics", "xnf_rewrite", "nf_rewrite",
        "plan XDEPT", "execute XDEPT", "execute EMPLOYMENT", "deliver"}) {
    EXPECT_EQ(names.count(expected), 1u) << expected;
  }
  // Everything nests under the one "query" root span.
  int64_t query_id = 0;
  for (const obs::SpanRecord& s : spans) {
    if (s.name == "query") query_id = s.id;
  }
  for (const obs::SpanRecord& s : spans) {
    if (s.name == "parse" || s.name == "semantics" || s.name == "deliver") {
      EXPECT_EQ(s.parent_id, query_id) << s.name;
    }
  }
  EXPECT_NE(db.tracer().ChromeTraceJson().find("\"name\":\"query\""),
            std::string::npos);
}

}  // namespace
}  // namespace xnfdb
