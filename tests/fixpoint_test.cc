// Tests of the fixpoint evaluator: recursive COs (cyclic schema graphs,
// paper Sect. 2) and differential equivalence with the rewrite path on
// acyclic queries.

#include <gtest/gtest.h>

#include <set>

#include "api/database.h"
#include "parser/parser.h"
#include "semantics/builder.h"
#include "tests/paper_db.h"
#include "xnf/compiler.h"
#include "xnf/fixpoint.h"

namespace xnfdb {
namespace {

// A bill-of-materials database: part 1 is the root assembly; parts form a
// DAG with a diamond (2 and 3 both use 4) plus unreachable parts 8, 9.
void LoadBom(Database* db) {
  Result<size_t> r = db->ExecuteScript(R"sql(
    CREATE TABLE PART (PNO INTEGER, PNAME VARCHAR, PRIMARY KEY (PNO));
    CREATE TABLE USAGE (ASSEMBLY INTEGER, COMPONENT INTEGER, QTY INTEGER);
    INSERT INTO PART VALUES (1, 'root'), (2, 'frame'), (3, 'motor'),
                            (4, 'bolt'), (5, 'nut'), (8, 'orphan'),
                            (9, 'orphan2');
    INSERT INTO USAGE VALUES (1, 2, 1), (1, 3, 2), (2, 4, 8), (3, 4, 4),
                             (4, 5, 1), (8, 9, 1);
  )sql");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
}

// Recursive CO: the root part plus everything reachable through USAGE.
const char* kBomQuery = R"sql(
  OUT OF root AS (SELECT * FROM PART WHERE PNO = 1),
         xpart AS PART,
         toplevel AS (RELATE root VIA ANCHORS, xpart
                      USING USAGE u
                      WHERE root.pno = u.assembly AND u.component = xpart.pno),
         usage AS (RELATE xpart VIA USES, xpart
                   USING USAGE u
                   WHERE uses.pno = u.assembly AND u.component = xpart.pno)
  TAKE *
)sql";

TEST(FixpointTest, RecursiveBillOfMaterialsReachesTransitiveClosure) {
  Database db;
  LoadBom(&db);
  Result<QueryResult> r = db.Query(kBomQuery);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const QueryResult& result = r.value();

  int xpart = result.FindOutput("XPART");
  ASSERT_GE(xpart, 0);
  std::set<int64_t> parts;
  for (const Tuple& row : result.RowsOf(xpart)) {
    parts.insert(row[0].AsInt());
  }
  // Everything reachable from part 1; 1 itself enters through nothing
  // (xpart is not root — only 2..5 are reachable), and 8/9 are isolated
  // from the anchor.
  EXPECT_EQ(parts, (std::set<int64_t>{2, 3, 4, 5}));

  // The recursive relationship only contains connections between reachable
  // parts: (2,4), (3,4), (4,5) — not (8,9).
  int usage = result.FindOutput("USAGE");
  ASSERT_GE(usage, 0);
  EXPECT_EQ(result.ConnectionCount(usage), 3u);
}

TEST(FixpointTest, CompilerFlagsRecursionForFixpoint) {
  Database db;
  LoadBom(&db);
  Result<std::unique_ptr<ast::XnfQuery>> q = ParseXnfQuery(kBomQuery);
  ASSERT_TRUE(q.ok());
  Result<CompiledQuery> compiled = CompileXnf(db.catalog(), *q.value());
  ASSERT_TRUE(compiled.ok());
  EXPECT_TRUE(compiled.value().needs_fixpoint);
}

TEST(FixpointTest, SelfCycleTerminatesOnCyclicData) {
  // Cyclic *data* (a uses b uses a) must still terminate: least fixpoint.
  Database db;
  Result<size_t> r = db.ExecuteScript(R"sql(
    CREATE TABLE PART (PNO INTEGER, PNAME VARCHAR);
    CREATE TABLE USAGE (ASSEMBLY INTEGER, COMPONENT INTEGER);
    INSERT INTO PART VALUES (1, 'root'), (2, 'a'), (3, 'b');
    INSERT INTO USAGE VALUES (1, 2), (2, 3), (3, 2);
  )sql");
  ASSERT_TRUE(r.ok());
  Result<QueryResult> result = db.Query(kBomQuery);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::set<int64_t> parts;
  int xpart = result.value().FindOutput("XPART");
  for (const Tuple& row : result.value().RowsOf(xpart)) {
    parts.insert(row[0].AsInt());
  }
  EXPECT_EQ(parts, (std::set<int64_t>{2, 3}));
  // Both cycle edges qualify.
  EXPECT_EQ(result.value().ConnectionCount(result.value().FindOutput("USAGE")),
            2u);
}

// --- differential: fixpoint vs rewrite on the acyclic paper query ---------

// Canonical form of a result for comparison: per output, the sorted set of
// row renderings; per relationship, the sorted set of partner value lists.
std::set<std::string> Canonical(const QueryResult& result) {
  std::set<std::string> out;
  // Map (output, tid) -> rendering for connection resolution.
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
      int partner_output = by_name[desc.partner_names[pi]];
      s += rows[{partner_output, item.tids[pi]}];
    }
    out.insert(std::move(s));
  }
  return out;
}

TEST(FixpointTest, MatchesRewritePathOnAcyclicQuery) {
  Database db;
  ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
  Result<std::unique_ptr<ast::XnfQuery>> q =
      ParseXnfQuery(testing_util::kDepsArcQuery);
  ASSERT_TRUE(q.ok());

  // Rewrite path.
  Result<QueryResult> rewritten = db.QueryXnf(*q.value());
  ASSERT_TRUE(rewritten.ok()) << rewritten.status().ToString();

  // Fixpoint path over the pre-rewrite XNF graph.
  Result<std::unique_ptr<qgm::QueryGraph>> graph =
      BuildXnf(db.catalog(), *q.value());
  ASSERT_TRUE(graph.ok());
  Result<QueryResult> fixpoint =
      ExecuteXnfFixpoint(db.catalog(), *graph.value());
  ASSERT_TRUE(fixpoint.ok()) << fixpoint.status().ToString();

  EXPECT_EQ(Canonical(rewritten.value()), Canonical(fixpoint.value()));
}

// Acyclic shapes the delta plans treat differently, each checked against
// the rewrite path: a FREE partner (full extent, no frontier growth), a
// multi-child relationship, a non-equi relationship (nested-loop delta
// plan) and a TAKE projection (tids by projected value).
TEST(FixpointTest, MatchesRewritePathOnAcyclicShapes) {
  Database db;
  ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
  const char* kShapes[] = {
      R"sql(OUT OF xdept AS (SELECT * FROM DEPT WHERE LOC = 'ARC'),
                   xemp AS FREE EMP,
                   employment AS (RELATE xdept VIA EMPLOYS, xemp
                                  WHERE xdept.dno = xemp.edno)
            TAKE *)sql",
      R"sql(OUT OF xdept AS (SELECT * FROM DEPT WHERE LOC = 'ARC'),
                   xemp AS EMP,
                   xproj AS PROJ,
                   staffing AS (RELATE xdept VIA STAFFS, xemp, xproj
                                WHERE xdept.dno = xemp.edno AND
                                      xdept.dno = xproj.pdno)
            TAKE *)sql",
      R"sql(OUT OF arc_depts AS (SELECT * FROM DEPT WHERE LOC = 'ARC'),
                   ykt_depts AS (SELECT * FROM DEPT WHERE LOC = 'YKT'),
                   pairing AS (RELATE arc_depts VIA PAIRS, ykt_depts
                               WHERE arc_depts.dno < ykt_depts.dno)
            TAKE *)sql",
      R"sql(OUT OF xdept AS (SELECT * FROM DEPT WHERE LOC = 'ARC'),
                   xemp AS EMP,
                   employment AS (RELATE xdept VIA EMPLOYS, xemp
                                  WHERE xdept.dno = xemp.edno)
            TAKE xdept(loc), xemp(edno), employment)sql",
  };
  for (const char* text : kShapes) {
    Result<std::unique_ptr<ast::XnfQuery>> q = ParseXnfQuery(text);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    Result<QueryResult> rewritten = db.QueryXnf(*q.value());
    ASSERT_TRUE(rewritten.ok()) << rewritten.status().ToString();
    Result<std::unique_ptr<qgm::QueryGraph>> graph =
        BuildXnf(db.catalog(), *q.value());
    ASSERT_TRUE(graph.ok());
    Result<QueryResult> fixpoint =
        ExecuteXnfFixpoint(db.catalog(), *graph.value());
    ASSERT_TRUE(fixpoint.ok()) << fixpoint.status().ToString();
    EXPECT_EQ(Canonical(rewritten.value()), Canonical(fixpoint.value()))
        << text;
  }
}

// A 1000-part chain: one round per part. The delta plans read only the
// frontier and the relationship's inputs once per evaluation — through the
// indexes when there are some, through kept hash-join builds otherwise.
TEST(FixpointTest, DeepChainScansProportionalToTheAnswer) {
  constexpr int kParts = 1000;
  for (bool indexed : {true, false}) {
    Database db;
    ASSERT_TRUE(db.ExecuteScript(
                      "CREATE TABLE PART (PNO INTEGER, PNAME VARCHAR);"
                      "CREATE TABLE USAGE (ASSEMBLY INTEGER, "
                      "COMPONENT INTEGER)")
                    .ok());
    if (indexed) {
      ASSERT_TRUE(db.ExecuteScript("CREATE INDEX ON PART (PNO);"
                                   "CREATE INDEX ON USAGE (ASSEMBLY)")
                      .ok());
    }
    std::string parts = "INSERT INTO PART VALUES (1, 'p1')";
    std::string edges = "INSERT INTO USAGE VALUES (1, 2)";
    for (int p = 2; p <= kParts; ++p) {
      parts += ", (" + std::to_string(p) + ", 'p" + std::to_string(p) + "')";
      if (p < kParts) {
        edges += ", (" + std::to_string(p) + ", " + std::to_string(p + 1) +
                 ")";
      }
    }
    ASSERT_TRUE(db.Execute(parts).ok());
    ASSERT_TRUE(db.Execute(edges).ok());
    Result<QueryResult> r = db.Query(kBomQuery);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const QueryResult& result = r.value();
    EXPECT_EQ(result.RowCount(result.FindOutput("XPART")),
              static_cast<size_t>(kParts - 1));
    EXPECT_EQ(result.ConnectionCount(result.FindOutput("USAGE")),
              static_cast<size_t>(kParts - 2));
    EXPECT_EQ(result.stats.fixpoint_rounds, kParts);
    const int64_t edges_n = kParts - 1;
    EXPECT_LE(result.stats.rows_scanned, 4 * (kParts + edges_n))
        << "indexed " << indexed;
  }
}

// Governance keeps its strength: a row budget below the answer and a
// cancelled context fail with the statuses the evaluator always gave.
TEST(FixpointTest, RowBudgetAndCancellationTerminate) {
  Database db;
  LoadBom(&db);
  Result<std::unique_ptr<ast::XnfQuery>> q = ParseXnfQuery(kBomQuery);
  ASSERT_TRUE(q.ok());
  Result<std::unique_ptr<qgm::QueryGraph>> graph =
      BuildXnf(db.catalog(), *q.value());
  ASSERT_TRUE(graph.ok());

  ExecOptions budget;
  budget.context = std::make_shared<QueryContext>();
  QueryLimits limits;
  limits.max_result_rows = 3;  // the answer has 1 + 4 rows, 1 + 3 links
  budget.context->SetLimits(limits);
  Result<QueryResult> r =
      ExecuteXnfFixpoint(db.catalog(), *graph.value(), budget);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
      << r.status().ToString();

  ExecOptions cancelled;
  cancelled.context = std::make_shared<QueryContext>();
  cancelled.context->Cancel();
  r = ExecuteXnfFixpoint(db.catalog(), *graph.value(), cancelled);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled)
      << r.status().ToString();
}

}  // namespace
}  // namespace xnfdb
