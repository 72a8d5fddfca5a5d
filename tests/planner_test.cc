// Unit tests for the plan optimizer: cardinality estimation, access-path
// and join-method selection, spooling of shared boxes, and plan-option
// behaviour.

#include <gtest/gtest.h>

#include "optimizer/planner.h"
#include "parser/parser.h"
#include "semantics/builder.h"
#include "storage/catalog.h"

namespace xnfdb {
namespace {

// 100 depts (10 ARC), 1000 emps.
Catalog MakeCatalog() {
  Catalog c;
  Table* dept = c.CreateTable("DEPT", Schema({{"DNO", DataType::kInt},
                                              {"LOC", DataType::kString}}))
                    .value();
  Table* emp = c.CreateTable("EMP", Schema({{"ENO", DataType::kInt},
                                            {"EDNO", DataType::kInt}}))
                   .value();
  for (int d = 0; d < 100; ++d) {
    dept->Insert({Value(int64_t{d}), Value(d < 10 ? "ARC" : "YKT")}).value();
  }
  for (int e = 0; e < 1000; ++e) {
    emp->Insert({Value(int64_t{e}), Value(int64_t{e % 100})}).value();
  }
  { Status s = c.DeclarePrimaryKey("DEPT", "DNO"); EXPECT_TRUE(s.ok()); }
  { Status s = c.DeclarePrimaryKey("EMP", "ENO"); EXPECT_TRUE(s.ok()); }
  return c;
}

std::unique_ptr<qgm::QueryGraph> Graph(const Catalog& c,
                                       const std::string& sql) {
  Result<std::unique_ptr<ast::SelectStmt>> sel = ParseSelectQuery(sql);
  EXPECT_TRUE(sel.ok()) << sel.status().ToString();
  Result<std::unique_ptr<qgm::QueryGraph>> g = BuildSelect(c, *sel.value());
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

int BodyBox(const qgm::QueryGraph& g) {
  return g.box(g.top_box_id())->outputs[0].box_id;
}

TEST(PlannerTest, CardinalityEstimates) {
  Catalog c = MakeCatalog();
  ExecStats stats;

  std::unique_ptr<qgm::QueryGraph> scan = Graph(c, "SELECT * FROM EMP");
  Planner p1(&c, scan.get(), PlanOptions{}, &stats);
  EXPECT_NEAR(p1.EstimateCard(BodyBox(*scan)), 1000.0, 1.0);

  // Equality on a unique column: ~1 row.
  std::unique_ptr<qgm::QueryGraph> point =
      Graph(c, "SELECT * FROM EMP WHERE ENO = 5");
  Planner p2(&c, point.get(), PlanOptions{}, &stats);
  EXPECT_NEAR(p2.EstimateCard(BodyBox(*point)), 1.0, 0.5);

  // FK join: about |EMP| rows.
  std::unique_ptr<qgm::QueryGraph> join = Graph(
      c, "SELECT * FROM EMP e, DEPT d WHERE e.EDNO = d.DNO");
  Planner p3(&c, join.get(), PlanOptions{}, &stats);
  double join_card = p3.EstimateCard(BodyBox(*join));
  EXPECT_GT(join_card, 100.0);
  EXPECT_LT(join_card, 10000.0);
}

TEST(PlannerTest, IndexAccessPathOnlyForIndexedEquality) {
  Catalog c = MakeCatalog();
  ExecStats stats;
  std::unique_ptr<qgm::QueryGraph> g =
      Graph(c, "SELECT * FROM DEPT WHERE DNO = 3");
  Planner planner(&c, g.get(), PlanOptions{}, &stats);
  Result<OperatorPtr> op = planner.BoxIterator(BodyBox(*g));
  ASSERT_TRUE(op.ok());
  Result<std::vector<Tuple>> rows = DrainOperator(op.value().get());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 1u);
  EXPECT_EQ(stats.index_lookups, 1);
  EXPECT_EQ(stats.rows_scanned, 1);  // only the index hit

  // No index on LOC: a full scan.
  ExecStats stats2;
  std::unique_ptr<qgm::QueryGraph> g2 =
      Graph(c, "SELECT * FROM DEPT WHERE LOC = 'ARC'");
  Planner planner2(&c, g2.get(), PlanOptions{}, &stats2);
  Result<OperatorPtr> op2 = planner2.BoxIterator(BodyBox(*g2));
  ASSERT_TRUE(op2.ok());
  ASSERT_TRUE(DrainOperator(op2.value().get()).ok());
  EXPECT_EQ(stats2.index_lookups, 0);
  EXPECT_EQ(stats2.rows_scanned, 100);
}

TEST(PlannerTest, SharedBoxMaterializedOnce) {
  Catalog c = MakeCatalog();
  // A view referenced twice in one query -> one shared box -> one spool.
  ViewDef v;
  v.name = "ARCD";
  v.definition = "SELECT * FROM DEPT WHERE LOC = 'ARC'";
  ASSERT_TRUE(c.CreateView(v).ok());
  std::unique_ptr<qgm::QueryGraph> g = Graph(
      c, "SELECT a.DNO FROM ARCD a, ARCD b WHERE a.DNO = b.DNO");
  ExecStats stats;
  Planner planner(&c, g.get(), PlanOptions{}, &stats);
  Result<OperatorPtr> op = planner.BoxIterator(BodyBox(*g));
  ASSERT_TRUE(op.ok());
  Result<std::vector<Tuple>> rows = DrainOperator(op.value().get());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 10u);
  EXPECT_EQ(stats.spool_builds, 1);
  EXPECT_GT(stats.spool_read_rows, 0);
  // The ARC selection scanned DEPT exactly once.
  EXPECT_EQ(stats.rows_scanned, 100);
}

TEST(PlannerTest, PlanningRunsNothing) {
  // A shared box and an existential group: both are built by the operators
  // that read them, at their first Open or probe, not by BoxIterator.
  Catalog c = MakeCatalog();
  ViewDef v;
  v.name = "ARCD";
  v.definition = "SELECT * FROM DEPT WHERE LOC = 'ARC'";
  ASSERT_TRUE(c.CreateView(v).ok());
  std::unique_ptr<qgm::QueryGraph> g = Graph(
      c,
      "SELECT a.DNO FROM ARCD a, ARCD b WHERE a.DNO = b.DNO AND EXISTS "
      "(SELECT 1 FROM EMP e WHERE e.EDNO = a.DNO)");
  ExecStats stats;
  Planner planner(&c, g.get(), PlanOptions{}, &stats);
  Result<OperatorPtr> op = planner.BoxIterator(BodyBox(*g));
  ASSERT_TRUE(op.ok()) << op.status().ToString();
  EXPECT_EQ(stats.rows_scanned, 0);
  EXPECT_EQ(stats.spool_builds, 0);
  ASSERT_EQ(planner.spools().size(), 1u);
  EXPECT_EQ(planner.spools().begin()->second->rows, nullptr);

  Result<std::vector<Tuple>> rows = DrainOperator(op.value().get());
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows.value().size(), 10u);
  EXPECT_EQ(stats.spool_builds, 1);
  // DEPT once for the spool, EMP once for the group.
  EXPECT_EQ(stats.rows_scanned, 1100);
}

TEST(PlannerTest, ReadersOfOneSpoolKeepOnePlanShape) {
  // A morsel clone plans its output again: it reads the same spool, has
  // the same shape, and does not print the build tree a second time.
  Catalog c = MakeCatalog();
  ViewDef v;
  v.name = "ARCD";
  v.definition = "SELECT * FROM DEPT WHERE LOC = 'ARC'";
  ASSERT_TRUE(c.CreateView(v).ok());
  std::unique_ptr<qgm::QueryGraph> g = Graph(
      c, "SELECT a.DNO FROM ARCD a, ARCD b WHERE a.DNO = b.DNO");
  ExecStats stats;
  Planner planner(&c, g.get(), PlanOptions{}, &stats);
  Result<OperatorPtr> first = planner.BoxIterator(BodyBox(*g));
  Result<OperatorPtr> clone = planner.BoxIterator(BodyBox(*g));
  ASSERT_TRUE(first.ok() && clone.ok());
  EXPECT_EQ(PlanShapeText(first.value().get()),
            PlanShapeText(clone.value().get()));
  std::string first_text, clone_text;
  first.value()->Explain(0, &first_text);
  clone.value()->Explain(0, &clone_text);
  EXPECT_NE(first_text.find("Scan(DEPT)"), std::string::npos) << first_text;
  EXPECT_EQ(clone_text.find("Scan(DEPT)"), std::string::npos) << clone_text;
  ASSERT_TRUE(DrainOperator(first.value().get()).ok());
  ASSERT_TRUE(DrainOperator(clone.value().get()).ok());
  EXPECT_EQ(stats.spool_builds, 1);
  EXPECT_EQ(stats.rows_scanned, 100);
}

TEST(PlannerTest, SpoolingCanBeDisabled) {
  Catalog c = MakeCatalog();
  ViewDef v;
  v.name = "ARCD";
  v.definition = "SELECT * FROM DEPT WHERE LOC = 'ARC'";
  ASSERT_TRUE(c.CreateView(v).ok());
  std::unique_ptr<qgm::QueryGraph> g = Graph(
      c, "SELECT a.DNO FROM ARCD a, ARCD b WHERE a.DNO = b.DNO");
  ExecStats stats;
  PlanOptions opts;
  opts.spool_shared = false;
  Planner planner(&c, g.get(), opts, &stats);
  Result<OperatorPtr> op = planner.BoxIterator(BodyBox(*g));
  ASSERT_TRUE(op.ok());
  ASSERT_TRUE(DrainOperator(op.value().get()).ok());
  EXPECT_EQ(stats.spool_builds, 0);
  EXPECT_EQ(stats.rows_scanned, 200);  // DEPT scanned per consumer
}

TEST(PlannerTest, GreedyOrderStartsWithSelectiveSide) {
  // The planner should scan the filtered DEPT side first and probe with it;
  // either way the join must produce dept-1 employees only.
  Catalog c = MakeCatalog();
  std::unique_ptr<qgm::QueryGraph> g = Graph(
      c,
      "SELECT e.ENO FROM EMP e, DEPT d WHERE e.EDNO = d.DNO AND d.DNO = 1");
  ExecStats stats;
  Planner planner(&c, g.get(), PlanOptions{}, &stats);
  Result<OperatorPtr> op = planner.BoxIterator(BodyBox(*g));
  ASSERT_TRUE(op.ok());
  Result<std::vector<Tuple>> rows = DrainOperator(op.value().get());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 10u);
  // DNO = 1 went through the PK index (cardinality-driven choice).
  EXPECT_GE(stats.index_lookups, 1);
}

TEST(PlannerTest, CompilingDeadBoxFails) {
  Catalog c = MakeCatalog();
  std::unique_ptr<qgm::QueryGraph> g = Graph(c, "SELECT * FROM EMP");
  int body = BodyBox(*g);
  g->MarkDead(body);
  ExecStats stats;
  Planner planner(&c, g.get(), PlanOptions{}, &stats);
  EXPECT_FALSE(planner.BoxIterator(body).ok());
}

}  // namespace
}  // namespace xnfdb
