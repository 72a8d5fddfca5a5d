// Unit tests for the rewrite engine and rules: the Fig. 3 pipeline
// (existential subquery -> join -> merged SELECT), clean-up rules, and the
// XNF semantic rewrite shapes of Sect. 4.2 (Fig. 5/6).

#include <gtest/gtest.h>

#include "parser/parser.h"
#include "rewrite/nf_rules.h"
#include "rewrite/rule.h"
#include "rewrite/xnf_rewrite.h"
#include "semantics/builder.h"
#include "storage/catalog.h"
#include "xnf/op_count.h"

namespace xnfdb {
namespace {

using qgm::Box;
using qgm::BoxKind;
using qgm::QuantKind;
using qgm::QueryGraph;

Catalog MakeCatalog() {
  Catalog c;
  c.CreateTable("DEPT", Schema({{"DNO", DataType::kInt},
                                {"LOC", DataType::kString}}))
      .value();
  c.CreateTable("EMP", Schema({{"ENO", DataType::kInt},
                               {"EDNO", DataType::kInt}}))
      .value();
  EXPECT_TRUE(c.DeclarePrimaryKey("DEPT", "DNO").ok());
  return c;
}

// The Fig. 3 query.
std::unique_ptr<QueryGraph> BuildFig3(const Catalog& c) {
  Result<std::unique_ptr<ast::SelectStmt>> sel = ParseSelectQuery(
      "SELECT * FROM EMP e WHERE EXISTS (SELECT 1 FROM DEPT d WHERE "
      "d.LOC = 'ARC' AND d.DNO = e.EDNO)");
  EXPECT_TRUE(sel.ok());
  Result<std::unique_ptr<QueryGraph>> g = BuildSelect(c, *sel.value());
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

const Box* QueryBody(const QueryGraph& g) {
  const Box* top = g.box(g.top_box_id());
  return g.box(top->outputs[0].box_id);
}

TEST(RewriteTest, ExistsToJoinConvertsKeyedSubqueryWithoutDistinct) {
  Catalog c = MakeCatalog();
  std::unique_ptr<QueryGraph> g = BuildFig3(c);
  const Box* body = QueryBody(*g);
  ASSERT_EQ(body->exists_groups.size(), 1u);
  EXPECT_FALSE(body->distinct);

  RuleEngine engine(MakeNfRules({.exists_to_join = true,
                                 .select_merge = false,
                                 .remove_unused = false}));
  Result<RewriteStats> stats = engine.Run(g.get());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().TotalFirings(), 1);

  body = QueryBody(*g);
  // Fig. 3b: the E quantifier became an F quantifier. d.DNO = e.EDNO binds
  // DEPT's key, so each employee joins at most one department and keeps
  // its own duplicates: no DISTINCT is added.
  EXPECT_TRUE(body->exists_groups.empty());
  EXPECT_EQ(body->quants.size(), 2u);
  for (const qgm::Quantifier& q : body->quants) {
    EXPECT_EQ(q.kind, QuantKind::kForeach);
  }
  EXPECT_FALSE(body->distinct);
}

TEST(RewriteTest, ExistsToJoinKeepsUnkeyedSubqueryExistential) {
  // Without DEPT's key an employee may join several departments; a join
  // would repeat it, and DISTINCT would also merge EMP's own duplicates.
  Catalog c;
  c.CreateTable("DEPT", Schema({{"DNO", DataType::kInt},
                                {"LOC", DataType::kString}}))
      .value();
  c.CreateTable("EMP", Schema({{"ENO", DataType::kInt},
                               {"EDNO", DataType::kInt}}))
      .value();
  std::unique_ptr<QueryGraph> g = BuildFig3(c);
  RuleEngine engine(MakeDefaultNfRules());
  Result<RewriteStats> stats = engine.Run(g.get());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const Box* body = QueryBody(*g);
  EXPECT_EQ(body->exists_groups.size(), 1u);
  EXPECT_FALSE(body->distinct);
  EXPECT_EQ(stats.value().ToString().find("ExistsToJoin="), std::string::npos)
      << stats.value().ToString();
}

TEST(RewriteTest, SelectMergeInlinesSingleConsumerBox) {
  Catalog c = MakeCatalog();
  std::unique_ptr<QueryGraph> g = BuildFig3(c);
  RuleEngine engine(MakeDefaultNfRules());
  Result<RewriteStats> stats = engine.Run(g.get());
  ASSERT_TRUE(stats.ok());

  // Fig. 3c: a single SELECT box joining EMP and DEPT remains.
  const Box* body = QueryBody(*g);
  EXPECT_EQ(body->quants.size(), 2u);
  int live_selects = 0;
  for (size_t i = 0; i < g->box_count(); ++i) {
    const Box* b = g->box(static_cast<int>(i));
    if (!g->IsDead(b->id) && b->kind == BoxKind::kSelect) ++live_selects;
  }
  EXPECT_EQ(live_selects, 1);
  // Both the local predicate and the join predicate are now in one body.
  EXPECT_EQ(body->preds.size(), 2u);
}

TEST(RewriteTest, MergeRefusesSharedBoxes) {
  // A derived table consumed twice (self-join) must not be inlined.
  Catalog c = MakeCatalog();
  Result<std::unique_ptr<ast::SelectStmt>> sel = ParseSelectQuery(
      "SELECT a.ENO FROM (SELECT ENO FROM EMP) a, (SELECT ENO FROM EMP) b "
      "WHERE a.ENO = b.ENO");
  ASSERT_TRUE(sel.ok());
  Result<std::unique_ptr<QueryGraph>> g = BuildSelect(c, *sel.value());
  ASSERT_TRUE(g.ok());
  // Both derived tables are single-consumer; they merge. But a DISTINCT
  // derived table must not.
  Result<std::unique_ptr<ast::SelectStmt>> sel2 = ParseSelectQuery(
      "SELECT a.ENO FROM (SELECT DISTINCT ENO FROM EMP) a");
  ASSERT_TRUE(sel2.ok());
  Result<std::unique_ptr<QueryGraph>> g2 = BuildSelect(c, *sel2.value());
  ASSERT_TRUE(g2.ok());
  RuleEngine engine(MakeDefaultNfRules());
  ASSERT_TRUE(engine.Run(g2.value().get()).ok());
  const Box* body = QueryBody(*g2.value());
  // The DISTINCT box survives as the body's input.
  ASSERT_EQ(body->quants.size(), 1u);
  const Box* inner = g2.value()->box(body->quants[0].box_id);
  EXPECT_EQ(inner->kind, BoxKind::kSelect);
  EXPECT_TRUE(inner->distinct);
}

TEST(RewriteTest, RemoveUnusedBoxesDropsOrphans) {
  Catalog c = MakeCatalog();
  std::unique_ptr<QueryGraph> g = BuildFig3(c);
  // Create an orphan box.
  Box* orphan = g->NewBox(BoxKind::kSelect, "orphan");
  int orphan_id = orphan->id;
  RuleEngine engine(MakeNfRules({.exists_to_join = false,
                                 .select_merge = false,
                                 .remove_unused = true}));
  ASSERT_TRUE(engine.Run(g.get()).ok());
  EXPECT_TRUE(g->IsDead(orphan_id));
}

TEST(RewriteTest, RuleEngineReportsFirings) {
  Catalog c = MakeCatalog();
  std::unique_ptr<QueryGraph> g = BuildFig3(c);
  RuleEngine engine(MakeDefaultNfRules());
  Result<RewriteStats> stats = engine.Run(g.get());
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats.value().TotalFirings(), 2);  // E2F + at least one merge
  EXPECT_NE(stats.value().ToString().find("ExistsToJoin"), std::string::npos);
}

// --- XNF semantic rewrite ----------------------------------------------------

const char* kSmallXnf = R"(
  OUT OF xdept AS (SELECT * FROM DEPT WHERE LOC = 'ARC'),
         xemp AS EMP,
         employment AS (RELATE xdept VIA EMPLOYS, xemp
                        WHERE xdept.dno = xemp.edno)
  TAKE *
)";

TEST(XnfRewriteTest, SharedModeReusesConnectionBoxForChild) {
  Catalog c = MakeCatalog();
  Result<std::unique_ptr<ast::XnfQuery>> q = ParseXnfQuery(kSmallXnf);
  ASSERT_TRUE(q.ok());
  Result<std::unique_ptr<QueryGraph>> g = BuildXnf(c, *q.value());
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(IsXnfGraph(*g.value()));
  ASSERT_TRUE(XnfSemanticRewrite(g.value().get()).ok());
  EXPECT_FALSE(IsXnfGraph(*g.value()));

  // Top has three outputs; the connection output and the child component
  // derive from the same box (output optimization / CSE).
  const Box* top = g.value()->box(g.value()->top_box_id());
  ASSERT_EQ(top->outputs.size(), 3u);
  int employment_box = -1, xemp_box = -1;
  for (const qgm::TopOutput& out : top->outputs) {
    if (out.name == "EMPLOYMENT") employment_box = out.box_id;
    if (out.name == "XEMP") xemp_box = out.box_id;
  }
  ASSERT_GE(employment_box, 0);
  ASSERT_GE(xemp_box, 0);
  const Box* xemp = g.value()->box(xemp_box);
  // The child is a distinct projection over the connection box.
  ASSERT_EQ(xemp->quants.size(), 1u);
  EXPECT_EQ(xemp->quants[0].box_id, employment_box);
  EXPECT_TRUE(xemp->distinct);
  // One join total (Fig. 5b): the connection box.
  OpCounts counts = CountOps(*g.value());
  EXPECT_EQ(counts.joins, 1);
  EXPECT_EQ(counts.selections, 1);
}

TEST(XnfRewriteTest, UnsharedModeBuildsExistsForm) {
  Catalog c = MakeCatalog();
  Result<std::unique_ptr<ast::XnfQuery>> q = ParseXnfQuery(kSmallXnf);
  ASSERT_TRUE(q.ok());
  Result<std::unique_ptr<QueryGraph>> g = BuildXnf(c, *q.value());
  ASSERT_TRUE(g.ok());
  XnfRewriteOptions options;
  options.share_connection_boxes = false;
  ASSERT_TRUE(XnfSemanticRewrite(g.value().get(), options).ok());

  // The child derivation is in the Fig. 5a existential form...
  const Box* top = g.value()->box(g.value()->top_box_id());
  const Box* xemp = nullptr;
  for (const qgm::TopOutput& out : top->outputs) {
    if (out.name == "XEMP") xemp = g.value()->box(out.box_id);
  }
  ASSERT_NE(xemp, nullptr);
  EXPECT_EQ(xemp->exists_groups.size(), 1u);

  // ...which the NF rules then convert to the Fig. 5b join form.
  RuleEngine engine(MakeDefaultNfRules());
  ASSERT_TRUE(engine.Run(g.value().get()).ok());
  EXPECT_TRUE(xemp->exists_groups.empty());
  EXPECT_TRUE(xemp->distinct);
}

TEST(XnfRewriteTest, CycleDetectedAndRoutedToFixpoint) {
  Catalog c;
  c.CreateTable("PART", Schema({{"PNO", DataType::kInt},
                                {"SUPER", DataType::kInt}}))
      .value();
  Result<std::unique_ptr<ast::XnfQuery>> q = ParseXnfQuery(R"(
    OUT OF root AS (SELECT * FROM PART WHERE PNO = 1),
           xpart AS PART,
           anchor AS (RELATE root VIA TOP, xpart WHERE root.pno = xpart.super),
           sub AS (RELATE xpart VIA HAS, xpart WHERE has.pno = xpart.super)
    TAKE *
  )");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  Result<std::unique_ptr<QueryGraph>> g = BuildXnf(c, *q.value());
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_TRUE(XnfHasCycle(*g.value()));
  Status s = XnfSemanticRewrite(g.value().get());
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kUnsupported);
}

}  // namespace
}  // namespace xnfdb
