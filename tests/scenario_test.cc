// End-to-end scenario tests at a larger scale than the unit fixtures:
// the complete Fig. 7 life cycle — set-oriented extraction into the cache,
// pointer navigation, bulk local updates, write-back, refresh, and cache
// persistence — over a generated multi-hundred-row database, sequentially
// and with parallel output evaluation.

#include <gtest/gtest.h>

#include <cstdio>

#include "bench/workloads.h"
#include "cache/cursor.h"
#include "cache/xnf_cache.h"

namespace xnfdb {
namespace {

class ScenarioTest : public ::testing::Test {
 protected:
  void SetUp() override {
    bench::DeptDbParams params;
    params.departments = 40;
    params.emps_per_dept = 10;
    params.projs_per_dept = 3;
    params.skills = 30;
    ASSERT_TRUE(bench::PopulateDeptDb(&db_, params).ok());
  }

  Database db_;
};

TEST_F(ScenarioTest, FullLifeCycle) {
  // 1. Extraction: one server call for the whole CO.
  db_.ResetServerCalls();
  Result<std::unique_ptr<XNFCache>> cache =
      XNFCache::Evaluate(&db_, bench::kDepsArcQuery);
  ASSERT_TRUE(cache.ok()) << cache.status().ToString();
  EXPECT_EQ(db_.server_calls(), 1);
  Workspace& ws = cache.value()->workspace();

  // 25% ARC departments.
  ComponentTable* xdept = ws.component("XDEPT").value();
  ComponentTable* xemp = ws.component("XEMP").value();
  EXPECT_EQ(xdept->LiveCount(), 10u);
  EXPECT_EQ(xemp->LiveCount(), 100u);

  // 2. Navigation: every ARC department reaches its 10 employees; the
  //    total over dependent cursors matches the component extent.
  Relationship* employment = ws.relationship("EMPLOYMENT").value();
  size_t traversed = 0;
  IndependentCursor depts(xdept);
  while (depts.Next()) {
    DependentCursor emps(&ws, employment, depts.row());
    while (emps.Next()) ++traversed;
  }
  EXPECT_EQ(traversed, 100u);

  // 3. Bulk local update: 10% raise for every cached employee.
  size_t updated = 0;
  IndependentCursor emps(xemp);
  int sal = xemp->schema().FindColumn("SAL");
  ASSERT_GE(sal, 0);
  while (emps.Next()) {
    double old_sal = emps.row()->values[sal].AsDouble();
    ASSERT_TRUE(
        ws.UpdateRow(emps.row(), sal, Value(old_sal * 1.1)).ok());
    ++updated;
  }
  EXPECT_EQ(updated, 100u);

  // 4. Write-back: one UPDATE per dirty row, against the base table.
  db_.ResetServerCalls();
  Result<std::vector<std::string>> stmts = cache.value()->WriteBack();
  ASSERT_TRUE(stmts.ok()) << stmts.status().ToString();
  EXPECT_EQ(stmts.value().size(), 100u);
  EXPECT_FALSE(ws.HasPendingChanges());

  // The server agrees.
  Result<QueryResult> check = db_.Query(
      "SELECT COUNT(*) FROM EMP e WHERE EXISTS (SELECT 1 FROM DEPT d "
      "WHERE d.DNO = e.EDNO AND d.LOC = 'ARC') AND SAL > 33000.0");
  ASSERT_TRUE(check.ok());

  // 5. Refresh re-evaluates the view and sees the new salaries.
  ASSERT_TRUE(cache.value()->Refresh().ok());
  ComponentTable* fresh_emp =
      cache.value()->workspace().component("XEMP").value();
  EXPECT_EQ(fresh_emp->LiveCount(), 100u);
  int fresh_sal = fresh_emp->schema().FindColumn("SAL");
  double min_sal = 1e12;
  IndependentCursor fresh(fresh_emp);
  while (fresh.Next()) {
    min_sal = std::min(min_sal, fresh.row()->values[fresh_sal].AsDouble());
  }
  EXPECT_GE(min_sal, 33000.0);  // 30000 * 1.1

  // 6. Persist the refreshed cache and reload it in both swizzle modes.
  std::string path = ::testing::TempDir() + "/scenario_cache.xc";
  ASSERT_TRUE(cache.value()->SaveTo(path).ok());
  for (bool swizzle : {true, false}) {
    XNFCache::Options reload;
    reload.workspace.swizzle = swizzle;
    Result<std::unique_ptr<XNFCache>> restored =
        XNFCache::LoadFrom(&db_, path, bench::kDepsArcQuery, reload);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    Result<std::vector<CachedRow*>> skills = restored.value()->Path(
        "XDEPT.EMPLOYMENT.XEMP.EMPPROPERTY.XSKILLS");
    ASSERT_TRUE(skills.ok());
    EXPECT_GT(skills.value().size(), 0u);
  }
  std::remove(path.c_str());
}

TEST_F(ScenarioTest, ParallelAndSequentialExtractionIdentical) {
  XNFCache::Options seq, par;
  seq.exec.morsel_workers = 1;
  par.exec.morsel_workers = 4;
  par.exec.morsel_rows = 16;
  Result<std::unique_ptr<XNFCache>> a =
      XNFCache::Evaluate(&db_, bench::kDepsArcQuery, seq);
  Result<std::unique_ptr<XNFCache>> b =
      XNFCache::Evaluate(&db_, bench::kDepsArcQuery, par);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  Workspace& wa = a.value()->workspace();
  Workspace& wb = b.value()->workspace();
  ASSERT_EQ(wa.component_count(), wb.component_count());
  for (size_t i = 0; i < wa.component_count(); ++i) {
    const ComponentTable* ca = wa.component(i);
    const ComponentTable* cb = wb.component(i);
    ASSERT_EQ(ca->size(), cb->size()) << ca->name();
    // Morsel buckets are reassembled in scan order: same rows, same tids.
    for (size_t r = 0; r < ca->size(); ++r) {
      EXPECT_EQ(ca->row(r)->tid, cb->row(r)->tid) << ca->name();
      EXPECT_EQ(TupleToString(ca->row(r)->values),
                TupleToString(cb->row(r)->values))
          << ca->name();
    }
  }
  for (size_t i = 0; i < wa.relationship_count(); ++i) {
    EXPECT_EQ(wa.relationship(i)->size(), wb.relationship(i)->size())
        << wa.relationship(i)->name();
  }
}

TEST_F(ScenarioTest, Oo1WorkloadLoadsAndNavigates) {
  Database oo1;
  bench::Oo1Params params;
  params.parts = 2000;  // scaled down for test time
  ASSERT_TRUE(bench::PopulateOo1(&oo1, params).ok());
  Result<std::unique_ptr<XNFCache>> cache =
      XNFCache::Evaluate(&oo1, bench::kOo1Query);
  ASSERT_TRUE(cache.ok()) << cache.status().ToString();
  Workspace& ws = cache.value()->workspace();
  ComponentTable* parts = ws.component("XPART").value();
  // With 90% locality nearly every part is reachable from part 1.
  EXPECT_GT(parts->LiveCount(), 1000u);
  // Depth-3 traversal visits the expected branching (3 connections/part).
  Relationship* conn = ws.relationship("CONN").value();
  // Start at part 1 by value: the stream order of XPART is not part order.
  CachedRow* start = parts->FindByValue(0, Value(int64_t{1}));
  ASSERT_NE(start, nullptr);
  size_t visited = 0;
  DependentCursor level1(&ws, conn, start);
  while (level1.Next()) {
    ++visited;
    DependentCursor level2(&ws, conn, level1.row());
    while (level2.Next()) ++visited;
  }
  EXPECT_GE(visited, 3u + 9u - 3u);  // allowing duplicate targets
}

}  // namespace
}  // namespace xnfdb
