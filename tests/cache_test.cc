// Tests of the CO cache: workspace construction with pointer swizzling,
// independent/dependent cursors, path expressions, local updates with
// write-back, disk persistence, and the seamless C++ binding.

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>

#include <unistd.h>

#include "cache/seamless.h"
#include "cache/serialize.h"
#include "cache/writeback.h"
#include "cache/xnf_cache.h"
#include "obs/metrics.h"
#include "tests/paper_db.h"

namespace xnfdb {
namespace {

class CacheTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    ASSERT_TRUE(testing_util::LoadPaperDb(&db_).ok());
    XNFCache::Options options;
    options.workspace.swizzle = GetParam();
    Result<std::unique_ptr<XNFCache>> cache =
        XNFCache::Evaluate(&db_, testing_util::kDepsArcQuery, options);
    ASSERT_TRUE(cache.ok()) << cache.status().ToString();
    cache_ = std::move(cache).value();
  }

  Database db_;
  std::unique_ptr<XNFCache> cache_;
};

INSTANTIATE_TEST_SUITE_P(SwizzledAndNot, CacheTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Swizzled" : "TidLookup";
                         });

TEST_P(CacheTest, IndependentCursorBrowsesAllRows) {
  Result<IndependentCursor> cursor = cache_->OpenCursor("XEMP");
  ASSERT_TRUE(cursor.ok());
  std::set<int64_t> enos;
  while (cursor.value().Next()) {
    enos.insert(cursor.value().row()->values[0].AsInt());
  }
  EXPECT_EQ(enos, (std::set<int64_t>{10, 20, 30}));
}

TEST_P(CacheTest, DependentCursorNavigatesChildren) {
  ComponentTable* xdept = cache_->workspace().component("XDEPT").value();
  CachedRow* d1 = xdept->FindByValue(0, Value(int64_t{1}));
  ASSERT_NE(d1, nullptr);
  Result<DependentCursor> cursor = cache_->OpenDependentCursor("EMPLOYMENT", d1);
  ASSERT_TRUE(cursor.ok());
  std::set<int64_t> enos;
  while (cursor.value().Next()) {
    enos.insert(cursor.value().row()->values[0].AsInt());
  }
  EXPECT_EQ(enos, (std::set<int64_t>{10, 20}));
}

TEST_P(CacheTest, DependentCursorNavigatesParents) {
  ComponentTable* xskills = cache_->workspace().component("XSKILLS").value();
  CachedRow* s3 = xskills->FindByValue(0, Value(int64_t{3000}));
  ASSERT_NE(s3, nullptr);
  // s3 is possessed by e2 (20) and needed by p1 (100) — shared object.
  Result<DependentCursor> emp_cursor = cache_->OpenDependentCursor(
      "EMPPROPERTY", s3, DependentCursor::Direction::kParents);
  ASSERT_TRUE(emp_cursor.ok());
  std::set<int64_t> owners;
  while (emp_cursor.value().Next()) {
    owners.insert(emp_cursor.value().row()->values[0].AsInt());
  }
  EXPECT_EQ(owners, (std::set<int64_t>{20}));

  Result<DependentCursor> proj_cursor = cache_->OpenDependentCursor(
      "PROJPROPERTY", s3, DependentCursor::Direction::kParents);
  ASSERT_TRUE(proj_cursor.ok());
  std::set<int64_t> projs;
  while (proj_cursor.value().Next()) {
    projs.insert(proj_cursor.value().row()->values[0].AsInt());
  }
  EXPECT_EQ(projs, (std::set<int64_t>{100}));
}

TEST_P(CacheTest, PathExpressionReachesSkillsOfDepartments) {
  Result<std::vector<CachedRow*>> skills =
      cache_->Path("XDEPT.EMPLOYMENT.XEMP.EMPPROPERTY.XSKILLS");
  ASSERT_TRUE(skills.ok()) << skills.status().ToString();
  std::set<int64_t> snos;
  for (CachedRow* row : skills.value()) snos.insert(row->values[0].AsInt());
  EXPECT_EQ(snos, (std::set<int64_t>{1000, 3000, 4000}));
}

TEST_P(CacheTest, PathFromSingleRow) {
  ComponentTable* xdept = cache_->workspace().component("XDEPT").value();
  CachedRow* d2 = xdept->FindByValue(0, Value(int64_t{2}));
  ASSERT_NE(d2, nullptr);
  Result<std::vector<CachedRow*>> emps =
      EvalPathFrom(&cache_->workspace(), d2, "EMPLOYMENT.XEMP");
  ASSERT_TRUE(emps.ok());
  ASSERT_EQ(emps.value().size(), 1u);
  EXPECT_EQ(emps.value()[0]->values[0].AsInt(), 30);
}

TEST_P(CacheTest, UpdateWriteBackPropagatesToBaseTable) {
  ComponentTable* xemp = cache_->workspace().component("XEMP").value();
  CachedRow* e1 = xemp->FindByValue(0, Value(int64_t{10}));
  ASSERT_NE(e1, nullptr);
  ASSERT_TRUE(cache_->Update(e1, "ENAME", Value("e1-renamed")).ok());
  ASSERT_TRUE(cache_->workspace().HasPendingChanges());

  Result<std::vector<std::string>> stmts = cache_->WriteBack();
  ASSERT_TRUE(stmts.ok()) << stmts.status().ToString();
  ASSERT_EQ(stmts.value().size(), 1u);
  EXPECT_FALSE(cache_->workspace().HasPendingChanges());

  Result<QueryResult> check =
      db_.Query("SELECT ENAME FROM EMP WHERE ENO = 10");
  ASSERT_TRUE(check.ok());
  ASSERT_EQ(check.value().rows().size(), 1u);
  EXPECT_EQ(check.value().rows()[0][0].AsString(), "e1-renamed");
}

TEST_P(CacheTest, ConnectTranslatesToForeignKeyUpdate) {
  // Move employee e3 (30) from department 2 to department 1.
  ComponentTable* xdept = cache_->workspace().component("XDEPT").value();
  ComponentTable* xemp = cache_->workspace().component("XEMP").value();
  CachedRow* d1 = xdept->FindByValue(0, Value(int64_t{1}));
  CachedRow* d2 = xdept->FindByValue(0, Value(int64_t{2}));
  CachedRow* e3 = xemp->FindByValue(0, Value(int64_t{30}));
  ASSERT_TRUE(cache_->Disconnect("EMPLOYMENT", d2, e3).ok());
  ASSERT_TRUE(cache_->Connect("EMPLOYMENT", d1, e3).ok());
  Result<std::vector<std::string>> stmts = cache_->WriteBack();
  ASSERT_TRUE(stmts.ok()) << stmts.status().ToString();

  Result<QueryResult> check = db_.Query("SELECT EDNO FROM EMP WHERE ENO = 30");
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check.value().rows()[0][0].AsInt(), 1);
}

TEST_P(CacheTest, ConnectOnConnectTableInsertsMappingRow) {
  ComponentTable* xemp = cache_->workspace().component("XEMP").value();
  ComponentTable* xskills = cache_->workspace().component("XSKILLS").value();
  CachedRow* e1 = xemp->FindByValue(0, Value(int64_t{10}));
  CachedRow* s5 = xskills->FindByValue(0, Value(int64_t{5000}));
  ASSERT_TRUE(cache_->Connect("EMPPROPERTY", e1, s5).ok());
  Result<std::vector<std::string>> stmts = cache_->WriteBack();
  ASSERT_TRUE(stmts.ok()) << stmts.status().ToString();

  Result<QueryResult> check = db_.Query(
      "SELECT ESSNO FROM EMPSKILLS WHERE ESENO = 10 AND ESSNO = 5000");
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check.value().rows().size(), 1u);
}

TEST_P(CacheTest, InsertAndDeleteWriteBack) {
  Result<CachedRow*> fresh = cache_->Insert(
      "XEMP", {Value(int64_t{50}), Value("e5"), Value(int64_t{1}),
               Value(95000.0)});
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  ComponentTable* xemp = cache_->workspace().component("XEMP").value();
  CachedRow* e2 = xemp->FindByValue(0, Value(int64_t{20}));
  ASSERT_TRUE(cache_->Delete(e2).ok());
  Result<std::vector<std::string>> stmts = cache_->WriteBack();
  ASSERT_TRUE(stmts.ok()) << stmts.status().ToString();

  Result<QueryResult> check =
      db_.Query("SELECT ENO FROM EMP ORDER BY ENO");
  ASSERT_TRUE(check.ok());
  std::set<int64_t> enos;
  for (const Tuple& row : check.value().rows()) enos.insert(row[0].AsInt());
  EXPECT_EQ(enos, (std::set<int64_t>{10, 30, 40, 50}));
}

TEST_P(CacheTest, SaveAndLoadRoundTrips) {
  // One file per parameter instance and process: instances run in
  // parallel under `ctest -j` and must not remove each other's file.
  std::string path = ::testing::TempDir() + "/xnfcache_roundtrip_" +
                     (GetParam() ? "swizzled" : "tidlookup") + "_" +
                     std::to_string(getpid()) + ".xc";
  ASSERT_TRUE(cache_->SaveTo(path).ok());
  XNFCache::Options options;
  options.workspace.swizzle = GetParam();
  Result<std::unique_ptr<XNFCache>> loaded = XNFCache::LoadFrom(
      &db_, path, testing_util::kDepsArcQuery, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  Workspace& ws = loaded.value()->workspace();
  EXPECT_EQ(ws.component("XEMP").value()->size(), 3u);
  EXPECT_EQ(ws.relationship("EMPLOYMENT").value()->size(), 3u);
  // Navigation works on the restored cache.
  Result<std::vector<CachedRow*>> skills =
      loaded.value()->Path("XDEPT.EMPLOYMENT.XEMP.EMPPROPERTY.XSKILLS");
  ASSERT_TRUE(skills.ok());
  EXPECT_EQ(skills.value().size(), 3u);
  std::remove(path.c_str());
}

TEST_P(CacheTest, SeamlessBindingBuildsLinkedObjects) {
  struct Emp;
  struct Dept {
    int64_t dno = 0;
    std::string name;
    std::vector<Emp*> emps;
  };
  struct Emp {
    int64_t eno = 0;
    std::string name;
    Dept* dept = nullptr;
  };

  Workspace& ws = cache_->workspace();
  ObjectSet<Dept> depts;
  ASSERT_TRUE(depts
                  .Load(&ws, "XDEPT",
                        [](const CachedRow& r, Dept* d) {
                          d->dno = r.values[0].AsInt();
                          d->name = r.values[1].AsString();
                        })
                  .ok());
  ObjectSet<Emp> emps;
  ASSERT_TRUE(emps
                  .Load(&ws, "XEMP",
                        [](const CachedRow& r, Emp* e) {
                          e->eno = r.values[0].AsInt();
                          e->name = r.values[1].AsString();
                        })
                  .ok());
  Status link_status = LinkMembers<Dept, Emp>(&ws, "EMPLOYMENT", &depts,
                                              &emps, [](Dept* d, Emp* e) {
                                                d->emps.push_back(e);
                                                e->dept = d;
                                              });
  ASSERT_TRUE(link_status.ok());
  ASSERT_EQ(depts.size(), 2u);
  ASSERT_EQ(emps.size(), 3u);
  // Every employee points back at its department.
  XCursor<Emp> cursor(&emps);
  while (cursor.Next()) {
    ASSERT_NE(cursor.object()->dept, nullptr);
  }
  // Dept 1 has two employees.
  for (Dept& d : depts) {
    if (d.dno == 1) {
      EXPECT_EQ(d.emps.size(), 2u);
    }
    if (d.dno == 2) {
      EXPECT_EQ(d.emps.size(), 1u);
    }
  }
}

TEST_P(CacheTest, NonUpdatableComponentRejectsWriteBack) {
  // A join-view component must refuse updates.
  const char* query = R"sql(
    OUT OF pair AS (SELECT e.ENO, d.DNAME FROM EMP e, DEPT d
                    WHERE e.EDNO = d.DNO)
    TAKE *
  )sql";
  Result<std::unique_ptr<XNFCache>> cache = XNFCache::Evaluate(&db_, query);
  ASSERT_TRUE(cache.ok()) << cache.status().ToString();
  ComponentTable* pair = cache.value()->workspace().component("PAIR").value();
  ASSERT_GT(pair->size(), 0u);
  ASSERT_TRUE(cache.value()->Update(pair->row(0), "DNAME", Value("X")).ok());
  Result<std::vector<std::string>> stmts = cache.value()->WriteBack();
  EXPECT_FALSE(stmts.ok());
  EXPECT_EQ(stmts.status().code(), StatusCode::kInvalidArgument);
}

// Children (or parents) of `anchor` through `rel`, by first-column value.
std::multiset<int64_t> Neighbours(Workspace* ws, const std::string& rel,
                                  const CachedRow* anchor,
                                  DependentCursor::Direction direction) {
  std::multiset<int64_t> keys;
  DependentCursor cursor(ws, ws->relationship(rel).value(), anchor, direction);
  while (cursor.Next()) keys.insert(cursor.row()->values[0].AsInt());
  return keys;
}

// The tid maps exist only without swizzling, and the two modes must agree
// on every navigation step, also after local inserts, connects and
// disconnects.
TEST(CacheNavigationTest, UnswizzledNavigationMatchesSwizzled) {
  Database db;
  ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
  std::unique_ptr<XNFCache> caches[2];
  for (bool swizzle : {false, true}) {
    XNFCache::Options options;
    options.workspace.swizzle = swizzle;
    caches[swizzle] =
        XNFCache::Evaluate(&db, testing_util::kDepsArcQuery, options).value();
    Workspace& ws = caches[swizzle]->workspace();
    auto row = [&](const char* comp, int64_t key) {
      return ws.component(comp).value()->FindByValue(0, Value(key));
    };
    CachedRow* s6 =
        ws.InsertRow("XSKILLS", {Value(int64_t{6000}), Value("s6")}).value();
    ASSERT_TRUE(ws.Connect("EMPPROPERTY", row("XEMP", 10), s6).ok());
    ASSERT_TRUE(ws.Disconnect("EMPLOYMENT", row("XDEPT", 1), row("XEMP", 20))
                    .ok());
    ASSERT_TRUE(
        ws.Connect("EMPLOYMENT", row("XDEPT", 2), row("XEMP", 20)).ok());
    ASSERT_TRUE(ws.Disconnect("EMPPROPERTY", row("XEMP", 30),
                              row("XSKILLS", 4000))
                    .ok());
    Relationship* employment = ws.relationship("EMPLOYMENT").value();
    const CachedRow* d1 = row("XDEPT", 1);
    EXPECT_EQ(employment->ChildTids(d1->tid) == nullptr, swizzle);
    EXPECT_EQ(employment->ParentTids(row("XEMP", 10)->tid) == nullptr,
              swizzle);
  }
  Workspace& plain = caches[0]->workspace();
  Workspace& swizzled = caches[1]->workspace();
  ASSERT_EQ(plain.relationship_count(), swizzled.relationship_count());
  size_t steps = 0;
  for (size_t r = 0; r < plain.relationship_count(); ++r) {
    const std::string rel = plain.relationship(r)->name();
    for (size_t c = 0; c < plain.component_count(); ++c) {
      ComponentTable* a = plain.component(c);
      ComponentTable* b = swizzled.component(c);
      ASSERT_EQ(a->size(), b->size());
      for (size_t i = 0; i < a->size(); ++i) {
        ASSERT_EQ(a->row(i)->values, b->row(i)->values);
        for (auto dir : {DependentCursor::Direction::kChildren,
                         DependentCursor::Direction::kParents}) {
          std::multiset<int64_t> want = Neighbours(&swizzled, rel, b->row(i),
                                                   dir);
          EXPECT_EQ(Neighbours(&plain, rel, a->row(i), dir), want)
              << rel << " from " << a->name() << " row " << i;
          steps += want.size();
        }
      }
    }
  }
  EXPECT_GT(steps, 0u);
  // The local edits are visible in both modes.
  CachedRow* d2 = swizzled.component("XDEPT").value()->FindByValue(
      0, Value(int64_t{2}));
  EXPECT_EQ(Neighbours(&swizzled, "EMPLOYMENT", d2,
                       DependentCursor::Direction::kChildren),
            (std::multiset<int64_t>{20, 30}));
  CachedRow* e10 = plain.component("XEMP").value()->FindByValue(
      0, Value(int64_t{10}));
  EXPECT_EQ(Neighbours(&plain, "EMPPROPERTY", e10,
                       DependentCursor::Direction::kChildren),
            (std::multiset<int64_t>{1000, 6000}));
}

// One Build resolves every partner tid once and installs one pointer pair
// per (connection, child partner). The Fig. 1 CO has ten binary
// connections: 20 lookups, and 10 installs when swizzling.
TEST(CacheNavigationTest, BuildCountsLookupsAndInstallsOncePerPartner) {
  Database db;
  ASSERT_TRUE(testing_util::LoadPaperDb(&db).ok());
  Result<QueryResult> result = db.Query(testing_util::kDepsArcQuery);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  for (bool swizzle : {true, false}) {
    const int64_t installs = reg.GetCounter("cache.swizzle.installs")->value();
    const int64_t hits = reg.GetCounter("cache.lookup.hits")->value();
    const int64_t misses = reg.GetCounter("cache.lookup.misses")->value();
    WorkspaceOptions options;
    options.swizzle = swizzle;
    ASSERT_TRUE(Workspace::Build(result.value(), options).ok());
    EXPECT_EQ(reg.GetCounter("cache.swizzle.installs")->value() - installs,
              swizzle ? 10 : 0);
    EXPECT_EQ(reg.GetCounter("cache.lookup.hits")->value() - hits, 20);
    EXPECT_EQ(reg.GetCounter("cache.lookup.misses")->value() - misses, 0);
  }
}

// A connection naming a tid that no row carries fails the build.
TEST(CacheNavigationTest, DanglingConnectionInStreamFailsBuild) {
  QueryResult result;
  OutputDesc comp;
  comp.name = "A";
  comp.schema.AddColumn(Column{"X", DataType::kInt});
  OutputDesc rel;
  rel.name = "R";
  rel.is_connection = true;
  rel.partner_names = {"A", "A"};
  result.outputs = {comp, rel};
  StreamItem row;
  row.output = 0;
  row.tid = 0;
  row.values = {Value(int64_t{7})};
  StreamItem conn;
  conn.kind = StreamItem::Kind::kConnection;
  conn.output = 1;
  conn.tids = {0, 99};
  // The connection arrives before its partner row.
  result.stream = {conn, row};
  Result<std::unique_ptr<Workspace>> ws = Workspace::Build(result);
  ASSERT_FALSE(ws.ok());
  EXPECT_NE(ws.status().message().find("dangling connection"),
            std::string::npos)
      << ws.status().ToString();
  // With the partner present the same stream builds.
  result.stream[0].tids = {0, 0};
  ws = Workspace::Build(result);
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();
  EXPECT_EQ(ws.value()->relationship(0)->size(), 1u);
}

}  // namespace
}  // namespace xnfdb
