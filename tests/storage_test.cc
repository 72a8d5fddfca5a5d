// Unit tests for the storage layer: row store with RIDs, index maintenance
// across mutations, statistics, and catalog metadata (PK/FK, views).

#include <gtest/gtest.h>

#include "storage/catalog.h"
#include "storage/table.h"

namespace xnfdb {
namespace {

Schema EmpSchema() {
  return Schema({{"ENO", DataType::kInt},
                 {"ENAME", DataType::kString},
                 {"EDNO", DataType::kInt}});
}

Tuple Emp(int64_t eno, const std::string& name, int64_t dno) {
  return {Value(eno), Value(name), Value(dno)};
}

TEST(TableTest, InsertGetDelete) {
  Table t("EMP", EmpSchema());
  Result<Rid> r1 = t.Insert(Emp(1, "a", 10));
  Result<Rid> r2 = t.Insert(Emp(2, "b", 10));
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(t.row_count(), 2u);
  EXPECT_EQ(t.Get(r1.value())[1].AsString(), "a");

  ASSERT_TRUE(t.Delete(r1.value()).ok());
  EXPECT_EQ(t.row_count(), 1u);
  EXPECT_FALSE(t.IsLive(r1.value()));
  // Deleting twice fails; RIDs are not reused.
  EXPECT_FALSE(t.Delete(r1.value()).ok());
  Result<Rid> r3 = t.Insert(Emp(3, "c", 20));
  ASSERT_TRUE(r3.ok());
  EXPECT_NE(r3.value(), r1.value());
}

TEST(TableTest, InsertValidatesSchema) {
  Table t("EMP", EmpSchema());
  EXPECT_FALSE(t.Insert({Value(int64_t{1})}).ok());  // arity
  EXPECT_FALSE(
      t.Insert({Value("x"), Value("a"), Value(int64_t{1})}).ok());  // type
  EXPECT_TRUE(t.Insert({Value(), Value(), Value()}).ok());  // NULLs ok
}

TEST(TableTest, UpdateMaintainsIndexes) {
  Table t("EMP", EmpSchema());
  ASSERT_TRUE(t.CreateIndex("EDNO").ok());
  Rid r = t.Insert(Emp(1, "a", 10)).value();
  t.Insert(Emp(2, "b", 10)).value();

  const HashIndex* index = t.GetIndex(2);
  ASSERT_NE(index, nullptr);
  ASSERT_NE(index->Lookup(Value(int64_t{10})), nullptr);
  EXPECT_EQ(index->Lookup(Value(int64_t{10}))->size(), 2u);

  ASSERT_TRUE(t.UpdateColumn(r, 2, Value(int64_t{20})).ok());
  EXPECT_EQ(index->Lookup(Value(int64_t{10}))->size(), 1u);
  ASSERT_NE(index->Lookup(Value(int64_t{20})), nullptr);
  EXPECT_EQ(index->Lookup(Value(int64_t{20}))->size(), 1u);

  ASSERT_TRUE(t.Delete(r).ok());
  EXPECT_EQ(index->Lookup(Value(int64_t{20})), nullptr);
}

TEST(TableTest, IndexBackfillsExistingRows) {
  Table t("EMP", EmpSchema());
  t.Insert(Emp(1, "a", 10)).value();
  t.Insert(Emp(2, "b", 20)).value();
  ASSERT_TRUE(t.CreateIndex("ENO").ok());
  const HashIndex* index = t.GetIndex(0);
  ASSERT_NE(index, nullptr);
  ASSERT_NE(index->Lookup(Value(int64_t{2})), nullptr);
  // Creating the same index again is a no-op.
  ASSERT_TRUE(t.CreateIndex("ENO").ok());
}

TEST(TableTest, StatsTrackDistinctAndMinMax) {
  Table t("EMP", EmpSchema());
  t.Insert(Emp(1, "a", 10)).value();
  t.Insert(Emp(2, "b", 10)).value();
  t.Insert(Emp(3, "c", 20)).value();
  const ColumnStats& eno = t.GetColumnStats(0);
  EXPECT_EQ(eno.distinct, 3u);
  EXPECT_EQ(eno.min.AsInt(), 1);
  EXPECT_EQ(eno.max.AsInt(), 3);
  const ColumnStats& edno = t.GetColumnStats(2);
  EXPECT_EQ(edno.distinct, 2u);
  // Stats are invalidated by mutation.
  t.Insert(Emp(4, "d", 30)).value();
  EXPECT_EQ(t.GetColumnStats(2).distinct, 3u);
}

TEST(TableTest, StatsRefreshOnlyAfterTenPercentWrites) {
  Table t("EMP", EmpSchema());
  for (int64_t i = 0; i < 100; ++i) t.Insert(Emp(i, "e", i)).value();
  EXPECT_EQ(t.GetColumnStats(2).distinct, 100u);
  // 10 writes against 110 live rows stay under the threshold: the cached
  // statistics are kept, while the row count is exact.
  for (int64_t i = 100; i < 110; ++i) t.Insert(Emp(i, "e", i)).value();
  EXPECT_EQ(t.row_count(), 110u);
  EXPECT_EQ(t.GetColumnStats(2).distinct, 100u);
  EXPECT_EQ(t.GetColumnStats(0).max.AsInt(), 99);
  // The 11th write (111 live rows) still does not cross 10%; the 12th, a
  // delete leaving 110 live rows, does and the statistics are recomputed.
  t.Insert(Emp(110, "e", 110)).value();
  EXPECT_EQ(t.GetColumnStats(2).distinct, 100u);
  ASSERT_TRUE(t.Delete(0).ok());
  EXPECT_EQ(t.GetColumnStats(2).distinct, 110u);
  EXPECT_EQ(t.GetColumnStats(0).min.AsInt(), 1);
  EXPECT_EQ(t.GetColumnStats(0).max.AsInt(), 110);
}

TEST(TableTest, IndexBucketsStayInRidOrder) {
  Table t("EMP", EmpSchema());
  for (int64_t i = 0; i < 6; ++i) t.Insert(Emp(i, "e", i % 2)).value();
  ASSERT_TRUE(t.CreateIndex("EDNO").ok());
  // Moving RID 0 out of and back into key 0 re-enters it at the front.
  ASSERT_TRUE(t.UpdateColumn(0, 2, Value(int64_t{1})).ok());
  ASSERT_TRUE(t.UpdateColumn(0, 2, Value(int64_t{0})).ok());
  ASSERT_TRUE(t.UpdateColumn(3, 2, Value(int64_t{0})).ok());
  const std::vector<Rid>* rids = t.GetIndex(2)->Lookup(Value(int64_t{0}));
  ASSERT_NE(rids, nullptr);
  EXPECT_EQ(*rids, (std::vector<Rid>{0, 2, 3, 4}));
}

TEST(CatalogTest, CreateGetDropTable) {
  Catalog c;
  ASSERT_TRUE(c.CreateTable("Emp", EmpSchema()).ok());
  EXPECT_TRUE(c.HasTable("EMP"));  // names normalize to upper case
  EXPECT_TRUE(c.HasTable("emp"));
  EXPECT_FALSE(c.CreateTable("EMP", EmpSchema()).ok());  // duplicate
  ASSERT_TRUE(c.GetTable("emp").ok());
  EXPECT_EQ(c.TableNames(), (std::vector<std::string>{"EMP"}));
  ASSERT_TRUE(c.DropTable("EMP").ok());
  EXPECT_FALSE(c.GetTable("EMP").ok());
}

TEST(CatalogTest, PrimaryKeyCreatesIndex) {
  Catalog c;
  Table* t = c.CreateTable("EMP", EmpSchema()).value();
  ASSERT_TRUE(c.DeclarePrimaryKey("EMP", "ENO").ok());
  EXPECT_EQ(c.PrimaryKeyColumn("EMP"), 0);
  EXPECT_NE(t->GetIndex(0), nullptr);
  EXPECT_EQ(c.PrimaryKeyColumn("NOPE"), -1);
  EXPECT_FALSE(c.DeclarePrimaryKey("EMP", "MISSING").ok());
}

TEST(CatalogTest, ForeignKeysValidatedAndQueryable) {
  Catalog c;
  c.CreateTable("DEPT", Schema({{"DNO", DataType::kInt}})).value();
  c.CreateTable("EMP", EmpSchema()).value();
  ForeignKey fk{"EMP", "EDNO", "DEPT", "DNO"};
  ASSERT_TRUE(c.DeclareForeignKey(fk).ok());
  ASSERT_EQ(c.ForeignKeysOf("EMP").size(), 1u);
  const ForeignKey* found = c.FindForeignKey("EMP", "edno");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->ref_table, "DEPT");
  EXPECT_EQ(c.FindForeignKey("EMP", "ENAME"), nullptr);

  ForeignKey bad{"EMP", "NOPE", "DEPT", "DNO"};
  EXPECT_FALSE(c.DeclareForeignKey(bad).ok());

  // Dropping a referenced table removes the FK metadata.
  ASSERT_TRUE(c.DropTable("DEPT").ok());
  EXPECT_TRUE(c.ForeignKeysOf("EMP").empty());
}

TEST(CatalogTest, ViewsShareNamespaceWithTables) {
  Catalog c;
  c.CreateTable("EMP", EmpSchema()).value();
  ViewDef v;
  v.name = "V1";
  v.definition = "SELECT * FROM EMP";
  ASSERT_TRUE(c.CreateView(v).ok());
  EXPECT_TRUE(c.HasView("v1"));
  EXPECT_FALSE(c.CreateView(v).ok());  // duplicate
  ViewDef clash;
  clash.name = "EMP";
  EXPECT_FALSE(c.CreateView(clash).ok());  // collides with table
  ASSERT_TRUE(c.GetView("V1").ok());
  EXPECT_FALSE(c.GetView("V1").value()->is_xnf);
  ASSERT_TRUE(c.DropView("V1").ok());
  EXPECT_FALSE(c.DropView("V1").ok());
}

}  // namespace
}  // namespace xnfdb
