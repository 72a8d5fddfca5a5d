// Unit tests of the cache serializer: round trips of every value type,
// pending-change refusal, and robustness against corrupt inputs.

#include <gtest/gtest.h>

#include <sstream>

#include "cache/serialize.h"
#include "cache/xnf_cache.h"
#include "tests/paper_db.h"

namespace xnfdb {
namespace {

class SerializeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(testing_util::LoadPaperDb(&db_).ok());
    // A component with all value types: int, string, double; plus NULLs.
    ASSERT_TRUE(db_.ExecuteScript(
                       "CREATE TABLE MIXED (I INTEGER, S VARCHAR, "
                       "D DOUBLE, B BOOLEAN);"
                       "INSERT INTO MIXED VALUES (1, 'a b c', 2.5, TRUE),"
                       "(2, 'quote '' inside', NULL, FALSE),"
                       "(NULL, NULL, -0.125, NULL)")
                    .ok());
    cache_ =
        XNFCache::Evaluate(&db_, "OUT OF m AS MIXED TAKE *").value();
  }

  Database db_;
  std::unique_ptr<XNFCache> cache_;
};

TEST_F(SerializeTest, RoundTripPreservesValuesAndNulls) {
  std::stringstream buffer;
  ASSERT_TRUE(SaveWorkspace(cache_->workspace(), buffer).ok());
  Result<std::unique_ptr<Workspace>> loaded = LoadWorkspace(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ComponentTable* m = loaded.value()->component("M").value();
  ASSERT_EQ(m->size(), 3u);
  // Values survive, including embedded spaces/quotes and NULLs.
  CachedRow* row1 = m->FindByValue(0, Value(int64_t{1}));
  ASSERT_NE(row1, nullptr);
  EXPECT_EQ(row1->values[1].AsString(), "a b c");
  EXPECT_DOUBLE_EQ(row1->values[2].AsDouble(), 2.5);
  EXPECT_TRUE(row1->values[3].AsBool());
  CachedRow* row2 = m->FindByValue(0, Value(int64_t{2}));
  ASSERT_NE(row2, nullptr);
  EXPECT_EQ(row2->values[1].AsString(), "quote ' inside");
  EXPECT_TRUE(row2->values[2].is_null());
}

TEST_F(SerializeTest, SchemaSurvives) {
  std::stringstream buffer;
  ASSERT_TRUE(SaveWorkspace(cache_->workspace(), buffer).ok());
  Result<std::unique_ptr<Workspace>> loaded = LoadWorkspace(buffer);
  ASSERT_TRUE(loaded.ok());
  const Schema& schema = loaded.value()->component("M").value()->schema();
  ASSERT_EQ(schema.size(), 4u);
  EXPECT_EQ(schema.column(0).name, "I");
  EXPECT_EQ(schema.column(0).type, DataType::kInt);
  EXPECT_EQ(schema.column(2).type, DataType::kDouble);
  EXPECT_EQ(schema.column(3).type, DataType::kBool);
}

TEST_F(SerializeTest, RefusesPendingChanges) {
  ComponentTable* m = cache_->workspace().component("M").value();
  ASSERT_TRUE(cache_->Update(m->row(0), "S", Value("changed")).ok());
  std::stringstream buffer;
  Status s = SaveWorkspace(cache_->workspace(), buffer);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST_F(SerializeTest, ConnectionsRoundTripWithSwizzling) {
  auto deps = XNFCache::Evaluate(&db_, testing_util::kDepsArcQuery).value();
  std::stringstream buffer;
  ASSERT_TRUE(SaveWorkspace(deps->workspace(), buffer).ok());
  for (bool swizzle : {true, false}) {
    std::stringstream copy(buffer.str());
    WorkspaceOptions options;
    options.swizzle = swizzle;
    Result<std::unique_ptr<Workspace>> loaded = LoadWorkspace(copy, options);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    Relationship* employment =
        loaded.value()->relationship("EMPLOYMENT").value();
    EXPECT_EQ(employment->size(), 3u);
    // Navigation works in both modes on the restored workspace.
    ComponentTable* xdept = loaded.value()->component("XDEPT").value();
    CachedRow* d1 = xdept->FindByValue(0, Value(int64_t{1}));
    ASSERT_NE(d1, nullptr);
    DependentCursor cursor(loaded.value().get(), employment, d1);
    int children = 0;
    while (cursor.Next()) ++children;
    EXPECT_EQ(children, 2) << "swizzle=" << swizzle;
  }
}

TEST_F(SerializeTest, CorruptInputsRejectedGracefully) {
  const char* cases[] = {
      "",                                   // empty
      "WRONG MAGIC\n",                      // bad magic
      "XNFCACHE 1\nGARBAGE",                // bad section
      "XNFCACHE 1\nCOMPONENTS 1\nCOMPONENT M 1 1\nCOL A 1\nROW",  // truncated
      "XNFCACHE 1\nCOMPONENTS 1\nCOMPONENT M 1 1\nCOL A 1\n"
      "ROW 0\nZ 9\n",                       // bad value tag
  };
  for (const char* text : cases) {
    std::stringstream in(text);
    Result<std::unique_ptr<Workspace>> loaded = LoadWorkspace(in);
    EXPECT_FALSE(loaded.ok()) << "input: " << text;
  }
}

TEST_F(SerializeTest, DanglingConnectionRejected) {
  std::stringstream in(
      "XNFCACHE 1\n"
      "COMPONENTS 1\n"
      "COMPONENT A 1 1\n"
      "COL X 1\n"
      "ROW 0\n"
      "I 7\n"
      "RELATIONSHIPS 1\n"
      "RELATIONSHIP R 2 1\n"
      "PARTNER A\n"
      "PARTNER A\n"
      "CONN 0 99\n"  // tid 99 does not exist
      "END\n");
  Result<std::unique_ptr<Workspace>> loaded = LoadWorkspace(in);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("dangling connection"),
            std::string::npos);
  EXPECT_NE(loaded.status().message().find("tid 99"), std::string::npos)
      << loaded.status().ToString();
}

// Tids outside 0..n-1 (a row inserted locally keeps its negative tid
// through write-back and save; a hand-edited file may carry any tid) are
// found by hash, and a huge tid does not size the dense index.
TEST_F(SerializeTest, FarAndNegativeTidsLoadWithoutDenseBlowUp) {
  for (bool swizzle : {true, false}) {
    std::stringstream in(
        "XNFCACHE 1\n"
        "COMPONENTS 1\n"
        "COMPONENT A 1 4\n"
        "COL X 1\n"
        "ROW 1000000000000000\n"
        "I 1\n"
        "ROW -7\n"
        "I 2\n"
        "ROW 0\n"
        "I 3\n"
        "ROW -2\n"
        "I 4\n"
        "RELATIONSHIPS 1\n"
        "RELATIONSHIP R 2 2\n"
        "PARTNER A\n"
        "PARTNER A\n"
        "CONN 1000000000000000 -7\n"
        "CONN 0 -2\n"
        "END\n");
    WorkspaceOptions options;
    options.swizzle = swizzle;
    Result<std::unique_ptr<Workspace>> loaded = LoadWorkspace(in, options);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ComponentTable* a = loaded.value()->component("A").value();
    ASSERT_EQ(a->size(), 4u);
    CachedRow* far = a->FindByTid(1000000000000000);
    ASSERT_NE(far, nullptr);
    EXPECT_EQ(far->values[0].AsInt(), 1);
    ASSERT_NE(a->FindByTid(-7), nullptr);
    EXPECT_EQ(a->FindByTid(-7)->values[0].AsInt(), 2);
    EXPECT_EQ(a->FindByTid(0)->values[0].AsInt(), 3);
    EXPECT_EQ(a->FindByTid(-2)->values[0].AsInt(), 4);
    EXPECT_EQ(a->FindByTid(1), nullptr);
    EXPECT_LE(a->dense_index_size(), 2 * a->size() + 1025);
    // The connections resolved to those rows and navigate.
    Relationship* r = loaded.value()->relationship("R").value();
    ASSERT_EQ(r->size(), 2u);
    EXPECT_EQ(r->connection(0)->partners[0], far);
    DependentCursor cursor(loaded.value().get(), r, far);
    ASSERT_TRUE(cursor.Next());
    EXPECT_EQ(cursor.row()->tid, -7);
    EXPECT_FALSE(cursor.Next());
    // Saving writes the same tids back.
    std::stringstream out;
    ASSERT_TRUE(SaveWorkspace(*loaded.value(), out).ok());
    EXPECT_NE(out.str().find("CONN 1000000000000000 -7\n"), std::string::npos);
  }
}

// A locally inserted row keeps its negative tid through write-back and
// save; after loading that file the next local insert must get a tid of
// its own, and each row must stay reachable by tid.
TEST_F(SerializeTest, LocalTidsStayUniqueAcrossSaveAndLoad) {
  Result<CachedRow*> first = cache_->Insert(
      "M", {Value(int64_t{77}), Value("first"), Value(1.0), Value(true)});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_LT(first.value()->tid, 0);
  ASSERT_TRUE(cache_->WriteBack().ok());
  std::stringstream buffer;
  ASSERT_TRUE(SaveWorkspace(cache_->workspace(), buffer).ok());
  Result<std::unique_ptr<Workspace>> loaded = LoadWorkspace(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  Workspace& ws = *loaded.value();
  ComponentTable* m = ws.component("M").value();
  CachedRow* reloaded = m->FindByValue(0, Value(int64_t{77}));
  ASSERT_NE(reloaded, nullptr);
  Result<CachedRow*> second = ws.InsertRow(
      "M", {Value(int64_t{78}), Value("second"), Value(2.0), Value(false)});
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_NE(second.value()->tid, reloaded->tid);
  EXPECT_EQ(m->FindByTid(reloaded->tid), reloaded);
  EXPECT_EQ(m->FindByTid(second.value()->tid), second.value());

  // The smallest tid has no successor below it: such a file is corrupt.
  std::stringstream corrupt(
      "XNFCACHE 1\n"
      "COMPONENTS 1\n"
      "COMPONENT A 1 1\n"
      "COL X 1\n"
      "ROW -9223372036854775808\n"
      "I 1\n"
      "RELATIONSHIPS 0\n"
      "END\n");
  Result<std::unique_ptr<Workspace>> bad = LoadWorkspace(corrupt);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kIoError);
}

TEST_F(SerializeTest, FileHelpersReportIoErrors) {
  Result<std::unique_ptr<Workspace>> missing =
      LoadWorkspaceFromFile("/nonexistent/dir/cache.xc");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIoError);
  Status bad_write =
      SaveWorkspaceToFile(cache_->workspace(), "/nonexistent/dir/cache.xc");
  EXPECT_FALSE(bad_write.ok());
}

}  // namespace
}  // namespace xnfdb
