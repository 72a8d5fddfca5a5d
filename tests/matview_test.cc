// Materialized CO views (src/matview/): automatic plan matching, pinned
// MATERIALIZE, incremental delta maintenance under DML streams, and the
// property that a materialization is always answer-equivalent to a scratch
// recomputation of the same view.
//
// Answer sets are compared canonically: component streams as row multisets,
// connection streams with every partner tid resolved to the partner row's
// content. A delta-maintained materialization keeps its original tuple ids
// while a scratch recompute assigns fresh ones, so raw tid comparison would
// reject answers that are identical up to tid renaming.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/database.h"
#include "exec/executor.h"
#include "exec/query_context.h"
#include "tests/paper_db.h"
#include "xnf/compiler.h"

namespace xnfdb {
namespace {

using testing_util::LoadPaperDb;

// One output stream, canonicalized: component rows as a sorted multiset,
// connection tuples as sorted vectors of resolved partner-row contents.
struct CanonicalOutput {
  bool is_connection = false;
  std::vector<Tuple> rows;                // components (sorted)
  std::vector<std::vector<Tuple>> conns;  // connections (sorted)

  bool operator==(const CanonicalOutput& o) const {
    return is_connection == o.is_connection && rows == o.rows &&
           conns == o.conns;
  }
};

std::map<std::string, CanonicalOutput> Canonicalize(const QueryResult& r) {
  // tid -> row content, per component output.
  std::map<int, std::map<TupleId, Tuple>> content;
  for (const StreamItem& item : r.stream) {
    if (item.kind == StreamItem::Kind::kRow) {
      content[item.output][item.tid] = item.values;
    }
  }
  std::map<std::string, CanonicalOutput> canon;
  for (size_t oi = 0; oi < r.outputs.size(); ++oi) {
    CanonicalOutput& c = canon[r.outputs[oi].name];
    c.is_connection = r.outputs[oi].is_connection;
  }
  for (const StreamItem& item : r.stream) {
    const OutputDesc& desc = r.outputs[item.output];
    CanonicalOutput& c = canon[desc.name];
    if (item.kind == StreamItem::Kind::kRow) {
      c.rows.push_back(item.values);
      continue;
    }
    std::vector<Tuple> resolved;
    for (size_t pi = 0; pi < item.tids.size(); ++pi) {
      const int partner = r.FindOutput(desc.partner_names[pi]);
      EXPECT_GE(partner, 0) << "unknown partner " << desc.partner_names[pi];
      auto it = content[partner].find(item.tids[pi]);
      if (it == content[partner].end()) {
        ADD_FAILURE() << desc.name << ": dangling partner tid "
                      << item.tids[pi] << " into " << desc.partner_names[pi];
        resolved.push_back({});
      } else {
        resolved.push_back(it->second);
      }
    }
    c.conns.push_back(std::move(resolved));
  }
  for (auto& [name, c] : canon) {
    std::sort(c.rows.begin(), c.rows.end());
    std::sort(c.conns.begin(), c.conns.end());
  }
  return canon;
}

void ExpectEquivalent(const QueryResult& got, const QueryResult& want,
                      const std::string& label) {
  auto a = Canonicalize(got);
  auto b = Canonicalize(want);
  ASSERT_EQ(a.size(), b.size()) << label << ": output count differs";
  for (const auto& [name, cw] : b) {
    auto it = a.find(name);
    ASSERT_NE(it, a.end()) << label << ": missing output " << name;
    EXPECT_EQ(it->second.rows.size(), cw.rows.size())
        << label << ": " << name << " row count";
    EXPECT_EQ(it->second.conns.size(), cw.conns.size())
        << label << ": " << name << " connection count";
    EXPECT_TRUE(it->second == cw)
        << label << ": output " << name << " differs from scratch recompute";
  }
}

// ---------------------------------------------------------------------------
// Automatic plan matching
// ---------------------------------------------------------------------------

TEST(MatViewTest, AutoFlipServesByteIdenticalRowsWithProvenance) {
  Database db;
  ASSERT_TRUE(LoadPaperDb(&db).ok());
  const std::string q = "SELECT ENAME FROM EMP WHERE SAL > 75000.0";

  // Default policy: 2nd execution captures, 3rd serves from the store.
  Result<QueryResult> r1 = db.Query(q);
  ASSERT_TRUE(r1.ok());
  Result<QueryResult> r2 = db.Query(q);
  ASSERT_TRUE(r2.ok());
  Result<QueryResult> r3 = db.Query(q);
  ASSERT_TRUE(r3.ok());

  EXPECT_EQ(r3.value().rows(), r1.value().rows()) << "served rows must be "
                                                     "byte-identical";
  EXPECT_NE(r3.value().plan_shape.find("matview_scan"), std::string::npos)
      << "third execution should flip to MatViewScanOp, got: "
      << r3.value().plan_shape;
  EXPECT_EQ(r2.value().plan_shape, r1.value().plan_shape)
      << "capturing execution still runs the real plan";

  // EXPLAIN provenance + SYS$MATVIEWS hit accounting.
  Result<std::string> ex = db.Explain(q);
  ASSERT_TRUE(ex.ok());
  EXPECT_NE(ex.value().find("matview:"), std::string::npos) << ex.value();

  Result<QueryResult> sys = db.Query(
      "SELECT NAME, STATE, HITS FROM SYS$MATVIEWS");
  ASSERT_TRUE(sys.ok());
  std::vector<Tuple> sys_rows = sys.value().rows();
  ASSERT_EQ(sys_rows.size(), 1u);
  const Tuple& row = sys_rows[0];
  EXPECT_EQ(row[1].AsString(), "fresh");
  EXPECT_GE(row[2].AsInt(), 1);

  ASSERT_EQ(db.matviews().Snapshot().size(), 1u);
  EXPECT_FALSE(db.matviews().Snapshot()[0].pinned);
}

TEST(MatViewTest, DisabledStoreNeverCapturesOrServes) {
  Database db;
  db.matviews().set_enabled(false);
  ASSERT_TRUE(LoadPaperDb(&db).ok());
  const std::string q = "SELECT ENAME FROM EMP WHERE SAL > 75000.0";
  for (int i = 0; i < 4; ++i) {
    Result<QueryResult> r = db.Query(q);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().plan_shape.find("matview_scan"), std::string::npos);
  }
  EXPECT_EQ(db.matviews().size(), 0u);
}

// ---------------------------------------------------------------------------
// MATERIALIZE / DEMATERIALIZE statements
// ---------------------------------------------------------------------------

TEST(MatViewTest, MaterializeStatementPinsAndServesView) {
  Database db;
  ASSERT_TRUE(LoadPaperDb(&db).ok());
  ASSERT_TRUE(db.Execute(std::string("CREATE VIEW deps_ARC AS ") +
                         testing_util::kDepsArcQuery)
                  .ok());

  Result<Database::Outcome> m = db.Execute("MATERIALIZE deps_ARC");
  ASSERT_TRUE(m.ok());
  EXPECT_GT(m.value().affected, 0u);

  std::vector<MatViewInfo> infos = db.matviews().Snapshot();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].name, "DEPS_ARC");
  EXPECT_TRUE(infos[0].pinned);
  EXPECT_TRUE(infos[0].fresh);

  // First post-pin execution is already served from the store...
  Result<QueryResult> served = db.Query("deps_ARC");
  ASSERT_TRUE(served.ok());
  EXPECT_NE(served.value().plan_shape.find("matview_scan"),
            std::string::npos);

  // ...and is answer-equivalent to a scratch recompute.
  Database scratch;
  ASSERT_TRUE(LoadPaperDb(&scratch).ok());
  scratch.matviews().set_enabled(false);
  Result<QueryResult> want = scratch.Query(testing_util::kDepsArcQuery);
  ASSERT_TRUE(want.ok());
  ExpectEquivalent(served.value(), want.value(), "pinned deps_ARC");

  // DEMATERIALIZE drops the stored data; the query still works.
  ASSERT_TRUE(db.Execute("DEMATERIALIZE deps_ARC").ok());
  EXPECT_EQ(db.matviews().size(), 0u);
  EXPECT_FALSE(db.Execute("DEMATERIALIZE deps_ARC").ok());
  Result<QueryResult> after = db.Query("deps_ARC");
  ASSERT_TRUE(after.ok());
  ExpectEquivalent(after.value(), want.value(), "after DEMATERIALIZE");
}

// ---------------------------------------------------------------------------
// Property: materialize -> random DML stream -> query == scratch recompute
// ---------------------------------------------------------------------------

// Table 1 query shapes exercised by the property test: the full Fig. 1
// CO view, a two-component subset, and a plain SQL select-project-join.
struct Shape {
  const char* label;
  const char* query;
};

const Shape kShapes[] = {
    {"deps_ARC", testing_util::kDepsArcQuery},
    {"emp_skills",
     "OUT OF xemp AS (SELECT * FROM EMP WHERE SAL > 60000.0),\n"
     "       xskills AS SKILLS,\n"
     "       empproperty AS (RELATE xemp VIA POSSESSES, xskills\n"
     "                       USING EMPSKILLS es\n"
     "                       WHERE xemp.eno = es.eseno AND\n"
     "                             es.essno = xskills.sno)\n"
     "TAKE *"},
    {"sql_join",
     "SELECT E.ENAME, S.SNAME FROM EMP E, EMPSKILLS ES, SKILLS S "
     "WHERE E.ENO = ES.ESENO AND ES.ESSNO = S.SNO"},
};

// Deterministic pseudo-random DML stream touching delta-eligible tables
// (SKILLS inserts/deletes) and fallback tables (EMP updates force a stale
// full refresh on shapes that filter EMP under a quantifier).
std::vector<std::string> DmlStream(int steps) {
  std::vector<std::string> dml;
  uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int i = 0; i < steps; ++i) {
    const int sno = 6000 + i * 10;
    switch (next() % 4) {
      case 0:
        dml.push_back("INSERT INTO SKILLS VALUES (" + std::to_string(sno) +
                      ", 'gen" + std::to_string(i) + "')");
        break;
      case 1:
        dml.push_back("INSERT INTO EMPSKILLS VALUES (" +
                      std::to_string(10 + 10 * static_cast<int>(next() % 4)) +
                      ", " + std::to_string(1000 + 1000 * static_cast<int>(
                                                       next() % 5)) +
                      ")");
        break;
      case 2:
        dml.push_back("UPDATE EMP SET SAL = SAL + " +
                      std::to_string(500 + static_cast<int>(next() % 1000)) +
                      ".0 WHERE ENO = " +
                      std::to_string(10 + 10 * static_cast<int>(next() % 4)));
        break;
      default:
        dml.push_back("DELETE FROM SKILLS WHERE SNO = " +
                      std::to_string(2000 + 1000 * static_cast<int>(
                                                next() % 4)));
        break;
    }
  }
  return dml;
}

void RunPropertyShape(const Shape& shape, int morsel_workers) {
  Database db;       // maintains a materialization across the stream
  Database mirror;   // replays the same stream, always recomputes
  ASSERT_TRUE(LoadPaperDb(&db).ok());
  ASSERT_TRUE(LoadPaperDb(&mirror).ok());
  mirror.matviews().set_enabled(false);

  ExecOptions eo;
  eo.morsel_workers = morsel_workers;

  // Warm until the store serves this shape.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(db.Query(shape.query, {}, eo).ok()) << shape.label;
  }
  ASSERT_GE(db.matviews().size(), 1u) << shape.label;

  for (const std::string& stmt : DmlStream(12)) {
    ASSERT_TRUE(db.Execute(stmt).ok()) << shape.label << ": " << stmt;
    ASSERT_TRUE(mirror.Execute(stmt).ok()) << shape.label << ": " << stmt;

    Result<QueryResult> got = db.Query(shape.query, {}, eo);
    ASSERT_TRUE(got.ok()) << shape.label << " after " << stmt;
    Result<QueryResult> want = mirror.Query(shape.query, {}, eo);
    ASSERT_TRUE(want.ok()) << shape.label << " after " << stmt;
    ExpectEquivalent(got.value(), want.value(),
                     std::string(shape.label) + " after '" + stmt + "'");
  }
}

TEST(MatViewPropertyTest, DmlStreamEquivalentToScratchRecompute) {
  for (const Shape& shape : kShapes) RunPropertyShape(shape, 1);
}

TEST(MatViewPropertyTest, DmlStreamEquivalentUnderMorselParallelism) {
  for (const Shape& shape : kShapes) RunPropertyShape(shape, 4);
}

// ---------------------------------------------------------------------------
// Incremental delta maintenance
// ---------------------------------------------------------------------------

TEST(MatViewTest, SkillsInsertTakesDeltaPathAndStaysFresh) {
  // Distinct-free select-project-join: every base table has exactly one
  // F-path reference, so DML on any of them is delta-maintainable.
  const std::string q =
      "SELECT E.ENAME, S.SNAME FROM EMP E, EMPSKILLS ES, SKILLS S "
      "WHERE E.ENO = ES.ESENO AND ES.ESSNO = S.SNO";
  Database db;
  ASSERT_TRUE(LoadPaperDb(&db).ok());
  ASSERT_TRUE(db.Execute("CREATE VIEW emp_skill_names AS " + q).ok());
  ASSERT_TRUE(db.Execute("MATERIALIZE emp_skill_names").ok());

  ASSERT_TRUE(db.Execute("INSERT INTO SKILLS VALUES (7000, 's7')").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO EMPSKILLS VALUES (10, 7000)").ok());
  std::vector<MatViewInfo> infos = db.matviews().Snapshot();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_TRUE(infos[0].fresh) << "delta maintenance must keep the view fresh";
  EXPECT_GE(infos[0].delta_applies, 2);
  EXPECT_GE(infos[0].delta_rows, 1);

  Result<QueryResult> served = db.Query("emp_skill_names");
  ASSERT_TRUE(served.ok());
  EXPECT_NE(served.value().plan_shape.find("matview_scan"),
            std::string::npos);

  Database scratch;
  ASSERT_TRUE(LoadPaperDb(&scratch).ok());
  scratch.matviews().set_enabled(false);
  ASSERT_TRUE(scratch.Execute("INSERT INTO SKILLS VALUES (7000, 's7')").ok());
  ASSERT_TRUE(scratch.Execute("INSERT INTO EMPSKILLS VALUES (10, 7000)").ok());
  Result<QueryResult> want = scratch.Query(q);
  ASSERT_TRUE(want.ok());
  ExpectEquivalent(served.value(), want.value(), "after SKILLS delta");
}

TEST(MatViewTest, CoViewShapesFallBackToBoundedFullRefresh) {
  // XNF component outputs dedup by content (distinct / union boxes), which
  // breaks derivation counting — DML on their tables marks the view stale
  // and the next execution refreshes it in full.
  Database db;
  ASSERT_TRUE(LoadPaperDb(&db).ok());
  ASSERT_TRUE(db.Execute(std::string("CREATE VIEW deps_ARC AS ") +
                         testing_util::kDepsArcQuery)
                  .ok());
  ASSERT_TRUE(db.Execute("MATERIALIZE deps_ARC").ok());

  ASSERT_TRUE(db.Execute("INSERT INTO SKILLS VALUES (7000, 's7')").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO EMPSKILLS VALUES (10, 7000)").ok());
  std::vector<MatViewInfo> infos = db.matviews().Snapshot();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_FALSE(infos[0].fresh);
  EXPECT_GE(infos[0].fallbacks, 1);

  // The refresh re-runs the view; the new skill is now connected to e1.
  Result<QueryResult> got = db.Query("deps_ARC");
  ASSERT_TRUE(got.ok());
  Database scratch;
  ASSERT_TRUE(LoadPaperDb(&scratch).ok());
  scratch.matviews().set_enabled(false);
  ASSERT_TRUE(scratch.Execute("INSERT INTO SKILLS VALUES (7000, 's7')").ok());
  ASSERT_TRUE(
      scratch.Execute("INSERT INTO EMPSKILLS VALUES (10, 7000)").ok());
  Result<QueryResult> want = scratch.Query(testing_util::kDepsArcQuery);
  ASSERT_TRUE(want.ok());
  ExpectEquivalent(got.value(), want.value(), "deps_ARC after fallback");
  EXPECT_TRUE(db.matviews().Snapshot()[0].fresh);
}

TEST(MatViewTest, EmpUpdateFallsBackToFullRefresh) {
  Database db;
  ASSERT_TRUE(LoadPaperDb(&db).ok());
  ASSERT_TRUE(db.Execute(std::string("CREATE VIEW deps_ARC AS ") +
                         testing_util::kDepsArcQuery)
                  .ok());
  ASSERT_TRUE(db.Execute("MATERIALIZE deps_ARC").ok());

  ASSERT_TRUE(
      db.Execute("UPDATE EMP SET SAL = 95000.0 WHERE ENO = 40").ok());
  // Whether EMP is delta-eligible or not, the next execution must reflect
  // the update; a stale entry triggers a bounded full refresh.
  Result<QueryResult> got = db.Query("deps_ARC");
  ASSERT_TRUE(got.ok());

  Database scratch;
  ASSERT_TRUE(LoadPaperDb(&scratch).ok());
  scratch.matviews().set_enabled(false);
  ASSERT_TRUE(
      scratch.Execute("UPDATE EMP SET SAL = 95000.0 WHERE ENO = 40").ok());
  Result<QueryResult> want = scratch.Query(testing_util::kDepsArcQuery);
  ASSERT_TRUE(want.ok());
  ExpectEquivalent(got.value(), want.value(), "after EMP update");

  // Refreshed, so the run after that serves from the store again.
  Result<QueryResult> again = db.Query("deps_ARC");
  ASSERT_TRUE(again.ok());
  EXPECT_NE(again.value().plan_shape.find("matview_scan"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Mid-refresh cancellation
// ---------------------------------------------------------------------------

TEST(MatViewTest, CancelledRefreshLeavesNoStoredViewAndNextRunWorks) {
  Database db;
  ASSERT_TRUE(LoadPaperDb(&db).ok());
  ASSERT_TRUE(db.Execute(std::string("CREATE VIEW deps_ARC AS ") +
                         testing_util::kDepsArcQuery)
                  .ok());
  ASSERT_TRUE(db.Execute("MATERIALIZE deps_ARC").ok());
  // Invalidate, then cancel the refreshing execution mid-stream via a
  // 1-row result budget.
  ASSERT_TRUE(db.Execute("INSERT INTO EMP VALUES (50, 'e5', 1, 60000.0)")
                  .ok());
  ExecOptions tiny;
  tiny.max_result_rows = 1;
  Result<QueryResult> cancelled = db.Query("deps_ARC", {}, tiny);
  EXPECT_FALSE(cancelled.ok()) << "1-row budget must cancel the refresh";

  std::vector<MatViewInfo> infos = db.matviews().Snapshot();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_FALSE(infos[0].fresh)
      << "a cancelled refresh must not publish stored rows";

  // The next unrestricted execution refreshes and matches scratch.
  Result<QueryResult> got = db.Query("deps_ARC");
  ASSERT_TRUE(got.ok());
  Database scratch;
  ASSERT_TRUE(LoadPaperDb(&scratch).ok());
  scratch.matviews().set_enabled(false);
  ASSERT_TRUE(
      scratch.Execute("INSERT INTO EMP VALUES (50, 'e5', 1, 60000.0)").ok());
  Result<QueryResult> want = scratch.Query(testing_util::kDepsArcQuery);
  ASSERT_TRUE(want.ok());
  ExpectEquivalent(got.value(), want.value(), "after cancelled refresh");
  EXPECT_TRUE(db.matviews().Snapshot()[0].fresh);
}

// ---------------------------------------------------------------------------
// Registry persistence
// ---------------------------------------------------------------------------

TEST(MatViewTest, RegistrySurvivesSaveLoadAndRefreshesOnFirstUse) {
  const std::string path = ::testing::TempDir() + "/xnfdb_matview.db";
  {
    Database db;
    ASSERT_TRUE(LoadPaperDb(&db).ok());
    ASSERT_TRUE(db.Execute(std::string("CREATE VIEW deps_ARC AS ") +
                           testing_util::kDepsArcQuery)
                    .ok());
    ASSERT_TRUE(db.Execute("MATERIALIZE deps_ARC").ok());
    ASSERT_TRUE(db.SaveTo(path).ok());
  }
  Database db;
  ASSERT_TRUE(db.LoadFrom(path).ok());
  std::vector<MatViewInfo> infos = db.matviews().Snapshot();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].name, "DEPS_ARC");
  EXPECT_TRUE(infos[0].pinned);
  EXPECT_FALSE(infos[0].fresh) << "stored rows are not persisted";

  // First execution refreshes; the one after serves.
  ASSERT_TRUE(db.Query("deps_ARC").ok());
  EXPECT_TRUE(db.matviews().Snapshot()[0].fresh);
  Result<QueryResult> served = db.Query("deps_ARC");
  ASSERT_TRUE(served.ok());
  EXPECT_NE(served.value().plan_shape.find("matview_scan"),
            std::string::npos);

  std::remove(path.c_str());
  std::remove((path + ".matviews").c_str());
}

// ---------------------------------------------------------------------------
// Literal bindings: stored answers are keyed by digest + literal values
// ---------------------------------------------------------------------------

Database::Outcome MustExecute(Database* db, const std::string& sql) {
  Result<Database::Outcome> r = db->Execute(sql);
  EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  return r.ok() ? std::move(r).value() : Database::Outcome();
}

// The answer's rows, sorted and rendered (readable failure messages).
std::vector<std::string> SortedRows(Database* db, const std::string& q) {
  Result<QueryResult> r = db->Query(q);
  EXPECT_TRUE(r.ok()) << q << ": " << r.status().ToString();
  if (!r.ok()) return {};
  std::vector<Tuple> rows = r.value().rows();
  std::sort(rows.begin(), rows.end());
  std::vector<std::string> out;
  for (const Tuple& row : rows) out.push_back(TupleToString(row));
  return out;
}

void LoadSixRows(Database* db) {
  MustExecute(db, "CREATE TABLE T (X INT)");
  MustExecute(db, "INSERT INTO T VALUES (1), (2), (3), (4), (5), (6)");
}

TEST(MatViewTest, LiteralBindingsOfOneShapeDoNotShareAnAnswer) {
  Database db;
  LoadSixRows(&db);
  SortedRows(&db, "SELECT X FROM T WHERE X > 1");
  SortedRows(&db, "SELECT X FROM T WHERE X > 1");
  // Same shape, other literal: must not be answered with X > 1's rows.
  EXPECT_EQ(SortedRows(&db, "SELECT X FROM T WHERE X > 4"),
            (std::vector<std::string>{"(5)", "(6)"}));
}

TEST(MatViewTest, TwentyBindingsAgreeWithDisabledStore) {
  Database db;
  Database plain;
  LoadSixRows(&db);
  LoadSixRows(&plain);
  plain.matviews().set_enabled(false);
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 20; ++i) {
      const std::string q = "SELECT X FROM T WHERE X > " +
                            std::to_string(i % 8) + " AND X < " +
                            std::to_string(4 + i / 8 * 2);
      EXPECT_EQ(SortedRows(&db, q), SortedRows(&plain, q))
          << q << " (round " << round << ")";
    }
  }
  // Both rounds went through the store: second-round reads were served.
  EXPECT_GE(db.matviews().size(), 2u);
  int64_t hits = 0;
  for (const MatViewInfo& v : db.matviews().Snapshot()) hits += v.hits;
  EXPECT_GT(hits, 0);
}

TEST(MatViewTest, Version1RegistryLoadsWithKeyEqualToDigest) {
  const std::string path = ::testing::TempDir() + "/xnfdb_matview_v1.reg";
  ASSERT_TRUE(AtomicallyWriteFile(Env::Default(), path,
                                  "XNFDB_MATVIEWS 1\n"
                                  "00000000000000ab 1 OLD_V\tSELECT X FROM T\n")
                  .ok());
  Database db;
  ASSERT_TRUE(db.matviews().LoadRegistry(Env::Default(), path).ok());
  std::vector<MatViewInfo> infos = db.matviews().Snapshot();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].name, "OLD_V");
  EXPECT_EQ(infos[0].digest, 0xabu);
  EXPECT_EQ(infos[0].key, 0xabu);
  EXPECT_TRUE(infos[0].pinned);
  EXPECT_FALSE(infos[0].fresh);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Delta splice: in place when unshared, copy-on-write under a reader
// ---------------------------------------------------------------------------

TEST(MatViewTest, PeekedHandleKeepsItsSnapshotWhileEntryMovesOn) {
  Database db;
  LoadSixRows(&db);
  MustExecute(&db, "CREATE VIEW V AS SELECT X FROM T WHERE X > 2");
  MustExecute(&db, "MATERIALIZE V");
  Result<CompiledQuery> compiled = CompileQueryString(db.catalog(), "V");
  ASSERT_TRUE(compiled.ok());
  const uint64_t key = compiled.value().key;

  MatViewStore::ServeHandle held;
  ASSERT_TRUE(db.matviews().Peek(key, &held));
  const std::vector<Tuple> before = held.data->outputs[0].rows;
  const int64_t before_bytes = held.data->bytes;
  ASSERT_EQ(before.size(), 4u);

  MustExecute(&db, "INSERT INTO T VALUES (7)");
  // The reader's snapshot is untouched...
  EXPECT_EQ(held.data->outputs[0].rows, before);
  EXPECT_EQ(held.data->bytes, before_bytes);
  EXPECT_EQ(held.data->total_rows, 4);
  // ...while the entry moved on to a spliced copy.
  MatViewStore::ServeHandle now;
  ASSERT_TRUE(db.matviews().Peek(key, &now));
  EXPECT_NE(now.data.get(), held.data.get());
  EXPECT_EQ(now.data->total_rows, 5);
  std::vector<MatViewInfo> infos = db.matviews().Snapshot();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_TRUE(infos[0].fresh);
  EXPECT_EQ(infos[0].delta_applies, 1);

  // Unshared now: the next delta splices the same snapshot in place.
  const MatViewData* spliced = now.data.get();
  held = {};
  now = {};
  MustExecute(&db, "DELETE FROM T WHERE X = 3");
  ASSERT_TRUE(db.matviews().Peek(key, &now));
  EXPECT_EQ(now.data.get(), spliced);
  EXPECT_EQ(SortedRows(&db, "V"),
            (std::vector<std::string>{"(4)", "(5)", "(6)", "(7)"}));
}

TEST(MatViewTest, FailedDeltaLeavesStaleEntryWithNoStoredRows) {
  // A delta larger than the row bound fails; the entry goes stale and
  // releases its answer, so SYS$MATVIEWS reports ROWS 0 and BYTES 0.
  setenv("XNFDB_MATVIEW_MAX_ROWS", "4", 1);
  Database db;
  unsetenv("XNFDB_MATVIEW_MAX_ROWS");
  MustExecute(&db, "CREATE TABLE T (X INT)");
  MustExecute(&db, "INSERT INTO T VALUES (1), (2), (3)");
  MustExecute(&db, "CREATE VIEW V AS SELECT X FROM T");
  MustExecute(&db, "MATERIALIZE V");
  ASSERT_TRUE(db.matviews().Snapshot()[0].fresh);

  MustExecute(&db, "INSERT INTO T VALUES (4), (5), (6), (7), (8)");
  Result<QueryResult> sys = db.Query(
      "SELECT STATE, ROWS, BYTES, FALLBACKS FROM SYS$MATVIEWS");
  ASSERT_TRUE(sys.ok());
  ASSERT_EQ(sys.value().rows().size(), 1u);
  const Tuple row = sys.value().rows()[0];
  EXPECT_EQ(row[0].AsString(), "stale");
  EXPECT_EQ(row[1].AsInt(), 0);
  EXPECT_EQ(row[2].AsInt(), 0);
  EXPECT_EQ(row[3].AsInt(), 1);
  // Never served: the read recomputes (and the 8-row answer is too big to
  // store, so it stays stale).
  EXPECT_EQ(SortedRows(&db, "V").size(), 8u);
  EXPECT_FALSE(db.matviews().Snapshot()[0].fresh);
}

// ---------------------------------------------------------------------------
// Compile-free fast path for served statement texts
// ---------------------------------------------------------------------------

int64_t PhaseCount(Database* db, const std::string& phase) {
  obs::MetricsSnapshot snap = db->metrics().Snapshot();
  auto it = snap.histograms.find("phase." + phase + ".us");
  return it == snap.histograms.end() ? 0 : it->second.count;
}

// Parse + semantics + plan observations so far: unchanged across a call
// means the call compiled and planned nothing.
int64_t CompileWork(Database* db) {
  return PhaseCount(db, "parse") + PhaseCount(db, "semantics") +
         PhaseCount(db, "plan");
}

bool Served(const Result<QueryResult>& r) {
  return r.ok() &&
         r.value().plan_shape.find("matview_scan") != std::string::npos;
}

void MaterializeDepsArc(Database* db) {
  ASSERT_TRUE(LoadPaperDb(db).ok());
  MustExecute(db, std::string("CREATE VIEW deps_ARC AS ") +
                      testing_util::kDepsArcQuery);
  MustExecute(db, "MATERIALIZE deps_ARC");
}

TEST(MatViewFastPathTest, RepeatedServedReadCompilesNothing) {
  Database db;
  MaterializeDepsArc(&db);
  // The first read compiles, is served, and aliases the text.
  ASSERT_TRUE(Served(db.Query("deps_ARC")));

  const int64_t parse = PhaseCount(&db, "parse");
  const int64_t semantics = PhaseCount(&db, "semantics");
  const int64_t plan = PhaseCount(&db, "plan");
  obs::Counter* hits = db.metrics().GetCounter("matview.hits");
  const int64_t hits_before = hits->value();
  Result<CompiledQuery> compiled =
      CompileQueryString(db.catalog(), "deps_ARC");
  ASSERT_TRUE(compiled.ok());
  int64_t calls_before = 0, avg_us = 0;
  db.digest_store().Stats(compiled.value().digest, &calls_before, &avg_us);

  Result<QueryResult> first = db.Query("deps_ARC");
  for (int i = 0; i < 5; ++i) {
    Result<QueryResult> r = db.Query("deps_ARC");
    ASSERT_TRUE(Served(r));
    EXPECT_EQ(r.value().rows(), first.value().rows());
  }
  EXPECT_EQ(PhaseCount(&db, "parse"), parse);
  EXPECT_EQ(PhaseCount(&db, "semantics"), semantics);
  EXPECT_EQ(PhaseCount(&db, "plan"), plan);
  EXPECT_EQ(hits->value(), hits_before + 6);
  int64_t calls_after = 0;
  db.digest_store().Stats(compiled.value().digest, &calls_after, &avg_us);
  EXPECT_EQ(calls_after, calls_before + 6);

  Result<QueryResult> sys = db.Query(
      "SELECT CALLS FROM SYS$STATEMENTS WHERE DIGEST = '" +
      obs::DigestHex(compiled.value().digest) + "'");
  ASSERT_TRUE(sys.ok());
  ASSERT_EQ(sys.value().rows().size(), 1u);
  EXPECT_EQ(sys.value().rows()[0][0].AsInt(), calls_after);

  // Answer-equivalent to a scratch recompute.
  Database scratch;
  ASSERT_TRUE(LoadPaperDb(&scratch).ok());
  scratch.matviews().set_enabled(false);
  Result<QueryResult> want = scratch.Query(testing_util::kDepsArcQuery);
  ASSERT_TRUE(want.ok());
  ExpectEquivalent(first.value(), want.value(), "fast-path deps_ARC");
}

TEST(MatViewFastPathTest, RedefinedViewServesTheNewBody) {
  Database db;
  ASSERT_TRUE(LoadPaperDb(&db).ok());
  MustExecute(&db,
              "CREATE VIEW V AS SELECT ENAME FROM EMP WHERE SAL > 75000.0");
  for (int i = 0; i < 3; ++i) SortedRows(&db, "V");
  ASSERT_TRUE(Served(db.Query("V")));

  MustExecute(&db, "DROP VIEW V");
  MustExecute(&db, "CREATE VIEW V AS SELECT DNAME FROM DEPT");
  Database plain;
  ASSERT_TRUE(LoadPaperDb(&plain).ok());
  plain.matviews().set_enabled(false);
  const std::vector<std::string> want =
      SortedRows(&plain, "SELECT DNAME FROM DEPT");
  ASSERT_FALSE(want.empty());
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(SortedRows(&db, "V"), want) << "read " << i;
  }
}

TEST(MatViewFastPathTest, StaleEntryRecompilesAndReturnsPostDmlAnswer) {
  Database db;
  MaterializeDepsArc(&db);
  ASSERT_TRUE(Served(db.Query("deps_ARC")));
  ASSERT_TRUE(Served(db.Query("deps_ARC")));

  // deps_ARC is a CO shape: DML on its tables marks it stale.
  MustExecute(&db, "INSERT INTO SKILLS VALUES (7000, 's7')");
  MustExecute(&db, "INSERT INTO EMPSKILLS VALUES (10, 7000)");
  ASSERT_FALSE(db.matviews().Snapshot()[0].fresh);

  const int64_t work = CompileWork(&db);
  Result<QueryResult> got = db.Query("deps_ARC");
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(Served(got)) << "a stale entry must not be served";
  EXPECT_GT(CompileWork(&db), work) << "a stale entry must be recompiled";

  Database scratch;
  ASSERT_TRUE(LoadPaperDb(&scratch).ok());
  scratch.matviews().set_enabled(false);
  MustExecute(&scratch, "INSERT INTO SKILLS VALUES (7000, 's7')");
  MustExecute(&scratch, "INSERT INTO EMPSKILLS VALUES (10, 7000)");
  Result<QueryResult> want = scratch.Query(testing_util::kDepsArcQuery);
  ASSERT_TRUE(want.ok());
  ExpectEquivalent(got.value(), want.value(), "deps_ARC after DML");

  // Refreshed: the fast path serves the new answer.
  const int64_t refreshed = CompileWork(&db);
  Result<QueryResult> again = db.Query("deps_ARC");
  ASSERT_TRUE(Served(again));
  EXPECT_EQ(CompileWork(&db), refreshed);
  ExpectEquivalent(again.value(), want.value(), "deps_ARC served after DML");
}

TEST(MatViewFastPathTest, GovernorLimitsFailAsOnTheCompilePath) {
  Database db;
  MaterializeDepsArc(&db);
  ExecOptions tiny;
  tiny.max_result_rows = 1;
  auto cancelled = [] {
    ExecOptions eo;
    eo.context = std::make_shared<QueryContext>();
    eo.context->Cancel();
    return eo;
  };

  // No alias yet, and a failed serve records none: both compile.
  const int64_t work = CompileWork(&db);
  Result<QueryResult> compiled_budget = db.Query("deps_ARC", {}, tiny);
  Result<QueryResult> compiled_cancel = db.Query("deps_ARC", {}, cancelled());
  ASSERT_FALSE(compiled_budget.ok());
  ASSERT_FALSE(compiled_cancel.ok());
  EXPECT_GT(CompileWork(&db), work);

  ASSERT_TRUE(Served(db.Query("deps_ARC")));  // records the alias
  const int64_t fast = CompileWork(&db);
  Result<QueryResult> fast_budget = db.Query("deps_ARC", {}, tiny);
  Result<QueryResult> fast_cancel = db.Query("deps_ARC", {}, cancelled());
  EXPECT_EQ(CompileWork(&db), fast) << "both must take the fast path";
  ASSERT_FALSE(fast_budget.ok());
  ASSERT_FALSE(fast_cancel.ok());
  // Same code and attribution; only the elapsed time may differ.
  auto untimed = [](const Status& s) {
    std::string t = s.ToString();
    const size_t from = t.find("after ");
    const size_t to = t.find("us,", from);
    if (from != std::string::npos && to != std::string::npos) {
      t.erase(from + 6, to - from - 6);
    }
    return t;
  };
  EXPECT_EQ(fast_budget.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(untimed(fast_budget.status()), untimed(compiled_budget.status()));
  EXPECT_EQ(fast_cancel.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(untimed(fast_cancel.status()), untimed(compiled_cancel.status()));
}

TEST(MatViewFastPathTest, DisabledStoreNeverTakesTheFastPath) {
  Database db;
  MaterializeDepsArc(&db);
  ASSERT_TRUE(Served(db.Query("deps_ARC")));
  db.matviews().set_enabled(false);
  for (int i = 0; i < 3; ++i) {
    const int64_t work = CompileWork(&db);
    Result<QueryResult> r = db.Query("deps_ARC");
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(Served(r));
    EXPECT_GT(CompileWork(&db), work);
  }
}

TEST(MatViewFastPathTest, AnEntryKeepsAtMostFourAliases) {
  Database db;
  MaterializeDepsArc(&db);
  // Six spellings of one view name compile to one key.
  const std::vector<std::string> texts = {"deps_ARC",   " deps_ARC",
                                          "deps_ARC ",  " deps_ARC ",
                                          "  deps_ARC", "deps_ARC  "};
  for (const std::string& t : texts) ASSERT_TRUE(Served(db.Query(t)));
  static_assert(MatViewStore::kMaxAliasesPerEntry == 4);
  // The four newest aliases skip compiling (newest first: a compiled
  // read re-aliases its text and drops the then-oldest alias).
  for (size_t i = texts.size(); i-- > 2;) {
    const int64_t work = CompileWork(&db);
    ASSERT_TRUE(Served(db.Query(texts[i])));
    EXPECT_EQ(CompileWork(&db), work) << "'" << texts[i] << "'";
  }
  // The two oldest were dropped.
  for (size_t i = 0; i < 2; ++i) {
    const int64_t work = CompileWork(&db);
    ASSERT_TRUE(Served(db.Query(texts[i])));
    EXPECT_GT(CompileWork(&db), work) << "'" << texts[i] << "'";
  }
}

// Rendering of a whole answer stream, tids included.
std::string RenderStream(const QueryResult& r) {
  std::string out;
  for (const StreamItem& item : r.stream) {
    out += std::to_string(item.output);
    out += ':';
    out += std::to_string(item.tid);
    out += ':';
    out += TupleToString(item.values);
    for (TupleId t : item.tids) {
      out += ',';
      out += std::to_string(t);
    }
    out += '\n';
  }
  return out;
}

TEST(MatViewFastPathTest, ConcurrentServedReadsAgree) {
  Database db;
  MaterializeDepsArc(&db);
  // Captured and aliased before any thread starts, so no thread plans.
  Result<QueryResult> first = db.Query("deps_ARC");
  ASSERT_TRUE(Served(first));
  const std::string want = RenderStream(first.value());
  const int64_t work = CompileWork(&db);

  constexpr int kThreads = 8;
  constexpr int kReads = 200;
  std::vector<int> agreed(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&db, &want, &agreed, t] {
      for (int i = 0; i < kReads; ++i) {
        Result<QueryResult> r = db.Query("deps_ARC");
        if (Served(r) && RenderStream(r.value()) == want) ++agreed[t];
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(agreed[t], kReads) << "thread " << t;
  }
  EXPECT_EQ(CompileWork(&db), work);
}

}  // namespace
}  // namespace xnfdb
