// Property tests for recursive COs: the fixpoint evaluator's reachable set
// must equal an independent BFS oracle over randomly generated part
// hierarchies (DAGs, diamonds, and data-level cycles).

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <queue>
#include <random>
#include <set>

#include "api/database.h"

namespace xnfdb {
namespace {

struct BomData {
  int parts = 0;
  std::vector<std::pair<int, int>> edges;  // assembly -> component
  std::set<int> roots;                     // anchored part numbers
};

BomData RandomBom(uint32_t seed) {
  std::mt19937 rng(seed);
  BomData bom;
  bom.parts = 5 + static_cast<int>(rng() % 26);
  int nedges = static_cast<int>(rng() % (bom.parts * 2));
  for (int i = 0; i < nedges; ++i) {
    int a = 1 + static_cast<int>(rng() % bom.parts);
    int c = 1 + static_cast<int>(rng() % bom.parts);
    bom.edges.emplace_back(a, c);  // self-loops and cycles allowed
  }
  int nroots = 1 + static_cast<int>(rng() % 3);
  for (int i = 0; i < nroots; ++i) {
    bom.roots.insert(1 + static_cast<int>(rng() % bom.parts));
  }
  return bom;
}

// Independent oracle: BFS from the root parts' components.
std::set<int> OracleReachable(const BomData& bom) {
  std::multimap<int, int> succ;
  for (auto [a, c] : bom.edges) succ.emplace(a, c);
  std::set<int> reachable;
  std::queue<int> work;
  // Anchor: children of roots (the root component itself is a separate
  // component in the query; xpart holds reachable non-anchor parts).
  for (int r : bom.roots) {
    auto [lo, hi] = succ.equal_range(r);
    for (auto it = lo; it != hi; ++it) work.push(it->second);
  }
  while (!work.empty()) {
    int p = work.front();
    work.pop();
    if (!reachable.insert(p).second) continue;
    auto [lo, hi] = succ.equal_range(p);
    for (auto it = lo; it != hi; ++it) work.push(it->second);
  }
  return reachable;
}

class RecursionPropertyTest : public ::testing::TestWithParam<uint32_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, RecursionPropertyTest,
                         ::testing::Range(uint32_t{1}, uint32_t{17}));

TEST_P(RecursionPropertyTest, FixpointMatchesBfsOracle) {
  BomData bom = RandomBom(GetParam());
  Database db;
  ASSERT_TRUE(db.ExecuteScript(
                     "CREATE TABLE PART (PNO INTEGER, ROOTP BOOLEAN);"
                     "CREATE TABLE USAGE (A INTEGER, C INTEGER)")
                  .ok());
  for (int p = 1; p <= bom.parts; ++p) {
    std::string root = bom.roots.count(p) ? "TRUE" : "FALSE";
    ASSERT_TRUE(db.Execute("INSERT INTO PART VALUES (" + std::to_string(p) +
                           ", " + root + ")")
                    .ok());
  }
  for (auto [a, c] : bom.edges) {
    ASSERT_TRUE(db.Execute("INSERT INTO USAGE VALUES (" + std::to_string(a) +
                           ", " + std::to_string(c) + ")")
                    .ok());
  }

  Result<QueryResult> r = db.Query(R"sql(
    OUT OF root AS (SELECT * FROM PART WHERE ROOTP = TRUE),
           xpart AS PART,
           anchor AS (RELATE root VIA SEEDS, xpart USING USAGE u
                      WHERE root.pno = u.a AND u.c = xpart.pno),
           uses AS (RELATE xpart VIA CONTAINS, xpart USING USAGE u
                    WHERE contains.pno = u.a AND u.c = xpart.pno)
    TAKE *
  )sql");
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  std::set<int> measured;
  int xpart = r.value().FindOutput("XPART");
  for (const Tuple& row : r.value().RowsOf(xpart)) {
    measured.insert(static_cast<int>(row[0].AsInt()));
  }
  EXPECT_EQ(measured, OracleReachable(bom)) << "seed " << GetParam();

  // Invariant: every USES connection links reachable parts.
  std::map<TupleId, int> tid_to_pno;
  for (const StreamItem& item : r.value().stream) {
    if (item.kind == StreamItem::Kind::kRow && item.output == xpart) {
      tid_to_pno[item.tid] = static_cast<int>(item.values[0].AsInt());
    }
  }
  int uses = r.value().FindOutput("USES");
  for (const StreamItem& item : r.value().stream) {
    if (item.kind != StreamItem::Kind::kConnection || item.output != uses) {
      continue;
    }
    for (TupleId tid : item.tids) {
      ASSERT_TRUE(tid_to_pno.count(tid));
      EXPECT_TRUE(measured.count(tid_to_pno[tid]));
    }
  }
}

TEST_P(RecursionPropertyTest, ConnectionsMatchEdgeOracle) {
  BomData bom = RandomBom(GetParam() + 500);
  Database db;
  ASSERT_TRUE(db.ExecuteScript(
                     "CREATE TABLE PART (PNO INTEGER, ROOTP BOOLEAN);"
                     "CREATE TABLE USAGE (A INTEGER, C INTEGER)")
                  .ok());
  for (int p = 1; p <= bom.parts; ++p) {
    std::string root = bom.roots.count(p) ? "TRUE" : "FALSE";
    ASSERT_TRUE(db.Execute("INSERT INTO PART VALUES (" + std::to_string(p) +
                           ", " + root + ")")
                    .ok());
  }
  std::set<std::pair<int, int>> unique_edges(bom.edges.begin(),
                                             bom.edges.end());
  for (auto [a, c] : unique_edges) {
    ASSERT_TRUE(db.Execute("INSERT INTO USAGE VALUES (" + std::to_string(a) +
                           ", " + std::to_string(c) + ")")
                    .ok());
  }
  Result<QueryResult> r = db.Query(R"sql(
    OUT OF root AS (SELECT * FROM PART WHERE ROOTP = TRUE),
           xpart AS PART,
           anchor AS (RELATE root VIA SEEDS, xpart USING USAGE u
                      WHERE root.pno = u.a AND u.c = xpart.pno),
           uses AS (RELATE xpart VIA CONTAINS, xpart USING USAGE u
                    WHERE contains.pno = u.a AND u.c = xpart.pno)
    TAKE *
  )sql");
  ASSERT_TRUE(r.ok());

  std::set<int> reachable = OracleReachable(bom);
  // Oracle: edges whose assembly is reachable and component is a candidate.
  size_t expected = 0;
  for (auto [a, c] : unique_edges) {
    if (reachable.count(a)) ++expected;
  }
  EXPECT_EQ(r.value().ConnectionCount(r.value().FindOutput("USES")),
            expected)
      << "seed " << GetParam() + 500;
}

// --- shapes the semi-naive evaluator plans differently ----------------------

// A keyless part table with duplicate rows and NULL part numbers, edges with
// NULL ends, and a KIND column the filtered variant selects on.
struct DirtyBom {
  BomData bom;
  std::vector<int> dup_parts;  // inserted twice
  int null_parts = 0;          // rows (NULL, kind) inserted
  std::vector<std::pair<int, int>> null_edges;  // 0 = NULL end

  static std::string Kind(int pno) { return pno % 4 == 3 ? "'x'" : "'k'"; }
};

DirtyBom RandomDirtyBom(uint32_t seed) {
  DirtyBom d;
  d.bom = RandomBom(seed + 1000);
  std::mt19937 rng(seed);
  for (int p = 1; p <= d.bom.parts; ++p) {
    if (rng() % 4 == 0) d.dup_parts.push_back(p);
  }
  d.null_parts = static_cast<int>(rng() % 3);
  for (int i = static_cast<int>(rng() % 4); i > 0; --i) {
    int p = 1 + static_cast<int>(rng() % d.bom.parts);
    d.null_edges.push_back(rng() % 2 ? std::pair(p, 0) : std::pair(0, p));
  }
  return d;
}

void LoadDirtyBom(Database* db, const DirtyBom& d, bool indexed) {
  ASSERT_TRUE(db->ExecuteScript(
                    "CREATE TABLE PART (PNO INTEGER, KIND VARCHAR, "
                    "ROOTP BOOLEAN);"
                    "CREATE TABLE USAGE (A INTEGER, C INTEGER)")
                  .ok());
  if (indexed) {
    ASSERT_TRUE(db->ExecuteScript("CREATE INDEX ON PART (PNO);"
                                  "CREATE INDEX ON USAGE (A)")
                    .ok());
  }
  auto part = [&](const std::string& pno, int p, bool root) {
    ASSERT_TRUE(db->Execute("INSERT INTO PART VALUES (" + pno + ", " +
                            DirtyBom::Kind(p) + ", " +
                            (root ? "TRUE" : "FALSE") + ")")
                    .ok());
  };
  for (int p = 1; p <= d.bom.parts; ++p) {
    part(std::to_string(p), p, d.bom.roots.count(p) > 0);
  }
  for (int p : d.dup_parts) part(std::to_string(p), p, d.bom.roots.count(p));
  for (int i = 0; i < d.null_parts; ++i) part("NULL", i, false);
  auto end = [](int p) { return p == 0 ? std::string("NULL")
                                       : std::to_string(p); };
  std::vector<std::pair<int, int>> edges = d.bom.edges;
  edges.insert(edges.end(), d.null_edges.begin(), d.null_edges.end());
  for (auto [a, c] : edges) {
    ASSERT_TRUE(db->Execute("INSERT INTO USAGE VALUES (" + end(a) + ", " +
                            end(c) + ")")
                    .ok());
  }
}

// BFS oracle over the non-NULL edges into parts `admit` accepts: the reached
// part numbers and the distinct (assembly, component) connections among
// them.
std::pair<std::set<int>, std::set<std::pair<int, int>>> DirtyOracle(
    const DirtyBom& d, const std::function<bool(int)>& admit) {
  std::multimap<int, int> succ;
  for (auto [a, c] : d.bom.edges) {
    if (admit(c)) succ.emplace(a, c);
  }
  std::set<int> reached;
  std::queue<int> work;
  for (int r : d.bom.roots) {
    auto [lo, hi] = succ.equal_range(r);
    for (auto it = lo; it != hi; ++it) work.push(it->second);
  }
  while (!work.empty()) {
    int p = work.front();
    work.pop();
    if (!reached.insert(p).second) continue;
    auto [lo, hi] = succ.equal_range(p);
    for (auto it = lo; it != hi; ++it) work.push(it->second);
  }
  std::set<std::pair<int, int>> conns;
  for (auto [a, c] : succ) {
    if (reached.count(a)) conns.emplace(a, c);
  }
  return {reached, conns};
}

// XPART's part numbers and USES's (assembly, component) pairs, checking
// that no XPART row appears twice.
std::pair<std::set<int>, std::set<std::pair<int, int>>> Measured(
    const QueryResult& r) {
  const int xpart = r.FindOutput("XPART");
  const int uses = r.FindOutput("USES");
  std::map<TupleId, int> pno;
  std::set<Tuple> rows;
  for (const StreamItem& item : r.stream) {
    if (item.kind != StreamItem::Kind::kRow || item.output != xpart) continue;
    EXPECT_TRUE(rows.insert(item.values).second) << TupleToString(item.values);
    pno[item.tid] = static_cast<int>(item.values[0].AsInt());
  }
  std::set<int> parts;
  for (const auto& [tid, p] : pno) parts.insert(p);
  std::set<std::pair<int, int>> conns;
  size_t n = 0;
  for (const StreamItem& item : r.stream) {
    if (item.kind != StreamItem::Kind::kConnection || item.output != uses) {
      continue;
    }
    ++n;
    conns.emplace(pno.at(item.tids[0]), pno.at(item.tids[1]));
  }
  EXPECT_EQ(n, conns.size()) << "duplicate USES connections";
  return {parts, conns};
}

std::string DirtyQuery(bool filtered) {
  const std::string xpart =
      filtered ? "(SELECT PNO, KIND FROM PART WHERE KIND <> 'x')"
               : "(SELECT PNO, KIND FROM PART)";
  return R"sql(
    OUT OF root AS (SELECT PNO, KIND FROM PART WHERE ROOTP = TRUE),
           xpart AS )sql" +
         xpart + R"sql(,
           anchor AS (RELATE root VIA SEEDS, xpart USING USAGE u
                      WHERE root.pno = u.a AND u.c = xpart.pno),
           uses AS (RELATE xpart VIA CONTAINS, xpart USING USAGE u
                    WHERE contains.pno = u.a AND u.c = xpart.pno)
    TAKE *
  )sql";
}

// A filtered (non-pass-through) child makes the delta plan hash-join the
// child extent; an indexed pass-through child index-joins it. Duplicate
// keyless rows intern once, NULL keys never join, and batch size 1 and
// 1024 emit the identical stream.
TEST_P(RecursionPropertyTest, DirtyDataMatchesOracleAcrossPlanShapes) {
  const DirtyBom d = RandomDirtyBom(GetParam());
  for (bool filtered : {false, true}) {
    Database db;
    LoadDirtyBom(&db, d, /*indexed=*/!filtered);
    auto admit = [&](int p) {
      return !filtered || DirtyBom::Kind(p) != "'x'";
    };
    const std::string text = DirtyQuery(filtered);
    std::vector<QueryResult> runs;
    for (int batch : {1, 1024}) {
      ExecOptions eo;
      eo.batch_size = batch;
      Result<QueryResult> r = db.Query(text, {}, eo);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(Measured(r.value()), DirtyOracle(d, admit))
          << "seed " << GetParam() << " filtered " << filtered << " batch "
          << batch;
      runs.push_back(std::move(r.value()));
    }
    ASSERT_EQ(runs[0].stream.size(), runs[1].stream.size());
    for (size_t i = 0; i < runs[0].stream.size(); ++i) {
      const StreamItem& a = runs[0].stream[i];
      const StreamItem& b = runs[1].stream[i];
      EXPECT_TRUE(a.output == b.output && a.tid == b.tid &&
                  a.values == b.values && a.tids == b.tids)
          << "stream item " << i << " differs across batch sizes";
    }
  }
}

// Mutual recursion: A parts use B parts and B parts use A parts, through
// two relationships; the reached sets match a BFS over the bipartite graph.
TEST_P(RecursionPropertyTest, MutualRecursionMatchesBfsOracle) {
  std::mt19937 rng(GetParam() + 2000);
  const int n = 4 + static_cast<int>(rng() % 12);
  std::set<std::pair<int, int>> ab, ba;
  auto part = [&] { return 1 + static_cast<int>(rng() % n); };
  for (int i = static_cast<int>(rng() % (2 * n)); i > 0; --i) {
    ab.emplace(part(), part());
    ba.emplace(part(), part());
  }
  Database db;
  ASSERT_TRUE(db.ExecuteScript("CREATE TABLE PA (ANO INTEGER);"
                               "CREATE TABLE PB (BNO INTEGER);"
                               "CREATE TABLE AB (A INTEGER, B INTEGER);"
                               "CREATE TABLE BA (B INTEGER, A INTEGER)")
                  .ok());
  for (int i = 1; i <= n; ++i) {
    ASSERT_TRUE(
        db.Execute("INSERT INTO PA VALUES (" + std::to_string(i) + ")").ok());
    ASSERT_TRUE(
        db.Execute("INSERT INTO PB VALUES (" + std::to_string(i) + ")").ok());
  }
  for (auto [a, b] : ab) {
    ASSERT_TRUE(db.Execute("INSERT INTO AB VALUES (" + std::to_string(a) +
                           ", " + std::to_string(b) + ")")
                    .ok());
  }
  for (auto [b, a] : ba) {
    ASSERT_TRUE(db.Execute("INSERT INTO BA VALUES (" + std::to_string(b) +
                           ", " + std::to_string(a) + ")")
                    .ok());
  }
  Result<QueryResult> r = db.Query(R"sql(
    OUT OF root AS (SELECT * FROM PA WHERE ANO = 1),
           xa AS PA,
           xb AS PB,
           seed AS (RELATE root VIA STARTS, xb USING AB e
                    WHERE root.ano = e.a AND e.b = xb.bno),
           atob AS (RELATE xa VIA FEEDS, xb USING AB e
                    WHERE xa.ano = e.a AND e.b = xb.bno),
           btoa AS (RELATE xb VIA RETURNS, xa USING BA e
                    WHERE xb.bno = e.b AND e.a = xa.ano)
    TAKE *
  )sql");
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  std::set<int> ra, rb;
  std::queue<std::pair<bool, int>> work;  // (is_a, number)
  for (auto [a, b] : ab) {
    if (a == 1) work.emplace(false, b);
  }
  while (!work.empty()) {
    auto [is_a, x] = work.front();
    work.pop();
    if (!(is_a ? ra : rb).insert(x).second) continue;
    for (auto [from, to] : is_a ? ab : ba) {
      if (from == x) work.emplace(!is_a, to);
    }
  }
  auto values = [&](const char* name) {
    std::set<int> out;
    for (const Tuple& row : r.value().RowsOf(r.value().FindOutput(name))) {
      out.insert(static_cast<int>(row[0].AsInt()));
    }
    return out;
  };
  EXPECT_EQ(values("XA"), ra) << "seed " << GetParam();
  EXPECT_EQ(values("XB"), rb) << "seed " << GetParam();
  size_t atob = 0, btoa = 0;
  for (auto [a, b] : ab) atob += ra.count(a);
  for (auto [b, a] : ba) btoa += rb.count(b);
  EXPECT_EQ(r.value().ConnectionCount(r.value().FindOutput("ATOB")), atob);
  EXPECT_EQ(r.value().ConnectionCount(r.value().FindOutput("BTOA")), btoa);
}

}  // namespace
}  // namespace xnfdb
