// Recursive composite objects (paper Sect. 2): the fixpoint evaluator's
// scaling on bill-of-materials hierarchies. "This cycle basically defines a
// 'derivation rule' that iterates along the cycle's relationships to
// collect the tuples until a fixed point is reached."
//
// Workload: a part tree of depth D and fan-out F (plus 20% cross edges for
// diamonds) anchored at one product, with PART's key and BOM's ASSEMBLY
// indexed; and a 1000-part chain without indexes (one round per part, every
// delta plan a hash join). Reported: parts reached, semi-naive rounds,
// evaluation time, base-table rows scanned, and the time of the
// non-recursive 2-level unrolled query for contrast (what an application
// would hand-code without recursive CO support). Exits 1 when a
// configuration does not reach every part but the product.

#include <cstdio>
#include <iterator>
#include <random>
#include <sstream>

#include "bench/workloads.h"

namespace xnfdb {
namespace bench {
namespace {

// Builds a BOM with `depth` levels of fan-out `fanout` under part 1.
// Returns the number of parts.
int BuildBom(Database* db, int depth, int fanout, bool indexed,
             uint32_t seed) {
  CheckOk(db->ExecuteScript(indexed ? R"sql(
    CREATE TABLE PART (PNO INTEGER, PNAME VARCHAR, PRIMARY KEY (PNO));
    CREATE TABLE BOM (ASSEMBLY INTEGER, COMPONENT INTEGER);
    CREATE INDEX ON BOM (ASSEMBLY);
  )sql"
                                    : R"sql(
    CREATE TABLE PART (PNO INTEGER, PNAME VARCHAR);
    CREATE TABLE BOM (ASSEMBLY INTEGER, COMPONENT INTEGER);
  )sql")
              .status(),
          "schema");
  std::mt19937 rng(seed);
  int next = 1;
  std::vector<int> level{next};
  std::ostringstream parts, edges;
  parts << "INSERT INTO PART VALUES (1, 'root')";
  bool has_edges = false;
  for (int d = 0; d < depth; ++d) {
    std::vector<int> next_level;
    for (int parent : level) {
      for (int k = 0; k < fanout; ++k) {
        int child = ++next;
        parts << ", (" << child << ", 'p" << child << "')";
        edges << (has_edges ? ", " : "INSERT INTO BOM VALUES ") << "("
              << parent << ", " << child << ")";
        has_edges = true;
        next_level.push_back(child);
      }
    }
    // Cross edges (diamonds) within the new level.
    for (size_t i = 0; i + 1 < next_level.size(); i += 5) {
      edges << ", (" << next_level[i] << ", " << next_level[i + 1] << ")";
    }
    level = std::move(next_level);
  }
  CheckOk(db->Execute(parts.str()).status(), "parts");
  if (has_edges) CheckOk(db->Execute(edges.str()).status(), "edges");
  return next;
}

const char* kRecursiveQuery = R"sql(
  OUT OF product AS (SELECT * FROM PART WHERE PNO = 1),
         xpart AS PART,
         top AS (RELATE product VIA ANCHORS, xpart USING BOM b
                 WHERE product.pno = b.assembly AND b.component = xpart.pno),
         uses AS (RELATE xpart VIA CONTAINS, xpart USING BOM b
                  WHERE contains.pno = b.assembly AND b.component = xpart.pno)
  TAKE *
)sql";

// What an application would write without recursion: a fixed 2-level
// unrolling (direct children and grandchildren only).
const char* kUnrolledQuery = R"sql(
  OUT OF product AS (SELECT * FROM PART WHERE PNO = 1),
         l1 AS PART,
         l2 AS PART,
         top AS (RELATE product VIA ANCHORS, l1 USING BOM b
                 WHERE product.pno = b.assembly AND b.component = l1.pno),
         sub AS (RELATE l1 VIA CONTAINS, l2 USING BOM b
                 WHERE l1.pno = b.assembly AND b.component = l2.pno)
  TAKE *
)sql";

int Run() {
  std::printf(
      "Recursive CO evaluation (semi-naive fixpoint) on bill-of-materials "
      "hierarchies\n\n");
  std::printf("%-18s %7s | %8s %7s %9s %9s | %14s %8s\n", "depth x fanout",
              "parts", "reached", "rounds", "fix(ms)", "scanned",
              "2-level unroll", "reached");
  struct Config {
    int depth, fanout;
    bool indexed;
  } configs[] = {
      {4, 3, true}, {6, 3, true}, {8, 3, true}, {10, 2, true}, {999, 1, false}};
  const size_t n_configs = SmokeMode() ? 1 : std::size(configs);
  std::string results = "{";
  int rc = 0;
  for (size_t ci = 0; ci < n_configs; ++ci) {
    const Config& config = configs[ci];
    Database db;
    int parts = BuildBom(&db, config.depth, config.fanout, config.indexed, 11);
    size_t reached = 0;
    int64_t rounds = 0, scanned = 0;
    double fix_us = TimeSecs([&] {
                      Result<QueryResult> r = db.Query(kRecursiveQuery);
                      CheckOk(r.status(), "recursive");
                      reached = r.value().RowCount(
                          r.value().FindOutput("XPART"));
                      rounds = r.value().stats.fixpoint_rounds;
                      scanned = r.value().stats.rows_scanned;
                    }) *
                    1e6;
    size_t unrolled = 0;
    double unroll_us = TimeSecs([&] {
                         Result<QueryResult> r = db.Query(kUnrolledQuery);
                         CheckOk(r.status(), "unrolled");
                         unrolled =
                             r.value().RowCount(r.value().FindOutput("L1")) +
                             r.value().RowCount(r.value().FindOutput("L2"));
                       }) *
                       1e6;
    const std::string name = std::to_string(config.depth) + "x" +
                              std::to_string(config.fanout) +
                              (config.indexed ? "" : "_unindexed");
    std::printf("%-18s %7d | %8zu %7lld %9.2f %9lld | %14.2f %8zu\n",
                name.c_str(), parts, reached, static_cast<long long>(rounds),
                fix_us / 1000.0, static_cast<long long>(scanned),
                unroll_us / 1000.0, unrolled);
    if (ci > 0) results += ", ";
    results += "\"" + name + "\": {\"parts\": " + std::to_string(parts) +
               ", \"reached\": " + std::to_string(reached) +
               ", \"rounds\": " + std::to_string(rounds) +
               ", \"fix_us\": " + std::to_string(fix_us) +
               ", \"unroll_us\": " + std::to_string(unroll_us) +
               ", \"rows_scanned\": " + std::to_string(scanned) + "}";
    if (reached != static_cast<size_t>(parts - 1)) {
      std::fprintf(stderr,
                   "GATE FAIL: %s reached %zu parts, expected %d (every part "
                   "but the product)\n",
                   name.c_str(), reached, parts - 1);
      rc = 1;
    }
  }
  results += "}";
  std::printf(
      "\nExpected shape: the fixpoint reaches the full transitive closure "
      "with time roughly linear in edges; a fixed unrolling reaches only "
      "its hard-coded depth.\n");
  WriteBenchJson("recursive", results);
  return rc;
}

}  // namespace
}  // namespace bench
}  // namespace xnfdb

int main() { return xnfdb::bench::Run(); }
