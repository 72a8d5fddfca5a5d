// oo1_session: a Cattell OO1 client session over the recursive parts CO of
// Sect. 5.2. Set-up loads the CO (every part reachable from part 1 and the
// CONN self-relationship) into a client cache through the XNF fixpoint. The
// loop then mixes tid lookups, depth-7 traversals, batches of local part
// updates written back to the server, SQL inserts of new parts, a server
// query of part 1's neighbourhood, and a periodic refresh of the cache.
// New parts go through SQL INSERT because the cache cannot write back the
// CONN self-relationship ("connect-table mapping incomplete").

#include <map>
#include <random>
#include <set>
#include <sstream>

#include "bench.h"
#include "parser/parser.h"

namespace xnfbench {
namespace {

using xnfdb::Database;
using xnfdb::Result;
using xnfdb::Status;

constexpr int kParts = 2000;
constexpr int kConnsPerPart = 3;
constexpr int kTraversalDepth = 7;
constexpr int kLookupsPerOp = 100;
constexpr int kUpdatesPerWriteback = 10;

const char* kPartsCo = R"sql(
  OUT OF root AS (SELECT * FROM PART WHERE PNO = 1),
         xpart AS PART,
         anchor AS (RELATE root VIA SEEDS, xpart USING CONNECTION c
                    WHERE root.pno = c.cfrom AND c.cto = xpart.pno),
         conn AS (RELATE xpart VIA LINKS, xpart USING CONNECTION c
                  WHERE links.pno = c.cfrom AND c.cto = xpart.pno)
  TAKE *
)sql";

// Part 1 and the parts it connects to: a small acyclic CO the session asks
// the server for (served from a materialization once captured).
const char* kNeighbourhoodCo = R"sql(
  OUT OF root AS (SELECT * FROM PART WHERE PNO = 1),
         xpart AS PART,
         anchor AS (RELATE root VIA SEEDS, xpart USING CONNECTION c
                    WHERE root.pno = c.cfrom AND c.cto = xpart.pno)
  TAKE *
)sql";

// The oracle's copy of the OO1 database.
struct Oo1Data {
  std::vector<Tuple> parts;  // PNO, PTYPE, X, Y (index PNO-1)
  std::vector<std::vector<int64_t>> out;  // CFROM -> CTOs (index PNO-1)
  int64_t conns = 0;

  Tuple PartRow(int64_t pno, int64_t x, int64_t y) const {
    return {I(pno), Value("part" + std::to_string(pno % 10)), I(x), I(y)};
  }
};

// The oracle's answer of the parts CO (`recursive`) or the neighbourhood
// CO: ROOT is part 1, XPART the parts reachable from it.
CoAnswer OracleParts(const Oo1Data& d, bool recursive) {
  CoAnswer co;
  co.comps = {{"ROOT", {d.parts[0]}}, {"XPART", {}}};
  co.rels.push_back({"ANCHOR", 0, 1, {}});
  std::map<int64_t, int> idx;
  std::vector<int64_t> order;
  auto reach = [&](int64_t pno) {
    auto [it, fresh] = idx.emplace(pno, static_cast<int>(order.size()));
    if (fresh) order.push_back(pno);
    return it->second;
  };
  std::set<int64_t> anchor(d.out[0].begin(), d.out[0].end());
  for (int64_t to : anchor) co.rels[0].edges.emplace_back(0, reach(to));
  if (recursive) {
    co.rels.push_back({"CONN", 1, 1, {}});
    for (size_t i = 0; i < order.size(); ++i) {
      const int64_t from = order[i];
      std::set<int64_t> tos(d.out[from - 1].begin(), d.out[from - 1].end());
      for (int64_t to : tos) {
        const int from_idx = static_cast<int>(i);
        co.rels[1].edges.emplace_back(from_idx, reach(to));
      }
    }
  }
  for (int64_t pno : order) co.comps[1].rows.push_back(d.parts[pno - 1]);
  return co;
}

enum DmlKind { kInsertPart, kInsertConnection };

class Oo1Workload : public Workload {
 public:
  explicit Oo1Workload(uint64_t seed) : seed_(seed) {
    std::mt19937_64 rng(seed);
    for (int64_t p = 1; p <= kParts; ++p) {
      data_.parts.push_back(data_.PartRow(
          p, static_cast<int64_t>(rng() % 100000),
          static_cast<int64_t>(rng() % 100000)));
    }
    data_.out.resize(kParts);
    // OO1 connection rule: 90% go to one of the nearest 1% of parts (by
    // part number), 10% anywhere.
    const int64_t window = kParts / 100;
    for (int64_t p = 1; p <= kParts; ++p) {
      for (int k = 0; k < kConnsPerPart; ++k) {
        const int64_t to =
            rng() % 10 < 9
                ? (p + 1 + static_cast<int64_t>(rng() % window) - 1) %
                          kParts + 1
                : 1 + static_cast<int64_t>(rng() % kParts);
        const int64_t len = static_cast<int64_t>(rng() % 1000);
        data_.out[p - 1].push_back(to);
        conn_rows_.push_back({I(p), I(to), Value("link"), I(len)});
      }
    }
    data_.conns = static_cast<int64_t>(conn_rows_.size());
  }

  void Teardown() override {
    walker_.reset();
    rows_.clear();
    xnfpart_ = nullptr;
    ws_.reset();
    def_.reset();
    db_.reset();
  }

  Status Setup() override {
    db_ = std::make_unique<Database>();
    Result<size_t> schema = db_->ExecuteScript(R"sql(
      CREATE TABLE PART (PNO INTEGER, PTYPE VARCHAR, X INTEGER, Y INTEGER,
                         PRIMARY KEY (PNO));
      CREATE TABLE CONNECTION (CFROM INTEGER, CTO INTEGER, CTYPE VARCHAR,
                               LEN INTEGER,
                               FOREIGN KEY (CFROM) REFERENCES PART (PNO),
                               FOREIGN KEY (CTO) REFERENCES PART (PNO));
      CREATE INDEX ON CONNECTION (CFROM);
    )sql");
    if (!schema.ok()) return schema.status();
    XNFDB_RETURN_IF_ERROR(InsertRows(db_.get(), "PART", data_.parts));
    XNFDB_RETURN_IF_ERROR(InsertRows(db_.get(), "CONNECTION", conn_rows_));
    auto def = xnfdb::ParseXnfQuery(kPartsCo);
    if (!def.ok()) return def.status();
    def_ = std::move(def).value();
    Result<xnfdb::QueryResult> r = db_->QueryXnf(*def_);
    if (!r.ok()) return r.status();
    auto ws = xnfdb::Workspace::Build(r.value());
    if (!ws.ok()) return ws.status();
    ws_ = std::move(ws).value();
    // Warm-up: past the matview auto-capture threshold.
    for (int rep = 0; rep < 3; ++rep) {
      Result<xnfdb::QueryResult> q = db_->Query(kNeighbourhoodCo);
      if (!q.ok()) return q.status();
    }
    return Status::Ok();
  }

  double MaxOpsPerSecond() const override { return 10000; }

  std::vector<Op> GenerateOps(size_t n) override {
    // The cache as set-up loads it; the generator tracks which parts are
    // reachable (on the server) and which are cached (as of the last load).
    OracleIndex();
    std::vector<int64_t> cached;
    for (const Tuple& row : cached_co_.comps[1].rows) {
      cached.push_back(row[0].AsInt());
    }
    std::vector<int64_t> reachable = cached;
    std::mt19937_64 rng(seed_ * 7919 + 29);
    int64_t next_pno = kParts + 1;
    auto pick = [&]() { return cached[rng() % cached.size()]; };

    std::vector<Op> ops;
    ops.reserve(n + 256);  // no freed buffers for the engine to reuse
    auto lookup = [&]() {
      Op op;
      op.cls = OpClass::kLookup;
      op.keys.reserve(kLookupsPerOp);
      for (int i = 0; i < kLookupsPerOp; ++i) op.keys.push_back(pick());
      ops.push_back(std::move(op));
    };
    auto traverse = [&]() {
      Op op;
      op.cls = OpClass::kTraverse;
      op.a = pick();
      ops.push_back(std::move(op));
    };
    auto query = [&]() {
      Op op;
      op.cls = OpClass::kQuery;
      ops.push_back(std::move(op));
    };
    auto writeback = [&]() {
      Op op;
      op.cls = OpClass::kWriteback;
      op.keys.reserve(3 * kUpdatesPerWriteback);
      std::set<int64_t> picked;
      while (picked.size() < kUpdatesPerWriteback) picked.insert(pick());
      for (int64_t pno : picked) {
        op.keys.push_back(pno);
        op.keys.push_back(static_cast<int64_t>(rng() % 100000));
        op.keys.push_back(static_cast<int64_t>(rng() % 100000));
      }
      ops.push_back(std::move(op));
    };
    auto insert = [&]() {
      const int64_t pno = next_pno++;
      Op part;
      part.cls = OpClass::kDml;
      part.kind = kInsertPart;
      part.a = pno;
      part.b = static_cast<int64_t>(rng() % 100000);
      part.c = static_cast<int64_t>(rng() % 100000);
      part.sql = "INSERT INTO PART VALUES (" + std::to_string(pno) +
                 ", 'part" + std::to_string(pno % 10) + "', " +
                 std::to_string(part.b) + ", " + std::to_string(part.c) + ")";
      ops.push_back(std::move(part));
      // Three connections out (OO1 locality over the original parts) and
      // one in from a reachable part, so the new part joins the CO; one
      // single-row INSERT each.
      for (int k = 0; k <= kConnsPerPart; ++k) {
        const bool in = k == kConnsPerPart;
        Op conn;
        conn.cls = OpClass::kDml;
        conn.kind = kInsertConnection;
        conn.a = in ? reachable[rng() % reachable.size()] : pno;
        conn.b = in ? pno
                    : 1 + (pno + static_cast<int64_t>(rng() % (kParts / 100))) %
                              kParts;
        conn.c = static_cast<int64_t>(rng() % 1000);
        conn.sql = "INSERT INTO CONNECTION VALUES (" + std::to_string(conn.a) +
                   ", " + std::to_string(conn.b) + ", 'link', " +
                   std::to_string(conn.c) + ")";
        ops.push_back(std::move(conn));
      }
      reachable.push_back(pno);
    };

    // The writes close each cycle, so the cycle's first query finds the
    // neighbourhood matview stale and refreshes it; the other five are
    // served.
    for (int64_t cycle = 0; ops.size() < n; ++cycle) {
      const size_t first = ops.size();
      // Six asks for part 1's neighbourhood in a row. Asked between
      // traversals, a served read would run on caches the traversal had just
      // flushed, and its time would follow the host's memory speed more than
      // the engine's work.
      for (int q = 0; q < 6; ++q) query();
      for (int q = 0; q < 9; ++q) {
        lookup();
        traverse();
      }
      writeback();
      writeback();
      insert();
      if (cycle % 6 == 5) {
        Op load;
        load.cls = OpClass::kLoad;
        ops.push_back(load);
        cached = reachable;
      }
      // Six cycles and the refresh that ends them make one round.
      for (size_t i = first; i < ops.size(); ++i) ops[i].round = cycle / 6;
    }
    return ops;
  }

  bool Run(const Op& op, OpContext* ctx) override {
    switch (op.cls) {
      case OpClass::kLookup: return RunLookup(op, ctx);
      case OpClass::kTraverse: return RunTraverse(op, ctx);
      case OpClass::kQuery: return RunQuery(ctx);
      case OpClass::kWriteback: return RunWriteback(op, ctx);
      case OpClass::kDml: return RunDml(op, ctx);
      case OpClass::kLoad: return RunLoad(ctx);
    }
    return ctx->Fail("unsupported op");
  }

  bool SelfTest(std::string* detail) override {
    Result<xnfdb::QueryResult> r = db_->Query(kNeighbourhoodCo);
    if (!r.ok()) {
      *detail = r.status().ToString();
      return false;
    }
    return TamperCaught(r.value(), OracleParts(data_, false).ToDigest(),
                        detail);
  }

  std::string StateJson() override {
    std::ostringstream os;
    os << "\"parts\":" << data_.parts.size()
       << ",\"connections\":" << data_.conns
       << ",\"cached_parts\":" << cached_co_.comps[1].rows.size()
       << ",\"matviews_enabled\":" << (db_->matviews().enabled() ? 1 : 0)
       << ",\"matviews_stored\":" << db_->matviews().size();
    return os.str();
  }

  Database& db() override { return *db_; }

  // The benchmark's handles into the loaded cache (outside the op's time):
  // part rows by PNO and the walker.
  void Index() override {
    rows_.clear();
    auto parts = ws_->component("XPART");
    if (parts.ok()) {
      xnfpart_ = parts.value();
      for (size_t i = 0; i < xnfpart_->size(); ++i) {
        xnfdb::CachedRow* row = xnfpart_->row(i);
        rows_[row->values[0].AsInt()] = row;
      }
    }
    walker_ = std::make_unique<CacheWalker>(ws_.get());
  }

 private:
  // The oracle's answer as of a cache load, and its part rows by PNO.
  void OracleIndex() {
    cached_co_ = OracleParts(data_, true);
    oracle_idx_.clear();
    for (size_t i = 0; i < cached_co_.comps[1].rows.size(); ++i) {
      oracle_idx_[cached_co_.comps[1].rows[i][0].AsInt()] =
          static_cast<int>(i);
    }
  }

  xnfdb::CachedRow* Row(int64_t pno) const {
    auto it = rows_.find(pno);
    return it == rows_.end() ? nullptr : it->second;
  }

  bool RunLookup(const Op& op, OpContext* ctx) {
    std::vector<xnfdb::TupleId> tids;
    int64_t want = 0;
    for (int64_t pno : op.keys) {
      xnfdb::CachedRow* row = Row(pno);
      if (row == nullptr) return ctx->Fail("lookup: part not cached");
      tids.push_back(row->tid);
      const Tuple& p = data_.parts[pno - 1];
      want += p[2].AsInt() + p[3].AsInt();
    }
    int64_t got = 0, found = 0;
    ctx->Engine([&] {
      ctx->Span("cache.lookup", [&] {
        for (xnfdb::TupleId tid : tids) {
          xnfdb::CachedRow* row = xnfpart_->FindByTid(tid);
          if (row == nullptr) continue;
          ++found;
          got += row->values[2].AsInt() + row->values[3].AsInt();
        }
      });
    });
    if (found != static_cast<int64_t>(tids.size()) || got != want) {
      return ctx->Fail("lookup: wrong parts");
    }
    return true;
  }

  bool RunTraverse(const Op& op, OpContext* ctx) {
    xnfdb::CachedRow* start = Row(op.a);
    if (start == nullptr) return ctx->Fail("traverse: part not cached");
    int64_t visits = 0, sum = 0;
    ctx->Engine([&] {
      ctx->Span("cache.traverse", [&] {
        walker_->Walk(start, kTraversalDepth, &visits, &sum);
      });
    });
    ctx->tuples = visits;
    int64_t want_visits = 0, want_sum = 0;
    cached_co_.Walk(1, oracle_idx_.at(op.a), kTraversalDepth, &want_visits,
                    &want_sum);
    if (visits != want_visits || sum != want_sum) {
      return ctx->Fail("traverse: visited " + std::to_string(visits) +
                       ", expected " + std::to_string(want_visits));
    }
    return true;
  }

  bool RunQuery(OpContext* ctx) {
    Result<xnfdb::QueryResult> r = ctx->Engine([&] {
      return ctx->Span("api.query", [&] {
        return db_->Query(kNeighbourhoodCo, ctx->Copts(), ctx->Eopts());
      });
    });
    if (!r.ok()) return ctx->Fail(r.status().ToString());
    const Digest got = DigestOf(r.value());
    const Digest want = OracleParts(data_, false).ToDigest();
    if (got != want) return ctx->Fail("neighbourhood: " + got.Diff(want));
    return true;
  }

  bool RunWriteback(const Op& op, OpContext* ctx) {
    const size_t n = op.keys.size() / 3;
    Status st = ctx->Engine([&]() -> Status {
      return ctx->Span("cache.update", [&]() -> Status {
        for (size_t i = 0; i < n; ++i) {
          xnfdb::CachedRow* row = Row(op.keys[3 * i]);
          if (row == nullptr) return Status::NotFound("part not cached");
          XNFDB_RETURN_IF_ERROR(ws_->UpdateRow(row, 2, I(op.keys[3 * i + 1])));
          XNFDB_RETURN_IF_ERROR(ws_->UpdateRow(row, 3, I(op.keys[3 * i + 2])));
        }
        return Status::Ok();
      });
    });
    if (!st.ok()) return ctx->Fail("write-back update: " + st.ToString());
    if (!WriteBack(db_.get(), def_.get(), ws_.get(), ctx)) return false;
    // One UPDATE per part whose position actually changed.
    int64_t changed = 0;
    for (size_t i = 0; i < n; ++i) {
      Tuple& p = data_.parts[op.keys[3 * i] - 1];
      const Tuple fresh = data_.PartRow(op.keys[3 * i], op.keys[3 * i + 1],
                                        op.keys[3 * i + 2]);
      if (p[2].AsInt() != fresh[2].AsInt() ||
          p[3].AsInt() != fresh[3].AsInt()) {
        ++changed;
      }
      p = fresh;
    }
    if (ctx->stmts != changed) {
      return ctx->Fail("write-back: " + std::to_string(ctx->stmts) +
                       " statements for " + std::to_string(changed) +
                       " changed parts");
    }
    return true;
  }

  bool RunDml(const Op& op, OpContext* ctx) {
    size_t affected = 0;
    if (!ExecuteSql(db_.get(), op.sql, ctx, &affected)) return false;
    if (affected != 1) {
      return ctx->Fail(op.sql + ": affected " + std::to_string(affected));
    }
    if (op.kind == kInsertPart) {
      data_.parts.push_back(data_.PartRow(op.a, op.b, op.c));
      data_.out.emplace_back();
    } else {
      data_.out[op.a - 1].push_back(op.b);
      ++data_.conns;
    }
    return true;
  }

  bool RunLoad(OpContext* ctx) {
    // XNFCache::Refresh, step by step: re-evaluate the stored definition
    // and rebuild the workspace.
    // The benchmark's handles into the old cache die with it.
    walker_.reset();
    rows_.clear();
    xnfpart_ = nullptr;
    Status st = ctx->Engine([&]() -> Status {
      ctx->Span("cache.release", [&] { ws_.reset(); });
      auto r = ctx->Span("xnf.load", [&] {
        return db_->QueryXnf(*def_, ctx->Copts(), ctx->Eopts());
      });
      if (!r.ok()) return r.status();
      auto ws = ctx->Span("cache.build",
                          [&] { return xnfdb::Workspace::Build(r.value()); });
      if (!ws.ok()) return ws.status();
      ws_ = std::move(ws).value();
      return Status::Ok();
    });
    if (!st.ok()) return ctx->Fail("refresh: " + st.ToString());
    OracleIndex();
    Index();
    const Digest got = DigestOf(*ws_);
    const Digest want = cached_co_.ToDigest();
    if (got != want) return ctx->Fail("refresh: " + got.Diff(want));
    return true;
  }

  const uint64_t seed_;
  Oo1Data data_;
  std::vector<Tuple> conn_rows_;  // generated CONNECTION rows (set-up only)
  std::unique_ptr<Database> db_;
  std::unique_ptr<xnfdb::ast::XnfQuery> def_;
  std::unique_ptr<xnfdb::Workspace> ws_;
  xnfdb::ComponentTable* xnfpart_ = nullptr;
  std::unique_ptr<CacheWalker> walker_;
  CoAnswer cached_co_;
  std::map<int64_t, int> oracle_idx_;
  std::map<int64_t, xnfdb::CachedRow*> rows_;
};

}  // namespace

std::unique_ptr<Workload> MakeOo1Session(uint64_t seed) {
  return std::make_unique<Oo1Workload>(seed);
}

}  // namespace xnfbench
