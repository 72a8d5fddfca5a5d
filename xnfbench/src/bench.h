// Shared pieces of the xnfdb end-to-end benchmark: the op model, the
// per-op timing/tracing context, the workload interface and the answer
// digests the oracle compares against.
//
// Every op belongs to one class and records one latency sample of that
// class. The engine sees only the generated SQL text and API calls; the
// expected answers are computed by the workloads from their own generated
// rows and DML log (never by asking the engine).

#ifndef XNFBENCH_BENCH_H_
#define XNFBENCH_BENCH_H_

#include <cstdint>
#include <ctime>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/database.h"
#include "cache/workspace.h"
#include "common/value.h"
#include "obs/trace.h"

namespace xnfbench {

using xnfdb::Tuple;
using xnfdb::Value;

enum class OpClass { kQuery, kDml, kLoad, kTraverse, kWriteback, kLookup };
constexpr int kNumOpClasses = 6;
const char* OpClassName(OpClass c);

struct Op {
  OpClass cls = OpClass::kQuery;
  int kind = 0;                // workload-specific variant
  int64_t a = 0, b = 0, c = 0;  // workload-specific arguments
  std::vector<int64_t> keys;   // batch arguments (lookups, updates)
  std::string sql;             // statement text for SQL ops
  int64_t round = 0;           // the generator's block of ops (see main.cc)
};

// Order-sensitive hash of the generated op sequence (determinism check).
uint64_t HashOps(const std::vector<Op>& ops);

inline int64_t ClockNs(clockid_t clock) {
  timespec ts;
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}
inline int64_t WallNs() { return ClockNs(CLOCK_MONOTONIC); }
inline int64_t CpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }

// Per-op context. Only the work inside Engine() counts as the op's time;
// answer checking and benchmark bookkeeping run outside it. On a traced op
// `Span` times the benchmark's own calls into a layer, and the engine's
// existing phase spans are collected through `tracer` (handed to the engine
// through the public CompileOptions/ExecOptions sinks).
class OpContext {
 public:
  explicit OpContext(bool traced, xnfdb::obs::Tracer* tracer)
      : traced_(traced), tracer_(tracer) {}

  template <typename F>
  auto Engine(F&& f) {
    struct Stop {
      OpContext* c;
      int64_t w0 = WallNs(), c0 = CpuNs();
      ~Stop() {
        c->cpu_ns += CpuNs() - c0;
        c->wall_ns += WallNs() - w0;
      }
    } stop{this};
    return f();
  }

  template <typename F>
  auto Span(const char* layer, F&& f) {
    if (!traced_) return f();
    struct Stop {
      OpContext* c;
      const char* layer;
      int64_t t0 = WallNs();
      ~Stop() { c->spans.emplace_back(layer, WallNs() - t0); }
    } stop{this, layer};
    return f();
  }

  bool traced() const { return traced_; }
  xnfdb::CompileOptions Copts() const;
  xnfdb::ExecOptions Eopts() const;

  // Records a failed op (first message wins).
  bool Fail(const std::string& why) {
    if (error.empty()) error = why;
    return false;
  }

  int64_t wall_ns = 0;
  int64_t cpu_ns = 0;
  int64_t tuples = 0;     // traversal: tuple visits
  int64_t stmts = 0;      // write-back: statements executed
  int64_t parse_ns = 0;   // traced: benchmark parse probe of the op's SQL
  int64_t parses = 0;
  int64_t plan_ns = 0;    // traced: benchmark WriteBackPlanner::Plan probe
  std::vector<std::pair<const char*, int64_t>> spans;  // layer, ns
  std::string error;

 private:
  bool traced_;
  xnfdb::obs::Tracer* tracer_;
};

// Order-independent digest of an answer: per output name, the row (or
// connection) count and a wrapping sum of mixed row hashes. Connections
// hash the content of the rows they link, so two answers compare equal up
// to tuple-id renaming.
struct Digest {
  std::map<std::string, std::pair<int64_t, uint64_t>> parts;
  bool operator==(const Digest& o) const { return parts == o.parts; }
  bool operator!=(const Digest& o) const { return !(*this == o); }
  // First differing output, for failure messages.
  std::string Diff(const Digest& expected) const;
};

uint64_t RowHash(const Tuple& row);
// All outputs of an engine answer (XNF components and connections).
Digest DigestOf(const xnfdb::QueryResult& result);
// The live rows and connections of a loaded CO cache.
Digest DigestOf(xnfdb::Workspace& ws);
// A single multiset of rows (a plain SQL answer).
Digest DigestOfRows(const std::vector<Tuple>& rows);

// Oracle self-test: `good` must match `expected`, and copies of it with one
// changed value, one dropped row, one dropped connection and one relinked
// connection must not. False (with the reason) when a tampered copy passes.
bool TamperCaught(const xnfdb::QueryResult& good, const Digest& expected,
                  std::string* detail);

// An expected CO answer computed by the oracle: component rows and
// relationship edges as (parent row, child row) index pairs.
struct CoAnswer {
  struct Comp {
    std::string name;
    std::vector<Tuple> rows;
  };
  struct Rel {
    std::string name;
    int parent = 0, child = 0;  // component indexes
    std::vector<std::pair<int, int>> edges;
  };
  std::vector<Comp> comps;
  std::vector<Rel> rels;

  Digest ToDigest() const;
  int Comp(const std::string& name) const;
  // Depth-limited walk from row `row` of component `comp`, following every
  // relationship whose parent is the current component (the same walk
  // CacheWalker does over a cache). Adds tuple visits and the sum of every
  // visited row's first column.
  void Walk(int comp, int row, int depth, int64_t* visits,
            int64_t* sum) const;

 private:
  mutable std::vector<std::vector<std::vector<int>>> children_;  // [rel][row]
};

// The cache-side walk matching CoAnswer::Walk, through DependentCursors.
// Built once per loaded workspace, so the timed walk does no name lookups.
class CacheWalker {
 public:
  explicit CacheWalker(xnfdb::Workspace* ws);
  void Walk(xnfdb::CachedRow* row, int depth, int64_t* visits,
            int64_t* sum) const;

 private:
  xnfdb::Workspace* ws_;
  std::vector<std::vector<xnfdb::Relationship*>> out_;  // by component index
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Schema, rows, views, warm-up and cache loads: everything timed as one
  // set-up. Data generation happens in the constructor, outside it. May be
  // called again after Teardown.
  virtual xnfdb::Status Setup() = 0;
  // Drops the engine state of the previous Setup (untimed).
  virtual void Teardown() = 0;
  // Builds the benchmark's own handles into the state the last Setup left
  // (untimed). Called once before the loop.
  virtual void Index() {}
  // Generates the op sequence (deterministic in the seed) from the oracle's
  // data alone, before any Setup; `n` is the number of ops generated.
  virtual std::vector<Op> GenerateOps(size_t n) = 0;
  // Ops per second of op time the op list is sized for, about ten times
  // the rate measured at the commit that defined the benchmark. A run that
  // uses up its list before --seconds fails.
  virtual double MaxOpsPerSecond() const = 0;
  // Runs one op and checks its answer; false when it failed or was wrong.
  virtual bool Run(const Op& op, OpContext* ctx) = 0;
  // Hands the checkers tampered answers; true when every one is caught.
  virtual bool SelfTest(std::string* detail) = 0;
  // Data sizes and matview state for the run record (a JSON object body).
  virtual std::string StateJson() = 0;
  virtual xnfdb::Database& db() = 0;
};

std::unique_ptr<Workload> MakeExtract(uint64_t seed);
std::unique_ptr<Workload> MakeServeMixed(uint64_t seed);
std::unique_ptr<Workload> MakeOo1Session(uint64_t seed);

// Shared helpers.
inline Value I(int64_t v) { return Value(v); }
std::string Upper(const std::string& s);
// Loads generated rows through multi-row INSERTs of at most 512 rows.
xnfdb::Status InsertRows(xnfdb::Database* db, const std::string& table,
                         const std::vector<Tuple>& rows);
// Runs one statement via Database::Execute inside the op's engine time,
// with a benchmark parse probe on traced ops (outside the op's time).
bool ExecuteSql(xnfdb::Database* db, const std::string& sql, OpContext* ctx,
                size_t* affected);
// Writes the cache's pending changes back through WriteBackPlanner::Apply.
// On a traced op a separate Plan call over the same workspace, outside the
// op's time, measures the planner. Sets ctx->stmts.
bool WriteBack(xnfdb::Database* db, const xnfdb::ast::XnfQuery* definition,
               xnfdb::Workspace* ws, OpContext* ctx);
std::string JsonEscape(const std::string& s);

}  // namespace xnfbench

#endif  // XNFBENCH_BENCH_H_
