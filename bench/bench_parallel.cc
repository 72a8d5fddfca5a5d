// Sect. 5.1 / 6 outlook: "Another decisive technology to reduce query
// execution by orders of magnitude is to apply parallelism. Set-oriented
// specification of COs as done in XNF particularly lends itself to
// exploitation of parallelism technology" — and "further extensions (e.g.
// parallelism ...) introduced to the relational part of the system become
// automatically available to XNF."
//
// The executor's parallelism is morsel-driven: up to `morsel_workers` plan
// clones claim row-range morsels of an output's driving base-table scan,
// and the per-morsel buckets are reassembled in scan order. Measured, at
// 1/2/4 workers with matviews off (every run a cold execution): a
// selective PART scan and a CONNECTION scan over the OO1 database, and the
// deps_ARC CO over the scaled Fig. 1 database. Each time is the minimum of
// N runs, the worker counts taking turns. Exits 1 when any multi-worker stream differs from the 1-worker
// stream, in content or in order.

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/workloads.h"

namespace xnfdb {
namespace bench {
namespace {

constexpr int kWorkers[] = {1, 2, 4};

bool SameStream(const QueryResult& a, const QueryResult& b) {
  if (a.stream.size() != b.stream.size()) return false;
  for (size_t i = 0; i < a.stream.size(); ++i) {
    const StreamItem& x = a.stream[i];
    const StreamItem& y = b.stream[i];
    if (x.kind != y.kind || x.output != y.output || x.tid != y.tid ||
        x.tids != y.tids ||
        TupleToString(x.values) != TupleToString(y.values)) {
      return false;
    }
  }
  return true;
}

// Runs `sql` at each worker count, the counts interleaved within each
// repetition so a noisy spell on the machine hits all of them; appends one
// results{} entry to `json`. Returns false when a stream differs from the
// 1-worker stream of the same repetition.
bool Sweep(Database* db, const std::string& name, const char* sql, int runs,
           std::string* json) {
  constexpr size_t kConfigs = std::size(kWorkers);
  double ms[kConfigs];
  std::fill(ms, ms + kConfigs, 1e30);
  int64_t morsels[kConfigs] = {};
  QueryResult baseline;
  bool same = true;
  for (int rep = 0; rep < runs; ++rep) {
    for (size_t i = 0; i < kConfigs; ++i) {
      ExecOptions eopts;
      eopts.morsel_workers = kWorkers[i];
      QueryResult result;
      double secs = TimeSecs([&] {
        Result<QueryResult> r = db->Query(sql, {}, eopts);
        CheckOk(r.status(), name);
        result = std::move(r).value();
      });
      ms[i] = std::min(ms[i], secs * 1000.0);
      morsels[i] = result.stats.morsels_claimed;
      if (i == 0) {
        baseline = std::move(result);
      } else if (!SameStream(baseline, result)) {
        std::fprintf(stderr,
                     "GATE FAIL: %s at %d workers changed the stream\n",
                     name.c_str(), kWorkers[i]);
        same = false;
      }
    }
  }
  std::printf("%-12s %9zu |", name.c_str(), baseline.stream.size());
  for (double m : ms) std::printf(" %10.2f", m);
  std::printf(" | %6.2fx %6.2fx | %7lld | %s\n", ms[0] / ms[1],
              ms[0] / ms[2], static_cast<long long>(morsels[2]),
              same ? "identical" : "DIFFERENT");

  if (json->size() > 1) *json += ", ";
  *json += "\"" + name + "\": {\"items\": " +
           std::to_string(baseline.stream.size()) + ", \"runs\": " +
           std::to_string(runs);
  for (size_t i = 0; i < kConfigs; ++i) {
    const std::string w = std::to_string(kWorkers[i]);
    *json += ", \"w" + w + "_ms\": " + std::to_string(ms[i]) +
             ", \"w" + w + "_speedup\": " + std::to_string(ms[0] / ms[i]) +
             ", \"w" + w + "_morsels\": " + std::to_string(morsels[i]);
  }
  *json += std::string(", \"identical\": ") + (same ? "true" : "false") + "}";
  return same;
}

int Run() {
  const bool smoke = SmokeMode();
  const int runs = smoke ? 2 : 40;
  std::printf("Morsel-parallel extraction (matviews off, min of %d runs)\n",
              runs);
  std::printf("hardware threads available: %u\n\n",
              std::thread::hardware_concurrency());
  std::printf("%-12s %9s | %10s %10s %10s | %7s %7s | %7s | %s\n",
              "workload", "items", "1 wrk(ms)", "2 wrk(ms)", "4 wrk(ms)",
              "2 wrk", "4 wrk", "morsels", "stream");

  std::string json = "{";
  bool ok = true;
  {
    Database db;
    db.matviews().set_enabled(false);
    Oo1Params params;
    params.parts = smoke ? 20000 : 200000;
    CheckOk(PopulateOo1(&db, params), "populate OO1");
    json += "\"oo1_parts\": " + std::to_string(params.parts);
    // About 1% of the parts: X is uniform over [0, 100000).
    ok &= Sweep(&db, "part_scan", "SELECT PNO, X, Y FROM PART WHERE X < 1000",
                runs, &json);
    // About 10% of the connections: LEN is uniform over [0, 1000).
    ok &= Sweep(&db, "conn_scan",
                "SELECT CFROM, CTO, LEN FROM CONNECTION WHERE LEN < 100", runs,
                &json);
  }
  {
    Database db;
    db.matviews().set_enabled(false);
    DeptDbParams params;
    params.departments = smoke ? 80 : 640;
    CheckOk(PopulateDeptDb(&db, params), "populate");
    json += ", \"deps_departments\": " + std::to_string(params.departments);
    ok &= Sweep(&db, "deps_arc", kDepsArcQuery, runs, &json);
  }
  json += "}";
  std::printf(
      "\nExpected shape: the scans speed up with workers (bounded by the "
      "core count and the sequential reassembly of the buckets). deps_ARC "
      "stays near 1x: every output reads a plan-time spool, so no output "
      "has a driving scan to split (0 morsels).\n");
  WriteBenchJson("parallel", json);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace xnfdb

int main() { return xnfdb::bench::Run(); }
