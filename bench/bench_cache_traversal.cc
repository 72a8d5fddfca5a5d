// Sect. 5.2 / 6: CO cache navigation performance, Cattell-benchmark style.
//
// "Using the traversal operation from that benchmark, we could access in a
// pre-loaded XNF cache more than 100,000 tuples per second which matches
// the requirements for CAD applications."
//
// The OO1 database (20k parts, 3 connections per part, 90% locality) is
// loaded into an XNF cache; the traversal operation performs a depth-7
// depth-first walk along the connection relationship, counting every tuple
// visit. Measured both with swizzled pointers (default) and with tuple-id
// hash lookups (the ablation quantifying the benefit of swizzling,
// cf. Sect. 5.3 on pointer swizzling in OODBMSs). The load cost of the
// same cache is reported beside: the fastest of 5 Workspace::Build calls
// over one answer, and the fastest of the 5 destructions of what they built.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>

#include "bench/workloads.h"
#include "cache/cursor.h"
#include "cache/xnf_cache.h"

namespace xnfdb {
namespace bench {
namespace {

// Per-phase tuples/s, filled in by each benchmark body and reported in the
// "results" object of BENCH_cache_traversal.json (the benchmark counters only
// reach the console reporter).
double g_traversal_swizzled_tps = 0.0;
double g_traversal_tid_lookup_tps = 0.0;
double g_independent_scan_tps = 0.0;
double g_tid_lookup_tps = 0.0;
double g_build_us = 0.0;
double g_release_us = 0.0;

double RatePerSec(int64_t tuples,
                  std::chrono::steady_clock::time_point t0,
                  std::chrono::steady_clock::time_point t1) {
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  return secs > 0.0 ? static_cast<double>(tuples) / secs : 0.0;
}

struct Fixture {
  Database db;
  std::unique_ptr<XNFCache> swizzled;
  std::unique_ptr<XNFCache> tid_lookup;

  Fixture() {
    Oo1Params params;
    if (SmokeMode()) params.parts = 1000;
    CheckOk(PopulateOo1(&db, params), "populate OO1");
    XNFCache::Options opts;
    opts.workspace.swizzle = true;
    Result<std::unique_ptr<XNFCache>> a =
        XNFCache::Evaluate(&db, kOo1Query, opts);
    CheckOk(a.status(), "evaluate swizzled");
    swizzled = std::move(a).value();
    opts.workspace.swizzle = false;
    Result<std::unique_ptr<XNFCache>> b =
        XNFCache::Evaluate(&db, kOo1Query, opts);
    CheckOk(b.status(), "evaluate tid-lookup");
    tid_lookup = std::move(b).value();
  }
};

Fixture& GetFixture() {
  static Fixture& fixture = *new Fixture();
  return fixture;
}

// Depth-first traversal counting every tuple visit (revisits included, as
// in OO1's traversal measure).
int64_t Traverse(Workspace* ws, Relationship* rel, CachedRow* part,
                 int depth) {
  int64_t visited = 1;
  if (depth == 0) return visited;
  DependentCursor cursor(ws, rel, part);
  while (cursor.Next()) {
    visited += Traverse(ws, rel, cursor.row(), depth - 1);
  }
  return visited;
}

void BM_TraversalSwizzled(benchmark::State& state) {
  Fixture& f = GetFixture();
  Workspace& ws = f.swizzled->workspace();
  ComponentTable* parts = ws.component("XPART").value();
  Relationship* rel = ws.relationship("CONN").value();
  int64_t tuples = 0;
  size_t start = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    CachedRow* row = parts->row(start % parts->size());
    start += 37;
    tuples += Traverse(&ws, rel, row, static_cast<int>(state.range(0)));
  }
  g_traversal_swizzled_tps =
      RatePerSec(tuples, t0, std::chrono::steady_clock::now());
  state.counters["tuples_per_sec"] = benchmark::Counter(
      static_cast<double>(tuples), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TraversalSwizzled)->Arg(7)->Unit(benchmark::kMillisecond);

void BM_TraversalTidLookup(benchmark::State& state) {
  Fixture& f = GetFixture();
  Workspace& ws = f.tid_lookup->workspace();
  ComponentTable* parts = ws.component("XPART").value();
  Relationship* rel = ws.relationship("CONN").value();
  int64_t tuples = 0;
  size_t start = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    CachedRow* row = parts->row(start % parts->size());
    start += 37;
    tuples += Traverse(&ws, rel, row, static_cast<int>(state.range(0)));
  }
  g_traversal_tid_lookup_tps =
      RatePerSec(tuples, t0, std::chrono::steady_clock::now());
  state.counters["tuples_per_sec"] = benchmark::Counter(
      static_cast<double>(tuples), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TraversalTidLookup)->Arg(7)->Unit(benchmark::kMillisecond);

// Independent-cursor scan over all cached parts (sequential browse rate).
void BM_IndependentScan(benchmark::State& state) {
  Fixture& f = GetFixture();
  ComponentTable* parts = f.swizzled->workspace().component("XPART").value();
  int64_t tuples = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    IndependentCursor cursor(parts);
    while (cursor.Next()) {
      benchmark::DoNotOptimize(cursor.row()->values[0]);
      ++tuples;
    }
  }
  g_independent_scan_tps =
      RatePerSec(tuples, t0, std::chrono::steady_clock::now());
  state.counters["tuples_per_sec"] = benchmark::Counter(
      static_cast<double>(tuples), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_IndependentScan)->Unit(benchmark::kMillisecond);

// OO1 lookup: fetch cached parts by tuple id.
void BM_TidLookup(benchmark::State& state) {
  Fixture& f = GetFixture();
  ComponentTable* parts = f.swizzled->workspace().component("XPART").value();
  int64_t found = 0;
  TupleId tid = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    CachedRow* row = parts->FindByTid(tid % parts->size());
    tid += 7919;
    if (row != nullptr) ++found;
  }
  g_tid_lookup_tps = RatePerSec(found, t0, std::chrono::steady_clock::now());
  benchmark::DoNotOptimize(found);
}
BENCHMARK(BM_TidLookup);

// Builds and frees the swizzled workspace of one OO1 answer 5 times.
void MeasureLoad() {
  Fixture& f = GetFixture();
  Result<QueryResult> answer = f.db.Query(kOo1Query);
  CheckOk(answer.status(), "query OO1 CO");
  using Clock = std::chrono::steady_clock;
  auto us = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::micro>(b - a).count();
  };
  g_build_us = g_release_us = 1e300;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = Clock::now();
    Result<std::unique_ptr<Workspace>> ws = Workspace::Build(answer.value());
    const auto t1 = Clock::now();
    CheckOk(ws.status(), "build workspace");
    std::unique_ptr<Workspace> built = std::move(ws).value();
    const auto t2 = Clock::now();
    built.reset();
    const auto t3 = Clock::now();
    g_build_us = std::min(g_build_us, us(t0, t1));
    g_release_us = std::min(g_release_us, us(t2, t3));
  }
}

}  // namespace
}  // namespace bench
}  // namespace xnfdb

// Reporting note printed before benchmark output (paper target).
int main(int argc, char** argv) {
  std::printf(
      "Sect. 5.2 cache-navigation benchmark (paper target: >100,000 tuples "
      "per second in a pre-loaded cache).\n");
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  xnfdb::bench::MeasureLoad();
  std::printf("workspace build %.1f us, release %.1f us (best of 5)\n",
              xnfdb::bench::g_build_us, xnfdb::bench::g_release_us);
  char results[512];
  std::snprintf(results, sizeof(results),
                "{\"traversal_swizzled_tuples_per_sec\":%.1f,"
                "\"traversal_tid_lookup_tuples_per_sec\":%.1f,"
                "\"independent_scan_tuples_per_sec\":%.1f,"
                "\"tid_lookup_tuples_per_sec\":%.1f,"
                "\"build_us\":%.1f,\"release_us\":%.1f}",
                xnfdb::bench::g_traversal_swizzled_tps,
                xnfdb::bench::g_traversal_tid_lookup_tps,
                xnfdb::bench::g_independent_scan_tps,
                xnfdb::bench::g_tid_lookup_tps, xnfdb::bench::g_build_us,
                xnfdb::bench::g_release_us);
  xnfdb::bench::WriteBenchJson("cache_traversal", results);
  return 0;
}
