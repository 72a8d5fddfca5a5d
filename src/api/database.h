// The embedded database facade: one object owning the catalog and providing
// statement execution, query compilation+evaluation, and the server-call
// accounting used to model the workstation/server boundary of Fig. 7.
//
// Usage:
//   Database db;
//   db.ExecuteScript("CREATE TABLE DEPT (DNO INTEGER, ...); INSERT ...;");
//   auto result = db.Query("OUT OF xdept AS (SELECT ...) ... TAKE *");

#ifndef XNFDB_API_DATABASE_H_
#define XNFDB_API_DATABASE_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "api/governor.h"
#include "api/watchdog.h"
#include "matview/matview.h"
#include "common/env.h"
#include "common/status.h"
#include "common/str_util.h"
#include "exec/executor.h"
#include "obs/digest_store.h"
#include "obs/flight_recorder.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "parser/ast.h"
#include "parser/fingerprint.h"
#include "storage/catalog.h"
#include "xnf/compiler.h"

namespace xnfdb {

class Database {
 public:
  Database() : Database(Env::Default()) {}
  // All of this database's durable I/O (SaveTo/LoadFrom) goes through
  // `env`; pass a FaultInjectionEnv to exercise failure paths. The
  // constructor registers the sys$ system views (storage/sysview.h) on the
  // fresh catalog.
  explicit Database(Env* env);
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;
  // Dumps the collected trace to the XNFDB_TRACE path, when tracing is on.
  ~Database();

  Env* env() const { return env_; }

  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }

  // Outcome of one statement.
  struct Outcome {
    enum class Kind { kNone, kRows, kAffected };
    Kind kind = Kind::kNone;
    QueryResult result;   // kRows
    size_t affected = 0;  // kAffected (rows inserted/updated/deleted)
    // Phase wall times for the statement (queries only; 0 for DML/DDL).
    int64_t compile_us = 0;
    int64_t execute_us = 0;
  };

  // Parses and executes a single statement of any kind.
  Result<Outcome> Execute(const std::string& sql);

  // Executes a ';'-separated script; returns the number of statements run.
  Result<size_t> ExecuteScript(const std::string& script);

  // Compiles and runs a query: a SELECT, an OUT OF query, or the name of a
  // stored (SQL or XNF) view. Recursive COs are routed to the fixpoint
  // evaluator automatically. A text whose earlier compiled execution was
  // answered by (or captured into) a materialized view that is still fresh
  // is served without compiling (see MatViewStore::TryServeText).
  Result<QueryResult> Query(const std::string& text,
                            const CompileOptions& copts = {},
                            const ExecOptions& eopts = {});

  // Runs an already parsed XNF query.
  Result<QueryResult> QueryXnf(const ast::XnfQuery& query,
                               const CompileOptions& copts = {},
                               const ExecOptions& eopts = {});

  // EXPLAIN: compiles `text` and renders the rewrite statistics, operation
  // counts, and the physical plan of every output stream — without
  // executing the query.
  Result<std::string> Explain(const std::string& text,
                              const CompileOptions& copts = {},
                              const ExecOptions& eopts = {});

  // EXPLAIN ANALYZE ({analyze: true}): additionally *executes* the query
  // and annotates every operator line with its actual row count, loop count
  // and inclusive wall time.
  // EXPLAIN REWRITE ({rewrite: true}): prepends the ordered rewrite-rule
  // log — one line per rule application with pass number, fired/no-match,
  // rejected-match count, QGM box counts before/after, and wall time.
  struct ExplainOptions {
    bool analyze = false;
    bool rewrite = false;
  };
  Result<std::string> Explain(const std::string& text,
                              const ExplainOptions& xopts,
                              const CompileOptions& copts = {},
                              const ExecOptions& eopts = {});

  // --- observability ------------------------------------------------------
  // This database's tracer (enabled by the XNFDB_TRACE environment
  // variable) and the metrics registry it reports into (the process-wide
  // default, shared with the CO cache and Env instrumentation).
  obs::Tracer& tracer() { return tracer_; }
  obs::MetricsRegistry& metrics() { return *metrics_; }

  // One JSON snapshot of every metric in the system: phase-latency
  // histograms, executor counters, CO cache swizzle/fetch counters, env I/O
  // counters, and server.calls.
  std::string MetricsJson() const { return metrics_->ToJson(); }
  std::string MetricsPrometheus() const {
    return metrics_->ToPrometheusText();
  }

  // The per-statement-digest store behind SYS$STATEMENTS, the
  // `stmt.<digest>.us` histograms, SYS$QUERY_PROFILES, SYS$REWRITES,
  // SYS$PLAN_FEEDBACK and SYS$PLAN_HISTORY. Every Execute/Query/QueryXnf
  // fingerprints its statement and keeps one record per digest:
  //  - calls, errors, rows and latency quantiles of every statement;
  //  - each successful query execution's per-operator-class actuals,
  //    morsel-worker breakdown, memory high-water and queue wait
  //    (XNFDB_QUERY_PROFILES=0 leaves this part empty);
  //  - each compile's ordered rewrite-rule trace, and each execution's
  //    planner estimates joined against operator actuals (worst q-error
  //    offenders) plus its plan shape in the plan history
  //    (XNFDB_PLAN_FEEDBACK=0 leaves this part empty). A plan flip emits
  //    one structured warn line on the "planchange" channel and bumps the
  //    plan.changes counter.
  const obs::DigestStore& digest_store() const { return digests_; }
  obs::DigestStore& digest_store() { return digests_; }

  // The metrics time-series sampler behind SYS$METRICS_HISTORY (ring of
  // 120 samples). Its thread is the engine's one background thread (morsel
  // workers live only inside a query): it ticks every XNFDB_METRICS_SAMPLE_MS when that is > 0, else every
  // max(1, stall_ms / 2) while the watchdog is armed, and is off otherwise.
  // SampleNow() works either way (shell `.sample`).
  obs::MetricsSampler& sampler() { return sampler_; }
  const obs::MetricsSampler& sampler() const { return sampler_; }

  // The flight recorder behind SYS$EVENTS (the process-wide instance;
  // XNFDB_EVENTS=0 disables recording; the ring holds 1024 events).
  obs::FlightRecorder& events() { return obs::FlightRecorder::Default(); }

  // The health/alert engine behind SYS$HEALTH and SYS$ALERTS. Built-in
  // rules are evaluated on every sampler tick (background or SampleNow);
  // each OK<->FIRING transition emits one warn line on the "health"
  // channel and one flight-recorder event.
  obs::HealthEngine& health() { return health_; }
  const obs::HealthEngine& health() const { return health_; }
  // {"status":"ok"|"degraded",...} — the machine-readable health payload.
  std::string HealthReport() const { return health_.ReportJson(); }

  // Writes an on-demand diagnostic bundle into `dir` (created if needed):
  // the crash-style report plus metrics, flight-recorder events, health
  // state, live queries, sampler history, query profiles, plan feedback and
  // resolved env knobs — each as a checksummed XNFDIAG sectioned file,
  // written atomically. A failed file is skipped (and listed as failed in
  // MANIFEST.diag) while the rest of the bundle is still written; the first
  // failure is returned. Shell `.diag`; the same content a crash report
  // condenses.
  Status WriteDiagnosticBundle(const std::string& dir) const;

  // The stuck-query watchdog. It scans on every sampler tick (background
  // or SampleNow) while stall_ms > 0; XNFDB_WATCHDOG_STALL_MS arms it at
  // construction and XNFDB_WATCHDOG_CANCEL=1 turns reports into
  // cooperative kills.
  Watchdog& watchdog() { return watchdog_; }
  const Watchdog& watchdog() const { return watchdog_; }
  // Arms (stall_ms > 0) or disarms the watchdog at runtime (shell
  // `.watchdog <ms>|off`). Arming starts the sampler tick if it is not
  // running; disarming stops it unless XNFDB_METRICS_SAMPLE_MS > 0.
  void SetWatchdogOptions(const WatchdogOptions& options);

  // Slow-query log: any statement whose total wall time exceeds the
  // threshold emits one JSON line on the "slowlog" channel of
  // Logger::Default(), carrying the normalized text, phase timings, and
  // (for queries) the EXPLAIN ANALYZE plan. While armed, query execution
  // runs in analyze mode so the plan is captured without a re-run.
  // Negative (the default) disarms.
  void SetSlowQueryThreshold(int64_t us) { slow_query_threshold_us_ = us; }
  int64_t slow_query_threshold_us() const { return slow_query_threshold_us_; }

  // --- persistence (storage/persist.h through the env) --------------------
  // Saves the whole catalog crash-safely: v2 checksummed format, written to
  // a temp file, synced, then atomically renamed over `path` — an
  // interrupted save leaves the previous database file intact.
  Status SaveTo(const std::string& path) const;
  // Restores a database saved with SaveTo (v1 and v2 files); the catalog
  // must be empty.
  Status LoadFrom(const std::string& path);

  // --- client/server boundary model (Sect. 5.1) ---------------------------
  // Every Execute/Query counts one server call; per-tuple cursor fetches
  // (see FetchAll) count one call per tuple, modelling the traditional
  // "one tuple at a time" interface.
  int64_t server_calls() const { return server_calls_.load(); }
  void ResetServerCalls() { server_calls_.store(0); }
  void CountServerCall(int64_t n = 1) {
    server_calls_.fetch_add(n);
    server_calls_counter_->Increment(n);
  }

  // Models transient failures of the client/server boundary: the next `n`
  // Execute calls fail with kIoError before doing any work. Lets tests
  // drive write-back's bounded retry-with-backoff path.
  void InjectTransientFailures(int n) { transient_failures_ = n; }

  // --- materialized CO views (src/matview/) -------------------------------
  // The server-side materialized-view store behind SYS$MATVIEWS: hot view
  // shapes are captured automatically by execution frequency (or pinned via
  // MATERIALIZE <view>), kept fresh under DML by delta propagation with a
  // stale-then-recompute fallback, and matching executions are served by
  // MatViewScanOp over the stored answer set. XNFDB_MATVIEWS=0 disables.
  MatViewStore& matviews() { return matviews_; }
  const MatViewStore& matviews() const { return matviews_; }

  // --- resource governance (api/governor.h) -------------------------------
  // Every Query/QueryXnf/SELECT execution runs under a QueryContext with
  // limits resolved from ExecOptions (or the governor's env-derived
  // defaults) and is registered with the governor for the duration —
  // admission control, SYS$QUERIES visibility, and kill support.
  Governor& governor() { return governor_; }
  const Governor& governor() const { return governor_; }

  // Requests cooperative termination of a live query by its SYS$QUERIES id
  // (shell `.kill`). NotFound when the id is not live.
  Status Cancel(int64_t query_id) { return governor_.Cancel(query_id); }

 private:
  // RunStatement plus statement-stats recording and slow-query logging.
  Status RunTimed(const ast::Statement& stmt, Outcome* outcome);
  Status RunStatement(const ast::Statement& stmt, Outcome* outcome);
  // Accumulates one statement into `digests_` and emits the slow-query
  // log line when armed and exceeded — or, regardless of speed, when the
  // governor terminated the statement (kill/deadline/budget attribution).
  // `plan_texts` may be null.
  void RecordStatement(const Fingerprint& fp, const char* kind,
                       const Status& status, int64_t rows, int64_t total_us,
                       int64_t compile_us, int64_t execute_us,
                       const std::vector<std::string>* plan_texts);
  // Renders the plain-EXPLAIN body (rewrite summary, operation counts, and
  // the physical plan of every output) for an already compiled query.
  Result<std::string> ExplainCompiled(const CompiledQuery& compiled,
                                      const ExecOptions& eopts);
  // Runs a compiled query under governance: builds the QueryContext (limits
  // from `eopts` falling back to governor defaults), admits, executes via
  // the fixpoint or graph path (or serves a fresh materialization), and
  // releases.
  // Non-const `compiled`: when this execution is captured as a
  // materialization, the compiled graph moves into the matview store (for
  // delta re-planning) instead of being cloned.
  // `text`: the statement text `compiled` came from; once this execution is
  // served from or captured into a matview entry, it becomes an alias of
  // that entry (null: record none).
  // `served`: Query's compile-free fast path — `compiled` then carries only
  // digest and normalized text (no graph), nothing is recorded as a
  // compile, and `served` is the answer.
  Result<QueryResult> ExecuteGoverned(
      CompiledQuery& compiled, const ExecOptions& eopts,
      const std::string* text = nullptr,
      const MatViewStore::ServeHandle* served = nullptr);
  // Builds the QueryResult of a matview serve: MatViewScanOps over the
  // stored component streams, connections emitted from stored partner-tid
  // tuples, stats/plan-shape/feedback/profile filled as a real execution.
  Result<QueryResult> ServeMatView(const MatViewStore::ServeHandle& handle,
                                   const ExecOptions& eo);
  Status RunMaterialize(const ast::MaterializeStatement& stmt,
                        Outcome* outcome);
  Status RunCreateTable(const ast::CreateTableStatement& stmt);
  Status RunInsert(const ast::InsertStatement& stmt, Outcome* outcome);
  Status RunUpdate(const ast::UpdateStatement& stmt, Outcome* outcome);
  Status RunDelete(const ast::DeleteStatement& stmt, Outcome* outcome);

  // Fills unset observability sinks in copies of the caller's options.
  CompileOptions WithObs(const CompileOptions& copts);
  ExecOptions WithObs(const ExecOptions& eopts);

  Catalog catalog_;
  Env* env_;
  // Concurrent Query calls count here; atomic so they do not race.
  std::atomic<int64_t> server_calls_{0};
  int transient_failures_ = 0;
  int64_t slow_query_threshold_us_ = -1;
  obs::DigestStore digests_;
  bool capture_profiles_ = true;  // XNFDB_QUERY_PROFILES != 0
  bool capture_feedback_ = true;  // XNFDB_PLAN_FEEDBACK != 0
  obs::Tracer tracer_{obs::Tracer::FromEnv{}};
  obs::MetricsRegistry* metrics_ = &obs::MetricsRegistry::Default();
  obs::Counter* server_calls_counter_ = metrics_->GetCounter("server.calls");
  // Executions whose worst q-error reached the alert factor (the series
  // behind the qerror_blowups health rule).
  obs::Counter* qerror_blowups_ =
      metrics_->GetCounter("plan.qerror_blowups");
  // Declared after metrics_ (counter handles) and before governor_ (DML
  // under an admitted statement may invalidate entries).
  MatViewStore matviews_{MatViewConfig::FromEnv(), metrics_};
  Governor governor_{GovernorOptions::FromEnv(), metrics_};
  // Declared before sampler_: the sampler's on-sample callback evaluates
  // health rules, so the engine must outlive the sampler thread's join.
  obs::HealthEngine health_;
  // Declared before sampler_: the on-sample callback scans with it.
  Watchdog watchdog_{&governor_, metrics_, WatchdogOptions{}};
  // XNFDB_METRICS_SAMPLE_MS; 0 leaves the tick to the watchdog.
  const int64_t sample_ms_ =
      ParseEnvInt("XNFDB_METRICS_SAMPLE_MS", 0, int64_t{1} << 40, 0);
  // Declared after governor_/metrics_/health_/watchdog_: its background
  // thread observes them and must be destroyed (joined) first.
  obs::MetricsSampler sampler_{metrics_, {}};
};

}  // namespace xnfdb

#endif  // XNFDB_API_DATABASE_H_
