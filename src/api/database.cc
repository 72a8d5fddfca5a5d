#include "api/database.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/crash.h"
#include "common/file_format.h"
#include "common/log.h"
#include "common/str_util.h"
#include "exec/expr_eval.h"
#include "parser/parser.h"
#include "semantics/builder.h"
#include "storage/persist.h"
#include "storage/sysview.h"
#include "xnf/fixpoint.h"
#include "xnf/op_count.h"

namespace xnfdb {

namespace {

// EXPLAIN's strategy line for recursive COs (xnf/fixpoint.h).
constexpr const char* kFixpointStrategy =
    "strategy: recursive CO — semi-naive fixpoint from the roots, one delta "
    "plan per relationship\n";

// True when `e` has a top-level conjunct `col = non-NULL literal` on a
// hash-indexed column of `table`; `*bucket` receives that key's index
// bucket (null when no row has the key).
bool IndexedConjunct(const Table& table, const qgm::Expr* e,
                     const std::vector<Rid>** bucket) {
  if (e == nullptr || e->kind != qgm::Expr::Kind::kBinary) return false;
  if (e->op == "AND") {
    return IndexedConjunct(table, e->lhs.get(), bucket) ||
           IndexedConjunct(table, e->rhs.get(), bucket);
  }
  if (e->op != "=") return false;
  const qgm::Expr* col = e->lhs.get();
  const qgm::Expr* lit = e->rhs.get();
  if (col->kind != qgm::Expr::Kind::kColRef) std::swap(col, lit);
  if (col->kind != qgm::Expr::Kind::kColRef ||
      lit->kind != qgm::Expr::Kind::kLiteral || lit->literal.is_null()) {
    return false;
  }
  const HashIndex* index = table.GetIndex(col->column);
  if (index == nullptr) return false;
  *bucket = index->Lookup(lit->literal);
  return true;
}

// Compiles expressions against one base table so they can be evaluated per
// row (used by UPDATE/DELETE for the WHERE predicate and SET right sides).
// Owns the scratch graph the expressions live in.
class RowContext {
 public:
  static Result<std::unique_ptr<RowContext>> Create(const Table& table,
                                                    const ast::Expr* where) {
    auto rc = std::unique_ptr<RowContext>(new RowContext());
    qgm::Box* base = rc->graph_.NewBox(qgm::BoxKind::kBaseTable, table.name());
    base->table_name = table.name();
    base->base_schema = table.schema();
    rc->sel_ = rc->graph_.NewBox(qgm::BoxKind::kSelect, "where");
    int q = qgm::AddQuant(&rc->graph_, rc->sel_, qgm::QuantKind::kForeach,
                          base->id, table.name());
    rc->layout_.Add(q, 0, table.schema().size());
    if (where != nullptr) {
      XNFDB_ASSIGN_OR_RETURN(rc->expr_,
                             TranslateExprForBox(rc->graph_, *rc->sel_, *where));
    }
    return rc;
  }

  // True if the row satisfies the predicate (always true without one).
  Result<bool> Matches(const Tuple& row) const {
    if (expr_ == nullptr) return true;
    return EvalPredicate(*expr_, layout_, row);
  }

  // The live RIDs of `table` whose rows satisfy the predicate, ascending.
  // A top-level conjunct `col = non-NULL literal` on a hash-indexed column
  // confines the candidates to that index bucket; the full predicate is
  // re-checked on each candidate either way.
  Result<std::vector<Rid>> MatchingRids(const Table& table) const {
    std::vector<Rid> matches;
    auto check = [&](Rid rid) -> Status {
      if (!table.IsLive(rid)) return Status::Ok();
      XNFDB_ASSIGN_OR_RETURN(bool m, Matches(table.Get(rid)));
      if (m) matches.push_back(rid);
      return Status::Ok();
    };
    const std::vector<Rid>* bucket = nullptr;
    if (IndexedConjunct(table, expr_.get(), &bucket)) {
      if (bucket == nullptr) return matches;  // no row has the key
      for (Rid rid : *bucket) XNFDB_RETURN_IF_ERROR(check(rid));
      return matches;
    }
    for (Rid rid = 0; rid < table.rid_bound(); ++rid) {
      XNFDB_RETURN_IF_ERROR(check(rid));
    }
    return matches;
  }

  // Compiles a value expression (may reference the table's columns).
  Result<qgm::ExprPtr> Translate(const ast::Expr& e) const {
    return TranslateExprForBox(graph_, *sel_, e);
  }

  Result<Value> Eval(const qgm::Expr& e, const Tuple& row) const {
    return EvalExpr(e, layout_, row);
  }

 private:
  RowContext() = default;
  qgm::QueryGraph graph_;
  qgm::Box* sel_ = nullptr;
  Layout layout_;
  qgm::ExprPtr expr_;
};

// Evaluates a FROM-less scalar expression (INSERT values, SET right sides
// without column references).
Result<Value> EvalLiteralExpr(const ast::Expr& e) {
  switch (e.kind) {
    case ast::Expr::Kind::kLiteral:
      return static_cast<const ast::Literal&>(e).value;
    case ast::Expr::Kind::kUnary: {
      const auto& u = static_cast<const ast::Unary&>(e);
      XNFDB_ASSIGN_OR_RETURN(Value v, EvalLiteralExpr(*u.operand));
      if (u.op == "-") {
        if (v.type() == DataType::kInt) return Value(-v.AsInt());
        if (v.type() == DataType::kDouble) return Value(-v.AsDouble());
      }
      return Status::InvalidArgument("non-constant expression");
    }
    case ast::Expr::Kind::kBinary: {
      const auto& b = static_cast<const ast::Binary&>(e);
      XNFDB_ASSIGN_OR_RETURN(Value l, EvalLiteralExpr(*b.lhs));
      XNFDB_ASSIGN_OR_RETURN(Value r, EvalLiteralExpr(*b.rhs));
      if (b.op == "+") return Value::Add(l, r);
      if (b.op == "-") return Value::Sub(l, r);
      if (b.op == "*") return Value::Mul(l, r);
      if (b.op == "/") return Value::Div(l, r);
      return Status::InvalidArgument("non-constant expression");
    }
    default:
      return Status::InvalidArgument(
          "expected a constant expression in this context");
  }
}

// An execution whose worst q-error reaches this factor counts as a
// plan.qerror_blowups (the series behind the qerror_blowups health rule).
constexpr double kQErrorAlert = 100;

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* StatementKindTag(const ast::Statement& stmt) {
  using Kind = ast::Statement::Kind;
  switch (stmt.kind) {
    case Kind::kSelect:
    case Kind::kXnfQuery:
      return "query";
    case Kind::kInsert:
    case Kind::kUpdate:
    case Kind::kDelete:
      return "dml";
    default:
      return "ddl";
  }
}

// Status -> flight-event keyword for a query's termination.
const char* TerminationKeyword(const Status& status) {
  switch (status.code()) {
    case StatusCode::kCancelled: return "cancelled";
    case StatusCode::kDeadlineExceeded: return "deadline";
    case StatusCode::kResourceExhausted: return "budget";
    default: return "error";
  }
}

}  // namespace

Database::Database(Env* env) : env_(env) {
  capture_profiles_ = ParseEnvBool("XNFDB_QUERY_PROFILES", true);
  capture_feedback_ = ParseEnvBool("XNFDB_PLAN_FEEDBACK", true);
  // Re-resolve the forensics knob with the checked parser: the recorder
  // bootstraps from raw getenv (obs sits below common), so the warn-once
  // diagnostics for a malformed value happen here.
  obs::FlightRecorder::Default().set_enabled(
      ParseEnvBool("XNFDB_EVENTS", true));
  // Crash forensics: a no-op unless XNFDB_CRASH_DIR is set. The gauge of
  // reports already on disk feeds the crash_reports health rule either way.
  InstallCrashHandlerFromEnv();
  metrics_->GetGauge("crash.reports_found")
      ->Set(CountCrashReports(CrashReportDir()));
  // Pre-register the forensic series the built-in health rules watch, so
  // a missing subsystem reads as zero rather than an absent series.
  metrics_->GetCounter("writeback.retries");
  metrics_->GetCounter("writeback.failures");
  // The catalog is empty at this point, so name collisions are impossible.
  Status registered = RegisterSystemViews(&catalog_, metrics_, &digests_);
  (void)registered;
  // SYS$QUERIES, SYS$EVENTS, SYS$HEALTH, SYS$ALERTS and
  // SYS$METRICS_HISTORY are registered here rather than in
  // RegisterSystemViews because they expose api-layer or process-wide
  // state (governor, recorder, health engine, sampler), which storage
  // cannot depend on.
  Status queries = catalog_.RegisterVirtualTable(MakeQueriesProvider(&governor_));
  (void)queries;
  Status events = catalog_.RegisterVirtualTable(
      MakeEventsProvider(&obs::FlightRecorder::Default()));
  (void)events;
  Status matviews_view =
      catalog_.RegisterVirtualTable(MakeMatViewsProvider(&matviews_));
  (void)matviews_view;
  for (obs::HealthRule& rule : obs::HealthEngine::BuiltinRules()) {
    health_.AddRule(std::move(rule));
  }
  health_.SetAlertSink([](const obs::AlertTransition& a) {
    // One warn line per transition; the logger feeds it into the flight
    // recorder, so this is also the transition's one event.
    Logger::Default().Log(
        LogLevel::kWarn, "health",
        a.to == "FIRING" ? "alert firing" : "alert resolved",
        {LogField::S("rule", a.rule), LogField::S("series", a.series),
         LogField::S("from", a.from), LogField::S("to", a.to),
         LogField::N("value", static_cast<int64_t>(a.value)),
         LogField::N("bound", static_cast<int64_t>(a.bound)),
         LogField::N("seq", a.seq)});
  });
  Status health_view =
      catalog_.RegisterVirtualTable(MakeHealthProvider(&health_));
  (void)health_view;
  Status alerts_view =
      catalog_.RegisterVirtualTable(MakeAlertsProvider(&health_));
  (void)alerts_view;
  Status history =
      catalog_.RegisterVirtualTable(MakeMetricsHistoryProvider(&sampler_));
  (void)history;
  // Health evaluation and the watchdog's scan ride the sampler tick; the
  // same tick refreshes the crash handler's metrics context (the handler
  // cannot snapshot the registry itself — it only copies this pre-rendered
  // buffer).
  sampler_.SetOnSample(
      [this](const std::vector<obs::MetricsSampler::Row>& rows) {
        health_.OnSample(rows);
        if (watchdog_.options().stall_ms > 0) watchdog_.ScanOnce();
        if (CrashHandlerInstalled()) SetCrashContextMetrics(metrics_->ToJson());
      });
  if (sample_ms_ > 0) sampler_.Start(sample_ms_);
  SetWatchdogOptions(WatchdogOptions::FromEnv());
  // Pre-register every exec.* counter at zero so SYS$METRICS exposes the
  // full execution-counter surface (including batch/morsel visibility)
  // before the first query runs.
  ExecStats{}.PublishTo(metrics_);
}

void Database::SetWatchdogOptions(const WatchdogOptions& options) {
  watchdog_.SetOptions(options);
  // Without a sample interval the tick exists only for the watchdog: it
  // runs at half the stall bound while armed and stops when disarmed.
  if (sample_ms_ > 0) return;
  if (options.stall_ms > 0) {
    sampler_.Start(options.stall_ms / 2);  // Start clamps to >= 1 ms
  } else {
    sampler_.Stop();
  }
}

Database::~Database() {
  // Trace dump is best-effort diagnostics; it bypasses the Env (and thus
  // fault injection) on purpose.
  if (!tracer_.enabled()) return;
  std::string path = obs::Tracer::EnvDumpPath();
  if (path.empty()) return;
  std::ofstream out(path, std::ios::trunc);
  if (out) out << tracer_.ChromeTraceJson();
}

CompileOptions Database::WithObs(const CompileOptions& copts) {
  CompileOptions co = copts;
  if (co.tracer == nullptr) co.tracer = &tracer_;
  if (co.metrics == nullptr) co.metrics = metrics_;
  return co;
}

ExecOptions Database::WithObs(const ExecOptions& eopts) {
  ExecOptions eo = eopts;
  if (eo.tracer == nullptr) eo.tracer = &tracer_;
  if (eo.metrics == nullptr) eo.metrics = metrics_;
  // While the slow-query log is armed, run in analyze mode so a slow
  // statement's plan (with actuals) is already captured — no re-execution.
  if (slow_query_threshold_us_ >= 0) eo.analyze = true;
  // XNFDB_QUERY_PROFILES=0 turns the always-on profiler off entirely.
  if (!capture_profiles_) eo.collect_profile = false;
  // XNFDB_PLAN_FEEDBACK=0 turns cardinality feedback + plan history off.
  if (!capture_feedback_) eo.collect_feedback = false;
  return eo;
}

void Database::RecordStatement(const Fingerprint& fp, const char* kind,
                               const Status& status, int64_t rows,
                               int64_t total_us, int64_t compile_us,
                               int64_t execute_us,
                               const std::vector<std::string>* plan_texts) {
  digests_.RecordStatement(fp.digest, fp.text, kind, status.ok(), rows,
                           total_us);
  if (slow_query_threshold_us_ < 0) return;
  // While armed, the slow-query log also attributes every governor
  // termination — a killed or deadlined statement is exactly the kind of
  // statement the log exists to explain, however briefly it ran.
  const bool slow = total_us > slow_query_threshold_us_;
  const bool governed = status.IsGovernorTermination();
  if (!slow && !governed) return;
  std::string plan;
  if (plan_texts != nullptr) {
    for (const std::string& p : *plan_texts) plan += p;
  }
  std::vector<LogField> fields{
      LogField::S("digest", obs::DigestHex(fp.digest)),
      LogField::S("kind", kind), LogField::S("text", fp.text),
      LogField::S("status", status.ok() ? "OK" : status.ToString()),
      LogField::N("total_us", total_us),
      LogField::N("compile_us", compile_us),
      LogField::N("execute_us", execute_us), LogField::N("rows", rows),
      LogField::S("plan", plan)};
  // When cardinality feedback is on, attribute the slowness: name the
  // operator whose estimate was furthest from its actual row count.
  if (capture_feedback_) {
    obs::OpFeedback worst = digests_.TopMisestimate(fp.digest);
    if (!worst.op.empty()) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "%s/%s est=%lld actual=%lld q=%.2f",
                    worst.output.c_str(), worst.op.c_str(),
                    static_cast<long long>(worst.est_rows + 0.5),
                    static_cast<long long>(worst.actual_rows),
                    worst.q_error);
      fields.push_back(LogField::S("top_misestimate", buf));
    }
  }
  Logger::Default().Log(
      LogLevel::kWarn, "slowlog",
      governed ? "statement terminated by governor" : "slow statement",
      std::move(fields));
}

Status Database::RunTimed(const ast::Statement& stmt, Outcome* outcome) {
  Fingerprint fp = FingerprintStatement(stmt);
  int64_t t0 = NowUs();
  Status status = RunStatement(stmt, outcome);
  int64_t total_us = NowUs() - t0;
  int64_t rows = 0;
  const std::vector<std::string>* plans = nullptr;
  if (outcome->kind == Outcome::Kind::kRows) {
    rows = outcome->result.stats.rows_output;
    plans = &outcome->result.plan_texts;
  } else if (outcome->kind == Outcome::Kind::kAffected) {
    rows = static_cast<int64_t>(outcome->affected);
  }
  RecordStatement(fp, StatementKindTag(stmt), status, rows, total_us,
                  outcome->compile_us, outcome->execute_us, plans);
  return status;
}

Result<QueryResult> Database::ExecuteGoverned(
    CompiledQuery& compiled, const ExecOptions& eopts, const std::string* text,
    const MatViewStore::ServeHandle* served) {
  ExecOptions eo = WithObs(eopts);
  // Capture the compile-side rewrite trace before execution: even a
  // statement that fails at runtime keeps its rule log in SYS$REWRITES.
  // A fast-path serve compiled nothing, so the last real trace stays.
  if (capture_feedback_ && served == nullptr) {
    digests_.RecordCompile(compiled.digest, compiled.normalized_text,
                           compiled.rewrite_stats.trace);
  }
  // A caller-supplied context is honoured as-is (its limits are the
  // caller's business); otherwise build one from the per-call knobs,
  // falling back to the governor's env-derived defaults (-1), with 0 as
  // the explicit "no limit".
  if (eo.context == nullptr) {
    auto ctx = std::make_shared<QueryContext>();
    GovernorOptions gopts = governor_.options();
    QueryLimits limits;
    int64_t timeout_ms =
        eo.timeout_ms >= 0 ? eo.timeout_ms : gopts.default_timeout_ms;
    if (timeout_ms > 0) {
      // Set before Admit: time spent queued for admission counts against
      // the deadline.
      limits.deadline_us = QueryContext::NowUs() + timeout_ms * 1000;
    }
    limits.max_result_rows = eo.max_result_rows >= 0
                                 ? eo.max_result_rows
                                 : gopts.default_max_result_rows;
    limits.mem_budget_bytes = eo.mem_budget_bytes >= 0
                                  ? eo.mem_budget_bytes
                                  : gopts.default_mem_budget_bytes;
    ctx->SetLimits(limits);
    eo.context = std::move(ctx);
  }
  // Query lifecycle events: start before admission, end after release, so
  // the flight recorder's tail reads as a faithful interleaving of what
  // the engine was executing when something else went wrong.
  obs::FlightRecorder& recorder = obs::FlightRecorder::Default();
  const std::string digest_field = "digest=" + obs::DigestHex(compiled.digest);
  recorder.Record("query", "info", "query start", digest_field);
  Result<int64_t> admitted =
      governor_.Admit(compiled.normalized_text, eo.context);
  if (!admitted.ok()) {
    recorder.Record("query", "warn", "query end",
                    digest_field + " status=" +
                        TerminationKeyword(admitted.status()));
    return admitted.status();
  }
  const int64_t qid = admitted.value();
  // Materialized-view plan matching: a fresh materialization of this key
  // answers the query from stored rows; otherwise, when the statement's
  // execution history crosses the capture policy (or a stale/pinned entry
  // wants a refresh), this execution runs with derivation-count collection
  // and its result is stored below. Recursive COs never participate.
  MatViewStore::ServeHandle mv;
  bool serve = served != nullptr;
  bool capture = false;
  if (!serve && !compiled.needs_fixpoint && compiled.graph != nullptr) {
    serve = matviews_.TryServe(compiled.key, &mv);
    if (!serve) {
      int64_t prior_calls = 0;
      digests_.Stats(compiled.digest, &prior_calls, nullptr);
      capture = matviews_.WantCapture(compiled.key, prior_calls);
      if (capture) eo.collect_dedup_counts = true;
    }
  }
  const int64_t exec_t0 = NowUs();
  Result<QueryResult> result =
      serve ? ServeMatView(served != nullptr ? *served : mv, eo)
      : compiled.needs_fixpoint
          ? ExecuteXnfFixpoint(catalog_, *compiled.graph, eo)
          : ExecuteGraph(catalog_, *compiled.graph, eo);
  bool aliasable = result.ok() && serve;
  if (result.ok() && capture) {
    // The graph moves into the store for delta re-planning; no later code
    // path reads it (EXPLAIN recompiles). A cancelled refresh never gets
    // here, so a mid-refresh kill simply leaves the entry unmaterialized.
    Status stored = matviews_.Store(
        compiled.key, compiled.digest, compiled.normalized_text, catalog_,
        std::shared_ptr<qgm::QueryGraph>(std::move(compiled.graph)),
        result.value());
    aliasable = stored.ok();  // ineligible shapes count in matview.rejects
  }
  // This text compiled to this key and the entry answered it (or now
  // holds its answer): the next run of the same text may skip compiling.
  if (aliasable && text != nullptr) {
    matviews_.AddAlias(*text, compiled.key);
  }
  governor_.Release(qid, result.ok() ? Status::Ok() : result.status());
  recorder.Record(
      "query", result.ok() ? "info" : "warn", "query end",
      digest_field + " status=" +
          (result.ok() ? "ok" : TerminationKeyword(result.status())));
  if (!result.ok()) return result;
  // Always-on capture: one store write per successful execution carries the
  // profile and the plan-quality feedback together (the fixpoint path
  // profiles its delta plans but records no plan shape).
  QueryResult& r = result.value();
  const int64_t execute_us = NowUs() - exec_t0;
  const bool record_plan = eo.collect_feedback && !r.plan_shape.empty();
  if (!eo.collect_profile && !record_plan) return result;
  if (eo.collect_profile) {
    r.profile.wall_us = execute_us;
    r.profile.queue_wait_us = eo.context->queue_wait_us();
    r.profile.peak_bytes = eo.context->bytes_reserved();
    r.profile.rows_out = r.stats.rows_output;
  }
  std::vector<obs::OpFeedback> feedback;
  if (record_plan) {
    // Q-error blowup accounting reads the feedback before it moves into
    // the store.
    double worst_q = 0.0;
    for (const obs::OpFeedback& f : r.feedback) {
      if (f.est_rows >= 0 && f.q_error > worst_q) worst_q = f.q_error;
    }
    if (worst_q >= kQErrorAlert) qerror_blowups_->Increment();
    feedback = std::move(r.feedback);
    r.feedback.clear();
  }
  obs::DigestStore::PlanChange change = digests_.RecordExecution(
      compiled.digest, compiled.normalized_text, execute_us,
      eo.collect_profile ? &r.profile : nullptr, r.plan_hash,
      record_plan ? r.plan_shape : std::string(), std::move(feedback));
  if (change.changed) {
    metrics_->GetCounter("plan.changes")->Increment();
    Logger::Default().Log(
        LogLevel::kWarn, "planchange", "statement plan changed",
        {LogField::S("digest", obs::DigestHex(compiled.digest)),
         LogField::S("text", compiled.normalized_text),
         LogField::S("from_plan", obs::DigestHex(change.from)),
         LogField::S("to_plan", obs::DigestHex(change.to)),
         LogField::N("executions", change.executions)});
  }
  return result;
}

Result<QueryResult> Database::ServeMatView(
    const MatViewStore::ServeHandle& handle, const ExecOptions& eo) {
  const MatViewData& data = *handle.data;
  QueryContext* ctx = eo.context.get();
  QueryResult r;
  r.stream.reserve(static_cast<size_t>(data.total_rows));
  r.outputs.reserve(data.outputs.size());
  for (const MatViewOutputData& od : data.outputs) {
    r.outputs.push_back(od.desc);
  }
  std::vector<std::string> shapes;
  int64_t rows_emitted = 0;
  TupleBatch batch(static_cast<size_t>(ResolveBatchSize(eo.batch_size)));
  // Component streams first, then connections — the executor's pass order,
  // so consumers that resolve connection tids against previously seen
  // component rows keep working.
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t oi = 0; oi < data.outputs.size(); ++oi) {
      const MatViewOutputData& od = data.outputs[oi];
      if (od.desc.is_connection != (pass == 1)) continue;
      if (!od.desc.is_connection) {
        // Rows are pulled through a real MatViewScanOp so stats, profile
        // counters and cancellation behave exactly like an execution, and
        // the plan shape carries the matview provenance SYS$PLAN_HISTORY
        // records the flip under.
        auto rows_sp =
            std::shared_ptr<const std::vector<Tuple>>(handle.data, &od.rows);
        MatViewScanOp op(handle.name, rows_sp, &r.stats);
        if (ctx != nullptr) op.AttachContext(ctx);
        size_t i = 0;
        XNFDB_RETURN_IF_ERROR(
            DrainRows(&op, &batch, [&](Tuple& row) -> Status {
              StreamItem item;
              item.kind = StreamItem::Kind::kRow;
              item.output = static_cast<int>(oi);
              item.tid = od.tids[i++];
              item.values = std::move(row);
              r.stream.push_back(std::move(item));
              if (ctx != nullptr) {
                XNFDB_RETURN_IF_ERROR(ctx->ChargeOutputRows(1));
              }
              ++rows_emitted;
              return Status::Ok();
            }).status());
        if (eo.analyze) {
          std::string plan = "output " + od.desc.name + ":\n";
          op.Explain(1, &plan);
          r.plan_texts.push_back(std::move(plan));
        }
        // The served read is untimed: as the whole plan, its time is the
        // execute wall time the caller records for the query.
        if (eo.collect_profile) {
          obs::OpProfile prof;
          prof.op = op.Kind();
          prof.loops = op.actuals().loops;
          prof.rows = op.actuals().rows;
          prof.batches = op.actuals().batches;
          r.profile.ops.push_back(std::move(prof));
        }
        shapes.push_back(od.desc.name + "=" + PlanShapeText(&op));
      } else {
        for (const std::vector<TupleId>& conn : od.conns) {
          if (ctx != nullptr) XNFDB_RETURN_IF_ERROR(ctx->Check());
          StreamItem item;
          item.kind = StreamItem::Kind::kConnection;
          item.output = static_cast<int>(oi);
          item.tids = conn;
          r.stream.push_back(std::move(item));
          if (ctx != nullptr) XNFDB_RETURN_IF_ERROR(ctx->ChargeOutputRows(1));
          ++rows_emitted;
        }
        shapes.push_back(od.desc.name + "=matview_scan:" + handle.name);
      }
    }
  }
  r.stats.rows_output = rows_emitted;
  if (eo.collect_feedback) {
    std::string shape;
    for (const std::string& s : shapes) {
      if (!shape.empty()) shape += ";";
      shape += s;
    }
    r.plan_shape = std::move(shape);
    r.plan_hash = PlanShapeHash(r.plan_shape);
    // Served rows are exact by construction: est == actual, q-error 1.
    for (size_t oi = 0; oi < data.outputs.size(); ++oi) {
      const MatViewOutputData& od = data.outputs[oi];
      obs::OpFeedback f;
      f.output = od.desc.name;
      f.op = "matview_scan";
      f.actual_rows = static_cast<int64_t>(
          od.desc.is_connection ? od.conns.size() : od.rows.size());
      f.est_rows = static_cast<double>(f.actual_rows);
      f.loops = 1;
      f.q_error = 1.0;
      r.feedback.push_back(std::move(f));
    }
  }
  return r;
}

Status Database::RunMaterialize(const ast::MaterializeStatement& stmt,
                                Outcome* outcome) {
  // Compiling the view by name yields the key any matching execution
  // arrives under — the view name and its expanded body (with the same
  // literal values) share digest and key.
  XNFDB_ASSIGN_OR_RETURN(
      CompiledQuery compiled,
      CompileQueryString(catalog_, stmt.name, WithObs(CompileOptions())));
  if (compiled.needs_fixpoint) {
    return Status::Unsupported(
        "recursive COs cannot be materialized (stored answers are kept "
        "fresh by delta maintenance, which does not run through "
        "recursion)");
  }
  XNFDB_RETURN_IF_ERROR(
      matviews_.Pin(stmt.name, compiled.key, compiled.digest,
                    compiled.normalized_text));
  // The stale pinned entry makes WantCapture fire, so this execution's
  // result is stored. Re-MATERIALIZE of a fresh entry serves — idempotent.
  XNFDB_ASSIGN_OR_RETURN(QueryResult result,
                         ExecuteGoverned(compiled, ExecOptions()));
  outcome->kind = Outcome::Kind::kAffected;
  outcome->affected = result.stream.size();
  return Status::Ok();
}

Result<Database::Outcome> Database::Execute(const std::string& sql) {
  CountServerCall();
  if (transient_failures_ > 0) {
    --transient_failures_;
    return Status::IoError("injected transient server failure");
  }
  XNFDB_ASSIGN_OR_RETURN(ast::StatementPtr stmt, ParseStatement(sql));
  Outcome outcome;
  XNFDB_RETURN_IF_ERROR(RunTimed(*stmt, &outcome));
  return outcome;
}

Result<size_t> Database::ExecuteScript(const std::string& script) {
  CountServerCall();
  XNFDB_ASSIGN_OR_RETURN(std::vector<ast::StatementPtr> stmts,
                         ParseScript(script));
  for (const ast::StatementPtr& stmt : stmts) {
    Outcome outcome;
    XNFDB_RETURN_IF_ERROR(RunTimed(*stmt, &outcome));
  }
  return stmts.size();
}

Status Database::SaveTo(const std::string& path) const {
  XNFDB_RETURN_IF_ERROR(SaveCatalogToFile(catalog_, path, env_));
  // Registry-only sidecar: names, digests, pins and query texts. Stored
  // data is not persisted — loaded entries refresh on their next execution.
  const std::string reg = path + ".matviews";
  if (matviews_.size() == 0) {
    // No extra I/O (and no stale sidecar) when nothing is materialized.
    if (env_->FileExists(reg)) return env_->RemoveFile(reg);
    return Status::Ok();
  }
  return matviews_.SaveRegistry(env_, reg);
}

Status Database::LoadFrom(const std::string& path) {
  XNFDB_RETURN_IF_ERROR(LoadCatalogFromFile(path, &catalog_, env_));
  matviews_.Clear();
  const std::string reg = path + ".matviews";
  if (env_->FileExists(reg)) {
    // Best-effort: a corrupt registry loses pins, never data.
    Status loaded = matviews_.LoadRegistry(env_, reg);
    (void)loaded;
  }
  return Status::Ok();
}

Status Database::WriteDiagnosticBundle(const std::string& dir) const {
  XNFDB_RETURN_IF_ERROR(env_->CreateDir(dir));
  Status first_error = Status::Ok();
  std::vector<std::string> manifest;
  // Each bundle file is a complete XNFDIAG sectioned file (per-section
  // CRCs, footer) written via AtomicallyWriteFile — a failed write leaves
  // no file at all, never a torn one, and the rest of the bundle is still
  // attempted so a partial bundle stays fully readable.
  auto write_file = [&](const std::string& file,
                        std::vector<FileSection> sections) {
    std::ostringstream body;
    WriteSectionedFile(body, "XNFDIAG 1", sections);
    Status s = AtomicallyWriteFile(env_, dir + "/" + file, body.str());
    manifest.push_back(file + " sections=" + std::to_string(sections.size()) +
                       (s.ok() ? " ok" : " failed: " + s.message()));
    if (!s.ok() && first_error.ok()) first_error = s;
  };

  write_file("report.diag",
             {{"REPORT", 1, RenderCrashStyleReport("diagnostic bundle")}});
  write_file("metrics.diag", {{"METRICS", 1, metrics_->ToJson() + "\n"}});
  {
    std::string payload;
    std::vector<obs::FlightRecorder::Event> events =
        obs::FlightRecorder::Default().Snapshot();
    for (const obs::FlightRecorder::Event& e : events) {
      payload += "#" + std::to_string(e.seq) +
                 " ts_us=" + std::to_string(e.ts_us) + " [" + e.severity +
                 "] " + e.category + ": " + e.message;
      if (!e.detail.empty()) payload += " | " + e.detail;
      if (e.repeated > 1) payload += " (x" + std::to_string(e.repeated) + ")";
      payload += "\n";
    }
    write_file("events.diag",
               {{"EVENTS", events.size(), std::move(payload)}});
  }
  {
    std::string alerts;
    std::vector<obs::AlertTransition> transitions = health_.Alerts();
    for (const obs::AlertTransition& a : transitions) {
      alerts += "#" + std::to_string(a.seq) +
                " ts_us=" + std::to_string(a.ts_us) + " " + a.rule + " " +
                a.from + "->" + a.to + "\n";
    }
    write_file("health.diag",
               {{"HEALTH", 1, health_.ReportJson() + "\n"},
                {"ALERTS", transitions.size(), std::move(alerts)}});
  }
  {
    std::string live;
    std::vector<Governor::QueryInfo> queries = governor_.Snapshot();
    for (const Governor::QueryInfo& q : queries) {
      live += "id=" + std::to_string(q.id) + " state=" + q.state +
              " elapsed_us=" + std::to_string(q.elapsed_us) +
              " rows_out=" + std::to_string(q.rows_out) +
              " ticks=" + std::to_string(q.progress_ticks) +
              " text=" + q.text + "\n";
    }
    write_file("queries.diag", {{"QUERIES", queries.size(), std::move(live)}});
  }
  {
    std::string samples;
    size_t n = 0;
    for (const obs::MetricsSampler::Row& r : sampler_.History()) {
      samples += std::to_string(r.sample_ts_us) + " " + r.name + " " + r.kind +
                 " value=" + std::to_string(r.value) +
                 " delta=" + std::to_string(r.delta) +
                 " rate_per_s=" + std::to_string(r.rate_per_s) + "\n";
      ++n;
    }
    write_file("samples.diag", {{"SAMPLES", n, std::move(samples)}});
  }
  {
    std::vector<obs::DigestRecord> records = digests_.Snapshot();
    std::string profs;
    size_t n = 0;
    for (const obs::DigestRecord& s : records) {
      if (s.captures == 0) continue;
      const obs::QueryProfile& last = s.last_profile;
      profs += s.digest_hex + " captures=" + std::to_string(s.captures) +
               " wall_us=" + std::to_string(last.wall_us) +
               " queue_wait_us=" + std::to_string(last.queue_wait_us) +
               " peak_bytes=" + std::to_string(last.peak_bytes) +
               " rows_out=" + std::to_string(last.rows_out) + "\n";
      ++n;
    }
    write_file("profiles.diag", {{"PROFILES", n, std::move(profs)}});
    std::string fb;
    n = 0;
    for (const obs::DigestRecord& s : records) {
      for (const obs::OpFeedback& w : s.worst) {
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "%s %s/%s est=%lld actual=%lld loops=%lld q=%.2f\n",
                      s.digest_hex.c_str(), w.output.c_str(), w.op.c_str(),
                      static_cast<long long>(w.est_rows + 0.5),
                      static_cast<long long>(w.actual_rows),
                      static_cast<long long>(w.loops), w.q_error);
        fb += buf;
        ++n;
      }
    }
    write_file("plan_feedback.diag", {{"PLAN_FEEDBACK", n, std::move(fb)}});
  }
  {
    // Raw values of every knob plus the resolutions the engine runs with —
    // the first question of any incident review is "what was it configured
    // to do?".
    static const char* const kKnobs[] = {
        "XNFDB_LOG_LEVEL", "XNFDB_LOG", "XNFDB_TRACE", "XNFDB_EVENTS",
        "XNFDB_CRASH_DIR", "XNFDB_QUERY_PROFILES", "XNFDB_PLAN_FEEDBACK",
        "XNFDB_METRICS_SAMPLE_MS", "XNFDB_WATCHDOG_STALL_MS",
        "XNFDB_WATCHDOG_CANCEL", "XNFDB_MAX_CONCURRENT_QUERIES",
        "XNFDB_QUERY_TIMEOUT_MS", "XNFDB_MAX_RESULT_ROWS",
        "XNFDB_MEM_BUDGET_BYTES", "XNFDB_BATCH_SIZE", "XNFDB_MORSEL_WORKERS",
        "XNFDB_MORSEL_ROWS", "XNFDB_MATVIEWS", "XNFDB_MATVIEW_MAX_ROWS"};
    std::string envs;
    for (const char* knob : kKnobs) {
      const char* raw = std::getenv(knob);
      envs += std::string(knob) + "=" + (raw != nullptr ? raw : "<unset>") +
              "\n";
    }
    std::string resolved;
    resolved += "events_enabled=" +
                std::to_string(obs::FlightRecorder::Default().enabled()) + "\n";
    resolved += "event_ring=" +
                std::to_string(obs::FlightRecorder::Default().capacity()) +
                "\n";
    resolved += "crash_dir=" + CrashReportDir() + "\n";
    resolved +=
        "capture_profiles=" + std::to_string(capture_profiles_) + "\n";
    resolved +=
        "capture_feedback=" + std::to_string(capture_feedback_) + "\n";
    auto lines = [](const std::string& text) -> size_t {
      return std::count(text.begin(), text.end(), '\n');
    };
    write_file("env.diag",
               {{"ENV", lines(envs), std::move(envs)},
                {"RESOLVED", lines(resolved), std::move(resolved)}});
  }
  {
    std::string lines;
    for (const std::string& line : manifest) lines += line + "\n";
    write_file("MANIFEST.diag", {{"MANIFEST", manifest.size(), lines}});
  }
  return first_error;
}

Result<QueryResult> Database::Query(const std::string& text,
                                    const CompileOptions& copts,
                                    const ExecOptions& eopts) {
  CountServerCall();
  obs::Span query_span = tracer_.StartSpan("query");
  int64_t t0 = NowUs();
  // Fast path: this exact text was compiled before to a key whose stored
  // answer is fresh, so parse, semantics, both rewrites and planning are
  // skipped; governance, serving and recording run as for any execution.
  MatViewStore::ServeHandle served;
  const bool fast = matviews_.TryServeText(text, &served);
  CompiledQuery compiled;
  if (fast) {
    compiled.digest = served.digest;
    compiled.normalized_text = std::move(served.text);
  } else {
    XNFDB_ASSIGN_OR_RETURN(compiled,
                           CompileQueryString(catalog_, text, WithObs(copts)));
  }
  int64_t t1 = NowUs();
  Result<QueryResult> result = ExecuteGoverned(
      compiled, eopts, fast ? nullptr : &text, fast ? &served : nullptr);
  int64_t t2 = NowUs();
  Fingerprint fp{compiled.normalized_text, compiled.digest};
  RecordStatement(fp, "query",
                  result.ok() ? Status::Ok() : result.status(),
                  result.ok() ? int64_t{result.value().stats.rows_output} : 0,
                  t2 - t0, t1 - t0, t2 - t1,
                  result.ok() ? &result.value().plan_texts : nullptr);
  return result;
}

Result<std::string> Database::Explain(const std::string& text,
                                       const CompileOptions& copts,
                                       const ExecOptions& eopts) {
  XNFDB_ASSIGN_OR_RETURN(CompiledQuery compiled,
                         CompileQueryString(catalog_, text, copts));
  return ExplainCompiled(compiled, eopts);
}

Result<std::string> Database::ExplainCompiled(const CompiledQuery& compiled,
                                              const ExecOptions& eopts) {
  std::string out;
  out += "rewrite: " + compiled.rewrite_stats.ToString() + "\n";
  OpCounts counts = CountOps(*compiled.graph);
  out += "operations: " + counts.ToString() + "\n";
  if (compiled.needs_fixpoint) {
    out += kFixpointStrategy;
    XNFDB_ASSIGN_OR_RETURN(
        std::string plans,
        ExplainXnfFixpoint(catalog_, *compiled.graph, eopts.plan));
    return out + plans;
  }
  // Matview provenance: a fresh materialization of this key means the
  // query would not run its join trees at all — show the serve plan.
  MatViewStore::ServeHandle mv;
  if (matviews_.Peek(compiled.key, &mv)) {
    out += "matview: " + mv.name + " (fresh, " +
           std::to_string(mv.data->total_rows) + " stored rows)\n";
    ExecStats mv_stats;
    for (const MatViewOutputData& od : mv.data->outputs) {
      out += "output " + od.desc.name +
             (od.desc.is_connection ? " [connection]" : "") + ":\n";
      if (od.desc.is_connection) {
        ExplainLine(1,
                    "MatViewConnections(matview=" + mv.name + ", " +
                        std::to_string(od.conns.size()) + " tuples)",
                    &out);
      } else {
        auto rows_sp =
            std::shared_ptr<const std::vector<Tuple>>(mv.data, &od.rows);
        MatViewScanOp op(mv.name, rows_sp, &mv_stats);
        op.Explain(1, &out);
      }
    }
    return out;
  }
  const qgm::Box* top = compiled.graph->box(compiled.graph->top_box_id());
  ExecStats stats;
  Planner planner(&catalog_, compiled.graph.get(), eopts.plan, &stats);
  for (const qgm::TopOutput& output : top->outputs) {
    out += "output " + output.name +
           (output.is_connection ? " [connection]" : "") + ":\n";
    XNFDB_ASSIGN_OR_RETURN(OperatorPtr op, planner.BoxIterator(output.box_id));
    op->Explain(1, &out);
  }
  return out;
}

Result<std::string> Database::Explain(const std::string& text,
                                      const ExplainOptions& xopts,
                                      const CompileOptions& copts,
                                      const ExecOptions& eopts) {
  if (!xopts.analyze && !xopts.rewrite) return Explain(text, copts, eopts);
  XNFDB_ASSIGN_OR_RETURN(CompiledQuery compiled,
                         CompileQueryString(catalog_, text, WithObs(copts)));
  std::string out;
  if (xopts.rewrite) {
    // EXPLAIN REWRITE: the ordered rule log — every Apply in firing order,
    // with pass, outcome, rejected-match count, box counts, and wall time.
    out += "rewrite log (" +
           std::to_string(compiled.rewrite_stats.trace.events.size()) +
           " events):\n";
    out += compiled.rewrite_stats.trace.ToString();
  }
  if (!xopts.analyze) {
    XNFDB_ASSIGN_OR_RETURN(std::string body, ExplainCompiled(compiled, eopts));
    return out + body;
  }
  ExecOptions eo = WithObs(eopts);
  eo.analyze = true;
  XNFDB_ASSIGN_OR_RETURN(
      QueryResult result,
      compiled.needs_fixpoint
          ? ExecuteXnfFixpoint(catalog_, *compiled.graph, eo)
          : ExecuteGraph(catalog_, *compiled.graph, eo));
  out += "rewrite: " + compiled.rewrite_stats.ToString() + "\n";
  OpCounts counts = CountOps(*compiled.graph);
  out += "operations: " + counts.ToString() + "\n";
  if (compiled.needs_fixpoint) out += kFixpointStrategy;
  for (const std::string& plan : result.plan_texts) out += plan;
  out += "stats: " + result.stats.ToString() + "\n";
  // Cardinality-feedback footer: the operator whose estimate was furthest
  // from its actual row count (the per-operator lines carry the rest).
  const obs::OpFeedback* worst = nullptr;
  for (const obs::OpFeedback& f : result.feedback) {
    if (f.est_rows < 0) continue;
    if (worst == nullptr || f.q_error > worst->q_error) worst = &f;
  }
  if (worst != nullptr) {
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "feedback: worst estimate %s/%s est=%lld actual=%lld "
                  "q-error=%.2f\n",
                  worst->output.c_str(), worst->op.c_str(),
                  static_cast<long long>(worst->est_rows + 0.5),
                  static_cast<long long>(worst->actual_rows), worst->q_error);
    out += buf;
  }
  return out;
}

Result<QueryResult> Database::QueryXnf(const ast::XnfQuery& query,
                                       const CompileOptions& copts,
                                       const ExecOptions& eopts) {
  CountServerCall();
  obs::Span query_span = tracer_.StartSpan("query");
  int64_t t0 = NowUs();
  XNFDB_ASSIGN_OR_RETURN(CompiledQuery compiled,
                         CompileXnf(catalog_, query, WithObs(copts)));
  int64_t t1 = NowUs();
  Result<QueryResult> result = ExecuteGoverned(compiled, eopts);
  int64_t t2 = NowUs();
  Fingerprint fp{compiled.normalized_text, compiled.digest};
  RecordStatement(fp, "query",
                  result.ok() ? Status::Ok() : result.status(),
                  result.ok() ? int64_t{result.value().stats.rows_output} : 0,
                  t2 - t0, t1 - t0, t2 - t1,
                  result.ok() ? &result.value().plan_texts : nullptr);
  return result;
}

Status Database::RunStatement(const ast::Statement& stmt, Outcome* outcome) {
  using Kind = ast::Statement::Kind;
  switch (stmt.kind) {
    case Kind::kCreateTable:
    case Kind::kCreateView:
    case Kind::kCreateIndex:
    case Kind::kDropTable:
    case Kind::kDropView:
      // Catalog DDL may change what a view name (or `*`) means, so no
      // statement text keeps skipping compilation across it.
      matviews_.DropAliases();
      break;
    default:
      break;
  }
  switch (stmt.kind) {
    case Kind::kSelect: {
      const auto& s = static_cast<const ast::SelectStatement&>(stmt);
      int64_t t0 = NowUs();
      XNFDB_ASSIGN_OR_RETURN(
          CompiledQuery compiled,
          CompileSelect(catalog_, *s.select, WithObs(CompileOptions())));
      int64_t t1 = NowUs();
      XNFDB_ASSIGN_OR_RETURN(outcome->result,
                             ExecuteGoverned(compiled, ExecOptions()));
      outcome->compile_us = t1 - t0;
      outcome->execute_us = NowUs() - t1;
      outcome->kind = Outcome::Kind::kRows;
      return Status::Ok();
    }
    case Kind::kXnfQuery: {
      const auto& s = static_cast<const ast::XnfStatement&>(stmt);
      int64_t t0 = NowUs();
      XNFDB_ASSIGN_OR_RETURN(
          CompiledQuery compiled,
          CompileXnf(catalog_, *s.query, WithObs(CompileOptions())));
      int64_t t1 = NowUs();
      XNFDB_ASSIGN_OR_RETURN(outcome->result,
                             ExecuteGoverned(compiled, ExecOptions()));
      outcome->compile_us = t1 - t0;
      outcome->execute_us = NowUs() - t1;
      outcome->kind = Outcome::Kind::kRows;
      return Status::Ok();
    }
    case Kind::kCreateTable:
      return RunCreateTable(
          static_cast<const ast::CreateTableStatement&>(stmt));
    case Kind::kCreateView: {
      const auto& s = static_cast<const ast::CreateViewStatement&>(stmt);
      // Validate by compiling against the current catalog before storing.
      if (s.is_xnf) {
        XNFDB_ASSIGN_OR_RETURN(CompiledQuery compiled,
                               CompileXnf(catalog_, *s.xnf));
        (void)compiled;
      } else {
        XNFDB_ASSIGN_OR_RETURN(CompiledQuery compiled,
                               CompileSelect(catalog_, *s.select));
        (void)compiled;
      }
      ViewDef def;
      def.name = s.name;
      def.definition = s.definition_text;
      def.is_xnf = s.is_xnf;
      return catalog_.CreateView(std::move(def));
    }
    case Kind::kCreateIndex: {
      const auto& s = static_cast<const ast::CreateIndexStatement&>(stmt);
      XNFDB_ASSIGN_OR_RETURN(Table * table, catalog_.GetTable(s.table));
      return s.ordered ? table->CreateOrderedIndex(s.column)
                       : table->CreateIndex(s.column);
    }
    case Kind::kInsert:
      return RunInsert(static_cast<const ast::InsertStatement&>(stmt),
                       outcome);
    case Kind::kUpdate:
      return RunUpdate(static_cast<const ast::UpdateStatement&>(stmt),
                       outcome);
    case Kind::kDelete:
      return RunDelete(static_cast<const ast::DeleteStatement&>(stmt),
                       outcome);
    case Kind::kDropTable: {
      const auto& name = static_cast<const ast::DropStatement&>(stmt).name;
      matviews_.InvalidateTable(name);
      return catalog_.DropTable(name);
    }
    case Kind::kDropView: {
      const auto& name = static_cast<const ast::DropStatement&>(stmt).name;
      matviews_.InvalidateView(name);
      return catalog_.DropView(name);
    }
    case Kind::kMaterialize:
      return RunMaterialize(static_cast<const ast::MaterializeStatement&>(stmt),
                            outcome);
    case Kind::kDematerialize: {
      const auto& s = static_cast<const ast::MaterializeStatement&>(stmt);
      if (!matviews_.Dematerialize(s.name)) {
        return Status::NotFound("no materialization named " + s.name);
      }
      outcome->kind = Outcome::Kind::kAffected;
      outcome->affected = 1;
      return Status::Ok();
    }
  }
  return Status::Internal("unknown statement kind");
}

Status Database::RunCreateTable(const ast::CreateTableStatement& stmt) {
  XNFDB_ASSIGN_OR_RETURN(
      Table * table, catalog_.CreateTable(stmt.name, Schema(stmt.columns)));
  (void)table;
  if (!stmt.primary_key.empty()) {
    XNFDB_RETURN_IF_ERROR(
        catalog_.DeclarePrimaryKey(stmt.name, stmt.primary_key));
  }
  for (const ast::ForeignKeyClause& fk : stmt.foreign_keys) {
    ForeignKey key;
    key.table = stmt.name;
    key.column = fk.column;
    key.ref_table = fk.ref_table;
    key.ref_column = fk.ref_column;
    XNFDB_RETURN_IF_ERROR(catalog_.DeclareForeignKey(std::move(key)));
  }
  return Status::Ok();
}

Status Database::RunInsert(const ast::InsertStatement& stmt,
                           Outcome* outcome) {
  XNFDB_ASSIGN_OR_RETURN(Table * table, catalog_.GetTable(stmt.table));
  // Rows are copied for matview delta maintenance only while at least one
  // materialization exists.
  const bool track = matviews_.size() > 0;
  std::vector<Tuple> inserted_rows;
  size_t inserted = 0;
  Status status = Status::Ok();
  for (const std::vector<ast::ExprPtr>& row_exprs : stmt.rows) {
    Tuple row;
    row.reserve(row_exprs.size());
    for (const ast::ExprPtr& e : row_exprs) {
      Result<Value> v = EvalLiteralExpr(*e);
      if (!v.ok()) {
        status = v.status();
        break;
      }
      row.push_back(std::move(v).value());
    }
    if (!status.ok()) break;
    if (track) inserted_rows.push_back(row);
    Result<Rid> rid = table->Insert(std::move(row));
    if (!rid.ok()) {
      // The row never landed; its copy must not reach the delta hook.
      if (track) inserted_rows.pop_back();
      status = rid.status();
      break;
    }
    ++inserted;
  }
  // The hook runs even on a mid-batch failure: rows already inserted have
  // changed the base table, and every dependent materialization must see
  // them (or go stale).
  if (!inserted_rows.empty()) {
    matviews_.OnBaseTableDml(catalog_, table->name(), inserted_rows, {});
  }
  XNFDB_RETURN_IF_ERROR(status);
  outcome->kind = Outcome::Kind::kAffected;
  outcome->affected = inserted;
  return Status::Ok();
}

Status Database::RunUpdate(const ast::UpdateStatement& stmt,
                           Outcome* outcome) {
  XNFDB_ASSIGN_OR_RETURN(Table * table, catalog_.GetTable(stmt.table));
  XNFDB_ASSIGN_OR_RETURN(auto ctx,
                         RowContext::Create(*table, stmt.where.get()));
  // Resolve assignment targets and compile right-hand sides (they may
  // reference the row being updated, e.g. SET SAL = SAL * 2).
  std::vector<std::pair<int, qgm::ExprPtr>> sets;
  for (const auto& [col, expr] : stmt.assignments) {
    XNFDB_ASSIGN_OR_RETURN(
        int idx, table->schema().ResolveColumn(col, "table " + table->name()));
    XNFDB_ASSIGN_OR_RETURN(qgm::ExprPtr compiled, ctx->Translate(*expr));
    sets.emplace_back(idx, std::move(compiled));
  }
  // Collect matching RIDs first so updates do not affect the scan.
  XNFDB_ASSIGN_OR_RETURN(std::vector<Rid> matches,
                         ctx->MatchingRids(*table));
  const bool track = matviews_.size() > 0;
  std::vector<Tuple> old_rows, new_rows;
  Status status = Status::Ok();
  for (Rid rid : matches) {
    Tuple row = table->Get(rid);
    Tuple updated = row;
    for (const auto& [idx, expr] : sets) {
      Result<Value> v = ctx->Eval(*expr, row);
      if (!v.ok()) {
        status = v.status();
        break;
      }
      updated[idx] = std::move(v).value();
    }
    if (!status.ok()) break;
    if (track) {
      old_rows.push_back(std::move(row));
      new_rows.push_back(updated);
    }
    Status up = table->Update(rid, std::move(updated));
    if (!up.ok()) {
      if (track) {
        old_rows.pop_back();
        new_rows.pop_back();
      }
      status = up;
      break;
    }
  }
  // An UPDATE is a delete of the old images plus an insert of the new ones;
  // rows updated before a mid-batch failure still count.
  if (!old_rows.empty()) {
    matviews_.OnBaseTableDml(catalog_, table->name(), new_rows, old_rows);
  }
  XNFDB_RETURN_IF_ERROR(status);
  outcome->kind = Outcome::Kind::kAffected;
  outcome->affected = matches.size();
  return Status::Ok();
}

Status Database::RunDelete(const ast::DeleteStatement& stmt,
                           Outcome* outcome) {
  XNFDB_ASSIGN_OR_RETURN(Table * table, catalog_.GetTable(stmt.table));
  XNFDB_ASSIGN_OR_RETURN(auto ctx,
                         RowContext::Create(*table, stmt.where.get()));
  XNFDB_ASSIGN_OR_RETURN(std::vector<Rid> matches,
                         ctx->MatchingRids(*table));
  const bool track = matviews_.size() > 0;
  std::vector<Tuple> deleted_rows;
  Status status = Status::Ok();
  for (Rid rid : matches) {
    if (track) deleted_rows.push_back(table->Get(rid));
    Status del = table->Delete(rid);
    if (!del.ok()) {
      if (track) deleted_rows.pop_back();
      status = del;
      break;
    }
  }
  if (!deleted_rows.empty()) {
    matviews_.OnBaseTableDml(catalog_, table->name(), {}, deleted_rows);
  }
  XNFDB_RETURN_IF_ERROR(status);
  outcome->kind = Outcome::Kind::kAffected;
  outcome->affected = matches.size();
  return Status::Ok();
}

}  // namespace xnfdb
