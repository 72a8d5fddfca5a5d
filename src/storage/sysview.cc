#include "storage/sysview.h"

#include <memory>
#include <utility>

#include "obs/digest_store.h"
#include "obs/flight_recorder.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "storage/catalog.h"

namespace xnfdb {

namespace {

Schema MakeSchema(std::initializer_list<Column> columns) {
  return Schema(std::vector<Column>(columns));
}

// SYS$METRICS: one row per counter/gauge in the registry.
class MetricsProvider : public VirtualTableProvider {
 public:
  explicit MetricsProvider(obs::MetricsRegistry* metrics)
      : name_("SYS$METRICS"),
        schema_(MakeSchema({{"NAME", DataType::kString},
                            {"KIND", DataType::kString},
                            {"VALUE", DataType::kInt}})),
        metrics_(metrics) {}

  const std::string& name() const override { return name_; }
  const Schema& schema() const override { return schema_; }

  Result<std::vector<Tuple>> Generate() const override {
    obs::MetricsSnapshot snap = metrics_->Snapshot();
    std::vector<Tuple> rows;
    rows.reserve(snap.counters.size() + snap.gauges.size());
    for (const auto& [name, v] : snap.counters) {
      rows.push_back({Value(name), Value("counter"), Value(v)});
    }
    for (const auto& [name, v] : snap.gauges) {
      rows.push_back({Value(name), Value("gauge"), Value(v)});
    }
    return rows;
  }

  double EstimatedRows() const override { return 64.0; }

 private:
  std::string name_;
  Schema schema_;
  obs::MetricsRegistry* metrics_;
};

// SYS$HISTOGRAMS: one row per bucket of every histogram — the registry's
// plus each statement's latency histogram (named `stmt.<digest>.us`, which
// is what SYS$STATEMENTS.HIST joins against).
class HistogramsProvider : public VirtualTableProvider {
 public:
  HistogramsProvider(obs::MetricsRegistry* metrics,
                     const obs::DigestStore* digests)
      : name_("SYS$HISTOGRAMS"),
        schema_(MakeSchema({{"NAME", DataType::kString},
                            {"LE", DataType::kInt},
                            {"BUCKET_COUNT", DataType::kInt},
                            {"CUM_COUNT", DataType::kInt}})),
        metrics_(metrics),
        digests_(digests) {}

  const std::string& name() const override { return name_; }
  const Schema& schema() const override { return schema_; }

  Result<std::vector<Tuple>> Generate() const override {
    std::vector<Tuple> rows;
    obs::MetricsSnapshot snap = metrics_->Snapshot();
    for (const auto& [name, h] : snap.histograms) {
      AppendBuckets(name, h, &rows);
    }
    for (const obs::DigestRecord& s : digests_->Snapshot()) {
      if (s.calls == 0) continue;  // no statement outcome yet
      AppendBuckets("stmt." + s.digest_hex + ".us", s.latency, &rows);
    }
    return rows;
  }

  double EstimatedRows() const override { return 256.0; }

 private:
  static void AppendBuckets(const std::string& name,
                            const obs::HistogramSnapshot& h,
                            std::vector<Tuple>* rows) {
    int64_t cumulative = 0;
    for (size_t i = 0; i < h.buckets.size(); ++i) {
      cumulative += h.buckets[i];
      Value le = i < h.bounds.size() ? Value(h.bounds[i]) : Value::Null();
      rows->push_back({Value(name), std::move(le), Value(h.buckets[i]),
                       Value(cumulative)});
    }
  }

  std::string name_;
  Schema schema_;
  obs::MetricsRegistry* metrics_;
  const obs::DigestStore* digests_;
};

// A per-digest system view: each scan takes one DigestStore::Snapshot() and
// projects every record into zero or more rows.
class DigestViewProvider : public VirtualTableProvider {
 public:
  using Project = void (*)(const obs::DigestRecord&, std::vector<Tuple>*);

  DigestViewProvider(std::string name, Schema schema, double estimated_rows,
                     Project project, const obs::DigestStore* digests)
      : name_(std::move(name)),
        schema_(std::move(schema)),
        estimated_rows_(estimated_rows),
        project_(project),
        digests_(digests) {}

  const std::string& name() const override { return name_; }
  const Schema& schema() const override { return schema_; }

  Result<std::vector<Tuple>> Generate() const override {
    std::vector<Tuple> rows;
    for (const obs::DigestRecord& s : digests_->Snapshot()) {
      project_(s, &rows);
    }
    return rows;
  }

  double EstimatedRows() const override { return estimated_rows_; }

 private:
  std::string name_;
  Schema schema_;
  double estimated_rows_;
  Project project_;
  const obs::DigestStore* digests_;
};

// SYS$STATEMENTS: one row per distinct statement shape that has finished at
// least once. The trailing *_SELF_US columns roll the profiled
// per-operator-class self times up per shape (zero until a capture).
void ProjectStatement(const obs::DigestRecord& s, std::vector<Tuple>* rows) {
  if (s.calls == 0) return;
  rows->push_back({Value(s.digest_hex), Value(s.kind), Value(s.text),
                   Value("stmt." + s.digest_hex + ".us"), Value(s.calls),
                   Value(s.errors), Value(s.rows), Value(s.total_us),
                   Value(s.min_us), Value(s.max_us), Value(s.avg_us()),
                   Value(s.latency.Quantile(0.5)),
                   Value(s.latency.Quantile(0.99)), Value(s.scan_self_us),
                   Value(s.join_self_us), Value(s.filter_self_us),
                   Value(s.other_self_us)});
}

// SYS$QUERY_PROFILES: per-operator-class rows plus morsel-worker rows of
// each captured statement shape's most recent execution.
void ProjectQueryProfile(const obs::DigestRecord& s,
                         std::vector<Tuple>* rows) {
  const obs::QueryProfile& last = s.last_profile;
  for (const obs::OpProfile& op : last.ops) {
    rows->push_back({Value(s.digest_hex), Value(s.captures),
                     Value(last.wall_us), Value(last.queue_wait_us),
                     Value(last.peak_bytes), Value(last.rows_out),
                     Value(op.op), Value::Null(), Value(op.loops),
                     Value(op.rows), Value(op.batches), Value(op.self_us),
                     Value(op.incl_us)});
  }
  for (const obs::WorkerProfile& w : last.workers) {
    rows->push_back({Value(s.digest_hex), Value(s.captures),
                     Value(last.wall_us), Value(last.queue_wait_us),
                     Value(last.peak_bytes), Value(last.rows_out),
                     Value("morsel_worker"), Value(w.worker),
                     Value(w.morsels), Value(w.rows), Value(int64_t{0}),
                     Value(w.wall_us), Value(w.wall_us)});
  }
}

// SYS$REWRITES: the most recent compile's ordered rewrite-rule log per
// statement shape — one row per rule application attempt, in firing order.
void ProjectRewrites(const obs::DigestRecord& s, std::vector<Tuple>* rows) {
  int64_t seq = 0;
  for (const obs::RewriteEvent& e : s.trace.events) {
    rows->push_back({Value(s.digest_hex), Value(++seq),
                     Value(int64_t{e.pass}), Value(e.rule),
                     Value(int64_t{e.fired ? 1 : 0}), Value(e.rejected),
                     Value(e.wall_us), Value(int64_t{e.boxes_before}),
                     Value(int64_t{e.boxes_after})});
  }
}

// SYS$PLAN_FEEDBACK: each statement shape's worst estimate-vs-actual
// offenders, ranked by q-error.
void ProjectPlanFeedback(const obs::DigestRecord& s,
                         std::vector<Tuple>* rows) {
  int64_t rank = 0;
  for (const obs::OpFeedback& f : s.worst) {
    rows->push_back({Value(s.digest_hex), Value(++rank), Value(f.output),
                     Value(f.op),
                     Value(static_cast<int64_t>(f.est_rows + 0.5)),
                     Value(f.actual_rows), Value(f.loops), Value(f.q_error)});
  }
}

// SYS$PLAN_HISTORY: every distinct physical plan shape a statement has
// executed with; CURRENT = 1 marks the most recent one.
void ProjectPlanHistory(const obs::DigestRecord& s,
                        std::vector<Tuple>* rows) {
  for (const obs::PlanRecord& p : s.plans) {
    rows->push_back({Value(s.digest_hex), Value(obs::DigestHex(p.plan_hash)),
                     Value(p.shape), Value(p.first_seen_us),
                     Value(p.last_seen_us), Value(p.executions),
                     Value(p.mean_execute_us()),
                     Value(int64_t{p.plan_hash == s.current_plan ? 1 : 0})});
  }
}

// SYS$METRICS_HISTORY: the sampler's flattened time-series ring,
// oldest-first.
class MetricsHistoryProvider : public VirtualTableProvider {
 public:
  explicit MetricsHistoryProvider(const obs::MetricsSampler* sampler)
      : name_("SYS$METRICS_HISTORY"),
        schema_(MakeSchema({{"SAMPLE_TS", DataType::kInt},
                            {"NAME", DataType::kString},
                            {"KIND", DataType::kString},
                            {"VALUE", DataType::kInt},
                            {"DELTA", DataType::kInt},
                            {"RATE_PER_S", DataType::kInt}})),
        sampler_(sampler) {}

  const std::string& name() const override { return name_; }
  const Schema& schema() const override { return schema_; }

  Result<std::vector<Tuple>> Generate() const override {
    std::vector<Tuple> rows;
    for (const obs::MetricsSampler::Row& r : sampler_->History()) {
      rows.push_back({Value(r.sample_ts_us), Value(r.name), Value(r.kind),
                      Value(r.value), Value(r.delta), Value(r.rate_per_s)});
    }
    return rows;
  }

  double EstimatedRows() const override { return 1024.0; }

 private:
  std::string name_;
  Schema schema_;
  const obs::MetricsSampler* sampler_;
};

// SYS$EVENTS: the flight recorder's retained events, oldest-first.
class EventsProvider : public VirtualTableProvider {
 public:
  explicit EventsProvider(const obs::FlightRecorder* recorder)
      : name_("SYS$EVENTS"),
        schema_(MakeSchema({{"SEQ", DataType::kInt},
                            {"TS_US", DataType::kInt},
                            {"CATEGORY", DataType::kString},
                            {"SEVERITY", DataType::kString},
                            {"MESSAGE", DataType::kString},
                            {"DETAIL", DataType::kString},
                            {"REPEATED", DataType::kInt}})),
        recorder_(recorder) {}

  const std::string& name() const override { return name_; }
  const Schema& schema() const override { return schema_; }

  Result<std::vector<Tuple>> Generate() const override {
    std::vector<Tuple> rows;
    for (const obs::FlightRecorder::Event& e : recorder_->Snapshot()) {
      rows.push_back({Value(e.seq), Value(e.ts_us), Value(e.category),
                      Value(e.severity), Value(e.message), Value(e.detail),
                      Value(e.repeated)});
    }
    return rows;
  }

  double EstimatedRows() const override { return 256.0; }

 private:
  std::string name_;
  Schema schema_;
  const obs::FlightRecorder* recorder_;
};

// SYS$HEALTH: one row per health rule with its live OK/FIRING state.
class HealthProvider : public VirtualTableProvider {
 public:
  explicit HealthProvider(const obs::HealthEngine* health)
      : name_("SYS$HEALTH"),
        schema_(MakeSchema({{"RULE", DataType::kString},
                            {"SERIES", DataType::kString},
                            {"FIELD", DataType::kString},
                            {"CMP", DataType::kString},
                            {"BOUND", DataType::kDouble},
                            {"STATE", DataType::kString},
                            {"LAST_VALUE", DataType::kDouble},
                            {"SINCE_US", DataType::kInt},
                            {"BREACHES", DataType::kInt},
                            {"TRANSITIONS", DataType::kInt},
                            {"DESCRIPTION", DataType::kString}})),
        health_(health) {}

  const std::string& name() const override { return name_; }
  const Schema& schema() const override { return schema_; }

  Result<std::vector<Tuple>> Generate() const override {
    std::vector<Tuple> rows;
    for (const obs::RuleState& r : health_->Snapshot()) {
      rows.push_back({Value(r.rule.name), Value(r.rule.series),
                      Value(std::string(obs::HealthFieldName(r.rule.field))),
                      Value(std::string(obs::HealthCmpName(r.rule.cmp))),
                      Value(r.rule.bound), Value(r.state), Value(r.last_value),
                      Value(r.since_us), Value(r.breaches),
                      Value(r.transitions), Value(r.rule.description)});
    }
    return rows;
  }

  double EstimatedRows() const override { return 8.0; }

 private:
  std::string name_;
  Schema schema_;
  const obs::HealthEngine* health_;
};

// SYS$ALERTS: recorded OK<->FIRING transitions, oldest-first.
class AlertsProvider : public VirtualTableProvider {
 public:
  explicit AlertsProvider(const obs::HealthEngine* health)
      : name_("SYS$ALERTS"),
        schema_(MakeSchema({{"SEQ", DataType::kInt},
                            {"TS_US", DataType::kInt},
                            {"RULE", DataType::kString},
                            {"SERIES", DataType::kString},
                            {"FROM_STATE", DataType::kString},
                            {"TO_STATE", DataType::kString},
                            {"VALUE", DataType::kDouble},
                            {"BOUND", DataType::kDouble}})),
        health_(health) {}

  const std::string& name() const override { return name_; }
  const Schema& schema() const override { return schema_; }

  Result<std::vector<Tuple>> Generate() const override {
    std::vector<Tuple> rows;
    for (const obs::AlertTransition& a : health_->Alerts()) {
      rows.push_back({Value(a.seq), Value(a.ts_us), Value(a.rule),
                      Value(a.series), Value(a.from), Value(a.to),
                      Value(a.value), Value(a.bound)});
    }
    return rows;
  }

  double EstimatedRows() const override { return 16.0; }

 private:
  std::string name_;
  Schema schema_;
  const obs::HealthEngine* health_;
};

// SYS$CACHE: the CO cache / write-back slice of the metric namespace.
class CacheProvider : public VirtualTableProvider {
 public:
  explicit CacheProvider(obs::MetricsRegistry* metrics)
      : name_("SYS$CACHE"),
        schema_(MakeSchema(
            {{"NAME", DataType::kString}, {"VALUE", DataType::kInt}})),
        metrics_(metrics) {}

  const std::string& name() const override { return name_; }
  const Schema& schema() const override { return schema_; }

  Result<std::vector<Tuple>> Generate() const override {
    obs::MetricsSnapshot snap = metrics_->Snapshot();
    std::vector<Tuple> rows;
    auto want = [](const std::string& name) {
      return name.rfind("cache.", 0) == 0 || name.rfind("writeback.", 0) == 0;
    };
    for (const auto& [name, v] : snap.counters) {
      if (want(name)) rows.push_back({Value(name), Value(v)});
    }
    for (const auto& [name, v] : snap.gauges) {
      if (want(name)) rows.push_back({Value(name), Value(v)});
    }
    return rows;
  }

  double EstimatedRows() const override { return 16.0; }

 private:
  std::string name_;
  Schema schema_;
  obs::MetricsRegistry* metrics_;
};

// SYS$TABLES: the catalog's contents, including the virtual tables
// themselves. ROW_COUNT is NULL for views (they are recompiled on use).
class TablesProvider : public VirtualTableProvider {
 public:
  explicit TablesProvider(const Catalog* catalog)
      : name_("SYS$TABLES"),
        schema_(MakeSchema({{"NAME", DataType::kString},
                            {"KIND", DataType::kString},
                            {"ROW_COUNT", DataType::kInt},
                            {"COLUMN_COUNT", DataType::kInt}})),
        catalog_(catalog) {}

  const std::string& name() const override { return name_; }
  const Schema& schema() const override { return schema_; }

  Result<std::vector<Tuple>> Generate() const override {
    std::vector<Tuple> rows;
    for (const std::string& name : catalog_->TableNames()) {
      XNFDB_ASSIGN_OR_RETURN(Table * table, catalog_->GetTable(name));
      rows.push_back({Value(name), Value("table"),
                      Value(static_cast<int64_t>(table->row_count())),
                      Value(static_cast<int64_t>(table->schema().size()))});
    }
    for (const ViewDef* view : catalog_->Views()) {
      rows.push_back({Value(view->name),
                      Value(view->is_xnf ? "xnf view" : "view"), Value::Null(),
                      Value::Null()});
    }
    for (const VirtualTableProvider* v : catalog_->VirtualTables()) {
      rows.push_back({Value(v->name()), Value("virtual"), Value::Null(),
                      Value(static_cast<int64_t>(v->schema().size()))});
    }
    return rows;
  }

  double EstimatedRows() const override { return 16.0; }

 private:
  std::string name_;
  Schema schema_;
  const Catalog* catalog_;
};

}  // namespace

Status RegisterSystemViews(Catalog* catalog, obs::MetricsRegistry* metrics,
                           const obs::DigestStore* digests) {
  auto digest_view = [&](std::string name, Schema schema,
                         double estimated_rows,
                         DigestViewProvider::Project project) {
    return catalog->RegisterVirtualTable(std::make_unique<DigestViewProvider>(
        std::move(name), std::move(schema), estimated_rows, project,
        digests));
  };
  XNFDB_RETURN_IF_ERROR(catalog->RegisterVirtualTable(
      std::make_unique<MetricsProvider>(metrics)));
  XNFDB_RETURN_IF_ERROR(catalog->RegisterVirtualTable(
      std::make_unique<HistogramsProvider>(metrics, digests)));
  XNFDB_RETURN_IF_ERROR(digest_view(
      "SYS$STATEMENTS",
      MakeSchema({{"DIGEST", DataType::kString},
                  {"KIND", DataType::kString},
                  {"TEXT", DataType::kString},
                  {"HIST", DataType::kString},
                  {"CALLS", DataType::kInt},
                  {"ERRORS", DataType::kInt},
                  {"ROWS_OUT", DataType::kInt},
                  {"TOTAL_US", DataType::kInt},
                  {"MIN_US", DataType::kInt},
                  {"MAX_US", DataType::kInt},
                  {"AVG_US", DataType::kInt},
                  {"P50_US", DataType::kInt},
                  {"P99_US", DataType::kInt},
                  {"SCAN_SELF_US", DataType::kInt},
                  {"JOIN_SELF_US", DataType::kInt},
                  {"FILTER_SELF_US", DataType::kInt},
                  {"OTHER_SELF_US", DataType::kInt}}),
      32.0, ProjectStatement));
  XNFDB_RETURN_IF_ERROR(
      catalog->RegisterVirtualTable(std::make_unique<CacheProvider>(metrics)));
  XNFDB_RETURN_IF_ERROR(catalog->RegisterVirtualTable(
      std::make_unique<TablesProvider>(catalog)));
  XNFDB_RETURN_IF_ERROR(digest_view(
      "SYS$QUERY_PROFILES",
      MakeSchema({{"DIGEST", DataType::kString},
                  {"CAPTURES", DataType::kInt},
                  {"WALL_US", DataType::kInt},
                  {"QUEUE_WAIT_US", DataType::kInt},
                  {"PEAK_BYTES", DataType::kInt},
                  {"ROWS_OUT", DataType::kInt},
                  {"OP", DataType::kString},
                  {"WORKER", DataType::kInt},
                  {"OP_LOOPS", DataType::kInt},
                  {"OP_ROWS", DataType::kInt},
                  {"OP_BATCHES", DataType::kInt},
                  {"OP_SELF_US", DataType::kInt},
                  {"OP_INCL_US", DataType::kInt}}),
      128.0, ProjectQueryProfile));
  XNFDB_RETURN_IF_ERROR(digest_view(
      "SYS$REWRITES",
      MakeSchema({{"DIGEST", DataType::kString},
                  {"SEQ", DataType::kInt},
                  {"PASS", DataType::kInt},
                  {"RULE", DataType::kString},
                  {"FIRED", DataType::kInt},
                  {"REJECTED", DataType::kInt},
                  {"US", DataType::kInt},
                  {"BOXES_BEFORE", DataType::kInt},
                  {"BOXES_AFTER", DataType::kInt}}),
      128.0, ProjectRewrites));
  XNFDB_RETURN_IF_ERROR(digest_view(
      "SYS$PLAN_FEEDBACK",
      MakeSchema({{"DIGEST", DataType::kString},
                  {"RANK", DataType::kInt},
                  {"OUTPUT", DataType::kString},
                  {"OP", DataType::kString},
                  {"EST_ROWS", DataType::kInt},
                  {"ACTUAL_ROWS", DataType::kInt},
                  {"LOOPS", DataType::kInt},
                  {"Q_ERROR", DataType::kDouble}}),
      64.0, ProjectPlanFeedback));
  return digest_view("SYS$PLAN_HISTORY",
                     MakeSchema({{"DIGEST", DataType::kString},
                                 {"PLAN_HASH", DataType::kString},
                                 {"PLAN_SHAPE", DataType::kString},
                                 {"FIRST_SEEN_US", DataType::kInt},
                                 {"LAST_SEEN_US", DataType::kInt},
                                 {"EXECUTIONS", DataType::kInt},
                                 {"MEAN_EXECUTE_US", DataType::kInt},
                                 {"CURRENT", DataType::kInt}}),
                     64.0, ProjectPlanHistory);
}

std::unique_ptr<VirtualTableProvider> MakeMetricsHistoryProvider(
    const obs::MetricsSampler* sampler) {
  return std::make_unique<MetricsHistoryProvider>(sampler);
}

std::unique_ptr<VirtualTableProvider> MakeEventsProvider(
    const obs::FlightRecorder* recorder) {
  return std::make_unique<EventsProvider>(recorder);
}

std::unique_ptr<VirtualTableProvider> MakeHealthProvider(
    const obs::HealthEngine* health) {
  return std::make_unique<HealthProvider>(health);
}

std::unique_ptr<VirtualTableProvider> MakeAlertsProvider(
    const obs::HealthEngine* health) {
  return std::make_unique<AlertsProvider>(health);
}

}  // namespace xnfdb
