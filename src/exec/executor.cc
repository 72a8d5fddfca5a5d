#include "exec/executor.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <set>
#include <thread>
#include <unordered_map>

#include "common/str_util.h"

namespace xnfdb {

namespace {

// Observes the elapsed microseconds since `t0` into `metrics[name]`; no-op
// without a registry. It counts the microsecond ticks passed, as trace
// spans do: truncating each phase's duration would undercount phases of a
// few microseconds (planning a spool reader) by half a microsecond each.
class PhaseTimer {
 public:
  PhaseTimer(obs::MetricsRegistry* metrics, const char* name)
      : metrics_(metrics), name_(name),
        t0_(std::chrono::steady_clock::now()) {}
  ~PhaseTimer() {
    if (metrics_ == nullptr) return;
    auto ticks = [](std::chrono::steady_clock::time_point t) {
      return std::chrono::duration_cast<std::chrono::microseconds>(
                 t.time_since_epoch())
          .count();
    };
    metrics_->GetHistogram(name_)->Observe(
        ticks(std::chrono::steady_clock::now()) - ticks(t0_));
  }

 private:
  obs::MetricsRegistry* metrics_;
  const char* name_;
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace

int QueryResult::FindOutput(const std::string& name) const {
  for (size_t i = 0; i < outputs.size(); ++i) {
    if (IdentEquals(outputs[i].name, name)) return static_cast<int>(i);
  }
  return -1;
}

std::vector<Tuple> QueryResult::RowsOf(int idx) const {
  std::vector<Tuple> rows;
  for (const StreamItem& item : stream) {
    if (item.output == idx && item.kind == StreamItem::Kind::kRow) {
      rows.push_back(item.values);
    }
  }
  return rows;
}

size_t QueryResult::RowCount(int idx) const {
  size_t n = 0;
  for (const StreamItem& item : stream) {
    if (item.output == idx && item.kind == StreamItem::Kind::kRow) ++n;
  }
  return n;
}

size_t QueryResult::ConnectionCount(int idx) const {
  size_t n = 0;
  for (const StreamItem& item : stream) {
    if (item.output == idx && item.kind == StreamItem::Kind::kConnection) ++n;
  }
  return n;
}

namespace {

// Per-component tuple-id assignment with row deduplication (object sharing:
// "if a component tuple is used multiple times within a view, then it
// exists only once", Sect. 2).
struct TidMap {
  std::unordered_map<Tuple, TupleId, TupleHash, TupleEq> ids;
  TupleId next = 0;

  std::pair<TupleId, bool> Intern(const Tuple& row) {
    auto [it, inserted] = ids.emplace(row, next);
    if (inserted) ++next;
    return {it->second, inserted};
  }
};

Tuple ProjectCols(const Tuple& row, const std::vector<int>& cols) {
  Tuple out;
  out.reserve(cols.size());
  for (int c : cols) out.push_back(row[c]);
  return out;
}

int ResolveMorselWorkers(int requested) {
  if (requested > 0) return requested;
  return static_cast<int>(ParseEnvInt("XNFDB_MORSEL_WORKERS", 1, 256, 1));
}

Rid ResolveMorselRows(int64_t requested) {
  if (requested > 0) return static_cast<Rid>(requested);
  return static_cast<Rid>(
      ParseEnvInt("XNFDB_MORSEL_ROWS", 1, int64_t{1} << 30, 2048));
}

}  // namespace

void AccumulateTree(Operator* op, std::map<std::string, obs::OpProfile>* agg) {
  const Operator::Actuals& a = op->actuals();
  auto* reader = dynamic_cast<MaterializedOp*>(op);
  int64_t child_ns = reader != nullptr ? reader->build_ns() : 0;
  for (Operator* c : op->Children()) {
    child_ns += c->actuals().ns;
    AccumulateTree(c, agg);
  }
  obs::OpProfile& p = (*agg)[op->Kind()];
  p.op = op->Kind();
  p.loops += a.loops;
  p.rows += a.rows;
  p.batches += a.batches;
  p.incl_us += a.ns / 1000;
  p.self_us += std::max<int64_t>(0, a.ns - child_ns) / 1000;
}

void PrepareTree(Operator* op, const ExecOptions& options) {
  if (options.analyze) op->EnableAnalyze();
  if (options.collect_profile) op->EnableProfile();
  if (options.context != nullptr) op->AttachContext(options.context.get());
}

Result<QueryResult> ExecuteGraph(const Catalog& catalog,
                                 const qgm::QueryGraph& graph,
                                 const ExecOptions& options) {
  if (graph.top_box_id() < 0) {
    return Status::Internal("graph has no Top box");
  }
  const qgm::Box* top = graph.box(graph.top_box_id());
  QueryResult result;
  // Workers increment `run_stats`, never the result object, so the result
  // can be copied or moved freely: its stats are a consistent snapshot
  // taken after every worker joined.
  ExecStats run_stats;
  const int batch_size = ResolveBatchSize(options.batch_size);
  // Morsel workers clone plans and split actuals across them, so analyze
  // mode (which renders one annotated plan per output) stays sequential.
  const int morsel_workers =
      options.analyze ? 1 : ResolveMorselWorkers(options.morsel_workers);
  const Rid morsel_rows = ResolveMorselRows(options.morsel_rows);
  QueryContext* ctx = options.context.get();
  PlanOptions plan_options = options.plan;
  plan_options.batch_size = batch_size;
  Planner planner(&catalog, &graph, plan_options, &run_stats);

  // Output descriptors.
  for (const qgm::TopOutput& out : top->outputs) {
    OutputDesc desc;
    desc.name = out.name;
    desc.is_connection = out.is_connection;
    if (!out.is_connection) {
      const qgm::Box* box = graph.box(out.box_id);
      std::vector<int> cols = out.cols;
      if (cols.empty()) {
        for (size_t i = 0; i < box->HeadArity(); ++i) {
          cols.push_back(static_cast<int>(i));
        }
      }
      for (int c : cols) {
        Column col;
        col.name = box->HeadName(c);
        Result<DataType> t = graph.HeadType(out.box_id, c);
        col.type = t.ok() ? t.value() : DataType::kNull;
        desc.schema.AddColumn(std::move(col));
      }
    } else {
      desc.partner_names = out.partner_names;
    }
    result.outputs.push_back(std::move(desc));
  }

  int n_outputs = static_cast<int>(top->outputs.size());
  const bool collect_counts = options.collect_dedup_counts;
  std::map<std::string, TidMap> tids;  // component name -> tid map
  std::vector<std::vector<StreamItem>> buffers(n_outputs);
  std::vector<std::string> plan_texts(n_outputs);

  // Always-on profile accumulation, once per finished plan tree, never per
  // row. Only the query thread merges: morsel clones are merged after
  // their workers joined.
  const bool collect_profile = options.collect_profile;
  std::map<std::string, obs::OpProfile> profile_ops;
  std::map<int64_t, obs::WorkerProfile> profile_workers;  // by worker id

  // Cardinality-feedback accumulation, keyed by (output index, pre-order
  // position) so morsel clones of one plan merge into the same slots. Like
  // the profile, one tree walk per finished plan — never per row. Caveat:
  // under morsel execution rows and loops both sum across clones, so a
  // morsel-split driver scan reports its per-clone (not total) rows per
  // loop; with the default single worker the numbers are exact.
  const bool collect_feedback = options.collect_feedback;
  struct FeedbackSlot {
    std::string op;
    double est = -1.0;
    int64_t rows = 0;
    int64_t loops = 0;
  };
  std::map<std::pair<int, int>, FeedbackSlot> feedback_slots;
  std::vector<std::string> shapes(n_outputs);
  std::function<void(int, int*, Operator*)> feedback_walk =
      [&](int oi, int* idx, Operator* op) {
        FeedbackSlot& slot = feedback_slots[{oi, (*idx)++}];
        if (slot.op.empty()) {
          slot.op = op->Kind();
          slot.est = op->estimated_rows();
        }
        slot.rows += op->actuals().rows;
        slot.loops += op->actuals().loops;
        for (Operator* c : op->Children()) feedback_walk(oi, idx, c);
      };
  auto record_feedback = [&](int oi, Operator* root) {
    if (!collect_feedback) return;
    int idx = 0;
    feedback_walk(oi, &idx, root);
  };

  auto record_tree = [&](Operator* op) {
    if (!collect_profile) return;
    AccumulateTree(op, &profile_ops);
  };

  // Tags one projected component row and appends it to the output buffer
  // (dedup via the component's tid map for XNF object sharing). Rows are
  // charged against the governor's row budget here — after dedup, so the
  // budget bounds what the client actually receives.
  auto emit_component = [&](int oi, const qgm::TopOutput& out, TidMap& map,
                            Tuple&& projected) -> Status {
    StreamItem item;
    item.kind = StreamItem::Kind::kRow;
    item.output = oi;
    if (out.xnf_component) {
      auto [tid, inserted] = map.Intern(projected);
      if (collect_counts) ++result.component_counts[oi][tid];
      if (!inserted) return Status::Ok();  // object sharing: emit once
      item.tid = tid;
    } else {
      item.tid = map.next++;
    }
    if (ctx != nullptr) XNFDB_RETURN_IF_ERROR(ctx->ChargeOutputRows(1));
    item.values = std::move(projected);
    ++run_stats.rows_output;
    buffers[oi].push_back(std::move(item));
    return Status::Ok();
  };

  // Appends the connection of one row's partners to the output buffer,
  // once per distinct tid tuple (`seen`).
  auto emit_connection = [&](int oi, const qgm::TopOutput& out,
                             const Tuple& row,
                             std::set<std::vector<TupleId>>* seen) -> Status {
    std::vector<TupleId> partner_tids;
    for (size_t pi = 0; pi < out.partner_names.size(); ++pi) {
      const std::string& partner = out.partner_names[pi];
      auto tit = tids.find(partner);
      if (tit == tids.end()) {
        return Status::Internal("connection partner '" + partner +
                                "' is not an output component");
      }
      Tuple key = ProjectCols(row, out.partner_cols[pi]);
      auto it = tit->second.ids.find(key);
      if (it == tit->second.ids.end()) {
        // The partner row did not appear in its component stream (can
        // happen only for non-reachable setups); drop the connection to
        // keep the answer closed.
        return Status::Ok();
      }
      partner_tids.push_back(it->second);
    }
    if (collect_counts) ++result.connection_counts[oi][partner_tids];
    if (!seen->insert(partner_tids).second) {
      return Status::Ok();  // duplicate connection
    }
    if (ctx != nullptr) XNFDB_RETURN_IF_ERROR(ctx->ChargeOutputRows(1));
    StreamItem item;
    item.kind = StreamItem::Kind::kConnection;
    item.output = oi;
    item.tids = std::move(partner_tids);
    ++run_stats.rows_output;
    buffers[oi].push_back(std::move(item));
    return Status::Ok();
  };

  // Morsel-parallel evaluation of one component output: `workers` plan
  // clones share a morsel dispenser on their driver scans; each claimed
  // morsel's rows land in that morsel's private bucket, and the buckets
  // are reassembled in morsel order, so the emitted stream (and therefore
  // every assigned tid) is identical to sequential execution.
  auto run_morsel_output = [&](int oi, const qgm::TopOutput& out,
                               OperatorPtr first_plan,
                               ScanOp* first_driver) -> Status {
    std::vector<OperatorPtr> plans;
    std::vector<ScanOp*> drivers;
    plans.push_back(std::move(first_plan));
    drivers.push_back(first_driver);
    for (int w = 1; w < morsel_workers; ++w) {
      XNFDB_ASSIGN_OR_RETURN(OperatorPtr extra, planner.BoxIterator(out.box_id));
      ScanOp* d = extra->MorselDriver();
      if (d == nullptr || d->table() != first_driver->table()) break;
      PrepareTree(extra.get(), options);
      plans.push_back(std::move(extra));
      drivers.push_back(d);
    }
    auto morsels = std::make_shared<ScanMorsels>();
    morsels->bound = first_driver->table()->rid_bound();
    morsels->rows_per_morsel = morsel_rows;
    for (ScanOp* d : drivers) d->ShareMorsels(morsels);

    std::vector<std::vector<Tuple>> buckets(morsels->MorselCount());
    std::vector<Status> worker_status(plans.size());
    // Each worker's own slot, written once when it finishes: rows bucketed
    // and wall time.
    struct WorkerTally {
      int64_t rows = 0;
      int64_t wall_us = 0;
    };
    std::vector<WorkerTally> tallies(plans.size());
    auto worker = [&](size_t w) -> Status {
      Operator* plan = plans[w].get();
      ScanOp* driver = drivers[w];
      // Stable worker id = index in the worker pool; the trace span and the
      // profile's WorkerProfile row carry the same id.
      obs::Span worker_span;
      if (options.tracer != nullptr) {
        worker_span = options.tracer->StartSpan(
            "morsel-worker #" + std::to_string(w) + " " + out.name);
      }
      auto w0 = std::chrono::steady_clock::now();
      int64_t worker_rows = 0;
      TupleBatch batch(static_cast<size_t>(batch_size));
      XNFDB_ASSIGN_OR_RETURN(
          int64_t batches,
          DrainRows(plan, &batch, [&](Tuple& row) -> Status {
            // A batch never spans morsels (ScanOp guarantee), so the
            // driver's current morsel tags every row it just produced.
            Tuple projected =
                out.cols.empty() ? std::move(row) : ProjectCols(row, out.cols);
            // Bucketed rows are buffered server-side until reassembly, so
            // they count against the memory budget (not the row budget:
            // dedup happens at reassembly).
            if (ctx != nullptr) {
              XNFDB_RETURN_IF_ERROR(
                  ctx->ReserveBytes(ApproxTupleBytes(projected)));
            }
            ++worker_rows;
            buckets[driver->current_morsel()].push_back(std::move(projected));
            return Status::Ok();
          }));
      run_stats.batches_emitted += batches;
      tallies[w].rows = worker_rows;
      tallies[w].wall_us =
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - w0)
              .count();
      return Status::Ok();
    };
    std::vector<std::thread> threads;
    threads.reserve(plans.size());
    for (size_t w = 0; w < plans.size(); ++w) {
      threads.emplace_back([&, w] { worker_status[w] = worker(w); });
    }
    for (std::thread& t : threads) t.join();
    // All workers share one QueryContext, so a cancel/deadline/budget trip
    // surfaces in every worker; the first failure wins and reassembly is
    // skipped (partially filled buckets are simply dropped — mid-pipeline
    // unwind never publishes a torn stream).
    for (const Status& s : worker_status) {
      XNFDB_RETURN_IF_ERROR(s);
    }
    for (size_t w = 0; w < plans.size(); ++w) {
      record_tree(plans[w].get());
      record_feedback(oi, plans[w].get());
      if (collect_profile) {
        obs::WorkerProfile& wp = profile_workers[static_cast<int64_t>(w)];
        wp.worker = static_cast<int64_t>(w);
        wp.rows += tallies[w].rows;
        wp.morsels += drivers[w]->claimed_morsels();
        wp.wall_us += tallies[w].wall_us;
      }
    }
    // Sequential reassembly: morsel order == scan order.
    TidMap& map = tids[out.name];
    for (std::vector<Tuple>& bucket : buckets) {
      for (Tuple& projected : bucket) {
        XNFDB_RETURN_IF_ERROR(
            emit_component(oi, out, map, std::move(projected)));
      }
    }
    return Status::Ok();
  };

  // Component streams first (tuple ids assigned; XNF components dedup),
  // then connection streams (tid maps are read-only by then).
  std::vector<int> order;
  for (bool connections : {false, true}) {
    for (int oi = 0; oi < n_outputs; ++oi) {
      if (top->outputs[oi].is_connection == connections) order.push_back(oi);
    }
  }
  for (int oi : order) {
    const qgm::TopOutput& out = top->outputs[oi];
    obs::Span plan_span;
    if (options.tracer != nullptr) {
      plan_span = options.tracer->StartSpan("plan " + out.name);
    }
    OperatorPtr op;
    {
      PhaseTimer timer(options.metrics, "phase.plan.us");
      XNFDB_ASSIGN_OR_RETURN(op, planner.BoxIterator(out.box_id));
      PrepareTree(op.get(), options);
      if (collect_feedback) {
        shapes[oi] = out.name + "=" + PlanShapeText(op.get());
      }
    }
    plan_span.End();
    obs::Span exec_span;
    if (options.tracer != nullptr) {
      exec_span = options.tracer->StartSpan("execute " + out.name);
    }
    PhaseTimer timer(options.metrics, "phase.execute.us");
    // Intra-plan parallelism: only a plain scan pipeline qualifies (a
    // pipeline breaker or non-scan source has no morsel driver).
    ScanOp* driver = morsel_workers > 1 && !out.is_connection
                         ? op->MorselDriver()
                         : nullptr;
    if (driver != nullptr) {
      XNFDB_RETURN_IF_ERROR(run_morsel_output(oi, out, std::move(op), driver));
      continue;
    }
    TidMap& map = tids[out.name];
    std::set<std::vector<TupleId>> seen;
    TupleBatch batch(static_cast<size_t>(batch_size));
    XNFDB_ASSIGN_OR_RETURN(
        int64_t batches, DrainRows(op.get(), &batch, [&](Tuple& row) {
          if (out.is_connection) return emit_connection(oi, out, row, &seen);
          Tuple projected =
              out.cols.empty() ? std::move(row) : ProjectCols(row, out.cols);
          return emit_component(oi, out, map, std::move(projected));
        }));
    run_stats.batches_emitted += batches;
    if (options.analyze) {  // the annotated plan of the finished output
      plan_texts[oi] = "output " + out.name +
                       (out.is_connection ? " [connection]" : "") + ":\n";
      op->Explain(1, &plan_texts[oi]);
    }
    record_tree(op.get());
    record_feedback(oi, op.get());
  }

  // Each spool that ran is profiled once, whichever reader built it.
  for (const auto& [box_id, spool] : planner.spools()) {
    if (spool->rows != nullptr) record_tree(spool->build.get());
  }

  // Workers have joined: the snapshot below is consistent.
  result.stats = run_stats;
  if (options.analyze) result.plan_texts = std::move(plan_texts);
  if (options.metrics != nullptr) run_stats.PublishTo(options.metrics);
  if (collect_profile) {
    result.profile.ops.reserve(profile_ops.size());
    for (auto& [kind, p] : profile_ops) result.profile.ops.push_back(std::move(p));
    result.profile.workers.reserve(profile_workers.size());
    for (auto& [id, wp] : profile_workers) {
      result.profile.workers.push_back(wp);
    }
    result.profile.rows_out = run_stats.rows_output;
  }
  if (collect_feedback) {
    for (const std::string& s : shapes) {
      if (s.empty()) continue;
      if (!result.plan_shape.empty()) result.plan_shape += ";";
      result.plan_shape += s;
    }
    result.plan_hash = PlanShapeHash(result.plan_shape);
    result.feedback.reserve(feedback_slots.size());
    for (const auto& [key, slot] : feedback_slots) {
      obs::OpFeedback f;
      f.output = top->outputs[key.first].name;
      f.op = slot.op;
      f.est_rows = slot.est;
      f.actual_rows = slot.rows;
      f.loops = slot.loops;
      const double per_loop = static_cast<double>(slot.rows) /
                              static_cast<double>(std::max<int64_t>(
                                  slot.loops, 1));
      f.q_error = slot.est >= 0 ? obs::QError(slot.est, per_loop) : 0.0;
      result.feedback.push_back(std::move(f));
    }
  }

  // Merge the per-output buffers into one stream, in output order (a
  // deterministic interleaving; the paper allows any, Sect. 5.1).
  obs::Span deliver_span;
  if (options.tracer != nullptr) {
    deliver_span = options.tracer->StartSpan("deliver");
  }
  PhaseTimer deliver_timer(options.metrics, "phase.deliver.us");
  size_t total = 0;
  for (const auto& b : buffers) total += b.size();
  result.stream.reserve(total);
  for (auto& b : buffers) {
    for (StreamItem& item : b) result.stream.push_back(std::move(item));
  }
  return result;
}

}  // namespace xnfdb
