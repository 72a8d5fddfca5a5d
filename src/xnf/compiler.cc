#include "xnf/compiler.h"

#include <chrono>

#include "obs/phase.h"
#include "parser/fingerprint.h"
#include "parser/parser.h"
#include "semantics/builder.h"

namespace xnfdb {

namespace {

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Result<CompiledQuery> CompileSelect(const Catalog& catalog,
                                    const ast::SelectStmt& select,
                                    const CompileOptions& options) {
  CompiledQuery out;
  {
    Fingerprint fp = FingerprintSelect(select);
    out.normalized_text = std::move(fp.text);
    out.digest = fp.digest;
    out.key = fp.key;
  }
  {
    obs::PhaseScope phase(options.tracer, options.metrics, "semantics");
    XNFDB_ASSIGN_OR_RETURN(out.graph, BuildSelect(catalog, select));
  }
  if (options.run_nf_rewrite) {
    obs::PhaseScope phase(options.tracer, options.metrics, "nf_rewrite");
    RuleEngine engine(MakeNfRules(options.nf));
    RuleEngineHooks hooks{options.tracer, options.metrics};
    XNFDB_ASSIGN_OR_RETURN(out.rewrite_stats,
                           engine.Run(out.graph.get(), 32, hooks));
  }
  return out;
}

Result<CompiledQuery> CompileXnf(const Catalog& catalog,
                                 const ast::XnfQuery& query,
                                 const CompileOptions& options) {
  CompiledQuery out;
  {
    Fingerprint fp = FingerprintXnf(query);
    out.normalized_text = std::move(fp.text);
    out.digest = fp.digest;
    out.key = fp.key;
  }
  {
    obs::PhaseScope phase(options.tracer, options.metrics, "semantics");
    XNFDB_ASSIGN_OR_RETURN(out.graph, BuildXnf(catalog, query));
  }
  if (XnfHasCycle(*out.graph)) {
    out.needs_fixpoint = true;
    return out;
  }
  // The XNF semantic rewrite runs as one monolithic phase (same rule
  // *representation*, single engine pass); report it into the trace as a
  // pseudo-rule event so EXPLAIN REWRITE shows the whole pipeline.
  obs::RewriteEvent xnf_event;
  {
    obs::PhaseScope phase(options.tracer, options.metrics, "xnf_rewrite");
    xnf_event.rule = "XnfSemanticRewrite";
    xnf_event.pass = 0;
    xnf_event.fired = true;
    xnf_event.boxes_before = static_cast<int>(LiveBoxCount(*out.graph));
    const int64_t t0 = NowUs();
    XNFDB_RETURN_IF_ERROR(XnfSemanticRewrite(out.graph.get(), options.xnf));
    xnf_event.wall_us = NowUs() - t0;
    xnf_event.boxes_after = static_cast<int>(LiveBoxCount(*out.graph));
  }
  if (options.metrics != nullptr) {
    options.metrics->GetCounter("rewrite.rule.XnfSemanticRewrite.fired")
        ->Increment();
    options.metrics->GetCounter("rewrite.rule.XnfSemanticRewrite.us")
        ->Increment(xnf_event.wall_us);
  }
  if (options.run_nf_rewrite) {
    obs::PhaseScope phase(options.tracer, options.metrics, "nf_rewrite");
    RuleEngine engine(MakeNfRules(options.nf));
    RuleEngineHooks hooks{options.tracer, options.metrics};
    XNFDB_ASSIGN_OR_RETURN(out.rewrite_stats,
                           engine.Run(out.graph.get(), 32, hooks));
  }
  // engine.Run replaced rewrite_stats wholesale; prepend the semantic
  // rewrite so trace order matches execution order.
  out.rewrite_stats.firings.insert(
      out.rewrite_stats.firings.begin(),
      RuleFiring{xnf_event.rule, 1, 0, xnf_event.wall_us});
  out.rewrite_stats.total_us += xnf_event.wall_us;
  out.rewrite_stats.trace.events.insert(
      out.rewrite_stats.trace.events.begin(), std::move(xnf_event));
  return out;
}

Result<CompiledQuery> CompileQueryString(const Catalog& catalog,
                                         const std::string& text,
                                         const CompileOptions& options) {
  // A bare identifier names a stored view.
  std::string trimmed;
  for (char c : text) {
    if (!isspace(static_cast<unsigned char>(c))) trimmed += c;
  }
  bool is_ident = !trimmed.empty();
  for (char c : trimmed) {
    if (!isalnum(static_cast<unsigned char>(c)) && c != '_') is_ident = false;
  }
  if (is_ident && catalog.HasView(trimmed)) {
    XNFDB_ASSIGN_OR_RETURN(const ViewDef* view, catalog.GetView(trimmed));
    if (view->is_xnf) {
      std::unique_ptr<ast::XnfQuery> q;
      {
        obs::PhaseScope phase(options.tracer, options.metrics, "parse");
        XNFDB_ASSIGN_OR_RETURN(q, ParseXnfQuery(view->definition));
      }
      return CompileXnf(catalog, *q, options);
    }
    std::unique_ptr<ast::SelectStmt> s;
    {
      obs::PhaseScope phase(options.tracer, options.metrics, "parse");
      XNFDB_ASSIGN_OR_RETURN(s, ParseSelectQuery(view->definition));
    }
    return CompileSelect(catalog, *s, options);
  }

  ast::StatementPtr stmt;
  {
    obs::PhaseScope phase(options.tracer, options.metrics, "parse");
    XNFDB_ASSIGN_OR_RETURN(stmt, ParseStatement(text));
  }
  switch (stmt->kind) {
    case ast::Statement::Kind::kSelect:
      return CompileSelect(
          catalog, *static_cast<ast::SelectStatement*>(stmt.get())->select,
          options);
    case ast::Statement::Kind::kXnfQuery:
      return CompileXnf(catalog,
                        *static_cast<ast::XnfStatement*>(stmt.get())->query,
                        options);
    default:
      return Status::InvalidArgument(
          "expected a SELECT or OUT OF query, or a view name");
  }
}

Result<std::unique_ptr<ast::XnfQuery>> LoadXnfView(const Catalog& catalog,
                                                   const std::string& name) {
  XNFDB_ASSIGN_OR_RETURN(const ViewDef* view, catalog.GetView(name));
  if (!view->is_xnf) {
    return Status::InvalidArgument("view " + view->name +
                                   " is not an XNF view");
  }
  return ParseXnfQuery(view->definition);
}

}  // namespace xnfdb
