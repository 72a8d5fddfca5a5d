// The XNF/SQL compiler driver: parse -> semantic analysis -> XNF semantic
// rewrite -> NF rewrite -> (plan optimization happens lazily at execution).
// This is the compile-time path of Fig. 2/Fig. 7.

#ifndef XNFDB_XNF_COMPILER_H_
#define XNFDB_XNF_COMPILER_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parser/ast.h"
#include "qgm/qgm.h"
#include "rewrite/nf_rules.h"
#include "rewrite/rule.h"
#include "rewrite/xnf_rewrite.h"
#include "storage/catalog.h"

namespace xnfdb {

struct CompileOptions {
  XnfRewriteOptions xnf;
  NfRewriteOptions nf;
  bool run_nf_rewrite = true;  // false: stop after XNF semantic rewrite
  // Observability sinks; both optional. When set, the compiler records
  // parse / semantics / xnf_rewrite / nf_rewrite spans and the matching
  // `phase.<name>.us` latency histograms.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

struct CompiledQuery {
  std::unique_ptr<qgm::QueryGraph> graph;
  RewriteStats rewrite_stats;
  // True when the query is a recursive CO that the box rewrite cannot
  // lower; it must be evaluated with the fixpoint evaluator instead.
  bool needs_fixpoint = false;
  // Statement fingerprint (parser/fingerprint.h): the AST's shape with
  // literals normalized to `?`, and its 64-bit digest. Feeds the
  // per-statement statistics behind sys$statements and the slow-query log.
  std::string normalized_text;
  uint64_t digest = 0;
  // The digest extended over the bound literal values: the matview key.
  uint64_t key = 0;
};

// Compiles a plain SQL SELECT.
Result<CompiledQuery> CompileSelect(const Catalog& catalog,
                                    const ast::SelectStmt& select,
                                    const CompileOptions& options = {});

// Compiles an XNF query. For recursive COs the graph is left in XNF form
// with `needs_fixpoint` set.
Result<CompiledQuery> CompileXnf(const Catalog& catalog,
                                 const ast::XnfQuery& query,
                                 const CompileOptions& options = {});

// Parses + compiles a query string (SELECT or OUT OF form, or the name of a
// stored view).
Result<CompiledQuery> CompileQueryString(const Catalog& catalog,
                                         const std::string& text,
                                         const CompileOptions& options = {});

// Loads and parses a stored XNF view definition.
Result<std::unique_ptr<ast::XnfQuery>> LoadXnfView(const Catalog& catalog,
                                                   const std::string& name);

}  // namespace xnfdb

#endif  // XNFDB_XNF_COMPILER_H_
