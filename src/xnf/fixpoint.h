// Fixpoint evaluation of XNF queries (paper Sect. 2: "An XNF query may also
// specify a recursive CO being identified by a cycle in the query's schema
// graph. This cycle basically defines a 'derivation rule' that iterates
// along the cycle's relationships to collect the tuples until a fixed point
// is reached").
//
// The evaluator computes the least fixpoint of the reachability rule
//
//   reachable(root tuples);
//   reachable(child)  <-  connection(parent, child) and reachable(parent)
//
// semi-naively, seeded from the roots. Roots and FREE components start with
// their full candidate extent; every other component starts empty and grows
// only from the *frontier*, the rows first reached in the previous round.
// Each round joins the frontier through one *delta plan* per relationship:
// the relationship box compiled by the ordinary planner with its parent
// quantifier reading the frontier (PlanOptions::quant_overrides), so an
// indexed relationship is walked by index nested-loop joins and never joins
// whole tables. A delta plan is planned in the first round its parent's
// frontier is non-empty and re-opened on every later one; its inner join
// sides are built once per evaluation. A row enters the frontier at most
// once, which bounds the rounds by the number of reachable rows plus one.
//
// For acyclic queries the result equals the XNF semantic rewrite path's,
// which the test suite exploits for differential testing.

#ifndef XNFDB_XNF_FIXPOINT_H_
#define XNFDB_XNF_FIXPOINT_H_

#include <string>

#include "common/status.h"
#include "exec/executor.h"
#include "qgm/qgm.h"
#include "storage/catalog.h"

namespace xnfdb {

// Evaluates a graph still containing its XNF operator box (i.e. before the
// XNF semantic rewrite). Works for both cyclic and acyclic schema graphs.
// Delta plans run sequentially: `morsel_workers` does not apply. With
// `analyze`, `plan_texts` holds each delta plan annotated with its actuals
// summed over the rounds (loops = rounds it ran) and a closing `rounds=`
// line; with `collect_profile`, the delta plans' operators fill the
// profile.
Result<QueryResult> ExecuteXnfFixpoint(const Catalog& catalog,
                                       const qgm::QueryGraph& graph,
                                       const ExecOptions& options = {});

// EXPLAIN for recursive COs: every relationship's delta plan, planned
// without evaluating anything. A root or FREE parent's frontier is
// estimated as its extent; any other parent's first frontier as one row.
Result<std::string> ExplainXnfFixpoint(const Catalog& catalog,
                                       const qgm::QueryGraph& graph,
                                       const PlanOptions& options = {});

}  // namespace xnfdb

#endif  // XNFDB_XNF_FIXPOINT_H_
