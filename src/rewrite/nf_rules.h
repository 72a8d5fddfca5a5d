// The NF (plain relational) rewrite rules, after [39]:
//
//  * ExistsToJoinRule — the "E to F quantifier conversion": an existential
//    subquery becomes a join (Fig. 3a -> 3b) where a join keeps the
//    answer: the box is DISTINCT, or the subquery binds at most one row
//    per outer row through a declared key.
//  * SelectMergeRule — the "SELECT merge": a single-consumer SELECT box is
//    inlined into its consumer (Fig. 3b -> 3c).
//  * RemoveUnusedBoxesRule — clean-up: boxes unreachable from Top are
//    removed (Sect. 4.4 mentions this simplification being made available
//    to XNF rewrite as well).

#ifndef XNFDB_REWRITE_NF_RULES_H_
#define XNFDB_REWRITE_NF_RULES_H_

#include <memory>
#include <vector>

#include "rewrite/rule.h"

namespace xnfdb {

std::unique_ptr<RewriteRule> MakeExistsToJoinRule();
std::unique_ptr<RewriteRule> MakeSelectMergeRule();
std::unique_ptr<RewriteRule> MakeRemoveUnusedBoxesRule();

// The default NF rewrite rule set, in application order.
std::vector<std::unique_ptr<RewriteRule>> MakeDefaultNfRules();

// Options controlling which NF rules run (for benchmarking ablations).
struct NfRewriteOptions {
  bool exists_to_join = true;   // Fig. 3 subquery-to-join conversion
  bool select_merge = true;     // box merge
  bool remove_unused = true;    // clean-up
};

std::vector<std::unique_ptr<RewriteRule>> MakeNfRules(
    const NfRewriteOptions& options);

}  // namespace xnfdb

#endif  // XNFDB_REWRITE_NF_RULES_H_
