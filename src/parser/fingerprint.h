// Query fingerprinting (pg_stat_statements-style): renders a statement's
// *shape* — the AST with every literal (and LIMIT/OFFSET constant)
// normalized to `?` — and hashes it to a stable 64-bit digest. Two
// statements that differ only in constants share a fingerprint; any
// structural difference (tables, columns, operators, clause order)
// produces a distinct one.
//
// Multi-row INSERTs are collapsed to a single `(?, ...)` values row so a
// bulk load does not fan out into one shape per batch size.
//
// The digest keys the per-statement-digest store (obs/digest_store.h)
// exposed through `sys$statements` and the other per-digest system views.
// The key extends the digest over the literal values the normalization
// replaced (in order), so it tells bindings of one shape apart: stored
// answers (matview/matview.h) are keyed by it, because `X > 1` and `X > 4`
// share a shape but not an answer.

#ifndef XNFDB_PARSER_FINGERPRINT_H_
#define XNFDB_PARSER_FINGERPRINT_H_

#include <cstdint>
#include <string>

#include "parser/ast.h"

namespace xnfdb {

struct Fingerprint {
  std::string text;     // normalized statement text
  uint64_t digest = 0;  // FNV-1a of `text`
  // FNV-1a of `text` followed by the bound literal values, each encoded as
  // a type tag plus its bytes; equals `digest` when there are none.
  uint64_t key = 0;
};

// FNV-1a over `s`; exposed for tests and external digest comparisons.
uint64_t FingerprintHash(const std::string& s);

Fingerprint FingerprintSelect(const ast::SelectStmt& select);
Fingerprint FingerprintXnf(const ast::XnfQuery& query);
// Any statement kind (queries, DML, DDL).
Fingerprint FingerprintStatement(const ast::Statement& stmt);

}  // namespace xnfdb

#endif  // XNFDB_PARSER_FINGERPRINT_H_
