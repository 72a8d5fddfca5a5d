// Server-side materialized CO views with incremental delta maintenance.
//
// The paper measures composite-object extraction as the dominant server
// cost (Fig. 6): the same multi-join view shapes are recomputed on every
// fetch. This subsystem keeps the *server-side answer set* of hot view
// shapes — the heterogeneous component/connection streams of Sect. 5 —
// materialized, so a repeated query is answered by a MatViewScanOp over
// stored rows instead of re-running the join trees.
//
// Shape selection is automatic (SYS$STATEMENTS execution frequency via
// Database's capture policy) or explicit (`MATERIALIZE <view>` pins one).
// Under base-table DML the store keeps entries fresh by the counting
// algorithm: the changed table is substituted by a transient delta table
// (PlanOptions::table_overrides), the affected output boxes are re-planned
// and drained, and the per-row derivation counts captured at
// materialization time (ExecOptions::collect_dedup_counts) are incremented
// or decremented — a component row disappears when its count reaches zero.
// Shapes the delta rules cannot handle (the table under an exists group,
// more than one reference, DISTINCT/GROUP BY/ORDER BY/LIMIT/UNION/
// aggregates) fall back to marking the entry stale; the next matching
// execution recomputes and re-stores it (counted in matview.full_refreshes,
// fallbacks in matview.fallbacks).
//
// Caveat (documented in DESIGN.md §15): after delta maintenance the stored
// answer equals a scratch recompute up to tuple-id isomorphism — deleted
// component rows leave tid gaps, and rows added later take fresh ids, so
// tids differ from a fresh execution while contents and the component↔
// connection linkage are identical.

#ifndef XNFDB_MATVIEW_MATVIEW_H_
#define XNFDB_MATVIEW_MATVIEW_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/env.h"
#include "common/status.h"
#include "exec/executor.h"
#include "exec/expr_eval.h"
#include "obs/metrics.h"
#include "qgm/qgm.h"
#include "storage/catalog.h"
#include "storage/sysview.h"

namespace xnfdb {

// Store policy. XNFDB_MATVIEWS=0 is the kill switch and
// XNFDB_MATVIEW_MAX_ROWS bounds stored results; the rest are constants.
struct MatViewConfig {
  bool enabled = true;
  // Auto-materialization: capture the result of an execution when the
  // statement shape's call count (including this call) reaches auto_calls.
  // Any mean latency qualifies: auto_min_avg_us stays 0 and is kept only
  // for the xnfbench run record, which prints it.
  static constexpr int64_t auto_calls = 2;
  static constexpr int64_t auto_min_avg_us = 0;
  static constexpr size_t max_views = 32;
  // Bounded materialization/refresh: results (and per-DML delta
  // derivations) larger than this are never stored.
  int64_t max_rows = 1 << 20;    // XNFDB_MATVIEW_MAX_ROWS

  static MatViewConfig FromEnv();
};

// One stored output stream. Component streams keep rows in emission order
// with their tids; XNF components additionally keep the content->tid map
// (object sharing) and per-tid derivation counts. Connection streams keep
// partner-tid tuples in emission order with per-tuple derivation counts.
struct MatViewOutputData {
  OutputDesc desc;
  bool xnf_component = false;
  std::vector<Tuple> rows;    // component streams
  std::vector<TupleId> tids;  // parallel to rows
  TupleId next_tid = 0;
  std::unordered_map<Tuple, TupleId, TupleHash, TupleEq> content_tids;
  std::map<TupleId, int64_t> counts;  // XNF components only
  std::vector<std::vector<TupleId>> conns;  // connection streams
  std::map<std::vector<TupleId>, int64_t> conn_counts;
};

// One materialization's stored answer. A published snapshot that a reader
// holds (a ServeHandle) is never modified: delta maintenance splices a
// copy and swaps it in, so an in-flight serve keeps reading the version it
// resolved. A snapshot no reader holds is spliced in place.
struct MatViewData {
  std::vector<MatViewOutputData> outputs;
  int64_t total_rows = 0;  // stream items (component rows + connections)
  int64_t bytes = 0;       // ApproxTupleBytes over rows + 8 per stored tid
};

// Point-in-time view of one entry (SYS$MATVIEWS, tests, the shell).
struct MatViewInfo {
  std::string name;
  uint64_t key = 0;     // digest + bound literal values (the store's key)
  uint64_t digest = 0;  // bare statement digest (SYS$STATEMENTS joins on it)
  std::string text;
  bool pinned = false;
  bool fresh = false;
  int64_t rows = 0;
  int64_t bytes = 0;
  int64_t hits = 0;
  int64_t delta_applies = 0;
  int64_t delta_rows = 0;
  int64_t full_refreshes = 0;
  int64_t fallbacks = 0;
  int64_t created_us = 0;
  int64_t refreshed_us = 0;
};

// The store. Thread-safe (one mutex); entries are keyed by the statement
// key (parser/fingerprint.h): the digest extended over the bound literal
// values. Any compiled query with the same normalized text *and* the same
// literal values is served, whether it arrived as the view name or the
// expanded body; `X > 1` and `X > 4` are different entries.
//
// Text aliases let a repeated statement skip compilation entirely: once a
// compiled execution of a statement text was served from, or captured
// into, an entry, that exact text maps to the entry's key. At most
// kMaxAliasesPerEntry texts alias one entry (the oldest is dropped), so the
// store holds at most max_views * kMaxAliasesPerEntry aliases. An alias
// dies with its entry, and DropAliases (catalog DDL: a view name's meaning
// can change) drops them all.
class MatViewStore {
 public:
  static constexpr size_t kMaxAliasesPerEntry = 4;

  struct ServeHandle {
    std::string name;
    std::shared_ptr<const MatViewData> data;
    // The statement the entry answers: bare digest, normalized text.
    uint64_t digest = 0;
    std::string text;
  };

  MatViewStore(const MatViewConfig& config, obs::MetricsRegistry* metrics);
  MatViewStore(const MatViewStore&) = delete;
  MatViewStore& operator=(const MatViewStore&) = delete;

  const MatViewConfig& config() const { return config_; }
  bool enabled() const;
  // Runtime override of the kill switch (benches/tests; cheaper than env
  // churn). Disabling does not drop entries — DML marks them stale.
  void set_enabled(bool on);

  // Serving: fills `*out` and returns true when a fresh materialization
  // exists for `key` (bumps the entry's and the store's hit counters).
  // A stale or absent entry is a miss.
  bool TryServe(uint64_t key, ServeHandle* out);
  // TryServe without touching any counter (EXPLAIN provenance).
  bool Peek(uint64_t key, ServeHandle* out) const;

  // The compile-free fast path: TryServe for the entry `text` aliases.
  // False (and no counter moves) when the store is disabled — the text is
  // then not even hashed — when no alias exists, or when the entry is
  // stale; the caller compiles, and its TryServe counts the miss.
  bool TryServeText(const std::string& text, ServeHandle* out);
  // Records that `text` compiles to `key`. Call only after a compiled
  // execution of exactly this text was served from, or captured into, the
  // entry for `key`; a no-op when no such entry exists.
  void AddAlias(const std::string& text, uint64_t key);
  // Drops every alias (catalog DDL); entries and their data stay.
  void DropAliases();

  // Policy: should the Database capture (collect_dedup_counts + Store) the
  // execution about to run? True for a known-but-stale entry (refresh, also
  // the pinned case) or when the auto threshold is met. `prior_calls`
  // comes from DigestStore::Stats for the statement's digest.
  bool WantCapture(uint64_t key, int64_t prior_calls) const;

  // Stores one successful execution as the fresh materialization of `key`
  // (the statement's `digest` and normalized `text` ride along). Analyzes
  // `graph` for per-table delta eligibility and keeps it for delta
  // re-planning. Refuses results over config().max_rows, shapes over
  // virtual (sys$) tables, and new entries past max_views.
  Status Store(uint64_t key, uint64_t digest, const std::string& text,
               const Catalog& catalog, std::shared_ptr<qgm::QueryGraph> graph,
               const QueryResult& result);

  // MATERIALIZE <view>: creates (or re-points) the pinned entry for `key`;
  // the caller then executes the view query so Store() fills it.
  Status Pin(const std::string& name, uint64_t key, uint64_t digest,
             const std::string& text);
  // DEMATERIALIZE <view> — false when no entry has that name.
  bool Dematerialize(const std::string& name);

  // DML hook (called by Database after rows hit the base table; an UPDATE
  // passes both lists). Applies delta maintenance to every fresh entry
  // referencing `table`, or marks it stale when the shape is ineligible or
  // the delta fails. A failed delta also releases the entry's stored
  // answer (it may be half spliced): SYS$MATVIEWS shows ROWS and BYTES 0
  // until the next matching execution refreshes it.
  void OnBaseTableDml(const Catalog& catalog, const std::string& table,
                      const std::vector<Tuple>& inserted,
                      const std::vector<Tuple>& deleted);

  // DROP TABLE / DROP VIEW / LoadFrom invalidation.
  void InvalidateTable(const std::string& table);
  void InvalidateView(const std::string& name);
  void Clear();

  std::vector<MatViewInfo> Snapshot() const;
  size_t size() const;

  // Registry persistence (name, key, digest, pinned flag and query text
  // only — loaded entries come back stale and refresh on their next
  // execution; aliases are not persisted). Version-1 registries, written
  // before keys carried literal values, load with key = digest.
  Status SaveRegistry(Env* env, const std::string& path) const;
  Status LoadRegistry(Env* env, const std::string& path);

 private:
  struct Entry {
    std::string name;
    uint64_t key = 0;
    uint64_t digest = 0;
    std::string text;
    bool pinned = false;
    bool fresh = false;
    // Handed out as shared_ptr<const>; spliced in place only while this
    // is the sole owner (use_count() == 1 under mu_).
    std::shared_ptr<MatViewData> data;
    std::vector<std::string> aliases;  // oldest first, at most
                                       // kMaxAliasesPerEntry
    std::shared_ptr<qgm::QueryGraph> graph;
    // Delta-eligibility analysis (computed at Store time).
    std::set<std::string> tables;            // every referenced base table
    std::set<std::string> delta_ineligible;  // DML on these -> stale
    std::map<std::string, std::vector<int>> delta_outputs;  // table -> outputs
    int64_t hits = 0;
    int64_t delta_applies = 0;
    int64_t delta_rows = 0;
    int64_t full_refreshes = 0;
    int64_t fallbacks = 0;
    int64_t created_us = 0;
    int64_t refreshed_us = 0;
  };

  using EntryMap = std::map<uint64_t, Entry>;

  // Copies `e`'s answer and statement identity into `*out`.
  static void Fill(const Entry& e, ServeHandle* out);
  // Serves `e` into `*out` and counts the hit.
  void HitLocked(Entry& e, ServeHandle* out);
  // Erases an entry together with its aliases; returns the next iterator.
  EntryMap::iterator EraseLocked(EntryMap::iterator it);
  // Runs both delta passes for one entry; any error means "mark stale".
  Status ApplyDeltaLocked(const Catalog& catalog, Entry* e,
                          const std::string& table,
                          const std::vector<Tuple>& inserted,
                          const std::vector<Tuple>& deleted);
  void UpdateGaugesLocked();

  MatViewConfig config_;
  mutable std::mutex mu_;
  bool enabled_ = true;
  EntryMap entries_;  // by key
  std::unordered_map<std::string, uint64_t> aliases_;  // statement text -> key
  obs::MetricsRegistry* metrics_;
  obs::Counter* hits_;
  obs::Counter* misses_;
  obs::Counter* materializations_;
  obs::Counter* full_refreshes_;
  obs::Counter* delta_applies_;
  obs::Counter* delta_rows_;
  obs::Counter* fallbacks_;
  obs::Counter* rejects_;
  obs::Counter* invalidations_;
  obs::Gauge* count_gauge_;
  obs::Gauge* rows_gauge_;
  obs::Gauge* bytes_gauge_;
  obs::Gauge* stale_gauge_;
};

// SYS$MATVIEWS(NAME, DIGEST, STATE, PINNED, ROWS, BYTES, HITS,
//              DELTA_APPLIES, DELTA_ROWS, FULL_REFRESHES, FALLBACKS,
//              CREATED_US, REFRESHED_US) — one row per materialization.
std::unique_ptr<VirtualTableProvider> MakeMatViewsProvider(
    const MatViewStore* store);

}  // namespace xnfdb

#endif  // XNFDB_MATVIEW_MATVIEW_H_
