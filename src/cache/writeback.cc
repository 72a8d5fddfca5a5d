#include "cache/writeback.h"

#include <charconv>
#include <chrono>
#include <cmath>
#include <functional>
#include <set>
#include <sstream>
#include <thread>

#include "common/crc32.h"
#include "common/str_util.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace xnfdb {

std::string SqlLiteral(const Value& v) {
  if (v.type() == DataType::kDouble) {
    // Shortest digits that read back as the same double, always spelled as
    // a DOUBLE literal (45000.0, not the INTEGER 45000).
    char buf[32];
    const std::to_chars_result r =
        std::to_chars(buf, buf + sizeof(buf), v.AsDouble());
    std::string out(buf, r.ptr);
    if (out.find_first_of(".en") == std::string::npos) out += ".0";
    return out;
  }
  if (v.type() != DataType::kString) return v.ToString();
  std::string out = "'";
  for (char c : v.AsString()) {
    if (c == '\'') out += '\'';  // quote doubling
    out += c;
  }
  out += "'";
  return out;
}

namespace {

// The SQL dialect has no literal for an infinite or NaN DOUBLE, so a row
// holding one cannot be written back.
Status CheckFinite(const ComponentTable& comp, const Tuple& values) {
  for (size_t c = 0; c < values.size(); ++c) {
    const Value& v = values[c];
    if (v.type() == DataType::kDouble && !std::isfinite(v.AsDouble())) {
      return Status::InvalidArgument(
          "component " + comp.name() + " column " +
          comp.schema().column(c).name + " holds " + v.ToString() +
          ", which has no SQL literal; write-back needs a finite value");
    }
  }
  return Status::Ok();
}

}  // namespace

const ast::XnfDef* WriteBackPlanner::FindDef(const std::string& name) const {
  for (const ast::XnfDef& def : definition_->defs) {
    if (IdentEquals(def.name, name)) return &def;
  }
  return nullptr;
}

Result<ComponentPlan> WriteBackPlanner::AnalyzeComponent(
    const ComponentTable& component) {
  ComponentPlan plan;
  plan.component = component.name();
  const ast::XnfDef* def = FindDef(component.name());
  if (def == nullptr || def->kind != ast::XnfDef::Kind::kTable) {
    plan.reason = "no component-table definition found";
    return plan;
  }

  // Determine the base table and the select-list mapping.
  std::string base_table;
  // base column name per selected output column; empty vector = identity.
  std::vector<std::string> select_map;
  if (!def->base_table.empty()) {
    base_table = def->base_table;
  } else {
    const ast::SelectStmt& sel = *def->select;
    if (sel.from.size() != 1 || sel.from[0].subquery != nullptr) {
      plan.reason =
          "component view joins several tables; join views are not "
          "updatable (Sect. 2)";
      return plan;
    }
    if (sel.distinct || !sel.group_by.empty()) {
      plan.reason = "component view uses DISTINCT/GROUP BY";
      return plan;
    }
    base_table = sel.from[0].table;
    bool star_only = true;
    for (const ast::SelectItem& item : sel.items) {
      if (!item.is_star) star_only = false;
    }
    if (!star_only) {
      for (const ast::SelectItem& item : sel.items) {
        if (item.is_star) {
          plan.reason = "mixed '*' and explicit select list";
          return plan;
        }
        if (item.expr->kind != ast::Expr::Kind::kColumnRef) {
          plan.reason = "computed select-list column '" +
                        item.expr->ToString() + "' is not updatable";
          return plan;
        }
        select_map.push_back(
            static_cast<const ast::ColumnRef&>(*item.expr).column);
      }
    }
  }

  Result<Table*> base = db_->catalog().GetTable(base_table);
  if (!base.ok()) {
    plan.reason = "base table " + base_table + " not found";
    return plan;
  }
  plan.base_table = base.value()->name();
  const Schema& base_schema = base.value()->schema();

  // Map each cached (projected) column to a base column.
  for (size_t i = 0; i < component.schema().size(); ++i) {
    const std::string& cached_name = component.schema().column(i).name;
    std::string base_name = cached_name;
    if (!select_map.empty()) {
      // The cached name is the select-list output name; find its source.
      int found = -1;
      const ast::SelectStmt& sel = *def->select;
      for (size_t si = 0; si < sel.items.size(); ++si) {
        const ast::SelectItem& item = sel.items[si];
        std::string out_name =
            !item.alias.empty()
                ? item.alias
                : static_cast<const ast::ColumnRef&>(*item.expr).column;
        if (IdentEquals(out_name, cached_name)) {
          found = static_cast<int>(si);
          break;
        }
      }
      if (found < 0) {
        plan.reason = "cached column " + cached_name +
                      " not traceable to a base column";
        return plan;
      }
      base_name = select_map[found];
    }
    int base_col = base_schema.FindColumn(base_name);
    if (base_col < 0) {
      plan.reason = "cached column " + cached_name + " has no base column";
      return plan;
    }
    plan.column_map.push_back(base_col);
  }

  int pk = db_->catalog().PrimaryKeyColumn(plan.base_table);
  if (pk >= 0) {
    for (size_t i = 0; i < plan.column_map.size(); ++i) {
      if (plan.column_map[i] == pk) plan.key_cached_col = static_cast<int>(i);
    }
  }
  plan.updatable = true;
  return plan;
}

namespace {

// Matches `qualifier.column` column references.
const ast::ColumnRef* AsColRef(const ast::Expr& e) {
  if (e.kind != ast::Expr::Kind::kColumnRef) return nullptr;
  return static_cast<const ast::ColumnRef*>(&e);
}

// Collects the top-level equality conjuncts of a predicate.
void CollectEqualities(const ast::Expr* e,
                       std::vector<const ast::Binary*>* out, bool* clean) {
  if (e == nullptr) return;
  if (e->kind == ast::Expr::Kind::kBinary) {
    const auto& b = static_cast<const ast::Binary&>(*e);
    if (b.op == "AND") {
      CollectEqualities(b.lhs.get(), out, clean);
      CollectEqualities(b.rhs.get(), out, clean);
      return;
    }
    if (b.op == "=") {
      out->push_back(&b);
      return;
    }
  }
  *clean = false;  // predicate beyond a conjunction of equalities
}

}  // namespace

Result<RelationshipPlan> WriteBackPlanner::AnalyzeRelationship(
    const Relationship& rel, Workspace* workspace) {
  RelationshipPlan plan;
  plan.relationship = rel.name();
  const ast::XnfDef* def = FindDef(rel.name());
  if (def == nullptr || def->kind != ast::XnfDef::Kind::kRelationship) {
    plan.reason = "no relationship definition found";
    return plan;
  }
  const ast::RelateDef& rd = def->relate;
  if (rd.children.size() != 1) {
    plan.reason = "n-ary relationships are not updatable";
    return plan;
  }

  // Partner component plans give us base tables and cached key columns.
  XNFDB_ASSIGN_OR_RETURN(ComponentTable * parent_comp,
                         workspace->component(rd.parent));
  XNFDB_ASSIGN_OR_RETURN(ComponentTable * child_comp,
                         workspace->component(rd.children[0]));
  XNFDB_ASSIGN_OR_RETURN(ComponentPlan parent_plan,
                         AnalyzeComponent(*parent_comp));
  XNFDB_ASSIGN_OR_RETURN(ComponentPlan child_plan,
                         AnalyzeComponent(*child_comp));
  if (!parent_plan.updatable || !child_plan.updatable) {
    plan.reason = "partner component is not updatable";
    return plan;
  }

  bool clean = true;
  std::vector<const ast::Binary*> eqs;
  CollectEqualities(rd.where.get(), &eqs, &clean);
  if (!clean) {
    plan.reason =
        "relationship predicate is richer than a conjunction of "
        "equalities; not updatable (Sect. 2)";
    return plan;
  }

  // Resolves a qualifier to parent/child/using. In a self-relationship
  // (RELATE xpart VIA USES, xpart) the role names the parent and the bare
  // component name the child.
  const bool self_rel =
      !rd.role.empty() && IdentEquals(rd.parent, rd.children[0]);
  auto side_of = [&](const std::string& qualifier) -> int {
    if ((!self_rel && IdentEquals(qualifier, rd.parent)) ||
        (!rd.role.empty() && IdentEquals(qualifier, rd.role))) {
      return 0;  // parent
    }
    if (IdentEquals(qualifier, rd.children[0])) return 1;  // child
    for (const ast::TableRef& u : rd.using_tables) {
      if (IdentEquals(qualifier, u.BindingName())) return 2;  // connect table
    }
    return -1;
  };
  auto cached_col = [](const ComponentTable& comp,
                       const std::string& name) -> int {
    return comp.schema().FindColumn(name);
  };

  if (rd.using_tables.empty()) {
    // Foreign-key form: parent.key = child.fk
    if (eqs.size() != 1) {
      plan.reason = "foreign-key relationship needs exactly one equality";
      return plan;
    }
    const ast::ColumnRef* a = AsColRef(*eqs[0]->lhs);
    const ast::ColumnRef* b = AsColRef(*eqs[0]->rhs);
    if (a == nullptr || b == nullptr) {
      plan.reason = "relationship predicate is not column = column";
      return plan;
    }
    const ast::ColumnRef* parent_ref = nullptr;
    const ast::ColumnRef* child_ref = nullptr;
    for (const ast::ColumnRef* ref : {a, b}) {
      int side = side_of(ref->qualifier);
      if (side == 0) parent_ref = ref;
      if (side == 1) child_ref = ref;
    }
    if (parent_ref == nullptr || child_ref == nullptr) {
      plan.reason = "predicate does not relate parent to child";
      return plan;
    }
    // The FK must be declared on the child column (paper: "edno in EMP is a
    // foreign key").
    const ForeignKey* fk = db_->catalog().FindForeignKey(
        child_plan.base_table, child_ref->column);
    if (fk == nullptr) {
      plan.reason = "no declared foreign key on " + child_plan.base_table +
                    "." + child_ref->column;
      return plan;
    }
    plan.kind = RelationshipPlan::Kind::kForeignKey;
    plan.child_base = child_plan.base_table;
    plan.child_fk_column = ToUpperIdent(child_ref->column);
    plan.parent_key_cached_col = cached_col(*parent_comp, parent_ref->column);
    plan.child_key_cached_col = child_plan.key_cached_col;
    if (plan.child_key_cached_col >= 0) {
      int base_col = child_plan.column_map[plan.child_key_cached_col];
      Result<Table*> base = db_->catalog().GetTable(child_plan.base_table);
      plan.child_key_base_column =
          base.value()->schema().column(base_col).name;
    }
    if (plan.parent_key_cached_col < 0 || plan.child_key_cached_col < 0) {
      plan.kind = RelationshipPlan::Kind::kNotUpdatable;
      plan.reason = "key columns are projected out of the cache";
      return plan;
    }
    return plan;
  }

  // Connect-table form: parent.key = ct.c1 AND ct.c2 = child.key.
  if (rd.using_tables.size() != 1 || eqs.size() != 2) {
    plan.reason = "connect-table relationship needs one USING table and "
                  "two equalities";
    return plan;
  }
  std::string ct_table = rd.using_tables[0].table;
  for (const ast::Binary* eq : eqs) {
    const ast::ColumnRef* a = AsColRef(*eq->lhs);
    const ast::ColumnRef* b = AsColRef(*eq->rhs);
    if (a == nullptr || b == nullptr) {
      plan.reason = "connect-table predicate is not column = column";
      return plan;
    }
    const ast::ColumnRef* ct_ref = nullptr;
    const ast::ColumnRef* other = nullptr;
    if (side_of(a->qualifier) == 2) {
      ct_ref = a;
      other = b;
    } else if (side_of(b->qualifier) == 2) {
      ct_ref = b;
      other = a;
    } else {
      plan.reason = "equality does not involve the connect table";
      return plan;
    }
    int other_side = side_of(other->qualifier);
    if (other_side == 0) {
      plan.ct_parent_column = ToUpperIdent(ct_ref->column);
      plan.ct_parent_cached_col = cached_col(*parent_comp, other->column);
    } else if (other_side == 1) {
      plan.ct_child_column = ToUpperIdent(ct_ref->column);
      plan.ct_child_cached_col = cached_col(*child_comp, other->column);
    } else {
      plan.reason = "equality does not relate the connect table to a partner";
      return plan;
    }
  }
  if (plan.ct_parent_column.empty() || plan.ct_child_column.empty() ||
      plan.ct_parent_cached_col < 0 || plan.ct_child_cached_col < 0) {
    plan.reason = "connect-table mapping incomplete (projected-out keys?)";
    return plan;
  }
  plan.kind = RelationshipPlan::Kind::kConnectTable;
  plan.connect_table = ToUpperIdent(ct_table);
  return plan;
}

Result<std::vector<std::string>> WriteBackPlanner::Plan(
    Workspace* workspace) {
  std::vector<std::string> statements;
  auto run = [&](const std::string& sql) -> Status {
    statements.push_back(sql);
    return Status::Ok();
  };

  // Builds the WHERE clause addressing one cached row in its base table.
  auto row_predicate = [&](const ComponentPlan& plan, const CachedRow* row,
                           const Table& base) -> std::string {
    const Tuple& addr = row->dirty ? row->original : row->values;
    if (plan.key_cached_col >= 0) {
      return base.schema()
                 .column(plan.column_map[plan.key_cached_col])
                 .name +
             " = " + SqlLiteral(addr[plan.key_cached_col]);
    }
    std::string where;
    for (size_t i = 0; i < plan.column_map.size(); ++i) {
      if (!where.empty()) where += " AND ";
      where += base.schema().column(plan.column_map[i]).name + " = " +
               SqlLiteral(addr[i]);
    }
    return where;
  };

  // Component changes. Only components with pending rows must be
  // updatable; only pending rows are visited, in row order.
  std::vector<std::vector<CachedRow*>> pending_rows(
      workspace->component_count());
  for (size_t ci = 0; ci < workspace->component_count(); ++ci) {
    ComponentTable* comp = workspace->component(ci);
    pending_rows[ci] = comp->PendingRows();
    if (pending_rows[ci].empty()) continue;

    XNFDB_ASSIGN_OR_RETURN(ComponentPlan plan, AnalyzeComponent(*comp));
    if (!plan.updatable) {
      return Status::InvalidArgument("component " + comp->name() +
                                     " is not updatable: " + plan.reason);
    }
    XNFDB_ASSIGN_OR_RETURN(Table * base,
                           db_->catalog().GetTable(plan.base_table));

    for (const CachedRow* row : pending_rows[ci]) {
      // The statements spell a live row's values and an existing row's
      // base-table address.
      if (!row->deleted) XNFDB_RETURN_IF_ERROR(CheckFinite(*comp, row->values));
      if (!row->inserted) {
        XNFDB_RETURN_IF_ERROR(
            CheckFinite(*comp, row->dirty ? row->original : row->values));
      }
      if (row->inserted && !row->deleted) {
        // INSERT: full base row, NULL for columns outside the cache.
        std::vector<std::string> values(base->schema().size(), "NULL");
        for (size_t c = 0; c < plan.column_map.size(); ++c) {
          values[plan.column_map[c]] = SqlLiteral(row->values[c]);
        }
        XNFDB_RETURN_IF_ERROR(run("INSERT INTO " + plan.base_table +
                                  " VALUES (" + Join(values, ", ") + ")"));
      } else if (row->dirty && !row->deleted && !row->inserted) {
        std::vector<std::string> sets;
        for (size_t c = 0; c < plan.column_map.size(); ++c) {
          if (!(row->values[c] == row->original[c])) {
            sets.push_back(base->schema().column(plan.column_map[c]).name +
                           " = " + SqlLiteral(row->values[c]));
          }
        }
        if (sets.empty()) continue;
        XNFDB_RETURN_IF_ERROR(run("UPDATE " + plan.base_table + " SET " +
                                  Join(sets, ", ") + " WHERE " +
                                  row_predicate(plan, row, *base)));
      }
    }
  }

  // Connects / disconnects.
  for (size_t ri = 0; ri < workspace->relationship_count(); ++ri) {
    Relationship* rel = workspace->relationship(ri);
    const std::vector<CachedConnection*> pending = rel->PendingConnections();
    if (pending.empty()) continue;

    XNFDB_ASSIGN_OR_RETURN(RelationshipPlan plan,
                           AnalyzeRelationship(*rel, workspace));
    if (plan.kind == RelationshipPlan::Kind::kNotUpdatable) {
      return Status::InvalidArgument("relationship " + rel->name() +
                                     " is not updatable: " + plan.reason);
    }
    for (const CachedConnection* conn : pending) {
      if (conn->inserted == conn->deleted) continue;  // net no-op
      const CachedRow* parent = conn->partners[0];
      const CachedRow* child = conn->partners[1];
      if (plan.kind == RelationshipPlan::Kind::kForeignKey) {
        if (conn->inserted) {
          XNFDB_RETURN_IF_ERROR(
              run("UPDATE " + plan.child_base + " SET " +
                  plan.child_fk_column + " = " +
                  SqlLiteral(parent->values[plan.parent_key_cached_col]) +
                  " WHERE " + plan.child_key_base_column + " = " +
                  SqlLiteral(child->values[plan.child_key_cached_col])));
        } else {
          XNFDB_RETURN_IF_ERROR(
              run("UPDATE " + plan.child_base + " SET " +
                  plan.child_fk_column + " = NULL WHERE " +
                  plan.child_key_base_column + " = " +
                  SqlLiteral(child->values[plan.child_key_cached_col])));
        }
      } else {  // connect table
        Result<Table*> ct = db_->catalog().GetTable(plan.connect_table);
        if (!ct.ok()) return ct.status();
        std::string parent_value =
            SqlLiteral(parent->values[plan.ct_parent_cached_col]);
        std::string child_value =
            SqlLiteral(child->values[plan.ct_child_cached_col]);
        if (conn->inserted) {
          std::vector<std::string> values(ct.value()->schema().size(),
                                          "NULL");
          int pc = ct.value()->schema().FindColumn(plan.ct_parent_column);
          int cc = ct.value()->schema().FindColumn(plan.ct_child_column);
          values[pc] = parent_value;
          values[cc] = child_value;
          XNFDB_RETURN_IF_ERROR(run("INSERT INTO " + plan.connect_table +
                                    " VALUES (" + Join(values, ", ") + ")"));
        } else {
          XNFDB_RETURN_IF_ERROR(run("DELETE FROM " + plan.connect_table +
                                    " WHERE " + plan.ct_parent_column +
                                    " = " + parent_value + " AND " +
                                    plan.ct_child_column + " = " +
                                    child_value));
        }
      }
    }
  }

  // Row deletes last (their connections were handled above).
  for (size_t ci = 0; ci < workspace->component_count(); ++ci) {
    ComponentTable* comp = workspace->component(ci);
    for (const CachedRow* row : pending_rows[ci]) {
      if (!row->deleted || row->inserted || row->deleted_synced) continue;
      XNFDB_ASSIGN_OR_RETURN(ComponentPlan plan, AnalyzeComponent(*comp));
      if (!plan.updatable) {
        return Status::InvalidArgument("component " + comp->name() +
                                       " is not updatable: " + plan.reason);
      }
      XNFDB_ASSIGN_OR_RETURN(Table * base,
                             db_->catalog().GetTable(plan.base_table));
      XNFDB_RETURN_IF_ERROR(run("DELETE FROM " + plan.base_table + " WHERE " +
                                row_predicate(plan, row, *base)));
    }
  }

  return statements;
}

namespace {

constexpr char kJournalMagic[] = "XNFJOURNAL 1";

// xorshift64: tiny PRNG for backoff jitter. State must be non-zero.
uint64_t NextJitter(uint64_t* state) {
  uint64_t x = *state;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  *state = x;
  return x;
}

// Runs `op`, retrying transient kIoError failures up to `max_retries` extra
// times with exponential backoff. Other error codes are not retried.
// Each sleep is "equal jitter": half the exponential delay guaranteed, the
// other half drawn uniformly, so many callers retrying off one shared fault
// spread out instead of synchronizing. Every retry counts under
// writeback.retries (with the milliseconds actually slept under
// writeback.backoff_ms); an operation that stays failed after the last
// retry counts under writeback.failures.
Status RetryTransient(const WriteBackOptions& options,
                      const std::function<Status()>& op) {
  static obs::Counter* retries =
      obs::MetricsRegistry::Default().GetCounter("writeback.retries");
  static obs::Counter* failures =
      obs::MetricsRegistry::Default().GetCounter("writeback.failures");
  static obs::Counter* backoff_total =
      obs::MetricsRegistry::Default().GetCounter("writeback.backoff_ms");
  Status status = op();
  uint64_t rng = options.jitter_seed != 0
                     ? options.jitter_seed
                     : static_cast<uint64_t>(std::chrono::steady_clock::now()
                                                 .time_since_epoch()
                                                 .count()) |
                           1;
  int backoff_ms = options.backoff_initial_ms;
  for (int attempt = 0;
       attempt < options.max_retries && !status.ok() &&
       status.code() == StatusCode::kIoError;
       ++attempt) {
    if (backoff_ms > 0) {
      const int half = backoff_ms / 2;
      const int sleep_ms =
          backoff_ms - half +
          (half > 0 ? static_cast<int>(NextJitter(&rng) %
                                       static_cast<uint64_t>(half + 1))
                    : 0);
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
      backoff_total->Increment(sleep_ms);
    }
    backoff_ms *= 2;
    retries->Increment();
    obs::FlightRecorder::Default().Record("writeback", "warn",
                                          "transient failure, retrying",
                                          status.message());
    status = op();
  }
  if (!status.ok()) {
    failures->Increment();
    obs::FlightRecorder::Default().Record("writeback", "error",
                                          "operation failed after retries",
                                          status.message());
  }
  return status;
}

// Journal file: magic, statement count + payload CRC, then one
// length-prefixed statement per line.
std::string RenderJournal(const std::vector<std::string>& statements) {
  std::ostringstream payload;
  for (const std::string& sql : statements) {
    payload << sql.size() << " " << sql << "\n";
  }
  std::ostringstream out;
  out << kJournalMagic << "\n"
      << "STATEMENTS " << statements.size() << " "
      << Crc32Hex(Crc32(payload.str())) << "\n"
      << payload.str() << "END\n";
  return out.str();
}

}  // namespace

Result<std::vector<std::string>> LoadWriteBackJournal(const std::string& path,
                                                      Env* env) {
  if (env == nullptr) env = Env::Default();
  std::string contents;
  XNFDB_RETURN_IF_ERROR(env->ReadFileToString(path, &contents));
  std::istringstream in(contents);
  std::string line;
  if (!std::getline(in, line) || line != kJournalMagic) {
    return Status::IoError("bad write-back journal magic");
  }
  std::string word, crc_hex;
  size_t count;
  if (!(in >> word >> count >> crc_hex) || word != "STATEMENTS") {
    return Status::IoError("malformed journal header");
  }
  in.get();  // newline after the header
  std::istream::pos_type payload_start = in.tellg();
  std::vector<std::string> statements;
  for (size_t i = 0; i < count; ++i) {
    size_t len;
    if (!(in >> len)) return Status::IoError("truncated journal");
    in.get();  // the separating space
    int64_t remaining = StreamRemainingBytes(in);
    if (remaining >= 0 && static_cast<int64_t>(len) > remaining) {
      return Status::IoError("journal statement length " +
                             std::to_string(len) + " exceeds file size");
    }
    std::string sql(len, '\0');
    in.read(sql.data(), static_cast<std::streamsize>(len));
    if (static_cast<size_t>(in.gcount()) != len) {
      return Status::IoError("truncated journal statement");
    }
    if (in.get() != '\n') {
      return Status::IoError("malformed journal statement framing");
    }
    statements.push_back(std::move(sql));
  }
  std::istream::pos_type payload_end = in.tellg();
  // eof() after a successful getline means the trailing newline is missing.
  if (!std::getline(in, line) || line != "END" || in.eof()) {
    return Status::IoError("journal missing END terminator");
  }
  if (in.peek() != std::char_traits<char>::eof()) {
    return Status::IoError("trailing data after journal END terminator");
  }
  std::string_view payload(contents.data() + payload_start,
                           static_cast<size_t>(payload_end - payload_start));
  uint32_t crc = Crc32(payload);
  if (Crc32Hex(crc) != crc_hex) {
    return Status::IoError("journal CRC mismatch");
  }
  return statements;
}

Result<std::vector<std::string>> WriteBackPlanner::Apply(
    Workspace* workspace) {
  XNFDB_ASSIGN_OR_RETURN(std::vector<std::string> statements,
                         Plan(workspace));
  Env* env = options_.env != nullptr ? options_.env : Env::Default();

  // 1. Journal the batch before touching the server, so a failure at any
  //    later point leaves a durable record of the intended statements
  //    alongside the still-pending workspace marks.
  if (!options_.journal_path.empty()) {
    const std::string journal = RenderJournal(statements);
    XNFDB_RETURN_IF_ERROR(RetryTransient(options_, [&] {
      return AtomicallyWriteFile(env, options_.journal_path, journal);
    }));
  }

  // 2. Execute, absorbing transient server failures with bounded retry.
  for (const std::string& sql : statements) {
    XNFDB_RETURN_IF_ERROR(RetryTransient(options_, [&]() -> Status {
      Result<Database::Outcome> r = db_->Execute(sql);
      return r.ok() ? Status::Ok() : r.status();
    }));
  }

  // 3. Commit locally, then retire the journal. Removal failure leaves a
  //    stale journal of already-applied statements behind; surface it
  //    (marks are already cleared, so a retry will not double-apply).
  workspace->ClearPendingChanges();
  if (!options_.journal_path.empty()) {
    Status removed = RetryTransient(
        options_, [&] { return env->RemoveFile(options_.journal_path); });
    if (!removed.ok()) {
      return Status::IoError(
          "write-back applied, but stale journal could not be removed: " +
          removed.message());
    }
  }
  return statements;
}

}  // namespace xnfdb
