#include "parser/fingerprint.h"

#include <cstring>

#include "common/str_util.h"

namespace xnfdb {

namespace {

using ast::Expr;
using ast::SelectStmt;
using ast::TableRef;

// The literal values bound into one statement, in normalization order,
// encoded for hashing: a type tag, then the value's bytes (strings are
// length-prefixed so adjacent literals cannot run together).
class Bindings {
 public:
  void Add(const Value& v) {
    switch (v.type()) {
      case DataType::kNull:
        bytes_ += 'N';
        return;
      case DataType::kInt:
        AddTagged('I', v.AsInt());
        return;
      case DataType::kDouble: {
        const double d = v.AsDouble();
        int64_t bits = 0;
        std::memcpy(&bits, &d, sizeof(bits));
        AddTagged('D', bits);
        return;
      }
      case DataType::kBool:
        AddTagged('B', v.AsBool() ? 1 : 0);
        return;
      case DataType::kString:
        AddString('S', v.AsString());
        return;
    }
  }
  void AddString(char tag, const std::string& s) {
    AddTagged(tag, static_cast<int64_t>(s.size()));
    bytes_ += s;
  }
  void AddTagged(char tag, int64_t n) {
    bytes_ += tag;
    const uint64_t u = static_cast<uint64_t>(n);
    for (int shift = 0; shift < 64; shift += 8) {
      bytes_ += static_cast<char>((u >> shift) & 0xff);  // little-endian
    }
  }
  const std::string& bytes() const { return bytes_; }

 private:
  std::string bytes_;
};

std::string NormExpr(const Expr& e, Bindings* b);
std::string NormSelect(const SelectStmt& s, Bindings* b);

std::string NormTableRef(const TableRef& t, Bindings* b) {
  std::string p =
      t.subquery ? "(" + NormSelect(*t.subquery, b) + ")" : t.table;
  if (!t.alias.empty()) p += " " + t.alias;
  return p;
}

std::string NormExpr(const Expr& e, Bindings* b) {
  switch (e.kind) {
    case Expr::Kind::kLiteral:
      b->Add(static_cast<const ast::Literal&>(e).value);
      return "?";
    case Expr::Kind::kColumnRef: {
      const auto& c = static_cast<const ast::ColumnRef&>(e);
      return c.qualifier.empty() ? c.column : c.qualifier + "." + c.column;
    }
    case Expr::Kind::kBinary: {
      const auto& bin = static_cast<const ast::Binary&>(e);
      // Operands normalize in textual order, so literals bind in order.
      std::string lhs = NormExpr(*bin.lhs, b);
      return "(" + lhs + " " + bin.op + " " + NormExpr(*bin.rhs, b) + ")";
    }
    case Expr::Kind::kUnary: {
      const auto& u = static_cast<const ast::Unary&>(e);
      return u.op + " (" + NormExpr(*u.operand, b) + ")";
    }
    case Expr::Kind::kExists: {
      const auto& x = static_cast<const ast::Exists&>(e);
      return "EXISTS (" + NormSelect(*x.subquery, b) + ")";
    }
    case Expr::Kind::kInSubquery: {
      const auto& in = static_cast<const ast::InSubquery&>(e);
      std::string operand = NormExpr(*in.operand, b);
      return operand + (in.negated ? " NOT IN (" : " IN (") +
             NormSelect(*in.subquery, b) + ")";
    }
    case Expr::Kind::kLike: {
      const auto& l = static_cast<const ast::Like&>(e);
      // The pattern is a constant: normalize like any other literal.
      std::string operand = NormExpr(*l.operand, b);
      b->AddString('L', l.pattern);
      return operand + (l.negated ? " NOT LIKE ?" : " LIKE ?");
    }
    case Expr::Kind::kFuncCall: {
      const auto& f = static_cast<const ast::FuncCall&>(e);
      if (f.args.empty()) return f.name + "(*)";
      std::string s = f.name + "(";
      for (size_t i = 0; i < f.args.size(); ++i) {
        if (i > 0) s += ", ";
        s += NormExpr(*f.args[i], b);
      }
      return s + ")";
    }
  }
  return "?";
}

std::string NormSelect(const SelectStmt& s, Bindings* b) {
  std::string out = "SELECT ";
  if (s.distinct) out += "DISTINCT ";
  std::vector<std::string> parts;
  for (const ast::SelectItem& item : s.items) {
    if (item.is_star) {
      parts.push_back(item.star_qualifier.empty()
                          ? "*"
                          : item.star_qualifier + ".*");
    } else {
      std::string p = NormExpr(*item.expr, b);
      if (!item.alias.empty()) p += " AS " + item.alias;
      parts.push_back(std::move(p));
    }
  }
  out += Join(parts, ", ");
  if (!s.from.empty()) {
    parts.clear();
    for (const TableRef& t : s.from) parts.push_back(NormTableRef(t, b));
    out += " FROM " + Join(parts, ", ");
  }
  if (s.where) out += " WHERE " + NormExpr(*s.where, b);
  if (!s.group_by.empty()) {
    parts.clear();
    for (const ast::ExprPtr& g : s.group_by) {
      parts.push_back(NormExpr(*g, b));
    }
    out += " GROUP BY " + Join(parts, ", ");
  }
  if (s.having) out += " HAVING " + NormExpr(*s.having, b);
  if (!s.order_by.empty()) {
    parts.clear();
    for (const ast::OrderItem& o : s.order_by) {
      parts.push_back(NormExpr(*o.expr, b) + (o.descending ? " DESC" : ""));
    }
    out += " ORDER BY " + Join(parts, ", ");
  }
  // LIMIT/OFFSET constants are normalized like literals: paging through a
  // result set is one shape, not one per page.
  if (s.limit >= 0) {
    out += " LIMIT ?";
    b->AddTagged('I', s.limit);
  }
  if (s.offset > 0) {
    out += " OFFSET ?";
    b->AddTagged('I', s.offset);
  }
  if (s.union_next) {
    out += s.union_all ? " UNION ALL " : " UNION ";
    out += NormSelect(*s.union_next, b);
  }
  return out;
}

std::string NormXnf(const ast::XnfQuery& q, Bindings* b) {
  std::string out = "OUT OF ";
  std::vector<std::string> parts;
  for (const ast::XnfDef& def : q.defs) {
    std::string p = def.name + " AS ";
    if (def.free_reachability) p += "FREE ";
    if (def.kind == ast::XnfDef::Kind::kTable) {
      if (def.select) {
        p += "(" + NormSelect(*def.select, b) + ")";
      } else if (!def.view_ref.empty()) {
        p += def.view_ref + "." + def.view_component;
      } else {
        p += def.base_table;
      }
    } else {
      p += "(RELATE " + def.relate.parent + " VIA " + def.relate.role;
      for (const std::string& child : def.relate.children) p += ", " + child;
      if (!def.relate.using_tables.empty()) {
        std::vector<std::string> using_parts;
        for (const TableRef& t : def.relate.using_tables) {
          using_parts.push_back(NormTableRef(t, b));
        }
        p += " USING " + Join(using_parts, ", ");
      }
      if (def.relate.where) p += " WHERE " + NormExpr(*def.relate.where, b);
      p += ")";
    }
    parts.push_back(std::move(p));
  }
  out += Join(parts, ", ");
  out += " TAKE ";
  if (q.take_all) {
    out += "*";
  } else {
    parts.clear();
    for (const ast::TakeItem& item : q.take) {
      std::string p = item.name;
      if (!item.columns.empty()) p += "(" + Join(item.columns, ", ") + ")";
      parts.push_back(std::move(p));
    }
    out += Join(parts, ", ");
  }
  return out;
}

std::string NormStatement(const ast::Statement& stmt, Bindings* b) {
  using Kind = ast::Statement::Kind;
  switch (stmt.kind) {
    case Kind::kSelect:
      return NormSelect(*static_cast<const ast::SelectStatement&>(stmt).select,
                        b);
    case Kind::kXnfQuery:
      return NormXnf(*static_cast<const ast::XnfStatement&>(stmt).query, b);
    case Kind::kCreateTable: {
      const auto& s = static_cast<const ast::CreateTableStatement&>(stmt);
      std::string out = "CREATE TABLE " + s.name + " (";
      std::vector<std::string> parts;
      for (const Column& col : s.columns) {
        parts.push_back(col.name + " " + DataTypeName(col.type));
      }
      out += Join(parts, ", ") + ")";
      return out;
    }
    case Kind::kCreateView: {
      const auto& s = static_cast<const ast::CreateViewStatement&>(stmt);
      std::string body =
          s.is_xnf ? NormXnf(*s.xnf, b) : NormSelect(*s.select, b);
      return "CREATE VIEW " + s.name + " AS " + body;
    }
    case Kind::kCreateIndex: {
      const auto& s = static_cast<const ast::CreateIndexStatement&>(stmt);
      return std::string("CREATE ") + (s.ordered ? "ORDERED " : "") +
             "INDEX ON " + s.table + "(" + s.column + ")";
    }
    case Kind::kInsert: {
      const auto& s = static_cast<const ast::InsertStatement&>(stmt);
      // One `?` per column of the first row; the row count is elided so a
      // bulk INSERT keeps one shape regardless of batch size.
      size_t arity = s.rows.empty() ? 0 : s.rows.front().size();
      std::string out = "INSERT INTO " + s.table + " VALUES (";
      for (size_t i = 0; i < arity; ++i) {
        if (i > 0) out += ", ";
        out += "?";
      }
      return out + ")";
    }
    case Kind::kUpdate: {
      const auto& s = static_cast<const ast::UpdateStatement&>(stmt);
      std::string out = "UPDATE " + s.table + " SET ";
      std::vector<std::string> parts;
      for (const auto& [col, expr] : s.assignments) {
        parts.push_back(col + " = " + NormExpr(*expr, b));
      }
      out += Join(parts, ", ");
      if (s.where) out += " WHERE " + NormExpr(*s.where, b);
      return out;
    }
    case Kind::kDelete: {
      const auto& s = static_cast<const ast::DeleteStatement&>(stmt);
      std::string out = "DELETE FROM " + s.table;
      if (s.where) out += " WHERE " + NormExpr(*s.where, b);
      return out;
    }
    case Kind::kDropTable:
      return "DROP TABLE " + static_cast<const ast::DropStatement&>(stmt).name;
    case Kind::kDropView:
      return "DROP VIEW " + static_cast<const ast::DropStatement&>(stmt).name;
    case Kind::kMaterialize:
      return "MATERIALIZE " +
             static_cast<const ast::MaterializeStatement&>(stmt).name;
    case Kind::kDematerialize:
      return "DEMATERIALIZE " +
             static_cast<const ast::MaterializeStatement&>(stmt).name;
  }
  return "?";
}

uint64_t FnvExtend(uint64_t h, const std::string& s) {
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

Fingerprint Finish(std::string text, const Bindings& bindings) {
  Fingerprint fp;
  fp.digest = FingerprintHash(text);
  fp.key = FnvExtend(fp.digest, bindings.bytes());
  fp.text = std::move(text);
  return fp;
}

}  // namespace

uint64_t FingerprintHash(const std::string& s) {
  return FnvExtend(14695981039346656037ull, s);  // FNV-1a 64 offset basis
}

Fingerprint FingerprintSelect(const ast::SelectStmt& select) {
  Bindings b;
  std::string text = NormSelect(select, &b);
  return Finish(std::move(text), b);
}

Fingerprint FingerprintXnf(const ast::XnfQuery& query) {
  Bindings b;
  std::string text = NormXnf(query, &b);
  return Finish(std::move(text), b);
}

Fingerprint FingerprintStatement(const ast::Statement& stmt) {
  Bindings b;
  std::string text = NormStatement(stmt, &b);
  return Finish(std::move(text), b);
}

}  // namespace xnfdb
