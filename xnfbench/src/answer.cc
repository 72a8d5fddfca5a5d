#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <unordered_map>

#include "bench.h"
#include "cache/cursor.h"
#include "cache/writeback.h"
#include "parser/parser.h"

namespace xnfbench {

namespace {

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t ValueHash(const Value& v) {
  switch (v.type()) {
    case xnfdb::DataType::kNull:
      return 0x6e756c6cULL;
    case xnfdb::DataType::kInt:
      return Mix(static_cast<uint64_t>(v.AsInt()) ^ 0x1);
    case xnfdb::DataType::kDouble: {
      // Numbers compare by SQL value: an integral DOUBLE hashes like the
      // INTEGER of the same value. Write-back renders a DOUBLE through
      // Value::ToString, so the written column holds 45000, not 45000.0.
      double d = v.AsDouble();
      if (d == std::trunc(d) && std::fabs(d) < 9.0e15) {
        return Mix(static_cast<uint64_t>(static_cast<int64_t>(d)) ^ 0x1);
      }
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      return Mix(bits ^ 0x2);
    }
    case xnfdb::DataType::kString: {
      uint64_t h = 0xcbf29ce484222325ULL;
      for (unsigned char c : v.AsString()) h = (h ^ c) * 0x100000001b3ULL;
      return Mix(h ^ 0x3);
    }
    case xnfdb::DataType::kBool:
      return Mix(static_cast<uint64_t>(v.AsBool()) ^ 0x4);
  }
  return 0;
}

// Hash of a connection: its partner rows' hashes, parent first.
uint64_t LinkHash(const std::vector<uint64_t>& partner_hashes) {
  uint64_t h = 0x6c696e6bULL;
  for (uint64_t p : partner_hashes) h = Mix(h * 31 + p);
  return h;
}

void AddTo(Digest* d, const std::string& name, uint64_t h) {
  auto& part = d->parts[Upper(name)];
  ++part.first;
  part.second += Mix(h);
}

std::string SqlValue(const Value& v) {
  if (v.type() == xnfdb::DataType::kDouble) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.1f", v.AsDouble());
    return buf;
  }
  if (v.type() == xnfdb::DataType::kString) return "'" + v.AsString() + "'";
  return v.ToString();
}

std::string SqlRow(const Tuple& row) {
  std::string s = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) s += ", ";
    s += SqlValue(row[i]);
  }
  return s + ")";
}

}  // namespace

const char* OpClassName(OpClass c) {
  switch (c) {
    case OpClass::kQuery: return "query";
    case OpClass::kDml: return "dml";
    case OpClass::kLoad: return "load";
    case OpClass::kTraverse: return "traverse";
    case OpClass::kWriteback: return "writeback";
    case OpClass::kLookup: return "lookup";
  }
  return "?";
}

uint64_t HashOps(const std::vector<Op>& ops) {
  uint64_t h = 0;
  for (const Op& op : ops) {
    h = Mix(h ^ static_cast<uint64_t>(op.cls));
    h = Mix(h ^ static_cast<uint64_t>(op.kind));
    h = Mix(h ^ static_cast<uint64_t>(op.a));
    h = Mix(h ^ static_cast<uint64_t>(op.b));
    h = Mix(h ^ static_cast<uint64_t>(op.c));
    for (int64_t k : op.keys) h = Mix(h ^ static_cast<uint64_t>(k));
    h = Mix(h ^ ValueHash(Value(op.sql)));
  }
  return h;
}

uint64_t RowHash(const Tuple& row) {
  uint64_t h = 0x726f77ULL + row.size();
  for (const Value& v : row) h = Mix(h * 31 + ValueHash(v));
  return h;
}

std::string Digest::Diff(const Digest& expected) const {
  for (const auto& [name, want] : expected.parts) {
    auto it = parts.find(name);
    if (it == parts.end()) return "output " + name + " missing";
    if (it->second.first != want.first) {
      return "output " + name + ": " + std::to_string(it->second.first) +
             " items, expected " + std::to_string(want.first);
    }
    if (it->second.second != want.second) {
      return "output " + name + ": content differs";
    }
  }
  for (const auto& [name, got] : parts) {
    if (expected.parts.count(name) == 0) return "unexpected output " + name;
  }
  return "";
}

Digest DigestOf(const xnfdb::QueryResult& result) {
  Digest d;
  const size_t n = result.outputs.size();
  std::vector<std::unordered_map<int64_t, uint64_t>> by_tid(n);
  for (const xnfdb::OutputDesc& o : result.outputs) d.parts[Upper(o.name)];
  for (const xnfdb::StreamItem& item : result.stream) {
    if (item.kind != xnfdb::StreamItem::Kind::kRow) continue;
    const uint64_t h = RowHash(item.values);
    by_tid[item.output][item.tid] = h;
    AddTo(&d, result.outputs[item.output].name, h);
  }
  std::vector<std::vector<int>> partner_outputs(n);
  for (size_t i = 0; i < n; ++i) {
    for (const std::string& p : result.outputs[i].partner_names) {
      partner_outputs[i].push_back(result.FindOutput(p));
    }
  }
  std::vector<uint64_t> partners;
  for (const xnfdb::StreamItem& item : result.stream) {
    if (item.kind != xnfdb::StreamItem::Kind::kConnection) continue;
    const std::vector<int>& outs = partner_outputs[item.output];
    partners.clear();
    for (size_t i = 0; i < item.tids.size(); ++i) {
      int comp = i < outs.size() ? outs[i] : -1;
      uint64_t h = 0xbad;  // a dangling tid never matches the oracle
      if (comp >= 0) {
        auto it = by_tid[comp].find(item.tids[i]);
        if (it != by_tid[comp].end()) h = it->second;
      }
      partners.push_back(h);
    }
    AddTo(&d, result.outputs[item.output].name, LinkHash(partners));
  }
  return d;
}

Digest DigestOf(xnfdb::Workspace& ws) {
  Digest d;
  for (size_t c = 0; c < ws.component_count(); ++c) {
    xnfdb::ComponentTable* comp = ws.component(c);
    d.parts[Upper(comp->name())];
    for (size_t i = 0; i < comp->size(); ++i) {
      const xnfdb::CachedRow* row = comp->row(i);
      if (!row->deleted) AddTo(&d, comp->name(), RowHash(row->values));
    }
  }
  std::vector<uint64_t> partners;
  for (size_t r = 0; r < ws.relationship_count(); ++r) {
    xnfdb::Relationship* rel = ws.relationship(r);
    d.parts[Upper(rel->name())];
    for (size_t i = 0; i < rel->size(); ++i) {
      const xnfdb::CachedConnection* conn = rel->connection(i);
      if (conn->deleted) continue;
      partners.clear();
      for (const xnfdb::CachedRow* p : conn->partners) {
        partners.push_back(p != nullptr ? RowHash(p->values) : 0xbad);
      }
      AddTo(&d, rel->name(), LinkHash(partners));
    }
  }
  return d;
}

Digest DigestOfRows(const std::vector<Tuple>& rows) {
  Digest d;
  d.parts[""];
  for (const Tuple& row : rows) AddTo(&d, "", RowHash(row));
  return d;
}

bool TamperCaught(const xnfdb::QueryResult& good, const Digest& expected,
                  std::string* detail) {
  using Kind = xnfdb::StreamItem::Kind;
  const Digest base = DigestOf(good);
  if (base != expected) {
    *detail = "untampered answer rejected: " + base.Diff(expected);
    return false;
  }
  auto first = [&](Kind kind) -> int {
    for (size_t i = 0; i < good.stream.size(); ++i) {
      if (good.stream[i].kind == kind) return static_cast<int>(i);
    }
    return -1;
  };
  const int row = first(Kind::kRow);
  const int conn = first(Kind::kConnection);
  if (row < 0 || conn < 0) {
    *detail = "self-test answer needs rows and connections";
    return false;
  }
  std::vector<std::pair<std::string, xnfdb::QueryResult>> tampered;
  {
    xnfdb::QueryResult t = good;
    Value& v = t.stream[row].values[0];
    v = Value(v.AsInt() + 1000003);
    tampered.emplace_back("changed value", std::move(t));
  }
  {
    xnfdb::QueryResult t = good;
    t.stream.erase(t.stream.begin() + row);
    tampered.emplace_back("dropped row", std::move(t));
  }
  {
    xnfdb::QueryResult t = good;
    t.stream.erase(t.stream.begin() + conn);
    tampered.emplace_back("dropped connection", std::move(t));
  }
  {
    // Point the connection's child at another row of the same component.
    xnfdb::QueryResult t = good;
    xnfdb::StreamItem& c = t.stream[conn];
    const int child_out =
        t.FindOutput(t.outputs[c.output].partner_names.back());
    for (const xnfdb::StreamItem& item : good.stream) {
      if (item.kind == Kind::kRow && item.output == child_out &&
          item.tid != c.tids.back()) {
        c.tids.back() = item.tid;
        break;
      }
    }
    tampered.emplace_back("relinked connection", std::move(t));
  }
  for (const auto& [what, t] : tampered) {
    if (DigestOf(t) == expected) {
      *detail = "checker accepted an answer with a " + what;
      return false;
    }
  }
  *detail = "caught " + std::to_string(tampered.size()) + " tampered answers";
  return true;
}

Digest CoAnswer::ToDigest() const {
  Digest d;
  std::vector<std::vector<uint64_t>> hashes(comps.size());
  for (size_t c = 0; c < comps.size(); ++c) {
    d.parts[Upper(comps[c].name)];
    for (const Tuple& row : comps[c].rows) {
      hashes[c].push_back(RowHash(row));
      AddTo(&d, comps[c].name, hashes[c].back());
    }
  }
  for (const Rel& rel : rels) {
    d.parts[Upper(rel.name)];
    for (const auto& [p, c] : rel.edges) {
      AddTo(&d, rel.name,
            LinkHash({hashes[rel.parent][p], hashes[rel.child][c]}));
    }
  }
  return d;
}

int CoAnswer::Comp(const std::string& name) const {
  for (size_t c = 0; c < comps.size(); ++c) {
    if (Upper(comps[c].name) == Upper(name)) return static_cast<int>(c);
  }
  return -1;
}

void CoAnswer::Walk(int comp, int row, int depth, int64_t* visits,
                    int64_t* sum) const {
  if (children_.size() != rels.size()) {
    children_.assign(rels.size(), {});
    for (size_t r = 0; r < rels.size(); ++r) {
      children_[r].resize(comps[rels[r].parent].rows.size());
      for (const auto& [p, c] : rels[r].edges) children_[r][p].push_back(c);
    }
  }
  ++*visits;
  *sum += comps[comp].rows[row][0].AsInt();
  if (depth == 0) return;
  for (size_t r = 0; r < rels.size(); ++r) {
    if (rels[r].parent != comp) continue;
    for (int child : children_[r][row]) {
      Walk(rels[r].child, child, depth - 1, visits, sum);
    }
  }
}

CacheWalker::CacheWalker(xnfdb::Workspace* ws) : ws_(ws) {
  out_.resize(ws->component_count());
  for (size_t r = 0; r < ws->relationship_count(); ++r) {
    xnfdb::Relationship* rel = ws->relationship(r);
    for (size_t c = 0; c < ws->component_count(); ++c) {
      if (Upper(ws->component(c)->name()) == Upper(rel->parent_name())) {
        out_[ws->component(c)->index()].push_back(rel);
      }
    }
  }
}

void CacheWalker::Walk(xnfdb::CachedRow* row, int depth, int64_t* visits,
                       int64_t* sum) const {
  ++*visits;
  *sum += row->values[0].AsInt();
  if (depth == 0) return;
  for (xnfdb::Relationship* rel : out_[row->component->index()]) {
    xnfdb::DependentCursor cursor(ws_, rel, row);
    while (cursor.Next()) Walk(cursor.row(), depth - 1, visits, sum);
  }
}

xnfdb::Status InsertRows(xnfdb::Database* db, const std::string& table,
                         const std::vector<Tuple>& rows) {
  for (size_t i = 0; i < rows.size(); i += 512) {
    std::string sql = "INSERT INTO " + table + " VALUES ";
    for (size_t j = i; j < std::min(rows.size(), i + 512); ++j) {
      if (j > i) sql += ", ";
      sql += SqlRow(rows[j]);
    }
    xnfdb::Result<xnfdb::Database::Outcome> r = db->Execute(sql);
    if (!r.ok()) return r.status();
  }
  return xnfdb::Status::Ok();
}

std::string Upper(const std::string& s) {
  std::string out = s;
  for (char& c : out) c = static_cast<char>(std::toupper(c));
  return out;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

xnfdb::CompileOptions OpContext::Copts() const {
  xnfdb::CompileOptions o;
  if (traced_) o.tracer = tracer_;
  return o;
}

xnfdb::ExecOptions OpContext::Eopts() const {
  xnfdb::ExecOptions o;
  if (traced_) o.tracer = tracer_;
  return o;
}

bool ExecuteSql(xnfdb::Database* db, const std::string& sql, OpContext* ctx,
                size_t* affected) {
  if (ctx->traced()) {
    // The engine parses inside Execute without a phase span; a separate
    // parse of the same text (outside the op's time) measures the parser.
    const int64_t t0 = WallNs();
    auto parsed = xnfdb::ParseStatement(sql);
    ctx->parse_ns += WallNs() - t0;
    ++ctx->parses;
    if (!parsed.ok()) return ctx->Fail("parse: " + parsed.status().ToString());
  }
  auto r = ctx->Engine(
      [&] { return ctx->Span("api.execute", [&] { return db->Execute(sql); }); });
  if (!r.ok()) return ctx->Fail(sql + ": " + r.status().ToString());
  if (affected != nullptr) *affected = r.value().affected;
  return true;
}

bool WriteBack(xnfdb::Database* db, const xnfdb::ast::XnfQuery* definition,
               xnfdb::Workspace* ws, OpContext* ctx) {
  xnfdb::WriteBackPlanner planner(db, definition);
  if (ctx->traced()) {
    // Plan only reads the workspace; Apply plans the same statements again.
    const int64_t t0 = WallNs();
    auto plan = planner.Plan(ws);
    ctx->plan_ns += WallNs() - t0;
    if (!plan.ok()) return ctx->Fail("write-back: " + plan.status().ToString());
  }
  auto r = ctx->Engine([&] {
    return ctx->Span("writeback.apply", [&] { return planner.Apply(ws); });
  });
  if (!r.ok()) return ctx->Fail("write-back: " + r.status().ToString());
  ctx->stmts = static_cast<int64_t>(r.value().size());
  return true;
}

}  // namespace xnfbench
