#include "cache/serialize.h"

#include <fstream>
#include <limits>
#include <sstream>

#include "common/file_format.h"

namespace xnfdb {

namespace {

constexpr char kMagicV1[] = "XNFCACHE 1";
constexpr char kMagicV2[] = "XNFCACHE 2";

void WriteValue(std::ostream& out, const Value& v) {
  switch (v.type()) {
    case DataType::kNull:
      out << "N";
      break;
    case DataType::kInt:
      out << "I " << v.AsInt();
      break;
    case DataType::kDouble: {
      std::ostringstream os;
      os.precision(17);
      os << v.AsDouble();
      out << "D " << os.str();
      break;
    }
    case DataType::kString:
      out << "S " << v.AsString().size() << " " << v.AsString();
      break;
    case DataType::kBool:
      out << "B " << (v.AsBool() ? 1 : 0);
      break;
  }
  out << "\n";
}

Result<Value> ReadValue(std::istream& in) {
  std::string tag;
  if (!(in >> tag)) return Status::IoError("unexpected end of cache file");
  if (tag == "N") return Value::Null();
  if (tag == "I") {
    int64_t v;
    if (!(in >> v)) return Status::IoError("bad integer in cache file");
    return Value(v);
  }
  if (tag == "D") {
    double v;
    if (!(in >> v)) return Status::IoError("bad double in cache file");
    return Value(v);
  }
  if (tag == "B") {
    int v;
    if (!(in >> v)) return Status::IoError("bad boolean in cache file");
    return Value(v != 0);
  }
  if (tag == "S") {
    size_t len;
    if (!(in >> len)) return Status::IoError("bad string length");
    in.get();  // the separating space
    int64_t remaining = StreamRemainingBytes(in);
    if (remaining >= 0 && static_cast<int64_t>(len) > remaining) {
      return Status::IoError("string length " + std::to_string(len) +
                             " exceeds remaining cache file");
    }
    std::string s(len, '\0');
    in.read(s.data(), static_cast<std::streamsize>(len));
    if (static_cast<size_t>(in.gcount()) != len) {
      return Status::IoError("truncated string value in cache file");
    }
    return Value(std::move(s));
  }
  return Status::IoError("bad value tag '" + tag + "' in cache file");
}

}  // namespace

// Friend of Workspace; performs the actual reconstruction.
class CacheSerializer {
 public:
  static void WriteComponentsPayload(const Workspace& ws, std::ostream& out) {
    out << "COMPONENTS " << ws.components_.size() << "\n";
    for (const auto& comp : ws.components_) {
      out << "COMPONENT " << comp->name() << " " << comp->schema().size()
          << " " << comp->size() << "\n";
      for (const Column& col : comp->schema().columns()) {
        out << "COL " << col.name << " " << static_cast<int>(col.type)
            << "\n";
      }
      for (size_t i = 0; i < comp->size(); ++i) {
        const CachedRow* row = comp->row(i);
        out << "ROW " << row->tid << "\n";
        for (const Value& v : row->values) WriteValue(out, v);
      }
    }
  }

  static void WriteRelationshipsPayload(const Workspace& ws,
                                        std::ostream& out) {
    out << "RELATIONSHIPS " << ws.relationships_.size() << "\n";
    for (const auto& rel : ws.relationships_) {
      out << "RELATIONSHIP " << rel->name() << " "
          << rel->partner_names().size() << " " << rel->size() << "\n";
      for (const std::string& p : rel->partner_names()) {
        out << "PARTNER " << p << "\n";
      }
      for (size_t i = 0; i < rel->size(); ++i) {
        const CachedConnection* conn = rel->connection(i);
        out << "CONN";
        for (const CachedRow* partner : conn->partners) {
          out << " " << partner->tid;
        }
        out << "\n";
      }
    }
  }

  static Status Save(const Workspace& ws, std::ostream& out,
                     int format_version) {
    if (ws.HasPendingChanges()) {
      return Status::InvalidArgument(
          "workspace has pending changes; write back before saving");
    }
    std::ostringstream components, relationships;
    WriteComponentsPayload(ws, components);
    WriteRelationshipsPayload(ws, relationships);
    if (format_version == 1) {
      out << kMagicV1 << "\n"
          << components.str() << relationships.str() << "END\n";
    } else if (format_version == kCacheFormatVersion) {
      std::vector<FileSection> sections(2);
      sections[0].name = "COMPONENTS";
      sections[0].records = ws.components_.size();
      sections[0].payload = components.str();
      sections[1].name = "RELATIONSHIPS";
      sections[1].records = ws.relationships_.size();
      sections[1].payload = relationships.str();
      WriteSectionedFile(out, kMagicV2, sections);
    } else {
      return Status::InvalidArgument("unsupported cache format version " +
                                     std::to_string(format_version));
    }
    return out.good() ? Status::Ok()
                      : Status::IoError("write to cache stream failed");
  }

  static Status ParseComponentsBody(std::istream& in, Workspace* ws) {
    std::string word;
    size_t n_components;
    if (!(in >> word >> n_components) || word != "COMPONENTS") {
      return Status::IoError("expected COMPONENTS");
    }
    for (size_t c = 0; c < n_components; ++c) {
      std::string name;
      size_t ncols, nrows;
      if (!(in >> word >> name >> ncols >> nrows) || word != "COMPONENT") {
        return Status::IoError("expected COMPONENT");
      }
      Schema schema;
      for (size_t i = 0; i < ncols; ++i) {
        std::string col_name;
        int type;
        if (!(in >> word >> col_name >> type) || word != "COL") {
          return Status::IoError("expected COL");
        }
        if (type < 0 || type > static_cast<int>(DataType::kBool)) {
          return Status::IoError("cached column " + col_name +
                                 " has invalid type tag " +
                                 std::to_string(type));
        }
        schema.AddColumn(Column{col_name, static_cast<DataType>(type)});
      }
      auto comp = std::make_unique<ComponentTable>(
          name, std::move(schema), static_cast<int>(ws->components_.size()));
      // Not reserved from `nrows`: the file's counts are untrusted.
      std::vector<CachedRow> rows;
      for (size_t r = 0; r < nrows; ++r) {
        CachedRow& row = rows.emplace_back();
        if (!(in >> word >> row.tid) || word != "ROW") {
          return Status::IoError("expected ROW");
        }
        // A saved locally inserted row keeps its negative tid: the next
        // InsertRow must not hand that tid out again.
        if (row.tid <= ws->next_local_tid_) {
          if (row.tid == std::numeric_limits<TupleId>::min()) {
            return Status::IoError("cached row tid out of range");
          }
          ws->next_local_tid_ = row.tid - 1;
        }
        row.values.reserve(ncols);
        for (size_t i = 0; i < ncols; ++i) {
          XNFDB_ASSIGN_OR_RETURN(Value v, ReadValue(in));
          row.values.push_back(std::move(v));
        }
      }
      comp->AdoptBlock(std::move(rows));
      ws->components_.push_back(std::move(comp));
    }
    return Status::Ok();
  }

  static Status ParseRelationshipsBody(std::istream& in, Workspace* ws) {
    std::string word;
    size_t n_rels;
    if (!(in >> word >> n_rels) || word != "RELATIONSHIPS") {
      return Status::IoError("expected RELATIONSHIPS");
    }
    struct PendingRel {
      std::string name;
      std::vector<std::string> partners;
      std::vector<TupleId> tids;  // n_partners per connection
    };
    std::vector<PendingRel> pending;
    for (size_t r = 0; r < n_rels; ++r) {
      PendingRel p;
      size_t n_partners, n_conns;
      if (!(in >> word >> p.name >> n_partners >> n_conns) ||
          word != "RELATIONSHIP") {
        return Status::IoError("expected RELATIONSHIP");
      }
      for (size_t i = 0; i < n_partners; ++i) {
        std::string partner;
        if (!(in >> word >> partner) || word != "PARTNER") {
          return Status::IoError("expected PARTNER");
        }
        p.partners.push_back(std::move(partner));
      }
      if (n_partners == 0 && n_conns > 0) {
        return Status::IoError("relationship " + p.name +
                               " has connections but no partners");
      }
      for (size_t i = 0; i < n_conns; ++i) {
        if (!(in >> word) || word != "CONN") {
          return Status::IoError("expected CONN");
        }
        for (size_t pi = 0; pi < n_partners; ++pi) {
          TupleId t;
          if (!(in >> t)) {
            return Status::IoError("truncated CONN tuple ids");
          }
          p.tids.push_back(t);
        }
      }
      pending.push_back(std::move(p));
    }
    // Create all relationship containers first (adjacency vectors are
    // indexed by relationship count), then resolve connections.
    for (PendingRel& p : pending) {
      ws->relationships_.push_back(std::make_unique<Relationship>(
          p.name, p.partners, static_cast<int>(ws->relationships_.size())));
    }
    for (size_t r = 0; r < pending.size(); ++r) {
      XNFDB_RETURN_IF_ERROR(ws->LoadConnections(ws->relationships_[r].get(),
                                                pending[r].tids));
    }
    return Status::Ok();
  }

  static Result<std::unique_ptr<Workspace>> Load(
      std::istream& in, const WorkspaceOptions& options) {
    std::string line;
    if (!std::getline(in, line)) {
      return Status::IoError("empty cache file");
    }
    std::unique_ptr<Workspace> ws(new Workspace(options));
    if (line == kMagicV1) {
      XNFDB_RETURN_IF_ERROR(ParseComponentsBody(in, ws.get()));
      XNFDB_RETURN_IF_ERROR(ParseRelationshipsBody(in, ws.get()));
      return ws;
    }
    if (line != kMagicV2) {
      return Status::IoError("bad cache file magic");
    }
    XNFDB_ASSIGN_OR_RETURN(std::vector<FileSection> sections,
                           ReadSectionedFile(in));
    if (sections.size() != 2 || sections[0].name != "COMPONENTS" ||
        sections[1].name != "RELATIONSHIPS") {
      return Status::IoError("cache file has unexpected sections");
    }
    std::istringstream components_in(sections[0].payload);
    XNFDB_RETURN_IF_ERROR(ParseComponentsBody(components_in, ws.get()));
    if (ws->components_.size() != sections[0].records) {
      return Status::IoError("COMPONENTS record count mismatch");
    }
    std::istringstream rels_in(sections[1].payload);
    XNFDB_RETURN_IF_ERROR(ParseRelationshipsBody(rels_in, ws.get()));
    if (ws->relationships_.size() != sections[1].records) {
      return Status::IoError("RELATIONSHIPS record count mismatch");
    }
    return ws;
  }
};

Status SaveWorkspace(const Workspace& workspace, std::ostream& out,
                     int format_version) {
  return CacheSerializer::Save(workspace, out, format_version);
}

Result<std::unique_ptr<Workspace>> LoadWorkspace(
    std::istream& in, const WorkspaceOptions& options) {
  return CacheSerializer::Load(in, options);
}

Status SaveWorkspaceToFile(const Workspace& workspace,
                           const std::string& path, Env* env) {
  if (env == nullptr) env = Env::Default();
  std::ostringstream out;
  XNFDB_RETURN_IF_ERROR(SaveWorkspace(workspace, out));
  return AtomicallyWriteFile(env, path, out.str());
}

Result<std::unique_ptr<Workspace>> LoadWorkspaceFromFile(
    const std::string& path, const WorkspaceOptions& options, Env* env) {
  if (env == nullptr) env = Env::Default();
  std::string contents;
  XNFDB_RETURN_IF_ERROR(env->ReadFileToString(path, &contents));
  std::istringstream in(contents);
  return LoadWorkspace(in, options);
}

}  // namespace xnfdb
