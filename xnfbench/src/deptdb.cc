// The scaled Fig. 1 database (DEPT/EMP/PROJ/SKILLS and their connect
// tables) and the two workloads over it:
//  * extract: ad-hoc deps-style CO extraction with seeded literal bindings,
//    matviews off;
//  * serve_mixed: reads of a small set of stored XNF and SPJ views under
//    the default matview policy, beside single-row DML.
// Both also check a one-department CO out into a client cache, browse it
// and write local salary updates back (the Fig. 7 client round trip).

#include <map>
#include <random>
#include <set>
#include <sstream>

#include "bench.h"
#include "parser/parser.h"

namespace xnfbench {
namespace {

using xnfdb::Database;
using xnfdb::Result;
using xnfdb::Status;

struct DeptParams {
  int depts, locations, emps_per_dept, projs_per_dept, skills;
  int skills_per_emp, skills_per_proj;
};

// The oracle's copy of the database: the generated rows plus every DML the
// run applied. Column order matches the CREATE TABLE statements.
struct DeptData {
  std::vector<Tuple> dept;        // DNO, DNAME, LOC       (index DNO-1)
  std::map<int64_t, Tuple> emp;   // ENO, ENAME, EDNO, SAL (by ENO)
  std::vector<Tuple> proj;        // PNO, PNAME, PDNO      (index PNO-1)
  std::vector<Tuple> skills;      // SNO, SNAME            (index SNO-1)
  std::vector<std::pair<int64_t, int64_t>> empskills;   // ESENO, ESSNO
  std::vector<std::pair<int64_t, int64_t>> projskills;  // PSPNO, PSSNO
  int64_t version = 0;  // bumped by every applied write
};

double Salary(std::mt19937_64& rng) {
  return static_cast<double>(30000 + static_cast<int64_t>(rng() % 70000));
}

DeptData GenerateDept(const DeptParams& p, uint64_t seed) {
  std::mt19937_64 rng(seed);
  DeptData d;
  for (int64_t i = 1; i <= p.depts; ++i) {
    d.dept.push_back({I(i), Value("dept" + std::to_string(i)),
                      Value("L" + std::to_string((i - 1) % p.locations))});
  }
  const int64_t nemp = int64_t{p.depts} * p.emps_per_dept;
  for (int64_t i = 1; i <= nemp; ++i) {
    d.emp[i] = {I(i), Value("emp" + std::to_string(i)),
                I((i - 1) % p.depts + 1), Value(Salary(rng))};
  }
  const int64_t nproj = int64_t{p.depts} * p.projs_per_dept;
  for (int64_t i = 1; i <= nproj; ++i) {
    d.proj.push_back({I(i), Value("proj" + std::to_string(i)),
                      I((i - 1) % p.depts + 1)});
  }
  for (int64_t i = 1; i <= p.skills; ++i) {
    d.skills.push_back({I(i), Value("skill" + std::to_string(i))});
  }
  for (int64_t e = 1; e <= nemp; ++e) {
    for (int k = 0; k < p.skills_per_emp; ++k) {
      d.empskills.emplace_back(e, 1 + static_cast<int64_t>(rng() % p.skills));
    }
  }
  for (int64_t j = 1; j <= nproj; ++j) {
    for (int k = 0; k < p.skills_per_proj; ++k) {
      d.projskills.emplace_back(j,
                                1 + static_cast<int64_t>(rng() % p.skills));
    }
  }
  return d;
}

Status PopulateDept(Database* db, const DeptData& d) {
  Result<size_t> schema = db->ExecuteScript(R"sql(
    CREATE TABLE DEPT (DNO INTEGER, DNAME VARCHAR, LOC VARCHAR,
                       PRIMARY KEY (DNO));
    CREATE TABLE EMP (ENO INTEGER, ENAME VARCHAR, EDNO INTEGER, SAL DOUBLE,
                      PRIMARY KEY (ENO),
                      FOREIGN KEY (EDNO) REFERENCES DEPT (DNO));
    CREATE TABLE PROJ (PNO INTEGER, PNAME VARCHAR, PDNO INTEGER,
                       PRIMARY KEY (PNO),
                       FOREIGN KEY (PDNO) REFERENCES DEPT (DNO));
    CREATE TABLE SKILLS (SNO INTEGER, SNAME VARCHAR, PRIMARY KEY (SNO));
    CREATE TABLE EMPSKILLS (ESENO INTEGER, ESSNO INTEGER,
                            FOREIGN KEY (ESENO) REFERENCES EMP (ENO),
                            FOREIGN KEY (ESSNO) REFERENCES SKILLS (SNO));
    CREATE TABLE PROJSKILLS (PSPNO INTEGER, PSSNO INTEGER,
                             FOREIGN KEY (PSPNO) REFERENCES PROJ (PNO),
                             FOREIGN KEY (PSSNO) REFERENCES SKILLS (SNO));
    CREATE INDEX ON EMP (EDNO);
    CREATE INDEX ON PROJ (PDNO);
    CREATE INDEX ON EMPSKILLS (ESENO);
    CREATE INDEX ON PROJSKILLS (PSPNO);
  )sql");
  if (!schema.ok()) return schema.status();
  std::vector<Tuple> emps;
  for (const auto& [eno, row] : d.emp) emps.push_back(row);
  auto pairs = [](const std::vector<std::pair<int64_t, int64_t>>& ps) {
    std::vector<Tuple> rows;
    for (const auto& [a, b] : ps) rows.push_back({I(a), I(b)});
    return rows;
  };
  XNFDB_RETURN_IF_ERROR(InsertRows(db, "DEPT", d.dept));
  XNFDB_RETURN_IF_ERROR(InsertRows(db, "EMP", emps));
  XNFDB_RETURN_IF_ERROR(InsertRows(db, "PROJ", d.proj));
  XNFDB_RETURN_IF_ERROR(InsertRows(db, "SKILLS", d.skills));
  XNFDB_RETURN_IF_ERROR(InsertRows(db, "EMPSKILLS", pairs(d.empskills)));
  return InsertRows(db, "PROJSKILLS", pairs(d.projskills));
}

// The root predicate of a deps-style CO.
struct Root {
  enum Kind { kLoc, kDno, kDnoAtMost } kind = kDno;
  int64_t value = 0;  // location index or DNO

  std::string Sql() const {
    switch (kind) {
      case kLoc: return "LOC = 'L" + std::to_string(value) + "'";
      case kDno: return "DNO = " + std::to_string(value);
      case kDnoAtMost: return "DNO <= " + std::to_string(value);
    }
    return "";
  }
  bool Matches(const Tuple& dept) const {
    switch (kind) {
      case kLoc: return dept[2].AsString() == "L" + std::to_string(value);
      case kDno: return dept[0].AsInt() == value;
      case kDnoAtMost: return dept[0].AsInt() <= value;
    }
    return false;
  }
};

// Which parts of the Fig. 1 deps CO a view keeps.
struct Shape {
  bool emps = true, emp_skills = true, projs = true, proj_skills = true;
};

std::string CoText(const Root& root, const Shape& s) {
  std::vector<std::string> defs{"xdept AS (SELECT * FROM DEPT WHERE " +
                                root.Sql() + ")"};
  if (s.emps) defs.push_back("xemp AS EMP");
  if (s.projs) defs.push_back("xproj AS PROJ");
  if (s.emp_skills || s.proj_skills) defs.push_back("xskills AS SKILLS");
  if (s.emps) {
    defs.push_back(
        "employment AS (RELATE xdept VIA EMPLOYS, xemp "
        "WHERE xdept.dno = xemp.edno)");
  }
  if (s.projs) {
    defs.push_back(
        "ownership AS (RELATE xdept VIA HAS, xproj "
        "WHERE xdept.dno = xproj.pdno)");
  }
  if (s.emp_skills) {
    defs.push_back(
        "empproperty AS (RELATE xemp VIA POSSESSES, xskills USING EMPSKILLS "
        "es WHERE xemp.eno = es.eseno AND es.essno = xskills.sno)");
  }
  if (s.proj_skills) {
    defs.push_back(
        "projproperty AS (RELATE xproj VIA NEEDS, xskills USING PROJSKILLS "
        "ps WHERE xproj.pno = ps.pspno AND ps.pssno = xskills.sno)");
  }
  std::string text = "OUT OF ";
  for (size_t i = 0; i < defs.size(); ++i) {
    text += (i > 0 ? ",\n       " : "") + defs[i];
  }
  return text + "\nTAKE *";
}

// The CO's answer by the XNF semantics: components hold the rows reachable
// from the root rows; relationships hold the distinct connected pairs.
CoAnswer OracleCo(const DeptData& d, const Root& root, const Shape& s) {
  CoAnswer co;
  co.comps.push_back({"XDEPT", {}});
  std::map<int64_t, int> dept_idx;
  for (const Tuple& row : d.dept) {
    if (!root.Matches(row)) continue;
    dept_idx[row[0].AsInt()] = static_cast<int>(co.comps[0].rows.size());
    co.comps[0].rows.push_back(row);
  }
  std::map<int64_t, int> emp_idx, proj_idx;
  if (s.emps) {
    const int c = static_cast<int>(co.comps.size());
    co.comps.push_back({"XEMP", {}});
    co.rels.push_back({"EMPLOYMENT", 0, c, {}});
    for (const auto& [eno, row] : d.emp) {
      auto it = dept_idx.find(row[2].AsInt());
      if (it == dept_idx.end()) continue;
      emp_idx[eno] = static_cast<int>(co.comps[c].rows.size());
      co.rels.back().edges.emplace_back(it->second, emp_idx[eno]);
      co.comps[c].rows.push_back(row);
    }
  }
  if (s.projs) {
    const int c = static_cast<int>(co.comps.size());
    co.comps.push_back({"XPROJ", {}});
    co.rels.push_back({"OWNERSHIP", 0, c, {}});
    for (const Tuple& row : d.proj) {
      auto it = dept_idx.find(row[2].AsInt());
      if (it == dept_idx.end()) continue;
      proj_idx[row[0].AsInt()] = static_cast<int>(co.comps[c].rows.size());
      co.rels.back().edges.emplace_back(it->second,
                                        proj_idx[row[0].AsInt()]);
      co.comps[c].rows.push_back(row);
    }
  }
  if (!s.emp_skills && !s.proj_skills) return co;
  std::set<std::pair<int, int64_t>> emp_links, proj_links;
  std::set<int64_t> snos;
  if (s.emp_skills) {
    for (const auto& [eno, sno] : d.empskills) {
      auto it = emp_idx.find(eno);
      if (it == emp_idx.end()) continue;
      emp_links.emplace(it->second, sno);
      snos.insert(sno);
    }
  }
  if (s.proj_skills) {
    for (const auto& [pno, sno] : d.projskills) {
      auto it = proj_idx.find(pno);
      if (it == proj_idx.end()) continue;
      proj_links.emplace(it->second, sno);
      snos.insert(sno);
    }
  }
  const int sc = static_cast<int>(co.comps.size());
  co.comps.push_back({"XSKILLS", {}});
  std::map<int64_t, int> skill_idx;
  for (int64_t sno : snos) {
    skill_idx[sno] = static_cast<int>(co.comps[sc].rows.size());
    co.comps[sc].rows.push_back(d.skills[sno - 1]);
  }
  auto add_rel = [&](const char* name, const char* parent,
                     const std::set<std::pair<int, int64_t>>& links) {
    co.rels.push_back({name, co.Comp(parent), sc, {}});
    for (const auto& [p, sno] : links) {
      co.rels.back().edges.emplace_back(p, skill_idx[sno]);
    }
  };
  if (s.emp_skills) add_rel("EMPPROPERTY", "XEMP", emp_links);
  if (s.proj_skills) add_rel("PROJPROPERTY", "XPROJ", proj_links);
  return co;
}

// The plain SPJ views of serve_mixed, each with its oracle.
struct SpjView {
  const char* name;
  const char* select;
  std::vector<Tuple> (*oracle)(const DeptData& d);
};

const SpjView kSpjViews[] = {
    {"V_RICH", "SELECT ENO, ENAME, SAL FROM EMP WHERE SAL > 95000.0",
     [](const DeptData& d) {
       std::vector<Tuple> out;
       for (const auto& [eno, e] : d.emp) {
         if (e[3].AsDouble() > 95000.0) out.push_back({e[0], e[1], e[3]});
       }
       return out;
     }},
    {"V_EMP_DEPT",
     "SELECT e.ENO, e.ENAME, d.DNAME FROM EMP e, DEPT d "
     "WHERE e.EDNO = d.DNO AND d.LOC = 'L1'",
     [](const DeptData& d) {
       std::vector<Tuple> out;
       for (const auto& [eno, e] : d.emp) {
         const Tuple& dept = d.dept[e[2].AsInt() - 1];
         if (dept[2].AsString() == "L1") out.push_back({e[0], e[1], dept[1]});
       }
       return out;
     }},
    {"V_EMP_SKILL",
     "SELECT e.ENAME, s.SNAME FROM EMP e, EMPSKILLS es, SKILLS s "
     "WHERE e.ENO = es.ESENO AND es.ESSNO = s.SNO AND e.EDNO = 5",
     [](const DeptData& d) {
       std::vector<Tuple> out;
       for (const auto& [eno, sno] : d.empskills) {
         auto it = d.emp.find(eno);
         if (it == d.emp.end() || it->second[2].AsInt() != 5) continue;
         out.push_back({it->second[1], d.skills[sno - 1][1]});
       }
       return out;
     }},
    {"V_PROJ_DEPT",
     "SELECT p.PNO, p.PNAME, d.LOC FROM PROJ p, DEPT d WHERE p.PDNO = d.DNO",
     [](const DeptData& d) {
       std::vector<Tuple> out;
       for (const Tuple& p : d.proj) {
         out.push_back({p[0], p[1], d.dept[p[2].AsInt() - 1][2]});
       }
       return out;
     }},
};

// One stored (serve_mixed) or ad-hoc (extract) query target.
struct Target {
  std::string name;   // view name; empty for an ad-hoc CO
  std::string text;   // CO text or SELECT
  bool xnf = true;
  Root root;
  Shape shape;
  const SpjView* spj = nullptr;
};

enum DmlKind { kUpdateSal, kInsertEmp, kDeleteEmp, kInsertEmpSkill };

class DeptWorkload : public Workload {
 public:
  DeptWorkload(bool serve, uint64_t seed)
      : serve_(serve),
        params_(serve ? DeptParams{100, 4, 20, 4, 2000, 2, 2}
                      : DeptParams{400, 4, 20, 4, 20000, 2, 2}),
        seed_(seed),
        data_(GenerateDept(params_, seed)) {
    if (serve_) {
      // Skewed read mix over shapes that differ structurally (matviews key
      // stored answers by the literal-normalized digest).
      targets_.push_back(
          {"V_DEPS_L0", "", true, {Root::kLoc, 0}, Shape{}, nullptr});
      targets_.push_back({"V_DEPT_EMPS", "", true, {Root::kDnoAtMost, 10},
                          Shape{true, false, false, false}, nullptr});
      targets_.push_back({"V_DEPT_PROJ", "", true, {Root::kDno, 7},
                          Shape{false, false, true, true}, nullptr});
      for (const SpjView& v : kSpjViews) {
        targets_.push_back({v.name, v.select, false, {}, {}, &v});
      }
      for (Target& t : targets_) {
        if (t.xnf) t.text = CoText(t.root, t.shape);
      }
      // Reads per round of 36, by target index: V_EMP_DEPT and V_DEPT_EMPS
      // are hot.
      weights_ = {4, 8, 2, 6, 10, 2, 4};
    }
  }

  void Teardown() override {
    walker_.reset();
    emp_rows_.clear();
    ws_.reset();
    def_.reset();
    db_.reset();
  }

  Status Setup() override {
    db_ = std::make_unique<Database>();
    if (!serve_) db_->matviews().set_enabled(false);
    XNFDB_RETURN_IF_ERROR(PopulateDept(db_.get(), data_));
    if (!serve_) return Status::Ok();
    for (const Target& t : targets_) {
      Result<Database::Outcome> r =
          db_->Execute("CREATE VIEW " + t.name + " AS " + t.text);
      if (!r.ok()) return r.status();
    }
    // Warm-up: past the auto-capture threshold, so the loop measures the
    // served steady state.
    for (int rep = 0; rep < 3; ++rep) {
      for (const Target& t : targets_) {
        Result<xnfdb::QueryResult> r = db_->Query(t.name);
        if (!r.ok()) return r.status();
      }
    }
    return Status::Ok();
  }

  double MaxOpsPerSecond() const override { return serve_ ? 6000 : 2000; }

  std::vector<Op> GenerateOps(size_t n) override {
    std::mt19937_64 rng(seed_ * 7919 + 17);
    // Simulated state: which employees exist, by department.
    std::map<int64_t, int64_t> emp_dept;
    for (const auto& [eno, row] : data_.emp) emp_dept[eno] = row[2].AsInt();
    std::vector<int64_t> inserted;
    int64_t next_eno = data_.emp.rbegin()->first + 1;
    const int64_t base_emps = int64_t{params_.depts} * params_.emps_per_dept;

    std::vector<Op> ops;
    ops.reserve(n + 256);  // no freed buffers for the engine to reuse
    int64_t dml_count = 0;
    auto dml = [&]() {
      Op op;
      op.cls = OpClass::kDml;
      // Kinds rotate in a fixed order, so the work per op does not depend
      // on the seed (which picks rows and values). The mix puts the median
      // DML inside one steady cost group. On extract that is the table
      // scans (updates, deletes). On serve_mixed it is the deletes: there
      // an update costs about 3.5 or 6.5 ms on the same seed depending on
      // the machine's state, while inserts and deletes stay near 3 ms.
      static constexpr DmlKind kExtractRotation[] = {
          kUpdateSal, kInsertEmp, kUpdateSal,      kDeleteEmp,
          kUpdateSal, kInsertEmpSkill, kUpdateSal, kUpdateSal};
      static constexpr DmlKind kServeRotation[] = {
          kInsertEmp, kUpdateSal, kDeleteEmp, kInsertEmpSkill,
          kInsertEmp, kUpdateSal, kDeleteEmp, kUpdateSal};
      const DmlKind kind =
          (serve_ ? kServeRotation : kExtractRotation)[dml_count++ % 8];
      op.kind = kind;
      switch (kind) {
        case kUpdateSal: {
          op.a = 1 + static_cast<int64_t>(rng() % base_emps);
          op.b = static_cast<int64_t>(Salary(rng));
          op.sql = "UPDATE EMP SET SAL = " + std::to_string(op.b) +
                   ".0 WHERE ENO = " + std::to_string(op.a);
          break;
        }
        case kInsertEmp: {
          op.a = next_eno++;
          op.b = 1 + static_cast<int64_t>(rng() % params_.depts);
          op.c = static_cast<int64_t>(Salary(rng));
          op.sql = "INSERT INTO EMP VALUES (" + std::to_string(op.a) +
                   ", 'emp" + std::to_string(op.a) + "', " +
                   std::to_string(op.b) + ", " + std::to_string(op.c) + ".0)";
          emp_dept[op.a] = op.b;
          inserted.push_back(op.a);
          break;
        }
        case kDeleteEmp: {
          // Only rows this run inserted: nothing references them.
          size_t i = rng() % inserted.size();
          op.a = inserted[i];
          inserted.erase(inserted.begin() + i);
          emp_dept.erase(op.a);
          op.sql = "DELETE FROM EMP WHERE ENO = " + std::to_string(op.a);
          break;
        }
        case kInsertEmpSkill: {
          op.a = 1 + static_cast<int64_t>(rng() % base_emps);
          op.b = 1 + static_cast<int64_t>(rng() % params_.skills);
          op.sql = "INSERT INTO EMPSKILLS VALUES (" + std::to_string(op.a) +
                   ", " + std::to_string(op.b) + ")";
          break;
        }
      }
      ops.push_back(std::move(op));
    };
    // A client check-out: load a CO into the cache, browse it, and write
    // two local salary updates back. The cached employees are known from
    // the simulated state at load time.
    auto checkout = [&](int64_t target_or_dno) {
      Op load;
      load.cls = OpClass::kLoad;
      load.a = target_or_dno;
      ops.push_back(load);
      std::vector<int64_t> cached;
      for (const auto& [eno, dno] : emp_dept) {
        if (serve_ ? dno <= 10 : dno == target_or_dno) cached.push_back(eno);
      }
      Op walk;
      walk.cls = OpClass::kTraverse;
      walk.a = serve_ ? 4 : 20;  // repetitions of the whole-CO walk
      ops.push_back(walk);
      // Write-backs (and, in extract, DML) are cheap next to the reads, so
      // extract issues more of them per round to sample their tails.
      for (int w = 0; w < (serve_ ? 2 : 8); ++w) {
        Op wb;
        wb.cls = OpClass::kWriteback;
        std::set<int64_t> picked;
        while (picked.size() < 2 && picked.size() < cached.size()) {
          picked.insert(cached[rng() % cached.size()]);
        }
        for (int64_t eno : picked) {
          wb.keys.push_back(eno);
          wb.keys.push_back(static_cast<int64_t>(Salary(rng)));
        }
        ops.push_back(std::move(wb));
      }
    };

    // Smooth weighted round robin over the views: the skewed read mix in
    // one fixed, evenly spread order (weights sum to one round of 36).
    std::vector<int> credit(weights_.size(), 0);
    auto next_read = [&]() {
      int total = 0;
      size_t best = 0;
      for (size_t v = 0; v < weights_.size(); ++v) {
        credit[v] += weights_[v];
        total += weights_[v];
        if (credit[v] > credit[best]) best = v;
      }
      credit[best] -= total;
      return static_cast<int64_t>(best);
    };
    for (int64_t round = 0; ops.size() < n; ++round) {
      const size_t first = ops.size();
      if (serve_) {
        // 36 reads and 3 single-row writes per check-out.
        for (int i = 0; i < 39; ++i) {
          if (i % 13 == 12) {
            dml();
            continue;
          }
          Op q;
          q.cls = OpClass::kQuery;
          q.a = next_read();
          ops.push_back(q);
        }
        checkout(1);  // V_DEPT_EMPS
      } else {
        // 8 extractions (3 whole locations, 5 single departments, at fixed
        // positions), a check-out and twelve single-row writes.
        for (int i = 0; i < 8; ++i) {
          Op q;
          q.cls = OpClass::kQuery;
          const bool large = i == 1 || i == 4 || i == 6;
          q.kind = large ? Root::kLoc : Root::kDno;
          q.a = large ? static_cast<int64_t>(rng() % params_.locations)
                      : 1 + static_cast<int64_t>(rng() % params_.depts);
          ops.push_back(q);
        }
        checkout(1 + static_cast<int64_t>(rng() % params_.depts));
        for (int w = 0; w < 12; ++w) dml();
      }
      for (size_t i = first; i < ops.size(); ++i) ops[i].round = round;
    }
    return ops;
  }

  bool Run(const Op& op, OpContext* ctx) override {
    switch (op.cls) {
      case OpClass::kQuery: return RunQuery(op, ctx);
      case OpClass::kDml: return RunDml(op, ctx);
      case OpClass::kLoad: return RunLoad(op, ctx);
      case OpClass::kTraverse: return RunTraverse(op, ctx);
      case OpClass::kWriteback: return RunWriteback(op, ctx);
      case OpClass::kLookup: break;
    }
    return ctx->Fail("unsupported op");
  }

  bool SelfTest(std::string* detail) override {
    // A CO with several rows per component and connections to relink:
    // V_DEPT_PROJ, or department 3's deps CO.
    Op op;
    op.kind = serve_ ? 0 : Root::kDno;
    op.a = serve_ ? 2 : 3;
    const Target t = QueryTarget(op);
    Result<xnfdb::QueryResult> r = db_->Query(serve_ ? t.name : t.text);
    if (!r.ok()) {
      *detail = r.status().ToString();
      return false;
    }
    return TamperCaught(r.value(), Expected(t), detail);
  }

  std::string StateJson() override {
    int64_t rows = static_cast<int64_t>(data_.dept.size() + data_.emp.size() +
                                        data_.proj.size() +
                                        data_.skills.size() +
                                        data_.empskills.size() +
                                        data_.projskills.size());
    std::ostringstream os;
    os << "\"departments\":" << params_.depts
       << ",\"locations\":" << params_.locations
       << ",\"employees\":" << data_.emp.size()
       << ",\"skills\":" << params_.skills << ",\"base_rows\":" << rows
       << ",\"views\":" << targets_.size()
       << ",\"matviews_enabled\":" << (db_->matviews().enabled() ? 1 : 0)
       << ",\"matviews_stored\":" << db_->matviews().size();
    return os.str();
  }

  Database& db() override { return *db_; }

 private:
  Target QueryTarget(const Op& op) const {
    if (serve_) return targets_[op.a];
    Target t;
    t.root = Root{static_cast<Root::Kind>(op.kind), op.a};
    t.text = CoText(t.root, t.shape);
    return t;
  }

  // The oracle's answer for `t` at the current data version (memoized).
  const Digest& Expected(const Target& t) {
    const std::string key = t.name.empty() ? t.text : t.name;
    auto it = expected_.find(key);
    if (it != expected_.end() && it->second.first == data_.version) {
      return it->second.second;
    }
    Digest d = t.xnf ? OracleCo(data_, t.root, t.shape).ToDigest()
                     : DigestOfRows(t.spj->oracle(data_));
    if (expected_.size() > 256) expected_.clear();
    auto& slot = expected_[key];
    slot = {data_.version, std::move(d)};
    return slot.second;
  }

  bool RunQuery(const Op& op, OpContext* ctx) {
    const Target t = QueryTarget(op);
    const std::string& text = serve_ ? t.name : t.text;
    Result<xnfdb::QueryResult> r = ctx->Engine([&] {
      return ctx->Span("api.query", [&] {
        return db_->Query(text, ctx->Copts(), ctx->Eopts());
      });
    });
    if (!r.ok()) return ctx->Fail(r.status().ToString());
    const Digest got =
        t.xnf ? DigestOf(r.value()) : DigestOfRows(r.value().rows());
    const Digest& want = Expected(t);
    if (got != want) return ctx->Fail(text + ": " + got.Diff(want));
    return true;
  }

  bool RunDml(const Op& op, OpContext* ctx) {
    size_t affected = 0;
    if (!ExecuteSql(db_.get(), op.sql, ctx, &affected)) return false;
    if (affected != 1) {
      return ctx->Fail(op.sql + ": affected " + std::to_string(affected));
    }
    switch (op.kind) {
      case kUpdateSal:
        data_.emp[op.a][3] = Value(static_cast<double>(op.b));
        break;
      case kInsertEmp:
        data_.emp[op.a] = {I(op.a), Value("emp" + std::to_string(op.a)),
                           I(op.b), Value(static_cast<double>(op.c))};
        break;
      case kDeleteEmp:
        data_.emp.erase(op.a);
        break;
      case kInsertEmpSkill:
        data_.empskills.emplace_back(op.a, op.b);
        break;
    }
    ++data_.version;
    return true;
  }

  bool RunLoad(const Op& op, OpContext* ctx) {
    Target t = serve_ ? targets_[op.a] : Target{};
    if (!serve_) {
      t.root = Root{Root::kDno, op.a};
      t.text = CoText(t.root, t.shape);
    }
    // The benchmark's handles into the old cache die with it.
    walker_.reset();
    emp_rows_.clear();
    Status st = ctx->Engine([&]() -> Status {
      ctx->Span("cache.release", [&] { ws_.reset(); });
      auto def = ctx->Span("parser", [&] { return xnfdb::ParseXnfQuery(t.text); });
      if (!def.ok()) return def.status();
      def_ = std::move(def).value();
      auto r = ctx->Span("xnf.load", [&] {
        return db_->QueryXnf(*def_, ctx->Copts(), ctx->Eopts());
      });
      if (!r.ok()) return r.status();
      auto ws = ctx->Span("cache.build",
                          [&] { return xnfdb::Workspace::Build(r.value()); });
      if (!ws.ok()) return ws.status();
      ws_ = std::move(ws).value();
      return Status::Ok();
    });
    if (!st.ok()) return ctx->Fail("load: " + st.ToString());
    walker_ = std::make_unique<CacheWalker>(ws_.get());
    // Employee rows by ENO, for the write-back ops that follow.
    auto emps = ws_->component("XEMP");
    if (emps.ok()) {
      for (size_t i = 0; i < emps.value()->size(); ++i) {
        xnfdb::CachedRow* row = emps.value()->row(i);
        emp_rows_[row->values[0].AsInt()] = row;
      }
    }
    cached_co_ = OracleCo(data_, t.root, t.shape);
    const Digest got = DigestOf(*ws_);
    const Digest want = cached_co_.ToDigest();
    if (got != want) return ctx->Fail("load: " + got.Diff(want));
    return true;
  }

  bool RunTraverse(const Op& op, OpContext* ctx) {
    if (ws_ == nullptr) return ctx->Fail("traverse: no cache loaded");
    auto depts = ws_->component("XDEPT");
    if (!depts.ok()) return ctx->Fail("traverse: no XDEPT");
    xnfdb::ComponentTable* roots = depts.value();
    int64_t visits = 0, sum = 0;
    ctx->Engine([&] {
      ctx->Span("cache.traverse", [&] {
        for (int64_t rep = 0; rep < op.a; ++rep) {
          for (size_t i = 0; i < roots->size(); ++i) {
            walker_->Walk(roots->row(i), 3, &visits, &sum);
          }
        }
      });
    });
    ctx->tuples = visits;
    int64_t want_visits = 0, want_sum = 0;
    for (int64_t rep = 0; rep < op.a; ++rep) {
      for (size_t i = 0; i < cached_co_.comps[0].rows.size(); ++i) {
        cached_co_.Walk(0, static_cast<int>(i), 3, &want_visits, &want_sum);
      }
    }
    if (visits != want_visits || sum != want_sum) {
      return ctx->Fail("traverse: visited " + std::to_string(visits) +
                       ", expected " + std::to_string(want_visits));
    }
    return true;
  }

  bool RunWriteback(const Op& op, OpContext* ctx) {
    if (ws_ == nullptr) return ctx->Fail("write-back: no cache loaded");
    const size_t n = op.keys.size() / 2;
    Status st = ctx->Engine([&]() -> Status {
      return ctx->Span("cache.update", [&]() -> Status {
        for (size_t i = 0; i < n; ++i) {
          auto it = emp_rows_.find(op.keys[2 * i]);
          if (it == emp_rows_.end()) {
            return Status::NotFound("employee not cached");
          }
          XNFDB_RETURN_IF_ERROR(ws_->UpdateRow(
              it->second, 3, Value(static_cast<double>(op.keys[2 * i + 1]))));
        }
        return Status::Ok();
      });
    });
    if (!st.ok()) return ctx->Fail("write-back update: " + st.ToString());
    if (!WriteBack(db_.get(), def_.get(), ws_.get(), ctx)) return false;
    // One UPDATE per row whose salary actually changed.
    int64_t changed = 0;
    for (size_t i = 0; i < n; ++i) {
      Value& sal = data_.emp[op.keys[2 * i]][3];
      const Value fresh(static_cast<double>(op.keys[2 * i + 1]));
      if (sal.AsDouble() != fresh.AsDouble()) ++changed;
      sal = fresh;
    }
    ++data_.version;
    if (ctx->stmts != changed) {
      return ctx->Fail("write-back: " + std::to_string(ctx->stmts) +
                       " statements for " + std::to_string(changed) +
                       " changed rows");
    }
    return true;
  }

  const bool serve_;
  const DeptParams params_;
  const uint64_t seed_;
  DeptData data_;
  std::vector<Target> targets_;
  std::vector<int> weights_;
  std::unique_ptr<Database> db_;
  std::map<std::string, std::pair<int64_t, Digest>> expected_;
  // The checked-out CO.
  std::unique_ptr<xnfdb::ast::XnfQuery> def_;
  std::unique_ptr<xnfdb::Workspace> ws_;
  std::unique_ptr<CacheWalker> walker_;
  CoAnswer cached_co_;
  std::map<int64_t, xnfdb::CachedRow*> emp_rows_;
};

}  // namespace

std::unique_ptr<Workload> MakeExtract(uint64_t seed) {
  return std::make_unique<DeptWorkload>(false, seed);
}

std::unique_ptr<Workload> MakeServeMixed(uint64_t seed) {
  return std::make_unique<DeptWorkload>(true, seed);
}

}  // namespace xnfbench
