// Index nested-loop joins (optimizer/planner.h, exec IndexJoinOp) and the
// storage changes around them: a differential oracle over every join-method
// and execution knob on random Fig. 1 databases under DML, work-counter
// guards on the extraction-sized database, the stats refresh policy, and
// index-driven single-row UPDATE/DELETE.

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "api/database.h"
#include "bench/workloads.h"

namespace xnfdb {
namespace {

// The deps CO of Fig. 1 rooted at `root`; `xskills` defines the shared
// skills component (a pass-through box consumed by both property
// relationships).
std::string DepsCo(const std::string& root,
                   const std::string& xskills = "SKILLS") {
  return "OUT OF xdept AS (SELECT * FROM DEPT WHERE " + root +
         "), xemp AS EMP, xproj AS PROJ, xskills AS " + xskills +
         ", employment AS (RELATE xdept VIA EMPLOYS, xemp "
         "WHERE xdept.dno = xemp.edno), "
         "ownership AS (RELATE xdept VIA HAS, xproj "
         "WHERE xdept.dno = xproj.pdno), "
         "empproperty AS (RELATE xemp VIA POSSESSES, xskills USING "
         "EMPSKILLS es WHERE xemp.eno = es.eseno AND es.essno = xskills.sno), "
         "projproperty AS (RELATE xproj VIA NEEDS, xskills USING PROJSKILLS "
         "ps WHERE xproj.pno = ps.pspno AND ps.pssno = xskills.sno) TAKE *";
}

// The answer as emitted: every stream item in order, tids included.
std::vector<std::string> Ordered(const QueryResult& r) {
  std::vector<std::string> out;
  for (const StreamItem& item : r.stream) {
    std::string s = std::to_string(item.output) + ":";
    if (item.kind == StreamItem::Kind::kRow) {
      s += std::to_string(item.tid) + " " + TupleToString(item.values);
    } else {
      for (TupleId t : item.tids) s += " " + std::to_string(t);
    }
    out.push_back(std::move(s));
  }
  return out;
}

// The answer as a multiset, connections resolved to their partners' rows
// (equal up to tid renaming).
std::multiset<std::string> Canonical(const QueryResult& r) {
  std::map<std::string, int> component;  // component name -> output index
  for (size_t i = 0; i < r.outputs.size(); ++i) {
    if (!r.outputs[i].is_connection) component[r.outputs[i].name] = int(i);
  }
  std::map<std::pair<int, TupleId>, std::string> rows;
  for (const StreamItem& item : r.stream) {
    if (item.kind == StreamItem::Kind::kRow) {
      rows[{item.output, item.tid}] = TupleToString(item.values);
    }
  }
  std::multiset<std::string> out;
  for (const StreamItem& item : r.stream) {
    const OutputDesc& desc = r.outputs[item.output];
    std::string s = desc.name + ":";
    if (item.kind == StreamItem::Kind::kRow) {
      s += TupleToString(item.values);
    } else {
      for (size_t p = 0; p < item.tids.size(); ++p) {
        s += " " + rows[{component[desc.partner_names[p]], item.tids[p]}];
      }
    }
    out.insert(std::move(s));
  }
  return out;
}

struct Config {
  bool indexes;
  bool hash_join;
  int batch;
  int morsels;

  ExecOptions Options() const {
    ExecOptions o;
    o.plan.use_indexes = indexes;
    o.plan.use_hash_join = hash_join;
    o.batch_size = batch;
    o.morsel_workers = morsels;
    o.morsel_rows = 3;  // tiny morsels: several per table
    return o;
  }
  std::string Name() const {
    return std::string(indexes ? "idx" : "noidx") +
           (hash_join ? "/hash" : "/nl") + "/b" + std::to_string(batch) +
           "/m" + std::to_string(morsels);
  }
};

std::vector<Config> AllConfigs() {
  std::vector<Config> out;
  for (bool indexes : {true, false}) {
    for (bool hash_join : {true, false}) {
      for (int batch : {1, 1024}) {
        for (int morsels : {1, 4}) {
          out.push_back({indexes, hash_join, batch, morsels});
        }
      }
    }
  }
  return out;
}

class IndexJoinPropertyTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  void SetUp() override {
    rng_.seed(GetParam());
    db_.matviews().set_enabled(false);  // every query must really run
    ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE DEPT (DNO INTEGER, DNAME VARCHAR, LOC VARCHAR,
                         PRIMARY KEY (DNO));
      CREATE TABLE EMP (ENO INTEGER, ENAME VARCHAR, EDNO INTEGER, SAL DOUBLE,
                        PRIMARY KEY (ENO));
      CREATE TABLE PROJ (PNO INTEGER, PNAME VARCHAR, PDNO INTEGER,
                         PRIMARY KEY (PNO));
      CREATE TABLE SKILLS (SNO INTEGER, SNAME VARCHAR, PRIMARY KEY (SNO));
      CREATE TABLE EMPSKILLS (ESENO INTEGER, ESSNO INTEGER);
      CREATE TABLE PROJSKILLS (PSPNO INTEGER, PSSNO INTEGER);
      CREATE INDEX ON EMP (EDNO);
      CREATE INDEX ON PROJ (PDNO);
      CREATE INDEX ON EMPSKILLS (ESENO);
      CREATE INDEX ON PROJSKILLS (PSPNO);
      CREATE TABLE KI (K INTEGER, V VARCHAR);
      CREATE TABLE KD (K DOUBLE, W VARCHAR);
      CREATE INDEX ON KI (K);
      CREATE INDEX ON KD (K);
    )sql")
                    .ok());
    for (int d = 1; d <= kDepts; ++d) {
      Exec("INSERT INTO DEPT VALUES (" + I(d) + ", 'd" + I(d) + "', 'L" +
           I(d % 3) + "')");
    }
    for (int i = 0; i < 60; ++i) InsertEmp();
    for (int p = 1; p <= 24; ++p) {
      Exec("INSERT INTO PROJ VALUES (" + I(p) + ", 'p" + I(p) + "', " +
           DeptKey() + ")");
    }
    for (int s = 1; s <= 40; ++s) {
      Exec("INSERT INTO SKILLS VALUES (" + I(s) + ", 's" + I(s) + "')");
    }
    for (int i = 0; i < 120; ++i) {
      Exec("INSERT INTO EMPSKILLS VALUES (" + Pick(1, next_eno_) + ", " +
           Pick(1, 41) + ")");
    }
    for (int i = 0; i < 50; ++i) {
      Exec("INSERT INTO PROJSKILLS VALUES (" + Pick(1, 25) + ", " +
           Pick(1, 41) + ")");
    }
    // INT and DOUBLE keys (2 joins 2.0, never 2.5), NULL and duplicate keys.
    for (int i = 0; i < 40; ++i) {
      Exec("INSERT INTO KI VALUES (" + IntKey() + ", 'v" + I(i % 10) + "')");
      Exec("INSERT INTO KD VALUES (" + DoubleKey() + ", 'w" + I(i % 10) +
           "')");
    }
  }

  static std::string I(int64_t v) { return std::to_string(v); }
  std::string Pick(int lo, int hi) {  // [lo, hi)
    return I(lo + static_cast<int>(rng_() % static_cast<uint32_t>(hi - lo)));
  }
  // An EDNO/PDNO value: mostly a department, sometimes NULL or dangling.
  std::string DeptKey() {
    uint32_t r = rng_() % 10;
    if (r == 0) return "NULL";
    if (r == 1) return I(kDepts + 5);
    return Pick(1, kDepts + 1);
  }
  // Join keys of KI (INTEGER) and KD (DOUBLE): shared small domain, some
  // NULLs, and DOUBLE keys that are whole (2.0) or not (2.5).
  std::string IntKey() { return rng_() % 8 == 0 ? "NULL" : Pick(0, 12); }
  std::string DoubleKey() {
    uint32_t r = rng_() % 8;
    if (r == 0) return "NULL";
    return Pick(0, 12) + (r < 3 ? ".5" : ".0");
  }
  void Exec(const std::string& sql) {
    Result<Database::Outcome> r = db_.Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  }
  void InsertEmp() {
    int eno = next_eno_++;
    Exec("INSERT INTO EMP VALUES (" + I(eno) + ", 'e" + I(eno) + "', " +
         DeptKey() + ", " + Pick(30, 99) + "000.0)");
  }

  // One random single-row write: key-moving updates, deletes, inserts.
  void RandomDml() {
    switch (rng_() % 6) {
      case 0:
        Exec("UPDATE EMP SET EDNO = " + DeptKey() + " WHERE ENO = " +
             Pick(1, next_eno_));
        break;
      case 1:
        Exec("DELETE FROM EMP WHERE ENO = " + Pick(1, next_eno_));
        break;
      case 2:
        InsertEmp();
        break;
      case 3:
        Exec("UPDATE EMPSKILLS SET ESENO = " + Pick(1, next_eno_) +
             " WHERE ESENO = " + Pick(1, next_eno_));
        break;
      case 4:
        Exec("UPDATE KD SET K = " + DoubleKey() + " WHERE K = " + IntKey());
        break;
      default:
        Exec("DELETE FROM PROJSKILLS WHERE PSPNO = " + Pick(1, 25));
        break;
    }
  }

  static constexpr int kDepts = 12;
  Database db_;
  std::mt19937 rng_;
  int next_eno_ = 1;
};

TEST_P(IndexJoinPropertyTest, EveryKnobCombinationAgrees) {
  const std::vector<Config> configs = AllConfigs();
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 12; ++i) RandomDml();
    const std::string dno = Pick(1, kDepts + 1);
    const std::vector<std::string> queries = {
        DepsCo("DNO = " + dno),
        DepsCo("LOC = 'L" + Pick(0, 3) + "'"),
        DepsCo("DNO = " + dno, "(SELECT SNAME, SNO FROM SKILLS)"),
        "SELECT e.ENO, e.ENAME, d.DNAME FROM DEPT d, EMP e "
        "WHERE d.DNO = " + dno + " AND e.EDNO = d.DNO",
        // Residuals on the fetched rows: a pushed inner predicate and a
        // second join predicate.
        "SELECT e.ENO, e.SAL, d.DNAME FROM DEPT d, EMP e "
        "WHERE d.DNO = " + dno + " AND e.EDNO = d.DNO AND e.SAL > 60000.0 "
        "AND e.ENO <> d.DNO + 20",
        "SELECT e.ENO, s.SNAME FROM EMP e, EMPSKILLS es, SKILLS s "
        "WHERE e.ENO = " + Pick(1, next_eno_) + " AND es.ESENO = e.ENO "
        "AND s.SNO = es.ESSNO AND s.SNO > 20",
        "SELECT a.K, a.V, b.K, b.W FROM KI a, KD b "
        "WHERE a.V = 'v1' AND b.K = a.K",
        "SELECT a.K, a.V, b.K, b.W FROM KD b, KI a "
        "WHERE b.W = 'w2' AND a.K = b.K",
    };
    for (const std::string& q : queries) {
      SCOPED_TRACE(q);
      std::map<std::string, std::vector<std::string>> ordered;
      std::multiset<std::string> expected;
      for (const Config& c : configs) {
        Result<QueryResult> r = db_.Query(q, {}, c.Options());
        ASSERT_TRUE(r.ok()) << c.Name() << ": " << r.status().ToString();
        if (&c == &configs.front()) {
          expected = Canonical(r.value());
        } else {
          EXPECT_EQ(Canonical(r.value()), expected) << c.Name();
        }
        ordered[c.Name()] = Ordered(r.value());
      }
      // Index joins emit exactly what hash joins over scans emit, in order.
      for (const Config& c : configs) {
        if (!c.indexes || !c.hash_join) continue;
        Config hash = c;
        hash.indexes = false;
        EXPECT_EQ(ordered[c.Name()], ordered[hash.Name()]) << c.Name();
      }
      ExecOptions no_index;
      no_index.plan.use_indexes = false;
      Result<std::string> plain = db_.Explain(q, {}, no_index);
      ASSERT_TRUE(plain.ok());
      EXPECT_EQ(plain.value().find("IndexJoin("), std::string::npos);
    }
  }
}

TEST_P(IndexJoinPropertyTest, SelectiveJoinsPlanIndexJoins) {
  for (const std::string& q :
       {std::string("SELECT e.ENO, d.DNAME FROM DEPT d, EMP e "
                    "WHERE d.DNO = 4 AND e.EDNO = d.DNO"),
        std::string("SELECT a.V, b.W FROM KI a, KD b "
                    "WHERE a.V = 'v1' AND b.K = a.K")}) {
    Result<std::string> plan = db_.Explain(q);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_NE(plan.value().find("IndexJoin("), std::string::npos)
        << plan.value();
  }
  // The plan-shape token names the access path, never the probe literal.
  Result<QueryResult> r = db_.Query(
      "SELECT e.ENO FROM DEPT d, EMP e WHERE d.DNO = 4 AND e.EDNO = d.DNO");
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r.value().plan_shape.find("index_join:EMP.EDNO("),
            std::string::npos)
      << r.value().plan_shape;
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexJoinPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 4u));

// The extraction-sized database: 400 departments, 49k rows.
class ExtractDbTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    bench::DeptDbParams p;
    p.departments = 400;
    p.emps_per_dept = 20;
    p.projs_per_dept = 4;
    p.skills = 20000;
    ASSERT_TRUE(bench::PopulateDeptDb(db_, p).ok());
    db_->matviews().set_enabled(false);
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }
  static Database* db_;
};

Database* ExtractDbTest::db_ = nullptr;

TEST_F(ExtractDbTest, OneDepartmentCoReadsOnlyWhatItReaches) {
  const std::string q = DepsCo("DNO = 17");
  Result<QueryResult> fast = db_->Query(q);
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();
  EXPECT_LT(fast.value().stats.rows_scanned, 1000);
  // The shared skills component is no longer copied into a spool.
  EXPECT_LT(fast.value().stats.spool_read_rows, 1000);
  ExecOptions scans;
  scans.plan.use_indexes = false;
  Result<QueryResult> slow = db_->Query(q, {}, scans);
  ASSERT_TRUE(slow.ok());
  EXPECT_GT(slow.value().stats.rows_scanned, 40000);
  EXPECT_EQ(Ordered(fast.value()), Ordered(slow.value()));

  Database::ExplainOptions analyze;
  analyze.analyze = true;
  Result<std::string> plan = db_->Explain(q, analyze);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan.value().find("IndexJoin(EMP.EDNO = "), std::string::npos)
      << plan.value();
  EXPECT_NE(plan.value().find("IndexJoin(SKILLS.SNO = "), std::string::npos)
      << plan.value();
}

TEST_F(ExtractDbTest, UnrestrictedJoinKeepsHashJoin) {
  Result<std::string> plan = db_->Explain(
      "SELECT e.ENO, d.DNAME FROM EMP e, DEPT d WHERE e.EDNO = d.DNO");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan.value().find("HashJoin("), std::string::npos)
      << plan.value();
  EXPECT_EQ(plan.value().find("IndexJoin("), std::string::npos)
      << plan.value();
}

// --- index-driven single-row DML ---------------------------------------------

class IndexDmlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE T (K INTEGER, V INTEGER);
      CREATE INDEX ON T (K);
      INSERT INTO T VALUES (NULL, 1), (2, 2), (2, 3), (5, 4), (5, 5);
    )sql")
                    .ok());
  }
  size_t Affected(const std::string& sql) {
    Result<Database::Outcome> r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? r.value().affected : 0;
  }
  std::multiset<std::string> All() {
    Result<QueryResult> r = db_.Query("SELECT K, V FROM T");
    EXPECT_TRUE(r.ok());
    std::multiset<std::string> out;
    if (!r.ok()) return out;
    for (const Tuple& row : r.value().rows()) out.insert(TupleToString(row));
    return out;
  }
  Database db_;
};

TEST_F(IndexDmlTest, NullKeyMatchesNothing) {
  EXPECT_EQ(Affected("UPDATE T SET V = 0 WHERE K = NULL"), 0u);
  EXPECT_EQ(Affected("DELETE FROM T WHERE NULL = K"), 0u);
  EXPECT_EQ(All().size(), 5u);
}

TEST_F(IndexDmlTest, FullWhereIsRechecked) {
  EXPECT_EQ(Affected("UPDATE T SET V = 9 WHERE K = 5 AND V > 4"), 1u);
  EXPECT_EQ(Affected("DELETE FROM T WHERE V < 3 AND K = 2"), 1u);
  EXPECT_EQ(Affected("UPDATE T SET K = 5 WHERE K = 2.0"), 1u);  // INT = 2.0
  EXPECT_EQ(Affected("DELETE FROM T WHERE K = 7"), 0u);
  EXPECT_EQ(All(), (std::multiset<std::string>{"(NULL, 1)", "(5, 3)",
                                               "(5, 4)", "(5, 9)"}));
  // The moved key is found through the index afterwards.
  EXPECT_EQ(Affected("DELETE FROM T WHERE K = 5"), 3u);
}

}  // namespace
}  // namespace xnfdb
