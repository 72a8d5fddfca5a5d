// Tests of the durable write-back path: the CRC-protected journal written
// before any statement executes, bounded retry of transient server
// failures, and recovery after a persistent failure (the journal plus the
// workspace's pending marks survive for a later retry).

#include <gtest/gtest.h>

#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "cache/writeback.h"
#include "cache/xnf_cache.h"
#include "common/crc32.h"
#include "common/fault_env.h"
#include "tests/paper_db.h"

namespace xnfdb {
namespace {

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(testing_util::LoadPaperDb(&db_).ok());
    cache_ = XNFCache::Evaluate(&db_, testing_util::kDepsArcQuery).value();
    // Unique per test: ctest runs each case as its own concurrent process.
    journal_path_ =
        ::testing::TempDir() + "/journal_test_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".wal";
    Env::Default()->RemoveFile(journal_path_);  // stale runs
  }

  // Marks e1's salary updated in the cache (pending, not yet written back).
  void UpdateSalary(double sal) {
    CachedRow* e1 = cache_->workspace().component("XEMP").value()->FindByValue(
        0, Value(int64_t{10}));
    ASSERT_NE(e1, nullptr);
    ASSERT_TRUE(cache_->Update(e1, "SAL", Value(sal)).ok());
  }

  double ServerSalary() {
    Result<QueryResult> r = db_.Query("SELECT SAL FROM EMP WHERE ENO = 10");
    EXPECT_TRUE(r.ok());
    return r.value().rows()[0][0].AsDouble();
  }

  WriteBackOptions JournalOptions(Env* env = nullptr) {
    WriteBackOptions options;
    options.journal_path = journal_path_;
    options.env = env;
    options.backoff_initial_ms = 0;  // keep retry tests fast
    return options;
  }

  Database db_;
  std::unique_ptr<XNFCache> cache_;
  std::string journal_path_;
};

TEST_F(JournalTest, JournalRemovedAfterSuccessfulWriteBack) {
  UpdateSalary(91000.0);
  Result<std::vector<std::string>> stmts = cache_->WriteBack(JournalOptions());
  ASSERT_TRUE(stmts.ok()) << stmts.status().ToString();
  ASSERT_EQ(stmts.value().size(), 1u);
  EXPECT_DOUBLE_EQ(ServerSalary(), 91000.0);
  EXPECT_FALSE(cache_->workspace().HasPendingChanges());
  EXPECT_FALSE(Env::Default()->FileExists(journal_path_));
}

TEST_F(JournalTest, TransientExecuteFailuresAreRetried) {
  UpdateSalary(92000.0);
  // Two injected kIoError responses are absorbed by the bounded retry
  // (max_retries defaults to 3).
  db_.InjectTransientFailures(2);
  Result<std::vector<std::string>> stmts = cache_->WriteBack(JournalOptions());
  ASSERT_TRUE(stmts.ok()) << stmts.status().ToString();
  EXPECT_DOUBLE_EQ(ServerSalary(), 92000.0);
  EXPECT_FALSE(cache_->workspace().HasPendingChanges());
  EXPECT_FALSE(Env::Default()->FileExists(journal_path_));
}

TEST_F(JournalTest, PersistentFailureLeavesJournalForRecovery) {
  UpdateSalary(93000.0);
  WriteBackPlanner planner(&db_, &cache_->definition());
  Result<std::vector<std::string>> planned =
      planner.Plan(&cache_->workspace());
  ASSERT_TRUE(planned.ok());

  // More failures than the retry budget: the write-back surfaces kIoError
  // after exhausting its attempts...
  db_.InjectTransientFailures(100);
  Result<std::vector<std::string>> stmts = cache_->WriteBack(JournalOptions());
  ASSERT_FALSE(stmts.ok());
  EXPECT_EQ(stmts.status().code(), StatusCode::kIoError);
  db_.InjectTransientFailures(0);

  // ...but nothing was applied, the pending marks survived, and the journal
  // still holds the planned statements for recovery.
  EXPECT_DOUBLE_EQ(ServerSalary(), 90000.0);
  EXPECT_TRUE(cache_->workspace().HasPendingChanges());
  ASSERT_TRUE(Env::Default()->FileExists(journal_path_));
  Result<std::vector<std::string>> recovered =
      LoadWriteBackJournal(journal_path_);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value(), planned.value());

  // Once the server recovers, re-running the write-back applies the same
  // plan and cleans up.
  Result<std::vector<std::string>> retry = cache_->WriteBack(JournalOptions());
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(retry.value(), planned.value());
  EXPECT_DOUBLE_EQ(ServerSalary(), 93000.0);
  EXPECT_FALSE(cache_->workspace().HasPendingChanges());
  EXPECT_FALSE(Env::Default()->FileExists(journal_path_));
}

TEST_F(JournalTest, JournalWriteFailureAbortsBeforeExecution) {
  UpdateSalary(94000.0);
  FaultInjectionEnv env;
  env.FailAppendsAfterBytes(0);  // every journal write attempt fails
  WriteBackOptions options = JournalOptions(&env);
  options.max_retries = 1;
  Result<std::vector<std::string>> stmts = cache_->WriteBack(options);
  ASSERT_FALSE(stmts.ok());
  EXPECT_EQ(stmts.status().code(), StatusCode::kIoError);
  // The journal write was attempted twice (initial try + one retry), and no
  // statement reached the server.
  EXPECT_EQ(env.counters().injected_errors, 2);
  EXPECT_DOUBLE_EQ(ServerSalary(), 90000.0);
  EXPECT_TRUE(cache_->workspace().HasPendingChanges());
  EXPECT_FALSE(env.FileExists(journal_path_));
  env.ClearFaults();
}

TEST_F(JournalTest, AnalysisErrorSurfacesBeforeJournalOrExecution) {
  // A join component is not updatable: planning fails, so neither the
  // journal nor the server is touched.
  auto cache = XNFCache::Evaluate(
      &db_,
      "OUT OF x AS (SELECT e.ENO, d.DNAME FROM EMP e, DEPT d "
      "WHERE e.EDNO = d.DNO) TAKE *");
  ASSERT_TRUE(cache.ok());
  CachedRow* row = cache.value()->workspace().component("X").value()->row(0);
  ASSERT_TRUE(
      cache.value()->workspace().UpdateRow(row, 1, Value("renamed")).ok());
  Result<std::vector<std::string>> stmts =
      cache.value()->WriteBack(JournalOptions());
  ASSERT_FALSE(stmts.ok());
  EXPECT_EQ(stmts.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(Env::Default()->FileExists(journal_path_));
}

TEST_F(JournalTest, JournalFormatRejectsCorruption) {
  // Handcraft a journal in the documented format and verify the loader's
  // integrity checks.
  std::string payload = "22 UPDATE EMP SET SAL = 1\n13 DELETE FROM T\n";
  std::string journal = "XNFJOURNAL 1\nSTATEMENTS 2 " +
                        Crc32Hex(Crc32(payload)) + "\n" + payload + "END\n";
  Env* env = Env::Default();
  ASSERT_TRUE(AtomicallyWriteFile(env, journal_path_, journal).ok());
  Result<std::vector<std::string>> loaded =
      LoadWriteBackJournal(journal_path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value(),
            (std::vector<std::string>{"UPDATE EMP SET SAL = 1",
                                      "DELETE FROM T"}));

  // Every single-byte flip and every truncation must be rejected.
  for (size_t i = 0; i < journal.size(); ++i) {
    std::string flipped = journal;
    flipped[i] ^= 0x40;
    ASSERT_TRUE(AtomicallyWriteFile(env, journal_path_, flipped).ok());
    EXPECT_FALSE(LoadWriteBackJournal(journal_path_).ok())
        << "flip of byte " << i << " loaded successfully";
  }
  for (size_t cut = 0; cut < journal.size(); ++cut) {
    ASSERT_TRUE(
        AtomicallyWriteFile(env, journal_path_, journal.substr(0, cut)).ok());
    EXPECT_FALSE(LoadWriteBackJournal(journal_path_).ok())
        << "truncation at byte " << cut << " loaded successfully";
  }
  env->RemoveFile(journal_path_);
}

// The SQL dialect has no literal for an infinite or NaN DOUBLE. A pending
// value that is not finite is refused while planning: no journal is
// written, no statement runs (not even the batch's earlier ones), and the
// pending marks stay for a corrected retry.
TEST_F(JournalTest, NonFiniteValueRefusedBeforeJournalOrExecution) {
  const double kBad[] = {std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()};
  for (size_t i = 0; i < std::size(kBad); ++i) {
    SCOPED_TRACE("value " + std::to_string(kBad[i]));
    cache_ = XNFCache::Evaluate(&db_, testing_util::kDepsArcQuery).value();
    // An earlier edit of the same batch: XDEPT's statements come first.
    CachedRow* d1 = cache_->workspace().component("XDEPT").value()
                        ->FindByValue(0, Value(int64_t{1}));
    ASSERT_NE(d1, nullptr);
    const std::string dname = "renamed" + std::to_string(i);
    ASSERT_TRUE(cache_->Update(d1, "DNAME", Value(dname)).ok());
    UpdateSalary(kBad[i]);

    Result<std::vector<std::string>> stmts =
        cache_->WriteBack(JournalOptions());
    ASSERT_FALSE(stmts.ok());
    EXPECT_EQ(stmts.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(stmts.status().message().find("XEMP"), std::string::npos)
        << stmts.status().ToString();
    EXPECT_NE(stmts.status().message().find("SAL"), std::string::npos)
        << stmts.status().ToString();
    const char* kDname = "SELECT DNAME FROM DEPT WHERE DNO = 1";
    Result<QueryResult> dept = db_.Query(kDname);
    ASSERT_TRUE(dept.ok());
    EXPECT_EQ(dept.value().rows()[0][0].AsString(),
              i == 0 ? "DB" : "renamed0");
    EXPECT_DOUBLE_EQ(ServerSalary(), i == 0 ? 90000.0 : 95000.0);
    EXPECT_FALSE(Env::Default()->FileExists(journal_path_));
    EXPECT_TRUE(cache_->workspace().HasPendingChanges());

    // A finite salary writes the whole batch back.
    UpdateSalary(95000.0 + i);
    stmts = cache_->WriteBack(JournalOptions());
    ASSERT_TRUE(stmts.ok()) << stmts.status().ToString();
    dept = db_.Query(kDname);
    ASSERT_TRUE(dept.ok());
    EXPECT_EQ(dept.value().rows()[0][0].AsString(), dname);
    EXPECT_DOUBLE_EQ(ServerSalary(), 95000.0 + i);
    EXPECT_FALSE(cache_->workspace().HasPendingChanges());
    EXPECT_FALSE(Env::Default()->FileExists(journal_path_));
  }
}

}  // namespace
}  // namespace xnfdb
