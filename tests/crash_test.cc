// Tests of the crash-diagnostics path (common/crash.h) and the diagnostic
// bundle (Database::WriteDiagnosticBundle): a forked child that segfaults
// mid-query must leave a crash report carrying a backtrace, the flight-
// recorder tail, and the active-query rows; a live bundle must be a set of
// CRC-checked XNFDIAG files; and under fault injection a failed file is
// skipped — reported, never torn — while the rest of the bundle stays
// readable.

#include <gtest/gtest.h>

#include <dirent.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <exception>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "api/database.h"
#include "common/crash.h"
#include "common/env.h"
#include "common/fault_env.h"
#include "common/file_format.h"
#include "obs/flight_recorder.h"
#include "storage/catalog.h"
#include "storage/sysview.h"

// AddressSanitizer claims SIGSEGV for its own reporting before our handler
// can run; the forked death tests only make sense without it.
#if defined(__SANITIZE_ADDRESS__)
#define XNFDB_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define XNFDB_TEST_ASAN 1
#endif
#endif

namespace xnfdb {
namespace {

std::string TestPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name + "_" +
         std::to_string(::getpid());
}

std::string ReadFileOrDie(const std::string& path) {
  std::string out;
  Status s = Env::Default()->ReadFileToString(path, &out);
  EXPECT_TRUE(s.ok()) << path << ": " << s.ToString();
  return out;
}

// The single crash_*.txt report in `dir` ("" when none).
std::string ReadCrashReport(const std::string& dir) {
  std::string found;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return "";
  while (struct dirent* e = ::readdir(d)) {
    std::string name = e->d_name;
    if (name.rfind("crash_", 0) == 0 &&
        name.size() > 4 && name.substr(name.size() - 4) == ".txt") {
      found = dir + "/" + name;
      break;
    }
  }
  ::closedir(d);
  return found.empty() ? "" : ReadFileOrDie(found);
}

// A virtual table whose scan dereferences null: a genuine SIGSEGV in the
// middle of an admitted, governed query.
class CrashingProvider : public VirtualTableProvider {
 public:
  CrashingProvider()
      : name_("CRASHME"),
        schema_(Schema(std::vector<Column>{{"A", DataType::kInt}})) {}
  const std::string& name() const override { return name_; }
  const Schema& schema() const override { return schema_; }
  Result<std::vector<Tuple>> Generate() const override {
    volatile int* null_ptr = nullptr;
    *null_ptr = 1;  // SIGSEGV
    return std::vector<Tuple>{};
  }

 private:
  std::string name_;
  Schema schema_;
};

TEST(CrashReportTest, ForkedSigsegvMidQueryLeavesAForensicReport) {
#if defined(XNFDB_TEST_ASAN)
  GTEST_SKIP() << "ASan owns SIGSEGV";
#else
  const std::string dir = TestPath("crash_sigsegv");
  pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: install the handler, then crash inside a governed query.
    if (!InstallCrashHandler(dir)) ::_exit(41);
    Database db;
    if (!db.catalog()
             .RegisterVirtualTable(std::make_unique<CrashingProvider>())
             .ok()) {
      ::_exit(43);
    }
    (void)db.Query("SELECT * FROM CRASHME");
    ::_exit(42);  // unreachable: the query segfaults
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "exit status " << status;
  EXPECT_EQ(WTERMSIG(status), SIGSEGV);

  ASSERT_EQ(CountCrashReports(dir), 1);
  std::string report = ReadCrashReport(dir);
  ASSERT_FALSE(report.empty());
  EXPECT_NE(report.find("=== xnfdb crash report ==="), std::string::npos);
  EXPECT_NE(report.find("reason: SIGSEGV"), std::string::npos) << report;
  // A backtrace with at least one resolved frame.
  ASSERT_NE(report.find("--- backtrace ---"), std::string::npos);
  EXPECT_NE(report.find("xnfdb"), std::string::npos);
  // The flight recorder tail holds the query-start event of the very
  // query that died.
  ASSERT_NE(report.find("--- flight recorder"), std::string::npos);
  EXPECT_NE(report.find("query start"), std::string::npos) << report;
  // The governor's admission refresh captured the active query.
  ASSERT_NE(report.find("--- active queries"), std::string::npos);
  EXPECT_NE(report.find("CRASHME"), std::string::npos) << report;
  EXPECT_NE(report.find("state="), std::string::npos) << report;
#endif
}

TEST(CrashReportTest, TerminateHookWritesAReportThenAborts) {
#if defined(XNFDB_TEST_ASAN)
  GTEST_SKIP() << "ASan death handling differs";
#else
  const std::string dir = TestPath("crash_terminate");
  pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    if (!InstallCrashHandler(dir)) ::_exit(41);
    obs::FlightRecorder::Default().Record("test", "error", "about to die");
    std::terminate();
    ::_exit(42);  // unreachable
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "exit status " << status;
  EXPECT_EQ(WTERMSIG(status), SIGABRT);

  ASSERT_EQ(CountCrashReports(dir), 1);
  std::string report = ReadCrashReport(dir);
  EXPECT_NE(report.find("reason: std::terminate"), std::string::npos)
      << report;
  EXPECT_NE(report.find("about to die"), std::string::npos) << report;
#endif
}

TEST(CrashReportTest, CountCrashReportsMatchesOnlyReportFiles) {
  const std::string dir = TestPath("crash_count");
  ASSERT_TRUE(Env::Default()->CreateDir(dir).ok());
  EXPECT_EQ(CountCrashReports(dir), 0);
  EXPECT_EQ(CountCrashReports(dir + "/missing"), 0);
  for (const char* name :
       {"crash_1_100.txt", "crash_2_200.txt", "notes.txt", "crash_3.log"}) {
    ASSERT_TRUE(
        AtomicallyWriteFile(Env::Default(), dir + "/" + name, "x").ok());
  }
  EXPECT_EQ(CountCrashReports(dir), 2);
}

TEST(CrashReportTest, RenderCrashStyleReportMatchesHandlerLayout) {
  obs::FlightRecorder::Default().set_enabled(true);
  obs::FlightRecorder::Default().Record("test", "warn", "render marker");
  std::string report = RenderCrashStyleReport("unit test");
  EXPECT_NE(report.find("=== xnfdb crash report ==="), std::string::npos);
  EXPECT_NE(report.find("reason: unit test"), std::string::npos);
  EXPECT_NE(report.find("(not a crash: backtrace omitted)"),
            std::string::npos);
  EXPECT_NE(report.find("render marker"), std::string::npos);
  EXPECT_NE(report.find("=== end crash report ==="), std::string::npos);
}

// --- diagnostic bundles ---------------------------------------------------

std::vector<FileSection> ReadDiagFile(const std::string& path) {
  std::string raw = ReadFileOrDie(path);
  std::istringstream in(raw);
  std::string magic;
  EXPECT_TRUE(std::getline(in, magic));
  EXPECT_EQ(magic, "XNFDIAG 1") << path;
  Result<std::vector<FileSection>> sections = ReadSectionedFile(in);
  EXPECT_TRUE(sections.ok()) << path << ": " << sections.status().ToString();
  return sections.ok() ? std::move(sections).value()
                       : std::vector<FileSection>{};
}

const char* const kBundleFiles[] = {
    "report.diag",   "metrics.diag",       "events.diag", "health.diag",
    "queries.diag",  "samples.diag",       "profiles.diag",
    "plan_feedback.diag", "env.diag",      "MANIFEST.diag"};

TEST(DiagnosticBundleTest, BundleIsACompleteSetOfCheckedFiles) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE T (A INTEGER)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO T VALUES (1), (2), (3)").ok());
  ASSERT_TRUE(db.Query("SELECT A FROM T WHERE A > 1").ok());
  db.sampler().SampleNow();

  const std::string dir = TestPath("diag_bundle");
  Status s = db.WriteDiagnosticBundle(dir);
  ASSERT_TRUE(s.ok()) << s.ToString();

  for (const char* file : kBundleFiles) {
    ASSERT_TRUE(Env::Default()->FileExists(dir + "/" + file)) << file;
    std::vector<FileSection> sections = ReadDiagFile(dir + "/" + file);
    ASSERT_FALSE(sections.empty()) << file;
  }

  std::vector<FileSection> report = ReadDiagFile(dir + "/report.diag");
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report[0].name, "REPORT");
  EXPECT_NE(report[0].payload.find("=== xnfdb crash report ==="),
            std::string::npos);

  std::vector<FileSection> events = ReadDiagFile(dir + "/events.diag");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "EVENTS");
  EXPECT_NE(events[0].payload.find("query start"), std::string::npos);

  std::vector<FileSection> health = ReadDiagFile(dir + "/health.diag");
  ASSERT_EQ(health.size(), 2u);
  EXPECT_EQ(health[0].name, "HEALTH");
  EXPECT_NE(health[0].payload.find("\"status\":"), std::string::npos);
  EXPECT_EQ(health[1].name, "ALERTS");

  std::vector<FileSection> env = ReadDiagFile(dir + "/env.diag");
  ASSERT_EQ(env.size(), 2u);
  EXPECT_EQ(env[0].name, "ENV");
  // Every knob the engine reads is listed, one per line, including the
  // execution knobs CI reruns the suite with.
  EXPECT_EQ(env[0].records, 19u);
  EXPECT_EQ(std::count(env[0].payload.begin(), env[0].payload.end(), '\n'),
            19);
  for (const char* knob :
       {"XNFDB_EVENTS=", "XNFDB_MATVIEWS=", "XNFDB_BATCH_SIZE=",
        "XNFDB_MORSEL_WORKERS=", "XNFDB_MORSEL_ROWS="}) {
    EXPECT_NE(env[0].payload.find(knob), std::string::npos) << knob;
  }
  EXPECT_EQ(env[1].name, "RESOLVED");
  EXPECT_NE(env[1].payload.find("events_enabled="), std::string::npos);
  EXPECT_EQ(static_cast<int64_t>(env[1].records),
            std::count(env[1].payload.begin(), env[1].payload.end(), '\n'));

  std::vector<FileSection> manifest = ReadDiagFile(dir + "/MANIFEST.diag");
  ASSERT_EQ(manifest.size(), 1u);
  // Every earlier file is listed as written.
  for (const char* file : kBundleFiles) {
    if (std::string(file) == "MANIFEST.diag") continue;
    EXPECT_NE(manifest[0].payload.find(std::string(file) + " sections="),
              std::string::npos)
        << file;
  }
  EXPECT_EQ(manifest[0].payload.find("failed"), std::string::npos);
}

TEST(DiagnosticBundleTest, FaultDuringBundleIsReportedNotFatalNeverTorn) {
  FaultInjectionEnv fenv;
  Database db(&fenv);
  const std::string dir = TestPath("diag_partial");
  // The first file's commit rename fails: report.diag must simply not
  // exist — AtomicallyWriteFile never leaves a torn file — while every
  // later file is still written and checksummed.
  fenv.FailNextRenames(1);
  Status s = db.WriteDiagnosticBundle(dir);
  EXPECT_FALSE(s.ok()) << "the failure must surface in the returned status";
  EXPECT_GE(fenv.counters().injected_errors, 1);

  Env* real = Env::Default();
  EXPECT_FALSE(real->FileExists(dir + "/report.diag"));
  EXPECT_FALSE(real->FileExists(dir + "/report.diag.tmp"));
  for (const char* file : kBundleFiles) {
    if (std::string(file) == "report.diag") continue;
    ASSERT_TRUE(real->FileExists(dir + "/" + file)) << file;
    std::vector<FileSection> sections = ReadDiagFile(dir + "/" + file);
    ASSERT_FALSE(sections.empty()) << file;
  }
  std::vector<FileSection> manifest = ReadDiagFile(dir + "/MANIFEST.diag");
  ASSERT_EQ(manifest.size(), 1u);
  EXPECT_NE(manifest[0].payload.find("report.diag sections=1 failed"),
            std::string::npos)
      << manifest[0].payload;
  EXPECT_NE(manifest[0].payload.find("metrics.diag sections=1 ok"),
            std::string::npos)
      << manifest[0].payload;
}

}  // namespace
}  // namespace xnfdb
