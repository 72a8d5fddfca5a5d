// Tests of the leveled JSON-lines logger (common/log.h) and of the
// Database slow-query log built on top of it: one structured line per slow
// statement, silence for fast ones and at level off.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/database.h"
#include "common/log.h"

namespace xnfdb {
namespace {

// Captures lines emitted through Logger::Default() for the scope's
// lifetime, saving/restoring the level around it.
class ScopedLogCapture {
 public:
  ScopedLogCapture() : saved_level_(Logger::Default().level()) {
    Logger::Default().SetSink(
        [this](const std::string& line) { lines_.push_back(line); });
  }
  ~ScopedLogCapture() {
    Logger::Default().SetSink(nullptr);
    Logger::Default().set_level(saved_level_);
  }
  const std::vector<std::string>& lines() const { return lines_; }

 private:
  LogLevel saved_level_;
  std::vector<std::string> lines_;
};

TEST(LogTest, ParseAndNameRoundTrip) {
  EXPECT_EQ(ParseLogLevel("trace"), LogLevel::kTrace);
  EXPECT_EQ(ParseLogLevel("ERROR"), LogLevel::kError);
  EXPECT_EQ(ParseLogLevel("off"), LogLevel::kOff);
  EXPECT_EQ(ParseLogLevel("bogus"), LogLevel::kWarn);  // default
  EXPECT_STREQ(LogLevelName(LogLevel::kInfo), "info");
}

TEST(LogTest, LevelsBelowThresholdAreSilent) {
  ScopedLogCapture capture;
  Logger::Default().set_level(LogLevel::kWarn);
  Logger::Default().Log(LogLevel::kDebug, "test", "dropped");
  Logger::Default().Log(LogLevel::kInfo, "test", "dropped too");
  EXPECT_TRUE(capture.lines().empty());
  Logger::Default().Log(LogLevel::kWarn, "test", "kept");
  Logger::Default().Log(LogLevel::kError, "test", "kept too");
  EXPECT_EQ(capture.lines().size(), 2u);
  EXPECT_FALSE(Logger::Default().Enabled(LogLevel::kInfo));
  EXPECT_TRUE(Logger::Default().Enabled(LogLevel::kError));
}

TEST(LogTest, OffSilencesEverything) {
  ScopedLogCapture capture;
  Logger::Default().set_level(LogLevel::kOff);
  Logger::Default().Log(LogLevel::kError, "test", "dropped");
  EXPECT_TRUE(capture.lines().empty());
}

TEST(LogTest, LinesAreJsonWithChannelAndFields) {
  ScopedLogCapture capture;
  Logger::Default().set_level(LogLevel::kInfo);
  Logger::Default().Log(LogLevel::kInfo, "chan", "hello \"world\"",
                        {LogField::S("who", "x\ny"), LogField::N("n", 42)});
  ASSERT_EQ(capture.lines().size(), 1u);
  const std::string& line = capture.lines()[0];
  EXPECT_NE(line.find("\"level\":\"info\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"channel\":\"chan\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"msg\":\"hello \\\"world\\\"\""), std::string::npos)
      << line;
  EXPECT_NE(line.find("\"who\":\"x\\ny\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"n\":42"), std::string::npos) << line;
  EXPECT_NE(line.find("\"ts_us\":"), std::string::npos) << line;
}

TEST(SlowQueryLogTest, SlowStatementEmitsExactlyOneLineWithTextAndPlan) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE T (A INTEGER)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO T VALUES (1), (2), (3)").ok());

  ScopedLogCapture capture;
  Logger::Default().set_level(LogLevel::kWarn);
  db.SetSlowQueryThreshold(0);  // everything with elapsed > 0 is "slow"
  ASSERT_TRUE(db.Query("SELECT A FROM T WHERE A = 2").ok());
  ASSERT_EQ(capture.lines().size(), 1u) << "expected exactly one slow line";
  const std::string& line = capture.lines()[0];
  EXPECT_NE(line.find("\"channel\":\"slowlog\""), std::string::npos) << line;
  // Normalized text: the literal 2 must have become ?.
  EXPECT_NE(line.find("WHERE (A = ?)"), std::string::npos) << line;
  EXPECT_EQ(line.find("A = 2"), std::string::npos) << line;
  // Phase timings and the EXPLAIN ANALYZE plan ride along.
  EXPECT_NE(line.find("\"total_us\":"), std::string::npos) << line;
  EXPECT_NE(line.find("\"compile_us\":"), std::string::npos) << line;
  EXPECT_NE(line.find("\"plan\":\""), std::string::npos) << line;
  EXPECT_NE(line.find("Scan"), std::string::npos) << line;
  EXPECT_NE(line.find("\"digest\":\""), std::string::npos) << line;
}

TEST(SlowQueryLogTest, FastStatementsEmitNothing) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE T (A INTEGER)").ok());

  ScopedLogCapture capture;
  Logger::Default().set_level(LogLevel::kWarn);
  db.SetSlowQueryThreshold(60LL * 1000 * 1000);  // one minute: never slow
  ASSERT_TRUE(db.Query("SELECT A FROM T").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO T VALUES (1)").ok());
  EXPECT_TRUE(capture.lines().empty());

  // Disarmed (the default -1): silent even for "slow" statements.
  db.SetSlowQueryThreshold(-1);
  ASSERT_TRUE(db.Query("SELECT A FROM T").ok());
  EXPECT_TRUE(capture.lines().empty());
}

TEST(SlowQueryLogTest, LogLevelOffSilencesSlowLog) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE T (A INTEGER)").ok());

  ScopedLogCapture capture;
  Logger::Default().set_level(LogLevel::kOff);
  db.SetSlowQueryThreshold(0);
  ASSERT_TRUE(db.Query("SELECT A FROM T").ok());
  EXPECT_TRUE(capture.lines().empty());
  // The statement still landed in sys$statements despite the silent log.
  EXPECT_EQ(db.digest_store().size(), 2u);  // CREATE TABLE + SELECT
}

}  // namespace
}  // namespace xnfdb
