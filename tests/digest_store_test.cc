// Tests of query fingerprinting (parser/fingerprint.h) and the bounded
// per-statement-digest store behind the per-digest system views
// (obs/digest_store.h).

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "obs/digest_store.h"
#include "parser/fingerprint.h"
#include "parser/parser.h"

namespace xnfdb {
namespace {

Fingerprint FingerprintText(const std::string& text) {
  Result<ast::StatementPtr> stmt = ParseStatement(text);
  EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
  return FingerprintStatement(*stmt.value());
}

TEST(FingerprintTest, LiteralsNormalizeToQuestionMark) {
  Fingerprint fp = FingerprintText("SELECT A FROM T WHERE B = 5 AND C = 'x'");
  EXPECT_EQ(fp.text.find('5'), std::string::npos) << fp.text;
  EXPECT_EQ(fp.text.find("'x'"), std::string::npos) << fp.text;
  EXPECT_NE(fp.text.find('?'), std::string::npos) << fp.text;
  EXPECT_NE(fp.digest, 0u);
}

TEST(FingerprintTest, ConstantsShareAShapeStructureDoesNot) {
  Fingerprint a = FingerprintText("SELECT A FROM T WHERE B = 5");
  Fingerprint b = FingerprintText("SELECT A FROM T WHERE B = 99");
  Fingerprint c = FingerprintText("SELECT A FROM T WHERE C = 5");
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.text, b.text);
  EXPECT_NE(a.digest, c.digest);
}

TEST(FingerprintTest, LimitAndOffsetConstantsAreNormalized) {
  Fingerprint a = FingerprintText("SELECT A FROM T ORDER BY A LIMIT 5");
  Fingerprint b = FingerprintText("SELECT A FROM T ORDER BY A LIMIT 500");
  Fingerprint c = FingerprintText("SELECT A FROM T ORDER BY A");
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_NE(a.digest, c.digest);  // presence of LIMIT is structural
}

TEST(FingerprintTest, MultiRowInsertCollapsesToOneShape) {
  Fingerprint one = FingerprintText("INSERT INTO T VALUES (1, 'a')");
  Fingerprint three =
      FingerprintText("INSERT INTO T VALUES (2, 'b'), (3, 'c'), (4, 'd')");
  Fingerprint other_arity = FingerprintText("INSERT INTO T VALUES (1)");
  EXPECT_EQ(one.digest, three.digest) << one.text << " vs " << three.text;
  EXPECT_NE(one.digest, other_arity.digest);
}

TEST(FingerprintTest, XnfQueriesNormalizeLiteralsToo) {
  const char* kArc =
      "OUT OF d AS (SELECT * FROM DEPT WHERE LOC = 'ARC'), e AS EMP, "
      "r AS (RELATE d VIA EMPLOYS, e WHERE d.DNO = e.EDNO) TAKE *";
  const char* kYkt =
      "OUT OF d AS (SELECT * FROM DEPT WHERE LOC = 'YKT'), e AS EMP, "
      "r AS (RELATE d VIA EMPLOYS, e WHERE d.DNO = e.EDNO) TAKE *";
  Fingerprint a = FingerprintText(kArc);
  Fingerprint b = FingerprintText(kYkt);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.text.find("'ARC'"), std::string::npos) << a.text;
}

TEST(FingerprintTest, KeyTellsLiteralBindingsApart) {
  Fingerprint a = FingerprintText("SELECT A FROM T WHERE B = 5");
  Fingerprint b = FingerprintText("SELECT A FROM T WHERE B = 99");
  Fingerprint a2 = FingerprintText("SELECT A FROM T  WHERE B=5");
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_NE(a.key, b.key);
  EXPECT_EQ(a.key, a2.key);
  // Types, order, LIMIT/OFFSET values, LIKE patterns and string
  // boundaries all bind.
  EXPECT_NE(FingerprintText("SELECT A FROM T WHERE B = 5").key,
            FingerprintText("SELECT A FROM T WHERE B = 5.0").key);
  EXPECT_NE(FingerprintText("SELECT A FROM T WHERE B = 1 AND C = 2").key,
            FingerprintText("SELECT A FROM T WHERE B = 2 AND C = 1").key);
  EXPECT_NE(FingerprintText("SELECT A FROM T ORDER BY A LIMIT 5").key,
            FingerprintText("SELECT A FROM T ORDER BY A LIMIT 6").key);
  EXPECT_NE(FingerprintText("SELECT A FROM T WHERE B LIKE 'a%'").key,
            FingerprintText("SELECT A FROM T WHERE B LIKE 'b%'").key);
  EXPECT_NE(
      FingerprintText("SELECT A FROM T WHERE B = 'ab' AND C = 'c'").key,
      FingerprintText("SELECT A FROM T WHERE B = 'a' AND C = 'bc'").key);
  // A statement without literals keys by its digest.
  Fingerprint bare = FingerprintText("SELECT A FROM T");
  EXPECT_EQ(bare.key, bare.digest);
}

TEST(FingerprintTest, HashIsStableFnv1a) {
  // FNV-1a 64-bit pinned values: the digest is part of the sys$statements
  // surface (DIGEST column, stmt.<digest>.us histogram names), so it must
  // not drift across refactors.
  EXPECT_EQ(FingerprintHash(""), 14695981039346656037ull);
  EXPECT_EQ(FingerprintHash("a"), 12638187200555641996ull);
  EXPECT_NE(FingerprintHash("a"), FingerprintHash("b"));
}

TEST(DigestHexTest, SixteenZeroPaddedDigits) {
  EXPECT_EQ(obs::DigestHex(0), "0000000000000000");
  EXPECT_EQ(obs::DigestHex(0xabcull), "0000000000000abc");
  EXPECT_EQ(obs::DigestHex(~0ull), "ffffffffffffffff");
}

TEST(StatementStoreTest, AccumulatesPerDigest) {
  obs::DigestStore store;
  store.RecordStatement(7, "SELECT ?", "query", /*ok=*/true, /*rows=*/3,
                        /*elapsed_us=*/100);
  store.RecordStatement(7, "SELECT ?", "query", true, 5, 300);
  store.RecordStatement(7, "SELECT ?", "query", /*ok=*/false, 0, 50);
  std::vector<obs::DigestRecord> snap = store.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].digest, 7u);
  EXPECT_EQ(snap[0].digest_hex, "0000000000000007");
  EXPECT_EQ(snap[0].text, "SELECT ?");
  EXPECT_EQ(snap[0].kind, "query");
  EXPECT_EQ(snap[0].calls, 3);
  EXPECT_EQ(snap[0].errors, 1);
  EXPECT_EQ(snap[0].rows, 8);
  EXPECT_EQ(snap[0].total_us, 450);
  EXPECT_EQ(snap[0].min_us, 50);
  EXPECT_EQ(snap[0].max_us, 300);
  EXPECT_EQ(snap[0].avg_us(), 150);
  EXPECT_EQ(snap[0].latency.count, 3);
  int64_t calls = 0, avg_us = 0;
  EXPECT_TRUE(store.Stats(7, &calls, &avg_us));
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(avg_us, 150);
  EXPECT_FALSE(store.Stats(8, &calls, &avg_us));
}

TEST(StatementStoreTest, CapacityBoundsDistinctDigests) {
  obs::DigestStore store(/*capacity=*/2);
  store.RecordStatement(1, "a", "query", true, 0, 1);
  store.RecordStatement(2, "b", "query", true, 0, 1);
  store.RecordStatement(3, "c", "query", true, 0, 1);  // dropped: full
  store.RecordStatement(1, "a", "query", true, 0, 1);  // existing lands
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.dropped(), 1);
  std::vector<obs::DigestRecord> snap = store.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].calls, 2);

  store.Reset();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.dropped(), 0);
}

TEST(StatementStoreTest, ConcurrentRecordsAllLand) {
  obs::DigestStore store;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load()) {
      }
      obs::QueryProfile profile;
      profile.ops.push_back({"scan", 1, 1, 1, 2, 2});
      for (int i = 0; i < kPerThread; ++i) {
        // Two digests shared by all threads plus one private per thread;
        // every part of the record is written under the one mutex.
        uint64_t digest = i % 3 == 2 ? 100 + t : i % 3;
        store.RecordCompile(digest, "t", obs::RewriteTrace{});
        store.RecordExecution(digest, "t", 10, &profile, /*plan_hash=*/1,
                              "OUT=scan:T", {});
        store.RecordStatement(digest, "t", "query", true, 1, 10);
      }
    });
  }
  go.store(true);
  for (auto& t : threads) t.join();
  int64_t calls = 0, captures = 0, executions = 0, scan_us = 0;
  for (const obs::DigestRecord& s : store.Snapshot()) {
    calls += s.calls;
    captures += s.captures;
    executions += s.executions;
    scan_us += s.scan_self_us;
    EXPECT_EQ(s.plan_changes, 0);
  }
  EXPECT_EQ(calls, int64_t{kThreads} * kPerThread);
  EXPECT_EQ(captures, int64_t{kThreads} * kPerThread);
  EXPECT_EQ(executions, int64_t{kThreads} * kPerThread);
  EXPECT_EQ(scan_us, 2 * int64_t{kThreads} * kPerThread);
  EXPECT_EQ(store.size(), 2u + kThreads);
  EXPECT_EQ(store.dropped(), 0);
}

TEST(DigestStoreTest, OneRecordCarriesEveryPart) {
  // Compile, execution and statement outcome of one digest share a record:
  // the store holds one entry, and a digest that has only been compiled is
  // not yet a finished statement.
  obs::DigestStore store;
  obs::RewriteTrace trace;
  trace.Add({"merge_select", 1, true, 0, 5, 3, 2});
  store.RecordCompile(42, "SELECT ?", trace);
  std::vector<obs::DigestRecord> snap = store.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].calls, 0);
  EXPECT_TRUE(snap[0].kind.empty());

  obs::QueryProfile profile;
  profile.wall_us = 70;
  profile.ops.push_back({"hash_join", 1, 4, 1, 9, 6});
  std::vector<obs::OpFeedback> fb = {
      {"OUT", "hash_join", 2.0, 4, 1, obs::QError(2.0, 4.0)}};
  store.RecordExecution(42, "SELECT ?", 70, &profile, /*plan_hash=*/5,
                        "OUT=hash_join(scan:T,scan:U)", std::move(fb));
  store.RecordStatement(42, "SELECT ?", "query", true, 4, 90);

  snap = store.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  const obs::DigestRecord& r = snap[0];
  EXPECT_EQ(r.kind, "query");
  EXPECT_EQ(r.calls, 1);
  EXPECT_EQ(r.total_us, 90);
  EXPECT_EQ(r.captures, 1);
  EXPECT_EQ(r.last_profile.wall_us, 70);
  EXPECT_EQ(r.join_self_us, 6);
  ASSERT_EQ(r.trace.events.size(), 1u);
  EXPECT_EQ(r.trace.events[0].rule, "merge_select");
  ASSERT_EQ(r.worst.size(), 1u);
  EXPECT_EQ(r.worst[0].op, "hash_join");
  ASSERT_EQ(r.plans.size(), 1u);
  EXPECT_EQ(r.plans[0].total_execute_us, 70);
  EXPECT_EQ(r.current_plan, 5u);

  // An execution with neither a profile nor a plan shape leaves those
  // parts as they were (the XNFDB_QUERY_PROFILES / XNFDB_PLAN_FEEDBACK
  // kill switches).
  store.RecordExecution(42, "SELECT ?", 70, nullptr, 6, "", {});
  snap = store.Snapshot();
  EXPECT_EQ(snap[0].captures, 1);
  EXPECT_EQ(snap[0].executions, 1);
  EXPECT_EQ(snap[0].current_plan, 5u);
}

}  // namespace
}  // namespace xnfdb
