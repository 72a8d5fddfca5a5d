// An interactive shell over the embedded engine: type SQL or XNF
// statements, get tabular / composite-object results. Supports meta
// commands:
//
//   .help               this text
//   .tables             list tables and views
//   .explain <query>    show rewrite stats, op counts and physical plan
//   .analyze <query>    EXPLAIN ANALYZE: plan with actual rows/loops/time,
//                       plus a one-line per-phase wall-time footer
//   .metrics            process-wide metrics snapshot as JSON
//   .metrics table      the same snapshot, pretty-printed as a table
//   .queries            live queries (SYS$QUERIES): id, state, progress
//   .kill <id>          request cooperative termination of query <id>
//   .slowlog <us>       arm the slow-query log (.slowlog off disarms)
//   .sample             take one metrics sample into SYS$METRICS_HISTORY
//   .history [substr]   the sampler's time-series ring (optionally filtered)
//   .profiles           always-on per-query profiles (SYS$QUERY_PROFILES)
//   .matviews           server-side materialized CO views (SYS$MATVIEWS):
//                       name, state, rows, hits, delta/refresh counters
//   .top [n]            top statement shapes by total wall time, with the
//                       profiler's per-class self-time split
//   .watchdog <ms>|off  arm the stuck-query watchdog at <ms> stall time
//   .events [n]         tail of the flight recorder (SYS$EVENTS), newest last
//   .health             per-rule health state (SYS$HEALTH) + report JSON
//   .alerts             OK<->FIRING transition history (SYS$ALERTS)
//   .diag <dir>         write a diagnostic bundle (crash-style report,
//                       metrics, events, health, queries, samples, profiles,
//                       plan feedback, env) into <dir>
//   .dot <query>        emit the query graph in Graphviz DOT
//   .save <file>        persist the database
//   .open <file>        load a database (into an empty shell)
//   .quit
//
// Run:  ./build/examples/xnfdb_shell          (interactive)
//       ./build/examples/xnfdb_shell < script.sql

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "api/database.h"
#include "common/str_util.h"
#include "qgm/dot.h"
#include "storage/persist.h"
#include "xnf/compiler.h"

using xnfdb::Database;
using xnfdb::QueryResult;
using xnfdb::Status;
using xnfdb::StreamItem;

namespace {

void PrintResult(const QueryResult& result) {
  // Plain SQL: one table.
  if (result.outputs.size() == 1 && !result.outputs[0].is_connection &&
      result.outputs[0].name == "RESULT") {
    const xnfdb::Schema& schema = result.outputs[0].schema;
    for (size_t i = 0; i < schema.size(); ++i) {
      std::printf("%s%s", i == 0 ? "" : " | ",
                  schema.column(i).name.c_str());
    }
    std::printf("\n");
    size_t n = 0;
    for (const StreamItem& item : result.stream) {
      if (item.kind != StreamItem::Kind::kRow) continue;
      for (size_t i = 0; i < item.values.size(); ++i) {
        std::printf("%s%s", i == 0 ? "" : " | ",
                    item.values[i].ToString().c_str());
      }
      std::printf("\n");
      ++n;
    }
    std::printf("(%zu row%s)\n", n, n == 1 ? "" : "s");
    return;
  }
  // XNF: heterogeneous streams, grouped per output.
  for (size_t oi = 0; oi < result.outputs.size(); ++oi) {
    const xnfdb::OutputDesc& desc = result.outputs[oi];
    if (desc.is_connection) {
      std::printf("-- relationship %s (%zu connection%s)\n",
                  desc.name.c_str(),
                  result.ConnectionCount(static_cast<int>(oi)),
                  result.ConnectionCount(static_cast<int>(oi)) == 1 ? ""
                                                                    : "s");
      for (const StreamItem& item : result.stream) {
        if (item.kind != StreamItem::Kind::kConnection ||
            item.output != static_cast<int>(oi)) {
          continue;
        }
        std::printf("  ");
        for (size_t pi = 0; pi < item.tids.size(); ++pi) {
          std::printf("%s%s#%lld", pi == 0 ? "" : " -> ",
                      desc.partner_names[pi].c_str(),
                      static_cast<long long>(item.tids[pi]));
        }
        std::printf("\n");
      }
      continue;
    }
    std::printf("-- component %s\n", desc.name.c_str());
    for (const StreamItem& item : result.stream) {
      if (item.kind != StreamItem::Kind::kRow ||
          item.output != static_cast<int>(oi)) {
        continue;
      }
      std::printf("  #%lld %s\n", static_cast<long long>(item.tid),
                  xnfdb::TupleToString(item.values).c_str());
    }
  }
}

bool IsQueryText(const std::string& text) {
  std::string upper = xnfdb::ToUpperIdent(xnfdb::Trim(text));
  return upper.rfind("SELECT", 0) == 0 || upper.rfind("OUT", 0) == 0;
}

// `.metrics table`: the registry snapshot as aligned NAME / KIND / VALUE
// rows; histograms show count/sum/p50/p99 instead of raw buckets.
void PrintMetricsTable(const xnfdb::obs::MetricsSnapshot& snap) {
  size_t width = 4;  // "NAME"
  for (const auto& [name, v] : snap.counters) width = std::max(width, name.size());
  for (const auto& [name, v] : snap.gauges) width = std::max(width, name.size());
  for (const auto& [name, h] : snap.histograms) width = std::max(width, name.size());
  std::printf("%-*s  %-9s  %s\n", static_cast<int>(width), "NAME", "KIND",
              "VALUE");
  for (const auto& [name, v] : snap.counters) {
    std::printf("%-*s  %-9s  %lld\n", static_cast<int>(width), name.c_str(),
                "counter", static_cast<long long>(v));
  }
  for (const auto& [name, v] : snap.gauges) {
    std::printf("%-*s  %-9s  %lld\n", static_cast<int>(width), name.c_str(),
                "gauge", static_cast<long long>(v));
  }
  for (const auto& [name, h] : snap.histograms) {
    std::printf("%-*s  %-9s  count=%lld sum=%lld p50=%lld p99=%lld\n",
                static_cast<int>(width), name.c_str(), "histogram",
                static_cast<long long>(h.count), static_cast<long long>(h.sum),
                static_cast<long long>(h.Quantile(0.5)),
                static_cast<long long>(h.Quantile(0.99)));
  }
}

// One-line per-phase footer for `.analyze`: the delta of every
// `phase.<name>.us` histogram sum across the analyzed run.
void PrintPhaseFooter(const xnfdb::obs::MetricsSnapshot& before,
                      const xnfdb::obs::MetricsSnapshot& after) {
  std::printf("phases:");
  bool any = false;
  for (const auto& [name, h] : after.histograms) {
    if (name.rfind("phase.", 0) != 0) continue;
    int64_t prev = 0;
    auto it = before.histograms.find(name);
    if (it != before.histograms.end()) prev = it->second.sum;
    int64_t delta = h.sum - prev;
    if (delta <= 0) continue;
    // phase.<name>.us -> <name>
    std::string phase = name.substr(6, name.size() - 6 - 3);
    std::printf(" %s=%lldus", phase.c_str(), static_cast<long long>(delta));
    any = true;
  }
  std::printf(any ? "\n" : " (none recorded)\n");
}

}  // namespace

int main() {
  Database db;
  bool interactive = isatty(fileno(stdin));
  if (interactive) {
    std::printf("xnfdb shell — SQL + XNF composite-object views. "
                "Type .help for help.\n");
  }
  std::string buffer;
  std::string line;
  while (true) {
    if (interactive) std::printf(buffer.empty() ? "xnfdb> " : "  ...> ");
    if (!std::getline(std::cin, line)) break;
    std::string trimmed = xnfdb::Trim(line);
    if (buffer.empty() && !trimmed.empty() && trimmed[0] == '.') {
      // Meta command.
      size_t space = trimmed.find(' ');
      std::string cmd = trimmed.substr(0, space);
      std::string arg =
          space == std::string::npos ? "" : xnfdb::Trim(trimmed.substr(space));
      if (cmd == ".quit" || cmd == ".exit") break;
      if (cmd == ".help") {
        std::printf(
            "query:         .tables | .explain [rewrite] <q> | .analyze <q> | "
            ".dot <q>\n"
            "observability: .metrics [table] | .sample | .history [substr] | "
            ".profiles | .matviews | .rewrites | .feedback | .plans | "
            ".top [n] | .events [n] | .health | .alerts | .diag <dir>\n"
            "admin:         .queries | .kill <id> | .slowlog <us>|off | "
            ".watchdog <ms>|off | .save <f> | .open <f> | .quit\n"
            "Statements end with ';'. MATERIALIZE <view> pins a server-side "
            "matview (DEMATERIALIZE drops it). System views: sys$metrics, "
            "sys$histograms, sys$statements, sys$cache, sys$tables, "
            "sys$queries, sys$metrics_history, sys$query_profiles, "
            "sys$matviews, sys$rewrites, sys$plan_feedback, "
            "sys$plan_history, sys$events, sys$health, sys$alerts.\n");
      } else if (cmd == ".tables") {
        for (const std::string& name : db.catalog().TableNames()) {
          std::printf("table %s\n", name.c_str());
        }
        for (const xnfdb::ViewDef* view : db.catalog().Views()) {
          std::printf("view  %s%s\n", view->name.c_str(),
                      view->is_xnf ? " (XNF)" : "");
        }
        for (const xnfdb::VirtualTableProvider* v :
             db.catalog().VirtualTables()) {
          std::printf("sys   %s\n", v->name().c_str());
        }
      } else if (cmd == ".explain") {
        // `.explain rewrite <q>` prepends the ordered rewrite-rule log.
        Database::ExplainOptions xopts;
        if (arg.rfind("rewrite ", 0) == 0) {
          xopts.rewrite = true;
          arg = xnfdb::Trim(arg.substr(8));
        }
        auto plan = db.Explain(arg, xopts);
        std::printf("%s\n", plan.ok() ? plan.value().c_str()
                                      : plan.status().ToString().c_str());
      } else if (cmd == ".analyze") {
        xnfdb::obs::MetricsSnapshot before = db.metrics().Snapshot();
        auto plan = db.Explain(arg, Database::ExplainOptions{true});
        std::printf("%s\n", plan.ok() ? plan.value().c_str()
                                      : plan.status().ToString().c_str());
        if (plan.ok()) PrintPhaseFooter(before, db.metrics().Snapshot());
      } else if (cmd == ".metrics") {
        const xnfdb::GovernorOptions gopts = db.governor().options();
        std::printf(
            "governor: running=%lld queued=%lld max_concurrent=%lld "
            "max_queue=%lld timeout_ms=%lld max_rows=%lld mem_bytes=%lld\n",
            static_cast<long long>(db.governor().running()),
            static_cast<long long>(db.governor().queued()),
            static_cast<long long>(gopts.max_concurrent),
            static_cast<long long>(gopts.max_queue),
            static_cast<long long>(gopts.default_timeout_ms),
            static_cast<long long>(gopts.default_max_result_rows),
            static_cast<long long>(gopts.default_mem_budget_bytes));
        if (arg == "table") {
          PrintMetricsTable(db.metrics().Snapshot());
        } else {
          std::printf("%s\n", db.MetricsJson().c_str());
        }
      } else if (cmd == ".queries") {
        auto result = db.Query("SELECT * FROM SYS$QUERIES");
        if (!result.ok()) {
          std::printf("error: %s\n", result.status().ToString().c_str());
        } else {
          PrintResult(result.value());
        }
      } else if (cmd == ".kill") {
        char* end = nullptr;
        long long id = std::strtoll(arg.c_str(), &end, 10);
        if (arg.empty() || end == arg.c_str() || *end != '\0') {
          std::printf("usage: .kill <query id>  (see .queries for live ids)\n");
        } else {
          Status s = db.Cancel(id);
          if (s.ok()) {
            std::printf("kill requested for query %lld (cooperative: it "
                        "terminates at its next governance check)\n", id);
          } else {
            std::printf("%s\n", s.ToString().c_str());
          }
        }
      } else if (cmd == ".sample") {
        db.sampler().SampleNow();
        std::printf("sampled (%lld samples, ring %zu/%zu)\n",
                    static_cast<long long>(db.sampler().samples_taken()),
                    db.sampler().ring_size(),
                    db.sampler().options().ring_capacity);
      } else if (cmd == ".history") {
        size_t n = 0;
        for (const xnfdb::obs::MetricsSampler::Row& r :
             db.sampler().History()) {
          if (!arg.empty() && r.name.find(arg) == std::string::npos) continue;
          std::printf("%lld %-9s %-40s value=%lld delta=%lld rate=%lld/s\n",
                      static_cast<long long>(r.sample_ts_us), r.kind.c_str(),
                      r.name.c_str(), static_cast<long long>(r.value),
                      static_cast<long long>(r.delta),
                      static_cast<long long>(r.rate_per_s));
          ++n;
        }
        std::printf("(%zu series point%s; .sample adds a sample, "
                    "XNFDB_METRICS_SAMPLE_MS starts the background "
                    "sampler)\n", n, n == 1 ? "" : "s");
      } else if (cmd == ".profiles") {
        auto result = db.Query("SELECT * FROM SYS$QUERY_PROFILES");
        if (!result.ok()) {
          std::printf("error: %s\n", result.status().ToString().c_str());
        } else {
          PrintResult(result.value());
        }
      } else if (cmd == ".matviews") {
        auto result = db.Query("SELECT * FROM SYS$MATVIEWS");
        if (!result.ok()) {
          std::printf("error: %s\n", result.status().ToString().c_str());
        } else {
          PrintResult(result.value());
          std::printf("(MATERIALIZE <view> pins, DEMATERIALIZE drops; "
                      "XNFDB_MATVIEWS=0 disables)\n");
        }
      } else if (cmd == ".rewrites") {
        auto result = db.Query("SELECT * FROM SYS$REWRITES");
        if (!result.ok()) {
          std::printf("error: %s\n", result.status().ToString().c_str());
        } else {
          PrintResult(result.value());
        }
      } else if (cmd == ".feedback") {
        auto result = db.Query("SELECT * FROM SYS$PLAN_FEEDBACK");
        if (!result.ok()) {
          std::printf("error: %s\n", result.status().ToString().c_str());
        } else {
          PrintResult(result.value());
        }
      } else if (cmd == ".plans") {
        auto result = db.Query("SELECT * FROM SYS$PLAN_HISTORY");
        if (!result.ok()) {
          std::printf("error: %s\n", result.status().ToString().c_str());
        } else {
          PrintResult(result.value());
        }
      } else if (cmd == ".top") {
        long long n = arg.empty() ? 10 : std::atoll(arg.c_str());
        std::vector<xnfdb::obs::DigestRecord> stmts =
            db.digest_store().Snapshot();
        std::sort(stmts.begin(), stmts.end(),
                  [](const auto& a, const auto& b) {
                    return a.total_us > b.total_us;
                  });
        std::printf("%-18s %8s %10s %10s  %s\n", "DIGEST", "CALLS",
                    "TOTAL_US", "AVG_US", "SELF scan/join/filter/other + TEXT");
        for (const xnfdb::obs::DigestRecord& s : stmts) {
          if (s.calls == 0) continue;  // compiled, never finished
          if (n-- <= 0) break;
          std::printf("%-18s %8lld %10lld %10lld  %lld/%lld/%lld/%lld %s\n",
                      s.digest_hex.c_str(), static_cast<long long>(s.calls),
                      static_cast<long long>(s.total_us),
                      static_cast<long long>(s.avg_us()),
                      static_cast<long long>(s.scan_self_us),
                      static_cast<long long>(s.join_self_us),
                      static_cast<long long>(s.filter_self_us),
                      static_cast<long long>(s.other_self_us),
                      s.text.c_str());
        }
      } else if (cmd == ".watchdog") {
        xnfdb::WatchdogOptions wopts = db.watchdog().options();
        wopts.stall_ms =
            arg == "off" || arg.empty() ? 0 : std::atoll(arg.c_str());
        db.SetWatchdogOptions(wopts);
        if (wopts.stall_ms <= 0) {
          std::printf("watchdog off\n");
        } else {
          std::printf("watchdog armed: stall=%lldms tick=%lldms cancel=%s\n",
                      static_cast<long long>(wopts.stall_ms),
                      static_cast<long long>(db.sampler().interval_ms()),
                      wopts.auto_cancel ? "on" : "off");
        }
      } else if (cmd == ".events") {
        std::vector<xnfdb::obs::FlightRecorder::Event> events =
            db.events().Snapshot();
        size_t limit = events.size();
        if (!arg.empty()) {
          long long n = std::atoll(arg.c_str());
          if (n > 0 && static_cast<size_t>(n) < limit) {
            limit = static_cast<size_t>(n);
          }
        }
        for (size_t i = events.size() - limit; i < events.size(); ++i) {
          const auto& e = events[i];
          std::printf("#%lld ts_us=%lld [%s] %s: %s",
                      static_cast<long long>(e.seq),
                      static_cast<long long>(e.ts_us), e.severity.c_str(),
                      e.category.c_str(), e.message.c_str());
          if (!e.detail.empty()) std::printf(" | %s", e.detail.c_str());
          if (e.repeated > 1) {
            std::printf(" (x%lld)", static_cast<long long>(e.repeated));
          }
          std::printf("\n");
        }
        std::printf("(%zu event%s shown; recorded=%lld coalesced=%lld "
                    "ring=%zu %s)\n",
                    limit, limit == 1 ? "" : "s",
                    static_cast<long long>(db.events().recorded()),
                    static_cast<long long>(db.events().coalesced()),
                    db.events().capacity(),
                    db.events().enabled() ? "on" : "off");
      } else if (cmd == ".health") {
        std::printf("%-22s %-26s %-10s %-6s %-10s  %s\n", "RULE", "SERIES",
                    "FIELD", "CMP", "STATE", "LAST_VALUE");
        for (const xnfdb::obs::RuleState& s : db.health().Snapshot()) {
          std::printf("%-22s %-26s %-10s %-6s %-10s  %g\n",
                      s.rule.name.c_str(), s.rule.series.c_str(),
                      xnfdb::obs::HealthFieldName(s.rule.field),
                      xnfdb::obs::HealthCmpName(s.rule.cmp), s.state.c_str(),
                      s.last_value);
        }
        std::printf("%s\n", db.HealthReport().c_str());
      } else if (cmd == ".alerts") {
        size_t n = 0;
        for (const xnfdb::obs::AlertTransition& a : db.health().Alerts()) {
          std::printf("#%lld ts_us=%lld %s (%s) %s -> %s value=%g bound=%g\n",
                      static_cast<long long>(a.seq),
                      static_cast<long long>(a.ts_us), a.rule.c_str(),
                      a.series.c_str(), a.from.c_str(), a.to.c_str(), a.value,
                      a.bound);
          ++n;
        }
        std::printf("(%zu transition%s; rules evaluate on sampler ticks — "
                    ".sample forces one)\n", n, n == 1 ? "" : "s");
      } else if (cmd == ".diag") {
        if (arg.empty()) {
          std::printf("usage: .diag <dir>  (writes a diagnostic bundle)\n");
        } else {
          Status s = db.WriteDiagnosticBundle(arg);
          if (s.ok()) {
            std::printf("diagnostic bundle written to %s\n", arg.c_str());
          } else {
            std::printf("bundle partially written to %s: %s\n", arg.c_str(),
                        s.ToString().c_str());
          }
        }
      } else if (cmd == ".slowlog") {
        if (arg == "off" || arg.empty()) {
          db.SetSlowQueryThreshold(-1);
          std::printf("slow-query log off\n");
        } else {
          db.SetSlowQueryThreshold(std::atoll(arg.c_str()));
          std::printf("slow-query log armed at %lldus\n",
                      static_cast<long long>(db.slow_query_threshold_us()));
        }
      } else if (cmd == ".dot") {
        auto compiled = xnfdb::CompileQueryString(db.catalog(), arg);
        if (!compiled.ok()) {
          std::printf("%s\n", compiled.status().ToString().c_str());
        } else {
          std::printf("%s", xnfdb::qgm::ToDot(*compiled.value().graph).c_str());
        }
      } else if (cmd == ".save") {
        // Through the Database so the matview pin registry rides along
        // (<file>.matviews sidecar).
        Status s = db.SaveTo(arg);
        std::printf("%s\n", s.ToString().c_str());
      } else if (cmd == ".open") {
        // Through the Database: clears the matview store (stored answers
        // belong to the old catalog) and reloads any pin registry.
        Status s = db.LoadFrom(arg);
        std::printf("%s\n", s.ToString().c_str());
      } else {
        std::printf("unknown meta command %s\n", cmd.c_str());
      }
      continue;
    }
    // A blank line before any statement text must not open a buffer, or
    // the next `.`-command would be read as SQL.
    if (trimmed.empty() && buffer.empty()) continue;
    buffer += line + "\n";
    if (trimmed.empty() || trimmed.back() != ';') continue;

    std::string statement = buffer;
    buffer.clear();
    if (IsQueryText(statement)) {
      auto result = db.Query(statement.substr(0, statement.rfind(';')));
      if (!result.ok()) {
        std::printf("error: %s\n", result.status().ToString().c_str());
      } else {
        PrintResult(result.value());
      }
      continue;
    }
    auto outcome = db.Execute(statement.substr(0, statement.rfind(';')));
    if (!outcome.ok()) {
      std::printf("error: %s\n", outcome.status().ToString().c_str());
    } else if (outcome.value().kind == Database::Outcome::Kind::kAffected) {
      std::printf("ok (%zu row%s affected)\n", outcome.value().affected,
                  outcome.value().affected == 1 ? "" : "s");
    } else if (outcome.value().kind == Database::Outcome::Kind::kRows) {
      PrintResult(outcome.value().result);
    } else {
      std::printf("ok\n");
    }
  }
  return 0;
}
