#include "api/watchdog.h"

#include <set>
#include <utility>
#include <vector>

#include "common/log.h"
#include "common/str_util.h"

namespace xnfdb {

WatchdogOptions WatchdogOptions::FromEnv() {
  WatchdogOptions o;
  o.stall_ms = ParseEnvInt("XNFDB_WATCHDOG_STALL_MS", 0, int64_t{1} << 40, 0);
  o.auto_cancel = ParseEnvBool("XNFDB_WATCHDOG_CANCEL", false);
  return o;
}

Watchdog::Watchdog(Governor* governor, obs::MetricsRegistry* metrics,
                   WatchdogOptions options)
    : governor_(governor),
      scans_counter_(metrics->GetCounter("watchdog.scans")),
      stalled_counter_(metrics->GetCounter("watchdog.stalled")),
      cancelled_counter_(metrics->GetCounter("watchdog.cancelled")),
      options_(options) {}

void Watchdog::SetOptions(const WatchdogOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  options_ = options;
}

WatchdogOptions Watchdog::options() const {
  std::lock_guard<std::mutex> lock(mu_);
  return options_;
}

int64_t Watchdog::scans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return scans_;
}

int Watchdog::ScanOnce() {
  WatchdogOptions opts;
  {
    std::lock_guard<std::mutex> lock(mu_);
    opts = options_;
    ++scans_;
  }
  scans_counter_->Increment();

  const int64_t now_us = QueryContext::NowUs();
  const int64_t stall_us = opts.stall_ms * 1000;
  std::vector<Governor::QueryInfo> live = governor_->Snapshot();

  int flagged = 0;
  std::vector<std::pair<Governor::QueryInfo, int64_t>> to_report;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::set<int64_t> seen;
    for (const Governor::QueryInfo& q : live) {
      seen.insert(q.id);
      Track& t = tracks_[q.id];
      const bool changed = q.progress_ticks != t.ticks ||
                           q.rows_out != t.rows || q.bytes_reserved != t.bytes;
      if (changed || t.last_change_us == 0) {
        t.ticks = q.progress_ticks;
        t.rows = q.rows_out;
        t.bytes = q.bytes_reserved;
        t.last_change_us = now_us;
        t.reported = false;  // progress re-arms the report
        continue;
      }
      // Queued queries wait by design; only running ones can be stuck.
      if (q.state != "running" || t.reported || stall_us <= 0) continue;
      const int64_t stalled_for = now_us - t.last_change_us;
      if (stalled_for < stall_us) continue;
      t.reported = true;
      ++flagged;
      to_report.emplace_back(q, stalled_for);
    }
    // Prune queries that finished since the last scan.
    for (auto it = tracks_.begin(); it != tracks_.end();) {
      it = seen.count(it->first) ? std::next(it) : tracks_.erase(it);
    }
  }

  for (const auto& [q, stalled_for] : to_report) {
    stalled_counter_->Increment();
    Logger::Default().Log(
        LogLevel::kWarn, "watchdog", "stalled query",
        {LogField::N("query_id", q.id),
         LogField::N("stalled_us", stalled_for),
         LogField::N("elapsed_us", q.elapsed_us),
         LogField::N("rows_out", q.rows_out),
         LogField::N("bytes_reserved", q.bytes_reserved),
         LogField::N("progress_ticks", q.progress_ticks),
         LogField::N("queue_wait_us", q.queue_wait_us),
         LogField::S("action", opts.auto_cancel ? "cancel" : "report"),
         LogField::S("text", q.text)});
    if (opts.auto_cancel) {
      if (governor_->Cancel(q.id).ok()) cancelled_counter_->Increment();
    }
  }
  return flagged;
}

}  // namespace xnfdb
