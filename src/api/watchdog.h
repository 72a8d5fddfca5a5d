// Stuck-query watchdog: scans the governor's live queries and flags the
// ones whose progress has stopped. It owns no thread: the Database runs
// ScanOnce on every metrics-sampler tick while stall_ms > 0 (the sampler is
// the engine's one background thread besides the morsel workers).
//
// "Stuck" is defined by the operator wrappers' progress heartbeat
// (QueryContext::Tick, bumped at every Open/NextBatch): a *running* query
// whose (ticks, rows, bytes) fingerprint has not changed for `stall_ms` is
// wedged inside a single call — spinning, blocked, or lost — not merely
// slow between rows. Queued queries are never flagged (they are waiting by
// design), and detection needs no per-tick clock reads: the watchdog stamps
// its own scan times.
//
// On detection the watchdog emits one structured warn line on the
// "watchdog" channel carrying the profile-so-far (elapsed, rows, bytes,
// ticks, queue wait, statement text), bumps `watchdog.stalled`, and — when
// `auto_cancel` is set — cooperatively cancels the victim through
// Governor::Cancel, bumping `watchdog.cancelled`. A stalled query is
// reported once; the report re-arms if the query makes progress again.
//
// Lives in the api layer (not obs) because it needs the Governor and the
// structured Logger, both above obs in the library stack.

#ifndef XNFDB_API_WATCHDOG_H_
#define XNFDB_API_WATCHDOG_H_

#include <cstdint>
#include <map>
#include <mutex>

#include "api/governor.h"
#include "obs/metrics.h"

namespace xnfdb {

struct WatchdogOptions {
  // A running query is stalled when its progress fingerprint is unchanged
  // for this long. <= 0 disarms the sampler-tick scan (ScanOnce still works
  // for tests).
  int64_t stall_ms = 0;
  // Cancel stalled queries instead of only reporting them.
  bool auto_cancel = false;

  // Reads XNFDB_WATCHDOG_STALL_MS (default 0 = off) and
  // XNFDB_WATCHDOG_CANCEL (default 0).
  static WatchdogOptions FromEnv();
};

class Watchdog {
 public:
  Watchdog(Governor* governor, obs::MetricsRegistry* metrics,
           WatchdogOptions options);
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  // Reconfigures at runtime (Database::SetWatchdogOptions); takes effect on
  // the next scan.
  void SetOptions(const WatchdogOptions& options);
  WatchdogOptions options() const;

  // One synchronous scan over the governor's live queries (the sampler
  // tick calls this; tests may too). Returns the number of queries flagged
  // as stalled by *this* scan.
  int ScanOnce();

  // Scans performed since construction.
  int64_t scans() const;

 private:
  // Last observed progress fingerprint of one live query id.
  struct Track {
    int64_t ticks = -1;
    int64_t rows = -1;
    int64_t bytes = -1;
    int64_t last_change_us = 0;  // watchdog scan time of the last change
    bool reported = false;
  };

  Governor* governor_;
  obs::Counter* scans_counter_;
  obs::Counter* stalled_counter_;
  obs::Counter* cancelled_counter_;

  mutable std::mutex mu_;
  WatchdogOptions options_;
  std::map<int64_t, Track> tracks_;  // by query id; pruned on each scan
  int64_t scans_ = 0;
};

}  // namespace xnfdb

#endif  // XNFDB_API_WATCHDOG_H_
