// Declarative health rules over the metrics time-series: "is this instance
// healthy?" answered by machine, not by a human reading SYS$METRICS.
//
// A HealthRule watches one sampler series (counter, gauge, or derived
// histogram series) and fires when its chosen field — value, delta, or
// rate-per-second — breaches a bound for `for_samples` consecutive sampler
// ticks; it clears again after `clear_samples` consecutive healthy ticks.
// An absence rule fires when the series is missing from a sample entirely
// (a subsystem that stopped reporting is as suspicious as one reporting
// failures). Evaluation rides the existing MetricsSampler tick — the
// engine's OnSample is wired as the sampler's on-sample callback by the
// Database — so health costs nothing between samples.
//
// State machine per rule: OK <-> FIRING. Every transition appends an
// AlertTransition to a bounded history (SYS$ALERTS) and invokes the alert
// sink exactly once. The Database wires the sink to one structured warn
// line on the "health" channel, which the logger feeds into the flight
// recorder — exactly one log line and one event each way, however long the
// condition persists.
//
// Built-in rules (BuiltinRules) cover the failure modes the engine already
// detects: writeback failures, governor admission rejections, watchdog
// stall flags, q-error blowups (plan.qerror_blowups, bumped by the
// Database when an execution's worst q-error reaches 100),
// and crash reports found on disk (crash.reports_found > 0).

#ifndef XNFDB_OBS_HEALTH_H_
#define XNFDB_OBS_HEALTH_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "obs/sampler.h"

namespace xnfdb {
namespace obs {

struct HealthRule {
  enum class Field { kValue, kDelta, kRatePerS };
  enum class Cmp { kGt, kGe, kLt, kLe, kAbsent };

  std::string name;         // unique rule id, e.g. "writeback_failures"
  std::string series;       // sampler series name, e.g. "writeback.failures"
  Field field = Field::kDelta;
  Cmp cmp = Cmp::kGt;
  double bound = 0.0;       // ignored for kAbsent
  int for_samples = 1;      // consecutive breaching ticks before FIRING
  int clear_samples = 1;    // consecutive healthy ticks before clearing
  std::string description;  // human-readable "what does FIRING mean"
};

const char* HealthFieldName(HealthRule::Field f);
const char* HealthCmpName(HealthRule::Cmp c);

// One OK<->FIRING transition (SYS$ALERTS row).
struct AlertTransition {
  int64_t seq = 0;    // monotonic per engine
  int64_t ts_us = 0;  // sample timestamp that caused the transition
  std::string rule;
  std::string series;
  std::string from;  // "OK" | "FIRING"
  std::string to;
  double value = 0.0;  // observed field value at the transition
  double bound = 0.0;
};

// Point-in-time per-rule state (SYS$HEALTH row).
struct RuleState {
  HealthRule rule;
  std::string state;     // "OK" | "FIRING"
  int64_t since_us = 0;  // sample ts of the last transition (0 = never)
  double last_value = 0.0;
  bool evaluated = false;  // at least one sample seen
  int64_t breaches = 0;    // total breaching ticks observed
  int64_t transitions = 0;
};

class HealthEngine {
 public:
  // `alert_capacity` bounds the transition history ring.
  explicit HealthEngine(size_t alert_capacity = 256);

  void AddRule(HealthRule rule);
  static std::vector<HealthRule> BuiltinRules();

  // Invoked exactly once per OK<->FIRING transition, outside the engine's
  // lock. The Database wires this to one warn-level "health" log line.
  using AlertSink = std::function<void(const AlertTransition&)>;
  void SetAlertSink(AlertSink sink);

  // Evaluates every rule against the rows of one sample (the sampler's
  // on-sample callback). Rows must all belong to the same sample.
  void OnSample(const std::vector<MetricsSampler::Row>& rows);

  std::vector<RuleState> Snapshot() const;
  std::vector<AlertTransition> Alerts() const;  // oldest first
  bool healthy() const;                         // no rule FIRING
  int64_t samples_evaluated() const;

  // {"status":"ok"|"degraded","rules":[...],...} — the /healthz payload.
  std::string ReportJson() const;

 private:
  struct TrackedRule {
    HealthRule rule;
    bool firing = false;
    int breach_streak = 0;
    int clear_streak = 0;
    int64_t since_us = 0;
    double last_value = 0.0;
    bool evaluated = false;
    int64_t breaches = 0;
    int64_t transitions = 0;
  };

  const size_t alert_capacity_;
  mutable std::mutex mu_;
  std::vector<TrackedRule> rules_;
  std::deque<AlertTransition> alerts_;
  int64_t next_alert_seq_ = 1;
  int64_t samples_evaluated_ = 0;
  AlertSink sink_;
};

}  // namespace obs
}  // namespace xnfdb

#endif  // XNFDB_OBS_HEALTH_H_
