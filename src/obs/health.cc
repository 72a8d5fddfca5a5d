#include "obs/health.h"

#include <cstdio>
#include <utility>

namespace xnfdb {
namespace obs {

namespace {

std::string FormatDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string JsonEscapeMin(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 4);
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out;
}

bool Compare(HealthRule::Cmp cmp, double value, double bound) {
  switch (cmp) {
    case HealthRule::Cmp::kGt: return value > bound;
    case HealthRule::Cmp::kGe: return value >= bound;
    case HealthRule::Cmp::kLt: return value < bound;
    case HealthRule::Cmp::kLe: return value <= bound;
    case HealthRule::Cmp::kAbsent: return false;  // handled by the caller
  }
  return false;
}

}  // namespace

const char* HealthFieldName(HealthRule::Field f) {
  switch (f) {
    case HealthRule::Field::kValue: return "value";
    case HealthRule::Field::kDelta: return "delta";
    case HealthRule::Field::kRatePerS: return "rate_per_s";
  }
  return "?";
}

const char* HealthCmpName(HealthRule::Cmp c) {
  switch (c) {
    case HealthRule::Cmp::kGt: return ">";
    case HealthRule::Cmp::kGe: return ">=";
    case HealthRule::Cmp::kLt: return "<";
    case HealthRule::Cmp::kLe: return "<=";
    case HealthRule::Cmp::kAbsent: return "absent";
  }
  return "?";
}

HealthEngine::HealthEngine(size_t alert_capacity)
    : alert_capacity_(alert_capacity == 0 ? 1 : alert_capacity) {}

void HealthEngine::AddRule(HealthRule rule) {
  std::lock_guard<std::mutex> lock(mu_);
  TrackedRule t;
  t.rule = std::move(rule);
  if (t.rule.for_samples < 1) t.rule.for_samples = 1;
  if (t.rule.clear_samples < 1) t.rule.clear_samples = 1;
  rules_.push_back(std::move(t));
}

std::vector<HealthRule> HealthEngine::BuiltinRules() {
  auto rule = [](const char* name, const char* series, HealthRule::Field f,
                 HealthRule::Cmp cmp, double bound, const char* desc) {
    HealthRule r;
    r.name = name;
    r.series = series;
    r.field = f;
    r.cmp = cmp;
    r.bound = bound;
    r.description = desc;
    return r;
  };
  return {
      rule("writeback_failures", "writeback.failures",
           HealthRule::Field::kDelta, HealthRule::Cmp::kGt, 0,
           "write-back operations exhausted their retries since the last "
           "sample"),
      rule("governor_rejections", "governor.rejected",
           HealthRule::Field::kDelta, HealthRule::Cmp::kGt, 0,
           "admission control is shedding load: queries rejected since the "
           "last sample"),
      rule("watchdog_stalls", "watchdog.stalled", HealthRule::Field::kDelta,
           HealthRule::Cmp::kGt, 0,
           "the watchdog flagged running queries whose progress counters "
           "stopped advancing"),
      rule("qerror_blowups", "plan.qerror_blowups", HealthRule::Field::kDelta,
           HealthRule::Cmp::kGt, 0,
           "executions whose worst cardinality estimate missed by a factor "
           "of 100 or more"),
      rule("crash_reports", "crash.reports_found", HealthRule::Field::kValue,
           HealthRule::Cmp::kGt, 0,
           "crash reports present in XNFDB_CRASH_DIR from previous runs"),
  };
}

void HealthEngine::SetAlertSink(AlertSink sink) {
  std::lock_guard<std::mutex> lock(mu_);
  sink_ = std::move(sink);
}

void HealthEngine::OnSample(const std::vector<MetricsSampler::Row>& rows) {
  std::vector<AlertTransition> fired;
  AlertSink sink;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sink = sink_;
    ++samples_evaluated_;
    const int64_t sample_ts =
        rows.empty() ? 0 : rows.front().sample_ts_us;
    for (TrackedRule& t : rules_) {
      const MetricsSampler::Row* row = nullptr;
      for (const MetricsSampler::Row& r : rows) {
        if (r.name == t.rule.series) {
          row = &r;
          break;
        }
      }
      bool breach;
      double value = 0.0;
      if (t.rule.cmp == HealthRule::Cmp::kAbsent) {
        breach = row == nullptr;
        if (row != nullptr) value = static_cast<double>(row->value);
      } else {
        // A missing series cannot breach a threshold rule — the subsystem
        // has not registered yet. The tick still counts as healthy so a
        // firing rule over a vanished series eventually clears.
        if (row != nullptr) {
          switch (t.rule.field) {
            case HealthRule::Field::kValue:
              value = static_cast<double>(row->value);
              break;
            case HealthRule::Field::kDelta:
              value = static_cast<double>(row->delta);
              break;
            case HealthRule::Field::kRatePerS:
              value = static_cast<double>(row->rate_per_s);
              break;
          }
        }
        breach = row != nullptr && Compare(t.rule.cmp, value, t.rule.bound);
      }
      t.evaluated = true;
      t.last_value = value;
      if (breach) {
        ++t.breaches;
        ++t.breach_streak;
        t.clear_streak = 0;
      } else {
        ++t.clear_streak;
        t.breach_streak = 0;
      }
      const bool flip_on = !t.firing && t.breach_streak >= t.rule.for_samples;
      const bool flip_off = t.firing && t.clear_streak >= t.rule.clear_samples;
      if (!flip_on && !flip_off) continue;
      t.firing = flip_on;
      t.since_us = sample_ts;
      ++t.transitions;
      AlertTransition a;
      a.seq = next_alert_seq_++;
      a.ts_us = sample_ts;
      a.rule = t.rule.name;
      a.series = t.rule.series;
      a.from = flip_on ? "OK" : "FIRING";
      a.to = flip_on ? "FIRING" : "OK";
      a.value = value;
      a.bound = t.rule.bound;
      alerts_.push_back(a);
      while (alerts_.size() > alert_capacity_) alerts_.pop_front();
      fired.push_back(std::move(a));
    }
  }
  // The sink runs outside the lock: it logs one warn line, and the logger
  // feeds the flight recorder — exactly one line and one event per
  // transition, with no nesting under mu_.
  for (const AlertTransition& a : fired) {
    if (sink) sink(a);
  }
}

std::vector<RuleState> HealthEngine::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<RuleState> out;
  out.reserve(rules_.size());
  for (const TrackedRule& t : rules_) {
    RuleState s;
    s.rule = t.rule;
    s.state = t.firing ? "FIRING" : "OK";
    s.since_us = t.since_us;
    s.last_value = t.last_value;
    s.evaluated = t.evaluated;
    s.breaches = t.breaches;
    s.transitions = t.transitions;
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<AlertTransition> HealthEngine::Alerts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<AlertTransition>(alerts_.begin(), alerts_.end());
}

bool HealthEngine::healthy() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const TrackedRule& t : rules_) {
    if (t.firing) return false;
  }
  return true;
}

int64_t HealthEngine::samples_evaluated() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_evaluated_;
}

std::string HealthEngine::ReportJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  int firing = 0;
  for (const TrackedRule& t : rules_) {
    if (t.firing) ++firing;
  }
  std::string out;
  out += "{\"status\":\"";
  out += firing > 0 ? "degraded" : "ok";
  out += "\",\"firing\":" + std::to_string(firing);
  out += ",\"samples_evaluated\":" + std::to_string(samples_evaluated_);
  out += ",\"rules\":[";
  bool first = true;
  for (const TrackedRule& t : rules_) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + JsonEscapeMin(t.rule.name) + "\"";
    out += ",\"series\":\"" + JsonEscapeMin(t.rule.series) + "\"";
    out += ",\"field\":\"";
    out += HealthFieldName(t.rule.field);
    out += "\",\"cmp\":\"";
    out += HealthCmpName(t.rule.cmp);
    out += "\",\"bound\":" + FormatDouble(t.rule.bound);
    out += ",\"state\":\"";
    out += t.firing ? "FIRING" : "OK";
    out += "\",\"last_value\":" + FormatDouble(t.last_value);
    out += ",\"since_us\":" + std::to_string(t.since_us);
    out += ",\"breaches\":" + std::to_string(t.breaches);
    out += ",\"transitions\":" + std::to_string(t.transitions);
    out += ",\"description\":\"" + JsonEscapeMin(t.rule.description) + "\"}";
  }
  out += "],\"alerts_recorded\":" + std::to_string(next_alert_seq_ - 1);
  out += "}";
  return out;
}

}  // namespace obs
}  // namespace xnfdb
