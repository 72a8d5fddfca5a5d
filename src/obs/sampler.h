// Continuous metrics sampling: a background thread snapshots the
// MetricsRegistry at a fixed interval into a bounded ring of samples, so
// point-in-time counters become a queryable time-series (`SYS$METRICS_HISTORY`).
//
// Each sample stores, per series, the value at sample time, the delta since
// the previous sample, and (for counters) the rate per second derived from
// the actual inter-sample wall time — the substrate ROADMAP item 3 needs to
// pick hot CO view shapes by frequency-and-cost *over time*, not by a
// single snapshot.
//
// Series emitted per sample:
//   * every counter:   kind "counter", delta and rate_per_s vs. the
//     previous sample;
//   * every gauge:     kind "gauge", delta (rate is 0 — a last-value gauge
//     has no meaningful per-second rate);
//   * every histogram: three derived series — `<name>.count` (counter
//     semantics) plus `<name>.p50` / `<name>.p99` quantile gauges.
//
// The ring is lock-protected (sampling is seconds-scale, far off any hot
// path) and evicts the oldest sample at capacity. `SampleNow()` takes one
// sample synchronously, which is what the shell's `.sample` and the CI
// smoke use to make history content deterministic; `Start()`/`Stop()` run
// the background thread. The Database owns the sampler's lifecycle: its
// tick also carries health evaluation and the stuck-query watchdog's scan,
// so it runs when XNFDB_METRICS_SAMPLE_MS > 0 or XNFDB_WATCHDOG_STALL_MS > 0.

#ifndef XNFDB_OBS_SAMPLER_H_
#define XNFDB_OBS_SAMPLER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace xnfdb {
namespace obs {

class MetricsSampler {
 public:
  struct Options {
    // Samples retained; the oldest is evicted at capacity.
    size_t ring_capacity = 120;
  };

  // One series observation within one sample.
  struct Row {
    int64_t sample_ts_us = 0;  // microseconds since sampler construction
    std::string name;
    std::string kind;  // "counter" | "gauge"
    int64_t value = 0;
    int64_t delta = 0;       // vs. the previous sample (value on first sight)
    int64_t rate_per_s = 0;  // counters only; 0 for gauges / first sample
  };

  MetricsSampler(MetricsRegistry* registry, Options options);
  MetricsSampler(const MetricsSampler&) = delete;
  MetricsSampler& operator=(const MetricsSampler&) = delete;
  ~MetricsSampler();

  // Starts the background thread sampling every `interval_ms` (at least
  // 1), or changes the interval of the running thread, which picks it up
  // at once. Stop joins the thread before returning and is idempotent.
  // Both are safe to call from any thread.
  void Start(int64_t interval_ms);
  void Stop();
  bool running() const;
  // The interval of the running thread (or of the last one).
  int64_t interval_ms() const;

  // Takes one sample synchronously (deterministic histories for tests, the
  // shell `.sample` command, and the CI smoke).
  void SampleNow();

  // Every retained sample's rows, oldest sample first.
  std::vector<Row> History() const;

  // Invoked with a copy of each new sample's rows, after the sampler's
  // lock is released — the callback may log, record flight events, or feed
  // the health engine, but must not call back into this sampler. Applies
  // to background ticks and SampleNow alike. Pass an empty function to
  // clear.
  using OnSample = std::function<void(const std::vector<Row>& rows)>;
  void SetOnSample(OnSample callback);

  int64_t samples_taken() const;
  int64_t evictions() const;
  size_t ring_size() const;
  const Options& options() const { return options_; }

 private:
  struct Sample {
    int64_t ts_us = 0;
    std::vector<Row> rows;
  };

  // Takes one sample; caller holds mu_. Returns a copy of the sample's
  // rows for the on-sample callback (invoked only after mu_ is released).
  std::vector<Row> TakeSampleLocked();
  void AppendSeries(Sample* sample, const std::string& name,
                    const char* kind, int64_t value, bool rated,
                    int64_t dt_us);
  // Invokes the on-sample callback (if set) with one sample's rows. Caller
  // must NOT hold mu_.
  void NotifySample(const std::vector<Row>& rows);
  void Loop();

  int64_t NowUs() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  MetricsRegistry* registry_;
  Options options_;
  const std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();

  // Serializes Start/Stop so concurrent lifecycle calls cannot double-join
  // the thread; mu_ protects the sampling state itself.
  std::mutex lifecycle_mu_;
  std::thread thread_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  bool running_ = false;
  int64_t interval_ms_ = 0;
  std::deque<Sample> ring_;
  std::map<std::string, int64_t> prev_;  // last value per series, for deltas
  int64_t prev_ts_us_ = -1;
  int64_t samples_ = 0;
  int64_t evictions_ = 0;

  // Guarded by its own mutex, not mu_: the callback fires outside mu_, and
  // SetOnSample must not race the copy taken there.
  mutable std::mutex callback_mu_;
  OnSample on_sample_;

  // Self-metrics, registered in the sampled registry (a sample therefore
  // reports the sampler's own activity one sample late — incrementing
  // before snapshotting would make deltas self-referential).
  Counter* samples_counter_;
  Counter* evictions_counter_;
};

}  // namespace obs
}  // namespace xnfdb

#endif  // XNFDB_OBS_SAMPLER_H_
