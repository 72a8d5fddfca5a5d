#include "obs/sampler.h"

#include <algorithm>
#include <utility>

namespace xnfdb {
namespace obs {

MetricsSampler::MetricsSampler(MetricsRegistry* registry, Options options)
    : registry_(registry),
      options_(options),
      samples_counter_(registry->GetCounter("sampler.samples")),
      evictions_counter_(registry->GetCounter("sampler.evictions")) {
  if (options_.ring_capacity == 0) options_.ring_capacity = 1;
}

MetricsSampler::~MetricsSampler() { Stop(); }

void MetricsSampler::Start(int64_t interval_ms) {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    interval_ms_ = std::max<int64_t>(1, interval_ms);
    if (running_) {
      cv_.notify_all();  // the waiting tick restarts with the new interval
      return;
    }
    running_ = true;
    stop_requested_ = false;
  }
  thread_ = std::thread([this] { Loop(); });
}

void MetricsSampler::Stop() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  running_ = false;
  stop_requested_ = false;
}

bool MetricsSampler::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

int64_t MetricsSampler::interval_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return interval_ms_;
}

void MetricsSampler::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_requested_) {
    const int64_t interval_ms = interval_ms_;
    if (cv_.wait_for(lock, std::chrono::milliseconds(interval_ms), [&] {
          return stop_requested_ || interval_ms_ != interval_ms;
        })) {
      continue;
    }
    std::vector<Row> rows = TakeSampleLocked();
    lock.unlock();
    NotifySample(rows);
    lock.lock();
  }
}

void MetricsSampler::SampleNow() {
  std::vector<Row> rows;
  {
    std::lock_guard<std::mutex> lock(mu_);
    rows = TakeSampleLocked();
  }
  NotifySample(rows);
}

void MetricsSampler::SetOnSample(OnSample callback) {
  std::lock_guard<std::mutex> lock(callback_mu_);
  on_sample_ = std::move(callback);
}

void MetricsSampler::NotifySample(const std::vector<Row>& rows) {
  OnSample callback;
  {
    std::lock_guard<std::mutex> lock(callback_mu_);
    callback = on_sample_;
  }
  if (callback) callback(rows);
}

void MetricsSampler::AppendSeries(Sample* sample, const std::string& name,
                                  const char* kind, int64_t value,
                                  bool rated, int64_t dt_us) {
  Row row;
  row.sample_ts_us = sample->ts_us;
  row.name = name;
  row.kind = kind;
  row.value = value;
  auto [it, first] = prev_.try_emplace(name, value);
  row.delta = first ? value : value - it->second;
  it->second = value;
  if (rated && !first && dt_us > 0) {
    row.rate_per_s = row.delta * 1'000'000 / dt_us;
  }
  sample->rows.push_back(std::move(row));
}

std::vector<MetricsSampler::Row> MetricsSampler::TakeSampleLocked() {
  MetricsSnapshot snap = registry_->Snapshot();
  Sample sample;
  sample.ts_us = NowUs();
  const int64_t dt_us = prev_ts_us_ < 0 ? 0 : sample.ts_us - prev_ts_us_;
  prev_ts_us_ = sample.ts_us;
  sample.rows.reserve(snap.counters.size() + snap.gauges.size() +
                      snap.histograms.size() * 3);
  for (const auto& [name, v] : snap.counters) {
    AppendSeries(&sample, name, "counter", v, /*rated=*/true, dt_us);
  }
  for (const auto& [name, v] : snap.gauges) {
    AppendSeries(&sample, name, "gauge", v, /*rated=*/false, dt_us);
  }
  for (const auto& [name, h] : snap.histograms) {
    AppendSeries(&sample, name + ".count", "counter", h.count,
                 /*rated=*/true, dt_us);
    AppendSeries(&sample, name + ".p50", "gauge", h.Quantile(0.5),
                 /*rated=*/false, dt_us);
    AppendSeries(&sample, name + ".p99", "gauge", h.Quantile(0.99),
                 /*rated=*/false, dt_us);
  }
  std::vector<Row> rows = sample.rows;  // callback copy, used outside mu_
  ring_.push_back(std::move(sample));
  ++samples_;
  samples_counter_->Increment();
  while (ring_.size() > options_.ring_capacity) {
    ring_.pop_front();
    ++evictions_;
    evictions_counter_->Increment();
  }
  return rows;
}

std::vector<MetricsSampler::Row> MetricsSampler::History() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Row> out;
  size_t total = 0;
  for (const Sample& s : ring_) total += s.rows.size();
  out.reserve(total);
  for (const Sample& s : ring_) {
    out.insert(out.end(), s.rows.begin(), s.rows.end());
  }
  return out;
}

int64_t MetricsSampler::samples_taken() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_;
}

int64_t MetricsSampler::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

size_t MetricsSampler::ring_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

}  // namespace obs
}  // namespace xnfdb
