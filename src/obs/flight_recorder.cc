#include "obs/flight_recorder.h"

#include <chrono>
#include <cstdlib>
#include <cstring>

#include "obs/metrics.h"

namespace xnfdb {
namespace obs {

namespace {

int64_t WallUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

// Copies `src` into the fixed field `dst`, truncating, always NUL-padded.
template <size_t N>
void FillField(char (&dst)[N], std::string_view src) {
  size_t n = src.size() < N - 1 ? src.size() : N - 1;
  // An empty view may carry a null data(), which memcpy must not get.
  if (n > 0) std::memcpy(dst, src.data(), n);
  std::memset(dst + n, 0, N - n);
}

template <size_t N>
bool FieldEquals(const char (&field)[N], std::string_view src) {
  size_t n = src.size() < N - 1 ? src.size() : N - 1;
  return std::strlen(field) == n &&
         (n == 0 || std::memcmp(field, src.data(), n) == 0);
}

// --- async-signal-safe text building (DumpTailUnsafe) ---------------------
// No snprintf: it is not on the POSIX async-signal-safe list.

size_t AppendRaw(char* buf, size_t buf_size, size_t pos, const char* s,
                 size_t n) {
  if (pos >= buf_size) return pos;
  size_t room = buf_size - 1 - pos;
  if (n > room) n = room;
  std::memcpy(buf + pos, s, n);
  return pos + n;
}

size_t AppendStr(char* buf, size_t buf_size, size_t pos, const char* s) {
  return AppendRaw(buf, buf_size, pos, s, std::strlen(s));
}

size_t AppendInt(char* buf, size_t buf_size, size_t pos, int64_t v) {
  char digits[24];
  size_t n = 0;
  bool neg = v < 0;
  uint64_t u = neg ? ~static_cast<uint64_t>(v) + 1 : static_cast<uint64_t>(v);
  do {
    digits[n++] = static_cast<char>('0' + u % 10);
    u /= 10;
  } while (u != 0 && n < sizeof(digits));
  if (neg) pos = AppendRaw(buf, buf_size, pos, "-", 1);
  while (n > 0) {
    --n;
    pos = AppendRaw(buf, buf_size, pos, &digits[n], 1);
  }
  return pos;
}

}  // namespace

FlightRecorder::FlightRecorder(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      slots_(capacity == 0 ? 1 : capacity) {}

FlightRecorder& FlightRecorder::Default() {
  static FlightRecorder* recorder = [] {
    // Raw env read on purpose: obs sits below common, so ParseEnvBool
    // (and its warn-once diagnostics) is not linkable from here. The
    // Database constructor re-resolves the knob through the checked parser
    // and pushes the result back via set_enabled.
    auto* r = new FlightRecorder(kDefaultCapacity);  // never dies: see header
    if (const char* raw = std::getenv("XNFDB_EVENTS")) {
      if (std::strcmp(raw, "0") == 0) r->set_enabled(false);
    }
    return r;
  }();
  return *recorder;
}

void FlightRecorder::Record(std::string_view category,
                            std::string_view severity,
                            std::string_view message,
                            std::string_view detail) {
  if (!enabled()) return;
  const int64_t now_us = WallUs();
  std::lock_guard<std::mutex> lock(mu_);
  if (recorded_counter_ == nullptr) {
    recorded_counter_ =
        MetricsRegistry::Default().GetCounter("events.recorded");
    coalesced_counter_ =
        MetricsRegistry::Default().GetCounter("events.coalesced");
  }
  recorded_.fetch_add(1, std::memory_order_relaxed);
  recorded_counter_->Increment();

  const int64_t last = next_seq_.load(std::memory_order_relaxed);
  if (last > 0) {
    Slot& prev = slots_[static_cast<size_t>(last) % capacity_];
    if (prev.seq.load(std::memory_order_relaxed) == last &&
        FieldEquals(prev.category, category) &&
        FieldEquals(prev.severity, severity) &&
        FieldEquals(prev.message, message) &&
        FieldEquals(prev.detail, detail)) {
      // Identical to the newest event: fold in place. The slot goes
      // invisible (seq = -1) for the few stores in between so a concurrent
      // lock-free reader never sees a half-updated repeat count.
      prev.seq.store(-1, std::memory_order_release);
      prev.repeated += 1;
      prev.ts_us = now_us;
      prev.seq.store(last, std::memory_order_release);
      coalesced_.fetch_add(1, std::memory_order_relaxed);
      coalesced_counter_->Increment();
      return;
    }
  }

  const int64_t seq = last + 1;
  Slot& slot = slots_[static_cast<size_t>(seq) % capacity_];
  slot.seq.store(-1, std::memory_order_release);  // retire the old event
  slot.ts_us = now_us;
  slot.repeated = 1;
  FillField(slot.category, category);
  FillField(slot.severity, severity);
  FillField(slot.message, message);
  FillField(slot.detail, detail);
  slot.seq.store(seq, std::memory_order_release);
  next_seq_.store(seq, std::memory_order_release);
}

std::vector<FlightRecorder::Event> FlightRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Event> out;
  const int64_t hi = next_seq_.load(std::memory_order_relaxed);
  int64_t lo = hi - static_cast<int64_t>(capacity_) + 1;
  if (lo < 1) lo = 1;
  out.reserve(static_cast<size_t>(hi - lo + 1));
  for (int64_t seq = lo; seq <= hi; ++seq) {
    const Slot& slot = slots_[static_cast<size_t>(seq) % capacity_];
    if (slot.seq.load(std::memory_order_acquire) != seq) continue;
    Event e;
    e.seq = seq;
    e.ts_us = slot.ts_us;
    e.repeated = slot.repeated;
    e.category = slot.category;
    e.severity = slot.severity;
    e.message = slot.message;
    e.detail = slot.detail;
    out.push_back(std::move(e));
  }
  return out;
}

size_t FlightRecorder::DumpTailUnsafe(char* buf, size_t buf_size,
                                      size_t max_events) const {
  if (buf == nullptr || buf_size == 0) return 0;
  size_t pos = 0;
  const int64_t hi = next_seq_.load(std::memory_order_acquire);
  int64_t span = static_cast<int64_t>(
      max_events < capacity_ ? max_events : capacity_);
  int64_t lo = hi - span + 1;
  if (lo < 1) lo = 1;
  for (int64_t seq = lo; seq <= hi; ++seq) {
    const Slot& slot = slots_[static_cast<size_t>(seq) % capacity_];
    if (slot.seq.load(std::memory_order_acquire) != seq) continue;
    // Copy out, then re-validate: a torn read (writer overwrote the slot
    // mid-copy) fails the second check and the event is skipped.
    Slot copy;
    copy.ts_us = slot.ts_us;
    copy.repeated = slot.repeated;
    std::memcpy(copy.category, slot.category, sizeof(copy.category));
    std::memcpy(copy.severity, slot.severity, sizeof(copy.severity));
    std::memcpy(copy.message, slot.message, sizeof(copy.message));
    std::memcpy(copy.detail, slot.detail, sizeof(copy.detail));
    if (slot.seq.load(std::memory_order_acquire) != seq) continue;
    copy.category[sizeof(copy.category) - 1] = '\0';
    copy.severity[sizeof(copy.severity) - 1] = '\0';
    copy.message[sizeof(copy.message) - 1] = '\0';
    copy.detail[sizeof(copy.detail) - 1] = '\0';

    pos = AppendStr(buf, buf_size, pos, "#");
    pos = AppendInt(buf, buf_size, pos, seq);
    pos = AppendStr(buf, buf_size, pos, " ts_us=");
    pos = AppendInt(buf, buf_size, pos, copy.ts_us);
    pos = AppendStr(buf, buf_size, pos, " [");
    pos = AppendStr(buf, buf_size, pos, copy.severity);
    pos = AppendStr(buf, buf_size, pos, "] ");
    pos = AppendStr(buf, buf_size, pos, copy.category);
    pos = AppendStr(buf, buf_size, pos, ": ");
    pos = AppendStr(buf, buf_size, pos, copy.message);
    if (copy.detail[0] != '\0') {
      pos = AppendStr(buf, buf_size, pos, " | ");
      pos = AppendStr(buf, buf_size, pos, copy.detail);
    }
    if (copy.repeated > 1) {
      pos = AppendStr(buf, buf_size, pos, " (x");
      pos = AppendInt(buf, buf_size, pos, copy.repeated);
      pos = AppendStr(buf, buf_size, pos, ")");
    }
    pos = AppendStr(buf, buf_size, pos, "\n");
    if (pos >= buf_size - 1) break;  // full
  }
  buf[pos] = '\0';
  return pos;
}

}  // namespace obs
}  // namespace xnfdb
