#include "obs/digest_store.h"

#include <algorithm>
#include <chrono>

namespace xnfdb {
namespace obs {

namespace {

int64_t NowUnixUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::string DigestHex(uint64_t digest) {
  static const char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[i] = kHex[digest & 0xf];
    digest >>= 4;
  }
  return out;
}

DigestStore::Entry* DigestStore::Find(uint64_t digest,
                                      const std::string& text) {
  auto it = entries_.find(digest);
  if (it == entries_.end()) {
    if (entries_.size() >= capacity_) {
      ++dropped_;
      return nullptr;
    }
    it = entries_.try_emplace(digest).first;
    DigestRecord& r = it->second.record;
    r.digest = digest;
    r.digest_hex = DigestHex(digest);
    r.text = text;
  }
  return &it->second;
}

void DigestStore::RecordCompile(uint64_t digest, const std::string& text,
                                const RewriteTrace& trace) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry* e = Find(digest, text);
  if (e != nullptr) e->record.trace = trace;
}

DigestStore::PlanChange DigestStore::RecordExecution(
    uint64_t digest, const std::string& text, int64_t execute_us,
    const QueryProfile* profile, uint64_t plan_hash,
    const std::string& plan_shape, std::vector<OpFeedback> feedback) {
  const int64_t now_us = NowUnixUs();
  std::lock_guard<std::mutex> lock(mu_);
  PlanChange change;
  Entry* e = Find(digest, text);
  if (e == nullptr) return change;
  DigestRecord& r = e->record;

  if (profile != nullptr) {
    ++r.captures;
    r.last_profile = *profile;
    for (const OpProfile& op : profile->ops) {
      const char* cls = ClassifyOp(op.op);
      if (cls[0] == 's') {
        r.scan_self_us += op.self_us;
      } else if (cls[0] == 'j') {
        r.join_self_us += op.self_us;
      } else if (cls[0] == 'f') {
        r.filter_self_us += op.self_us;
      } else {
        r.other_self_us += op.self_us;
      }
    }
  }
  if (plan_shape.empty()) return change;

  ++r.executions;
  change.executions = r.executions;
  // Cardinality feedback: keep the kMaxOps worst q-errors seen so far,
  // replacing a prior entry for the same (output, op) slot with whichever
  // observation is worse.
  for (OpFeedback& f : feedback) {
    if (f.est_rows < 0) continue;  // no estimate to compare
    bool merged = false;
    for (OpFeedback& w : r.worst) {
      if (w.output == f.output && w.op == f.op) {
        if (f.q_error > w.q_error) w = std::move(f);
        merged = true;
        break;
      }
    }
    if (!merged) r.worst.push_back(std::move(f));
  }
  std::sort(r.worst.begin(), r.worst.end(),
            [](const OpFeedback& a, const OpFeedback& b) {
              return a.q_error > b.q_error;
            });
  if (r.worst.size() > kMaxOps) r.worst.resize(kMaxOps);

  // Plan history.
  if (!r.plans.empty() && r.current_plan != plan_hash) {
    change.changed = true;
    change.from = r.current_plan;
    change.to = plan_hash;
    ++r.plan_changes;
  }
  r.current_plan = plan_hash;
  auto rec = std::find_if(r.plans.begin(), r.plans.end(),
                          [&](const PlanRecord& p) {
                            return p.plan_hash == plan_hash;
                          });
  if (rec == r.plans.end()) {
    if (r.plans.size() >= kMaxPlans) {
      // Evict the plan least recently seen.
      r.plans.erase(std::min_element(
          r.plans.begin(), r.plans.end(),
          [](const PlanRecord& a, const PlanRecord& b) {
            return a.last_seen_us < b.last_seen_us;
          }));
    }
    PlanRecord fresh;
    fresh.plan_hash = plan_hash;
    fresh.shape = plan_shape;
    fresh.first_seen_us = now_us;
    r.plans.push_back(std::move(fresh));
    rec = r.plans.end() - 1;
  }
  rec->last_seen_us = now_us;
  ++rec->executions;
  rec->total_execute_us += execute_us;
  return change;
}

void DigestStore::RecordStatement(uint64_t digest, const std::string& text,
                                  const std::string& kind, bool ok,
                                  int64_t rows, int64_t elapsed_us) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry* e = Find(digest, text);
  if (e == nullptr) return;
  DigestRecord& r = e->record;
  if (r.calls == 0) r.kind = kind;
  ++r.calls;
  if (!ok) ++r.errors;
  r.rows += rows;
  r.total_us += elapsed_us;
  if (r.calls == 1 || elapsed_us < r.min_us) r.min_us = elapsed_us;
  if (elapsed_us > r.max_us) r.max_us = elapsed_us;
  e->latency.Observe(elapsed_us);
}

bool DigestStore::Stats(uint64_t digest, int64_t* calls,
                        int64_t* avg_us) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(digest);
  if (it == entries_.end()) return false;
  const DigestRecord& r = it->second.record;
  if (calls != nullptr) *calls = r.calls;
  if (avg_us != nullptr) *avg_us = r.avg_us();
  return true;
}

OpFeedback DigestStore::TopMisestimate(uint64_t digest) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(digest);
  if (it == entries_.end() || it->second.record.worst.empty()) {
    return OpFeedback{};
  }
  return it->second.record.worst.front();
}

std::vector<DigestRecord> DigestStore::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<DigestRecord> out;
  out.reserve(entries_.size());
  for (const auto& [digest, e] : entries_) {
    out.push_back(e.record);
    out.back().latency = e.latency.Snapshot();
  }
  return out;
}

size_t DigestStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

int64_t DigestStore::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void DigestStore::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  dropped_ = 0;
}

}  // namespace obs
}  // namespace xnfdb
