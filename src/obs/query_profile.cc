#include "obs/query_profile.h"

#include "obs/statement_stats.h"

namespace xnfdb {
namespace obs {

const char* ClassifyOp(const std::string& op) {
  if (op == "scan" || op == "index_scan" || op == "range_scan" ||
      op == "virtual_scan" || op == "spool_read") {
    return "scan";
  }
  if (op == "hash_join" || op == "index_join" || op == "nl_join") {
    return "join";
  }
  if (op == "filter" || op == "exists") return "filter";
  return "other";
}

void QueryProfileStore::Record(uint64_t digest, const std::string& text,
                               const QueryProfile& profile) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(digest);
  if (it == entries_.end()) {
    if (entries_.size() >= capacity_) {
      ++dropped_;
      return;
    }
    it = entries_.emplace(digest, std::make_unique<Entry>()).first;
    it->second->text = text;
  }
  Entry& e = *it->second;
  ++e.captures;
  e.total_wall_us += profile.wall_us;
  e.last = profile;
  for (const OpProfile& op : profile.ops) {
    const char* cls = ClassifyOp(op.op);
    if (cls[0] == 's') {
      e.classes.scan_us += op.self_us;
    } else if (cls[0] == 'j') {
      e.classes.join_us += op.self_us;
    } else if (cls[0] == 'f') {
      e.classes.filter_us += op.self_us;
    } else {
      e.classes.other_us += op.self_us;
    }
  }
}

std::vector<QueryProfileSnapshot> QueryProfileStore::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<QueryProfileSnapshot> out;
  out.reserve(entries_.size());
  for (const auto& [digest, entry] : entries_) {
    QueryProfileSnapshot s;
    s.digest = digest;
    s.digest_hex = DigestHex(digest);
    s.text = entry->text;
    s.captures = entry->captures;
    s.total_wall_us = entry->total_wall_us;
    s.last = entry->last;
    s.scan_self_us = entry->classes.scan_us;
    s.join_self_us = entry->classes.join_us;
    s.filter_self_us = entry->classes.filter_us;
    s.other_self_us = entry->classes.other_us;
    out.push_back(std::move(s));
  }
  return out;
}

QueryProfileStore::ClassTotals QueryProfileStore::ClassSelfTimes(
    uint64_t digest) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(digest);
  if (it == entries_.end()) return ClassTotals{};
  return it->second->classes;
}

size_t QueryProfileStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

int64_t QueryProfileStore::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void QueryProfileStore::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  dropped_ = 0;
}

}  // namespace obs
}  // namespace xnfdb
