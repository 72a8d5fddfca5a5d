#include "obs/query_profile.h"

namespace xnfdb {
namespace obs {

const char* ClassifyOp(const std::string& op) {
  if (op == "scan" || op == "index_scan" || op == "range_scan" ||
      op == "virtual_scan" || op == "spool_read" || op == "frontier") {
    return "scan";
  }
  if (op == "hash_join" || op == "index_join" || op == "nl_join") {
    return "join";
  }
  if (op == "filter" || op == "exists") return "filter";
  return "other";
}

}  // namespace obs
}  // namespace xnfdb
