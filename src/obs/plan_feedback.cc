#include "obs/plan_feedback.h"

#include <algorithm>
#include <cstdio>

namespace xnfdb {
namespace obs {

std::string RewriteTrace::ToString() const {
  std::string out;
  char buf[256];
  int seq = 0;
  for (const RewriteEvent& e : events) {
    std::snprintf(buf, sizeof(buf),
                  "  #%-3d pass=%d %-24s %-8s rejected=%lld boxes=%d->%d "
                  "%lldus\n",
                  ++seq, e.pass, e.rule.c_str(),
                  e.fired ? "fired" : "no-match",
                  static_cast<long long>(e.rejected), e.boxes_before,
                  e.boxes_after, static_cast<long long>(e.wall_us));
    out += buf;
  }
  if (dropped > 0) {
    std::snprintf(buf, sizeof(buf), "  (+%lld events dropped)\n",
                  static_cast<long long>(dropped));
    out += buf;
  }
  return out;
}

double QError(double est, double actual) {
  double e = std::max(est, 1.0);
  double a = std::max(actual, 1.0);
  return std::max(e / a, a / e);
}

}  // namespace obs
}  // namespace xnfdb
