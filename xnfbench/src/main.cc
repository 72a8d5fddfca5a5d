// xnfbench: the xnfdb end-to-end benchmark driver.
//
//   xnfbench --workload extract|serve_mixed|oo1_session --seed N
//            --seconds S --trace 0|1 [--ops N] [--setups N]
//
// One client thread runs the workload's pre-generated op sequence as a
// closed loop until the ops' own time reaches S seconds (or N ops ran).
// Every answer is checked against the workload's oracle; failed or wrong
// ops count in `failed`. The last stdout line is one JSON object with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1); the
// line before it is the run record (configuration, samples, work counters,
// traced-run accounting). End-to-end times are converted to reference speed
// by a fixed reference kernel timed between ops (Reference, SpeedScale) and
// taken over the faster half of the run's rounds (FasterHalf); the run
// record also gives the raw figures over all ops.
//
// With --trace 1 a seeded half of the ops is traced: the benchmark
// times its own calls into each layer and collects the engine's existing
// phase spans through the public CompileOptions/ExecOptions tracer sink.
// The untraced ops of the same run give the tracing overhead.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "api/governor.h"
#include "bench.h"
#include "common/log.h"
#include "matview/matview.h"
#include "obs/metrics.h"

extern char** environ;

namespace xnfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int64_t ops = 0;  // > 0: run exactly this many ops instead of timing
  int setups = 0;   // > 0: exactly this many set-ups; 0: by time
};

// Set-ups per half (before / after the loop) when counted by time.
constexpr int kMinSetupsPerHalf = 3;
constexpr int kMaxSetupsPerHalf = 20;
constexpr double kSetupHalfSeconds = 1.5;
// A reference pass (about 1 ms) runs before the first op after every 20 ms
// of op time, and three run before and after every set-up.
constexpr double kRefEveryNs = 20e6;
constexpr int kRefPerSetupSide = 3;
// peak_rss_mb is read after this many ops, a fixed amount of work: the
// workloads insert rows as they go, so a faster machine, doing more ops in
// --seconds, would otherwise read higher (on oo1_session, 20 MB at 1,200
// raw ops/s against 24 MB at 1,750).
constexpr int64_t kRssOps = 2000;

double MaxRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;
}

// Resident set size now (0 when /proc is not readable).
double RssMb() {
  long pages = 0, resident = 0;
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
  std::fclose(f);
  return resident * (sysconf(_SC_PAGESIZE) / 1048576.0);
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::atof(v.c_str());
    else if (k == "--trace") a->trace = v == "1";
    else if (k == "--ops") a->ops = std::atoll(v.c_str());
    else if (k == "--setups") a->setups = std::max(1, std::atoi(v.c_str()));
    else return false;
  }
  return (argc % 2) == 1 && !a->workload.empty() && a->seconds > 0;
}

// Tail percentile per workload and op class: the highest of {99, 95, 90}
// that leaves at least ten samples beyond it in the faster half of a
// 30-second run, with room to spare: 15 or more in the slowest of the runs
// made when the benchmark was defined. Fixed, so every run reports the same
// percentile; the run record flags a run that falls short.
double TailPercentile(const std::string& workload, OpClass c) {
  if (workload == "serve_mixed") return c == OpClass::kQuery ? 99 : 95;
  // Two classes stay one step lower, because the higher percentile was not
  // steady over ten runs: oo1_session's DML, 4 us INSERTs whose p99 is set
  // by rare stalls (spread 0.19, against 0.05 for the p95), and extract's
  // DML (p95 spread 0.09 and 0.17 in two sets, p90 0.07).
  if (workload == "oo1_session") return c == OpClass::kQuery ? 99 : 95;
  return c == OpClass::kDml ? 90 : 95;  // extract
}

double Percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * v.size()));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

// Failed ops miss every latency limit: they sort above every real sample
// and read as this value when a percentile lands on them.
constexpr double kFailedUs = 1e12;

std::string Num(double v) {
  if (!std::isfinite(v)) v = kFailedUs;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Phases the engine's PhaseScopes and executor spans report.
const char* const kPhases[] = {"parse",   "semantics", "xnf_rewrite",
                               "nf_rewrite", "plan",   "execute",
                               "deliver"};
constexpr int kNumPhases = 7;

int PhaseOf(const std::string& span) {
  for (int p = 0; p < kNumPhases; ++p) {
    const std::string name = kPhases[p];
    if (span == name || span.rfind(name + " ", 0) == 0) return p;
  }
  return -1;  // nested spans (rule firings, morsel workers) are not phases
}

struct ClassStats {
  int64_t n = 0;
  // Traced ops vs untraced ops of the same run (tracing overhead).
  int64_t traced = 0;
  double traced_cpu_ns = 0, untraced_cpu_ns = 0;
  double residual_ns = 0;  // traced: op time minus benchmark layer spans
};

// One op's measurement. `scale` converts the op's times to reference
// speed (SpeedScale).
struct Sample {
  int64_t round;
  int cls;
  bool ok;
  int64_t wall_ns, cpu_ns, tuples;
  double scale = 1;
};

// Latencies and totals over a set of ops, from which the end-to-end
// metrics are computed, in reference-speed time.
struct EndToEnd {
  std::vector<double> lat_us[kNumOpClasses];  // failed ops: +inf
  int64_t ops = 0, tuples = 0;
  double wall_ns = 0, cpu_ns = 0, traverse_ns = 0;

  void Add(const Sample& s) {
    const double wall = s.wall_ns * s.scale;
    ++ops;
    wall_ns += wall;
    cpu_ns += s.cpu_ns * s.scale;
    lat_us[s.cls].push_back(s.ok ? wall / 1e3
                                 : std::numeric_limits<double>::infinity());
    if (s.cls == static_cast<int>(OpClass::kTraverse)) {
      tuples += s.tuples;
      traverse_ns += wall;
    }
  }
};

// Reference work that never touches the engine: formats 4,000 short
// strings and files 1,000 of them in a std::map, through the process's
// malloc. On a shared host the machine's speed swings by up to 2x for
// seconds to minutes at a time while other tenants load it (the same
// engine op takes twice as long). The reference is the kind of code the
// engine spends its time in (allocation, string compares, tree walks), so
// its time swings with the engine's. A pass runs the work twice and times
// the second run: the first brings the code and heap chunks the second
// reuses into cache, so the timed run does not depend on what the engine
// left in the caches or the heap (timed cold, it ran 1.7x slower after a
// write-back than after a served read).
class Reference {
 public:
  // One pass, in ns.
  int64_t TimeNs() {
    Work();
    const int64_t t0 = WallNs();
    Work();
    return WallNs() - t0;
  }
  uint64_t sink() const { return sink_; }

 private:
  void Work() {
    std::vector<std::string> v;
    v.reserve(4000);
    for (int i = 0; i < 4000; ++i) {
      v.push_back("some longer string value " + std::to_string(i));
    }
    std::map<std::string, int> m;
    for (int i = 0; i < 1000; ++i) m[v[i * 3]] = i;
    sink_ += m.size() + m.begin()->second;
  }

  uint64_t sink_ = 0;
};

// Factor that converts a time measured while one reference pass took
// `ref_ns` into reference-speed time: (nominal / ref_ns)^exponent. The
// nominal pass time is a constant (about a quiet 4-vCPU Xeon VM's), so the
// converted times read close to that machine's wall times and compare
// across runs. A change to the engine moves the converted times in full:
// the reference runs no engine code.
constexpr double kNominalRefNs = 420e3;
double SpeedScale(double ref_ns, double exponent) {
  return ref_ns > 0 ? std::pow(kNominalRefNs / ref_ns, exponent) : 1;
}

// How far an op class's time moves with the reference's: the exponent of
// SpeedScale. Measured on that VM under injected memory and compute
// antagonists (slope of log op time on log reference time, correlation 0.9
// to 0.98 for most classes) and over twenty runs per workload under other
// tenants' load (the exponent that gave the smallest spread). Single-row
// DML and write-back on the Fig. 1 tables move about 1.3 times as much as
// the reference: UPDATE and DELETE scan the whole EMP table (2,000 or 8,000
// rows with strings), and on serve_mixed every write also maintains the
// stored views. Every other class, oo1_session's small-table writes among
// them, moves about as much as the reference. With these exponents the
// spreads over ten runs stayed at or below a third of the metrics' bounds
// while the raw ops/s of the same runs spread by 0.07 to 0.18.
double SpeedExponent(const std::string& workload, OpClass c) {
  const bool write = c == OpClass::kDml || c == OpClass::kWriteback;
  return write && workload != "oo1_session" ? 1.3 : 1.0;
}

// Sets each sample's scale from the reference passes taken during the loop
// (`refs`: the op index each pass ran before, and its time). An op uses the
// median of the five passes around the last one before it, which smooths
// single-pass jitter but follows the machine within about 0.1 s.
void ScaleSamples(const std::string& workload,
                  const std::vector<std::pair<size_t, int64_t>>& refs,
                  std::vector<Sample>* samples) {
  if (refs.empty()) return;
  std::vector<double> smooth(refs.size());
  for (size_t j = 0; j < refs.size(); ++j) {
    std::vector<double> w;
    const size_t end = std::min(refs.size(), j + 3);
    for (size_t k = j >= 2 ? j - 2 : 0; k < end; ++k) {
      w.push_back(static_cast<double>(refs[k].second));
    }
    smooth[j] = Median(std::move(w));
  }
  size_t j = 0;
  for (size_t i = 0; i < samples->size(); ++i) {
    while (j + 1 < refs.size() && refs[j + 1].first <= i) ++j;
    Sample& s = (*samples)[i];
    s.scale = SpeedScale(
        smooth[j], SpeedExponent(workload, static_cast<OpClass>(s.cls)));
  }
}

// The ops of the faster half of the run's rounds, by reference-speed time.
// A round is one pass over the generator's repeating block of ops
// (Op::round), so every round does about the same work. The reference
// follows the machine only so closely; rounds that a short burst of
// contention hit still run slow, and dropping the slower half removes
// them. A change that slows every round still moves the figures in full.
// The last round, which the clock cuts short, is left out. `rounds` gets
// the number of whole rounds and `kept` the number used.
EndToEnd FasterHalf(const std::vector<Sample>& samples, int64_t* rounds,
                    int64_t* kept) {
  std::map<int64_t, double> round_ns;
  for (const Sample& s : samples) round_ns[s.round] += s.wall_ns * s.scale;
  if (round_ns.size() > 1) round_ns.erase(std::prev(round_ns.end()));
  std::vector<double> times;
  for (const auto& [round, ns] : round_ns) times.push_back(ns);
  std::sort(times.begin(), times.end());
  const double cutoff = times.empty() ? 0 : times[(times.size() - 1) / 2];
  *rounds = static_cast<int64_t>(times.size());
  *kept = std::upper_bound(times.begin(), times.end(), cutoff) - times.begin();
  EndToEnd e;
  for (const Sample& s : samples) {
    auto it = round_ns.find(s.round);
    if (it != round_ns.end() && it->second <= cutoff) e.Add(s);
  }
  return e;
}

// Sums over the traced ops.
struct TraceTotals {
  double phase_span_us[2][kNumPhases] = {};  // [query=0 / load=1][phase]
  double phase_hist_us[kNumPhases] = {};
  int64_t parse_spans = 0;
  std::map<std::string, double> bench_ns;  // benchmark span name -> ns
  std::map<std::string, int64_t> bench_count;
  double probe_parse_ns = 0;
  int64_t probes = 0;
  double probe_plan_ns = 0;  // write-back planner, outside the ops' time
  int64_t writeback_stmts = 0;
  int64_t queries = 0, loads = 0;  // traced engine query calls
  int64_t tuples = 0;              // traced traversal visits
};

int64_t Counter(const xnfdb::obs::MetricsSnapshot& s, const std::string& n) {
  auto it = s.counters.find(n);
  return it == s.counters.end() ? 0 : it->second;
}

int64_t RulesFired(const xnfdb::obs::MetricsSnapshot& s) {
  int64_t total = 0;
  for (const auto& [name, v] : s.counters) {
    if (name.rfind("rewrite.rule.", 0) == 0 && name.size() > 6 &&
        name.compare(name.size() - 6, 6, ".fired") == 0) {
      total += v;
    }
  }
  return total;
}

std::pair<int64_t, int64_t> Hist(const xnfdb::obs::MetricsSnapshot& s,
                                 const std::string& n) {
  auto it = s.histograms.find(n);
  if (it == s.histograms.end()) return {0, 0};
  return {it->second.count, it->second.sum};
}

double Ratio(double a, double b) { return b > 0 ? a / b : 0; }

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: xnfbench --workload extract|serve_mixed|oo1_session "
                 "--seed N --seconds S --trace 0|1 [--ops N] [--setups N]\n");
    return 2;
  }
  // Parent and change must be measured under the same engine settings.
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "XNFDB_", 6) == 0) {
      std::fprintf(stderr, "refusing to run with %s set\n", *e);
      return 2;
    }
  }
  std::unique_ptr<Workload> (*make)(uint64_t) = nullptr;
  if (args.workload == "extract") make = MakeExtract;
  if (args.workload == "serve_mixed") make = MakeServeMixed;
  if (args.workload == "oo1_session") make = MakeOo1Session;
  if (make == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  // Engine log lines are counted, not printed.
  int64_t log_lines = 0;
  xnfdb::Logger::Default().SetSink(
      [&log_lines](const std::string&) { ++log_lines; });

  // The oracle's data and the op list exist before the engine does, so the
  // resident-memory peak above this point is the engine's.
  std::unique_ptr<Workload> wl = make(args.seed);
  const size_t max_ops =
      args.ops > 0 ? static_cast<size_t>(args.ops)
                   : static_cast<size_t>(args.seconds *
                                         wl->MaxOpsPerSecond()) + 1000;
  const std::vector<Op> ops = wl->GenerateOps(max_ops);
  const uint64_t ops_hash = HashOps(ops);
  std::vector<Sample> samples;
  samples.reserve(ops.size());
  Reference reference;
  std::vector<std::pair<size_t, int64_t>> ref_samples;  // before op i, ns
  ref_samples.reserve(static_cast<size_t>(args.seconds * 50) + 100);
  // Freed heap goes back to the system first, so the engine cannot grow
  // into pages the benchmark already counted.
  malloc_trim(0);
  const double base_rss_mb = RssMb();
  const double base_peak_mb = MaxRssMb();

  // Set-up, repeated: half before the loop and half after (on fresh
  // instances), so the median spans more than one stretch of machine time.
  // Short set-ups repeat until each half holds kSetupHalfSeconds. Each is
  // converted to reference speed by the reference passes around it.
  std::vector<double> setup_s, setup_scaled_s;
  auto timed_setup = [&](Workload* w) {
    std::vector<double> refs;
    auto passes = [&] {
      for (int k = 0; k < kRefPerSetupSide; ++k) {
        refs.push_back(reference.TimeNs());
      }
    };
    passes();
    const int64_t t0 = WallNs();
    xnfdb::Status st = w->Setup();
    setup_s.push_back((WallNs() - t0) / 1e9);
    passes();
    setup_scaled_s.push_back(setup_s.back() * SpeedScale(Median(refs), 1));
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
    }
    return st.ok();
  };
  auto half_done = [&](size_t first, int n) {
    const int done = static_cast<int>(setup_s.size() - first);
    if (args.setups > 0) return done >= n;
    double s = 0;
    for (size_t i = first; i < setup_s.size(); ++i) s += setup_s[i];
    return done >= kMaxSetupsPerHalf ||
           (done >= kMinSetupsPerHalf && s >= kSetupHalfSeconds);
  };
  while (!half_done(0, (args.setups + 1) / 2)) {
    wl->Teardown();
    if (!timed_setup(wl.get())) return 1;
  }
  const size_t pre_setups = setup_s.size();
  wl->Index();
  std::string selftest;
  if (!wl->SelfTest(&selftest)) {
    std::fprintf(stderr, "oracle self-test failed: %s\n", selftest.c_str());
    return 3;
  }

  xnfdb::obs::MetricsRegistry& reg = wl->db().metrics();
  std::vector<xnfdb::obs::Histogram*> phase_hist;
  for (const char* p : kPhases) {
    phase_hist.push_back(reg.GetHistogram(std::string("phase.") + p + ".us"));
  }
  xnfdb::obs::Tracer tracer(true);
  ClassStats cls[kNumOpClasses];
  TraceTotals tt;
  int64_t attempted = 0, failed = 0;
  int64_t writeback_stmts = 0, dml_stmts = 0, engine_queries = 0;
  double op_ns = 0, next_ref_ns = 0, peak_rss_mb = 0;
  const int64_t log_before = log_lines;
  const xnfdb::obs::MetricsSnapshot before = reg.Snapshot();

  for (size_t i = 0; i < ops.size(); ++i) {
    if (args.ops > 0 ? attempted >= args.ops : op_ns >= args.seconds * 1e9) {
      break;
    }
    if (op_ns >= next_ref_ns) {
      ref_samples.emplace_back(i, reference.TimeNs());
      next_ref_ns = op_ns + kRefEveryNs;
    }
    const Op& op = ops[i];
    const int c = static_cast<int>(op.cls);
    // A seeded coin, not alternation: op sequences are periodic (a read
    // right after a write finds its matview stale), and alternation would
    // alias with that period.
    uint64_t coin = args.seed * 0x9e3779b97f4a7c15ULL + i;
    coin = (coin ^ (coin >> 31)) * 0xbf58476d1ce4e5b9ULL;
    const bool traced = args.trace && ((coin ^ (coin >> 29)) & 1);
    int64_t hist0[kNumPhases] = {};
    if (traced) {
      for (int p = 0; p < kNumPhases; ++p) {
        hist0[p] = phase_hist[p]->Snapshot().sum;
      }
    }
    OpContext ctx(traced, &tracer);
    const bool ok = wl->Run(op, &ctx);
    ++attempted;
    if (attempted == kRssOps) peak_rss_mb = MaxRssMb() - base_rss_mb;
    samples.push_back({op.round, c, ok, ctx.wall_ns, ctx.cpu_ns, ctx.tuples});
    ClassStats& s = cls[c];
    ++s.n;
    op_ns += ctx.wall_ns;
    if (!ok) {
      if (++failed <= 5) {
        std::fprintf(stderr, "op %zu (%s) failed: %s\n", i,
                     OpClassName(op.cls), ctx.error.c_str());
      }
    }
    if (op.cls == OpClass::kQuery || op.cls == OpClass::kLoad) {
      ++engine_queries;
    }
    if (op.cls == OpClass::kDml) ++dml_stmts;
    writeback_stmts += ctx.stmts;
    dml_stmts += ctx.stmts;
    if (!args.trace) continue;
    if (!traced) {
      s.untraced_cpu_ns += ctx.cpu_ns;
      continue;
    }
    ++s.traced;
    s.traced_cpu_ns += ctx.cpu_ns;
    double covered = 0;
    for (const auto& [name, ns] : ctx.spans) {
      tt.bench_ns[name] += ns;
      ++tt.bench_count[name];
      covered += ns;
    }
    s.residual_ns += ctx.wall_ns - covered;
    tt.probe_parse_ns += ctx.parse_ns;
    tt.probes += ctx.parses;
    tt.probe_plan_ns += ctx.plan_ns;
    tt.writeback_stmts += ctx.stmts;
    const int kind = op.cls == OpClass::kLoad ? 1 : 0;
    for (const xnfdb::obs::SpanRecord& span : tracer.Spans()) {
      const int p = PhaseOf(span.name);
      if (p < 0) continue;
      tt.phase_span_us[kind][p] += span.dur_us;
      if (p == 0) ++tt.parse_spans;
    }
    tracer.Clear();
    for (int p = 0; p < kNumPhases; ++p) {
      tt.phase_hist_us[p] += phase_hist[p]->Snapshot().sum - hist0[p];
    }
    if (op.cls == OpClass::kQuery) ++tt.queries;
    if (op.cls == OpClass::kLoad) ++tt.loads;
    tt.tuples += ctx.tuples;
  }
  const xnfdb::obs::MetricsSnapshot after = reg.Snapshot();
  auto delta = [&](const char* name) {
    return static_cast<double>(Counter(after, name) - Counter(before, name));
  };
  const int64_t ops_log_lines = log_lines - log_before;
  if (attempted < kRssOps) peak_rss_mb = MaxRssMb() - base_rss_mb;
  const bool exhausted = args.ops == 0 && op_ns < args.seconds * 1e9;
  if (exhausted) {
    std::fprintf(stderr,
                 "op list (%zu ops) used up after %.1f s of op time: raise "
                 "MaxOpsPerSecond\n",
                 ops.size(), op_ns / 1e9);
    return 4;
  }
  const std::string state = wl->StateJson();
  wl.reset();
  while (!half_done(pre_setups, args.setups / 2)) {
    std::unique_ptr<Workload> w = make(args.seed);
    if (!timed_setup(w.get())) return 1;
  }
  ScaleSamples(args.workload, ref_samples, &samples);
  EndToEnd all, raw;
  std::vector<double> ref_ns;
  for (const Sample& s : samples) {
    all.Add(s);
    Sample unscaled = s;
    unscaled.scale = 1;
    raw.Add(unscaled);
  }
  for (const auto& [i, ns] : ref_samples) ref_ns.push_back(ns);
  int64_t rounds = 0, rounds_kept = 0;
  const EndToEnd kept = FasterHalf(samples, &rounds, &rounds_kept);

  // ---- run record ----------------------------------------------------------
  std::ostringstream rec;
  const xnfdb::MatViewConfig mv = xnfdb::MatViewConfig::FromEnv();
  const xnfdb::GovernorOptions gov = xnfdb::GovernorOptions::FromEnv();
  rec << "{\"workload\":\"" << args.workload << "\",\"seed\":" << args.seed
      << ",\"seconds\":" << Num(args.seconds) << ",\"trace\":" << args.trace
      << ",\"build_type\":\"" << XNFBENCH_BUILD_TYPE << "\",\"compiler\":\""
      << XNFBENCH_COMPILER << "\",\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
      << ",\"clients\":1,\"loop\":\"closed\""
      << ",\"knobs\":{\"env_overrides\":0,\"matviews\":" << mv.enabled
      << ",\"matview_auto_calls\":" << mv.auto_calls
      << ",\"matview_auto_us\":" << mv.auto_min_avg_us
      << ",\"matview_max\":" << mv.max_views
      << ",\"matview_max_rows\":" << mv.max_rows
      << ",\"max_concurrent_queries\":" << gov.max_concurrent
      << ",\"query_timeout_ms\":" << gov.default_timeout_ms
      << ",\"batch_size\":1024,\"morsel_workers\":1,\"parallel_workers\":1"
      << ",\"background_threads\":0}"
      << ",\"state\":{" << state << "}"
      << ",\"setup_s\":[";
  for (size_t i = 0; i < setup_s.size(); ++i) {
    rec << (i > 0 ? "," : "") << Num(setup_s[i]);
  }
  rec << "],\"setup_scaled_s\":[";
  for (size_t i = 0; i < setup_scaled_s.size(); ++i) {
    rec << (i > 0 ? "," : "") << Num(setup_scaled_s[i]);
  }
  rec << "],\"reference\":{\"passes\":" << ref_ns.size()
      << ",\"nominal_ns\":" << Num(kNominalRefNs)
      << ",\"p10_ns\":" << Num(Percentile(ref_ns, 10))
      << ",\"p50_ns\":" << Num(Median(ref_ns))
      << ",\"p90_ns\":" << Num(Percentile(ref_ns, 90))
      << ",\"sink\":" << reference.sink() << "}"
      << ",\"ops_generated\":" << ops.size() << ",\"op_sequence_hash\":\""
      << std::hex << ops_hash << std::dec << "\",\"attempted\":" << attempted
      << ",\"failed\":" << failed
      << ",\"failed_ratio\":" << Num(Ratio(failed, attempted))
      << ",\"rss_before_engine_mb\":" << Num(base_rss_mb)
      << ",\"peak_before_engine_mb\":" << Num(base_peak_mb)
      << ",\"rounds\":" << rounds << ",\"rounds_kept\":" << rounds_kept
      << ",\"all_ops\":{\"ops_per_s\":"
      << Num(Ratio(all.ops, all.wall_ns / 1e9))
      << ",\"cpu_us_per_op\":" << Num(Ratio(all.cpu_ns / 1e3, all.ops))
      << "},\"raw_all_ops\":{\"ops_per_s\":"
      << Num(Ratio(raw.ops, raw.wall_ns / 1e9)) << ",\"cpu_us_per_op\":"
      << Num(Ratio(raw.cpu_ns / 1e3, raw.ops))
      << "},\"selftest\":\"" << JsonEscape(selftest) << "\",\"classes\":{";
  bool first = true;
  for (int c = 0; c < kNumOpClasses; ++c) {
    const std::vector<double>& lat = all.lat_us[c];
    const std::vector<double>& fast = kept.lat_us[c];
    if (lat.empty()) continue;
    const double tail = TailPercentile(args.workload, static_cast<OpClass>(c));
    const double beyond = fast.size() * (1 - tail / 100);
    rec << (first ? "" : ",") << "\"" << OpClassName(static_cast<OpClass>(c))
        << "\":{\"n\":" << lat.size() << ",\"p25_us\":"
        << Num(Percentile(lat, 25)) << ",\"p50_us\":" << Num(Median(lat))
        << ",\"p75_us\":" << Num(Percentile(lat, 75))
        << ",\"kept_n\":" << fast.size()
        << ",\"kept_p50_us\":" << Num(Median(fast))
        << ",\"tail_pct\":" << Num(tail)
        << ",\"kept_tail_us\":" << Num(Percentile(fast, tail))
        << ",\"samples_beyond_tail\":" << Num(std::floor(beyond))
        << ",\"tail_undersampled\":" << (beyond < 10 ? "true" : "false")
        << "}";
    first = false;
  }
  rec << "},\"work_counters\":{";
  const char* const kWork[] = {
      "exec.rows_scanned",     "exec.spool_builds",
      "matview.hits",          "matview.materializations",
      "matview.delta_applies", "cache.cursor.swizzled_steps"};
  for (const char* w : kWork) {
    rec << "\"" << w << "\":" << static_cast<int64_t>(delta(w)) << ",";
  }
  rec << "\"writeback.statements\":" << writeback_stmts << "}"
      << ",\"log_lines\":" << ops_log_lines;
  const auto qw0 = Hist(before, "governor.queue_wait.us");
  const auto qw1 = Hist(after, "governor.queue_wait.us");
  const double queue_wait_us =
      Ratio(qw1.second - qw0.second, qw1.first - qw0.first);

  // ---- metrics ---------------------------------------------------------------
  std::vector<std::pair<std::string, std::pair<double, const char*>>> m;
  auto put = [&](const std::string& name, double v, const char* unit) {
    m.push_back({name, {v, unit}});
  };
  if (!args.trace) {
    auto p50 = [&](OpClass c) {
      return Median(kept.lat_us[static_cast<int>(c)]);
    };
    auto tail = [&](OpClass c) {
      return Percentile(kept.lat_us[static_cast<int>(c)],
                        TailPercentile(args.workload, c));
    };
    put("setup_s", Median(setup_scaled_s), "s");
    put("ops_per_s", Ratio(kept.ops, kept.wall_ns / 1e9), "1/s");
    put("cpu_us_per_op", Ratio(kept.cpu_ns / 1e3, kept.ops), "us");
    put("query_p50_us", p50(OpClass::kQuery), "us");
    put("query_tail_us", tail(OpClass::kQuery), "us");
    put("dml_p50_us", p50(OpClass::kDml), "us");
    put("dml_tail_us", tail(OpClass::kDml), "us");
    put("writeback_p50_us", p50(OpClass::kWriteback), "us");
    put("writeback_tail_us", tail(OpClass::kWriteback), "us");
    put("cache_load_p50_us", p50(OpClass::kLoad), "us");
    put("traverse_tuples_per_s", Ratio(kept.tuples, kept.traverse_ns / 1e9),
        "1/s");
    put("peak_rss_mb", peak_rss_mb, "MB");
  } else {
    auto bench = [&](const char* name) { return tt.bench_ns[name] / 1e3; };
    double phase_us[kNumPhases], query_phases = 0, load_phases = 0;
    for (int p = 0; p < kNumPhases; ++p) {
      phase_us[p] = tt.phase_span_us[0][p] + tt.phase_span_us[1][p];
      query_phases += tt.phase_span_us[0][p];
      load_phases += tt.phase_span_us[1][p];
    }
    const double tq = static_cast<double>(tt.queries + tt.loads);
    const int64_t wb = cls[static_cast<int>(OpClass::kWriteback)].traced;
    const int64_t trav = cls[static_cast<int>(OpClass::kTraverse)].n;
    put("parser.us_per_stmt",
        Ratio(phase_us[0] + bench("parser") + tt.probe_parse_ns / 1e3,
              tt.parse_spans + tt.bench_count["parser"] + tt.probes),
        "us");
    put("semantics.us_per_query", Ratio(phase_us[1], tq), "us");
    put("rewrite.xnf_us_per_query", Ratio(phase_us[2], tq), "us");
    put("rewrite.nf_us_per_query", Ratio(phase_us[3], tq), "us");
    put("rewrite.rules_fired_per_query",
        Ratio(RulesFired(after) - RulesFired(before), engine_queries),
        "count");
    put("optimizer.plan_us_per_query", Ratio(phase_us[4], tq), "us");
    put("optimizer.spool_builds_per_query",
        Ratio(delta("exec.spool_builds"), engine_queries), "count");
    put("exec.execute_us_per_query", Ratio(phase_us[5], tq), "us");
    put("exec.deliver_us_per_query", Ratio(phase_us[6], tq), "us");
    put("exec.rows_scanned_per_row_out",
        Ratio(delta("exec.rows_scanned"), delta("exec.rows_output")),
        "count");
    put("exec.index_lookups_per_query",
        Ratio(delta("exec.index_lookups"), engine_queries), "count");
    put("exec.join_probes_per_query",
        Ratio(delta("exec.join_probes"), engine_queries), "count");
    put("exec.exists_probes_per_query",
        Ratio(delta("exec.exists_probes"), engine_queries), "count");
    put("fixpoint.us_per_load",
        Ratio(bench("xnf.load") - load_phases, tt.loads), "us");
    put("matview.hit_ratio", Ratio(delta("matview.hits"), engine_queries),
        "ratio");
    put("matview.hits_per_capture",
        Ratio(delta("matview.hits"), delta("matview.materializations") +
                                         delta("matview.full_refreshes")),
        "ratio");
    put("matview.delta_applies_per_dml",
        Ratio(delta("matview.delta_applies"), dml_stmts), "ratio");
    put("matview.fallbacks_per_dml",
        Ratio(delta("matview.fallbacks"), dml_stmts), "ratio");
    put("matview.refreshes_per_read",
        Ratio(delta("matview.full_refreshes"), engine_queries), "ratio");
    put("api.overhead_us_per_query",
        Ratio(bench("api.query") - query_phases, tt.queries), "us");
    put("governor.queue_wait_us", queue_wait_us, "us");
    // Single-row DML plus the statements of write-backs, each without its
    // parse (DML) or planning (write-back) time.
    put("storage.dml_us_per_stmt",
        Ratio(bench("api.execute") - tt.probe_parse_ns / 1e3 +
                  bench("writeback.apply") - tt.probe_plan_ns / 1e3,
              tt.bench_count["api.execute"] + tt.writeback_stmts),
        "us");
    put("cache.build_us_per_load", Ratio(bench("cache.build"), tt.loads),
        "us");
    put("cache.release_us_per_load", Ratio(bench("cache.release"), tt.loads),
        "us");
    put("cache.traverse_ns_per_tuple",
        Ratio(tt.bench_ns["cache.traverse"], tt.tuples), "ns");
    put("cache.swizzled_steps_per_op",
        Ratio(delta("cache.cursor.swizzled_steps"), trav), "count");
    put("writeback.plan_us_per_op", Ratio(tt.probe_plan_ns / 1e3, wb), "us");
    put("writeback.stmts_per_op",
        Ratio(writeback_stmts,
              cls[static_cast<int>(OpClass::kWriteback)].n),
        "count");
    put("writeback.retries", delta("writeback.retries"), "count");
    put("obs.log_lines_per_op", Ratio(ops_log_lines, attempted), "count");
    // Residual: op time not covered by the benchmark's layer spans.
    double res_ns = 0;
    int64_t traced = 0;
    double over_t = 0, over_u = 0;
    for (int c = 0; c < kNumOpClasses; ++c) {
      const ClassStats& s = cls[c];
      res_ns += s.residual_ns;
      traced += s.traced;
      const int64_t untraced = s.n - s.traced;
      if (s.traced < 5 || untraced < 5) continue;  // too few to compare
      // Overhead weighted by each class's share of the run's ops.
      over_t += s.n * (s.traced_cpu_ns / s.traced);
      over_u += s.n * (s.untraced_cpu_ns / untraced);
    }
    put("residual_us_per_op", Ratio(res_ns / 1e3, traced), "us");
    const OpClass kResidualClasses[] = {OpClass::kQuery, OpClass::kDml,
                                        OpClass::kLoad, OpClass::kTraverse,
                                        OpClass::kWriteback};
    for (OpClass c : kResidualClasses) {
      const ClassStats& s = cls[static_cast<int>(c)];
      put(std::string("residual_us_per_op.") + OpClassName(c),
          Ratio(s.residual_ns / 1e3, s.traced), "us");
    }
    put("trace_overhead", 100 * (Ratio(over_t, over_u) - 1), "%");

    // Cross-check: span-derived phase split vs the phase.*.us histograms
    // over the same traced ops.
    rec << ",\"phase_crosscheck\":{";
    std::string disagree;
    for (int p = 0; p < kNumPhases; ++p) {
      const double span = phase_us[p], hist = tt.phase_hist_us[p];
      rec << (p > 0 ? "," : "") << "\"" << kPhases[p] << "\":{\"span_us\":"
          << Num(span) << ",\"hist_us\":" << Num(hist) << "}";
      if (std::fabs(span - hist) > std::max(0.05 * hist, 2.0 * tq)) {
        disagree += std::string(disagree.empty() ? "" : ",") + "\"" +
                    kPhases[p] + "\"";
      }
    }
    rec << "},\"phase_disagreements\":[" << disagree << "]";
  }
  rec << "}";
  std::printf("record: %s\n", rec.str().c_str());

  std::ostringstream out;
  out << "{\"correct\":" << (failed == 0 ? "true" : "false")
      << ",\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"metrics\":{";
  for (size_t i = 0; i < m.size(); ++i) {
    out << (i > 0 ? "," : "") << "\"" << m[i].first << "\":{\"value\":"
        << Num(m[i].second.first) << ",\"unit\":\"" << m[i].second.second
        << "\"}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace xnfbench

int main(int argc, char** argv) { return xnfbench::Main(argc, argv); }
