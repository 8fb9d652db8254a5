// End-to-end host-cost benchmark driver for OMB-X.
//
// OMB-X reproduces the paper's figures in deterministic virtual time; what
// its users pay for that is host wall time, CPU time and memory.  This
// driver runs one workload -- a fixed list of calls into the public
// bench_suite entry points (run_collective / run_latency / run_bandwidth)
// -- over and over for a time budget, times every call from the outside,
// and checks every call's output rows against recorded reference hashes,
// so a fast wrong answer counts as a failed operation.
//
// Usage:
//   ombx_e2e --workload fullsub_coll|p2p_small|p2p_large --seed N
//            --seconds S --trace 0|1 --reference FILE
//            [--trace-out FILE] [--scratch DIR] [--tiny]
//            [--corrupt-reference] [--record] [--setup-only]
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}.  --trace 0 reports the end-to-end metrics (wall_s, cpu_s,
// peak_rss_mb, setup_s); --trace 1 reports the per-layer metrics and
// writes the span/counter trace to --trace-out.  --record prints one
// reference line per call instead of measuring; --setup-only prints the
// set-up seconds alone.  See e2ebench/README.md.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_suite/suite.hpp"
#include "core/runner.hpp"
#include "mpi/collectives.hpp"
#include "mpi/world.hpp"

using namespace ombx;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Workloads

using BenchFn = std::function<std::vector<core::Row>(const core::SuiteConfig&)>;

struct Call {
  std::string name;  ///< <bench>.<mode>.<range>, e.g. allreduce.py.small
  std::string bench;
  std::string mode;
  std::string range;
  BenchFn fn;
  core::SuiteConfig cfg;
};

struct Workload {
  std::string name;     ///< reference key: workload, plus "/tiny"
  int workers = 0;      ///< OMBX_SCHED_WORKERS; 0 keeps the default pool
  core::SuiteConfig geometry;  ///< warm-up world geometry
  std::vector<Call> calls;
};

struct Range {
  const char* name;
  std::size_t min;
  std::size_t max;
};

const char* mode_name(core::Mode m) {
  switch (m) {
    case core::Mode::kNativeC: return "c";
    case core::Mode::kPythonDirect: return "py";
    case core::Mode::kPythonPickle: return "pickle";
  }
  return "?";
}

void add_calls(Workload& w, const core::SuiteConfig& base,
               const std::string& bench, const BenchFn& fn,
               std::initializer_list<core::Mode> modes,
               std::initializer_list<Range> ranges) {
  for (const Range& r : ranges) {
    for (const core::Mode m : modes) {
      Call c;
      c.bench = bench;
      c.mode = mode_name(m);
      c.range = r.name;
      c.name = bench + "." + c.mode + "." + c.range;
      c.fn = fn;
      c.cfg = base;
      c.cfg.mode = m;
      c.cfg.opts.min_size = r.min;
      c.cfg.opts.max_size = r.max;
      w.calls.push_back(std::move(c));
    }
  }
}

std::vector<core::Row> allreduce(const core::SuiteConfig& c) {
  return bench_suite::run_collective(c, bench_suite::CollBench::kAllreduce);
}
std::vector<core::Row> allgather(const core::SuiteConfig& c) {
  return bench_suite::run_collective(c, bench_suite::CollBench::kAllgather);
}

constexpr std::size_t KiB = 1024;
constexpr std::size_t MiB = 1024 * KiB;

/// fullsub_coll: Frontera 16 nodes x 56 ppn with synthetic payloads and the
/// np=896 sweep schedule of figures 16-17 and 20-21 (fig_common's sweep).
/// Tiny: 2 nodes x 56 ppn and a few sizes per range.
Workload fullsub_coll(bool tiny) {
  Workload w;
  w.name = tiny ? "fullsub_coll/tiny" : "fullsub_coll";
  w.workers = 0;
  core::SuiteConfig base;
  base.cluster = net::ClusterSpec::frontera();
  base.tuning = net::MpiTuning::mvapich2();
  base.nranks = tiny ? 112 : 896;
  base.ppn = 56;
  base.payload = mpi::PayloadMode::kSynthetic;
  base.opts.iterations = 5;
  base.opts.warmup = 1;
  base.opts.iterations_large = 2;
  base.opts.warmup_large = 1;
  w.geometry = base;
  const auto modes = {core::Mode::kNativeC, core::Mode::kPythonDirect};
  if (tiny) {
    add_calls(w, base, "allreduce", allreduce, modes,
              {{"small", 4, 64}, {"large", 16 * KiB, 32 * KiB}});
    add_calls(w, base, "allgather", allgather, modes,
              {{"small", 1, 16}, {"large", 16 * KiB, 32 * KiB}});
  } else {
    add_calls(w, base, "allreduce", allreduce, modes,
              {{"small", 4, 8 * KiB}, {"large", 16 * KiB, 1 * MiB}});
    add_calls(w, base, "allgather", allgather, modes,
              {{"small", 1, 8 * KiB}, {"large", 16 * KiB, 128 * KiB}});
  }
  return w;
}

/// p2p_small: 2 ranks on one node, numpy buffers, C and Py modes; ping-pong
/// latency plus windowed (64 outstanding) bandwidth with iteration counts
/// high enough that per-message cost dominates world spin-up.
Workload p2p_small(bool tiny) {
  Workload w;
  w.name = tiny ? "p2p_small/tiny" : "p2p_small";
  w.workers = 1;
  core::SuiteConfig base;
  base.cluster = net::ClusterSpec::frontera();
  base.tuning = net::MpiTuning::mvapich2();
  base.nranks = 2;
  base.ppn = 2;
  base.buffer = buffers::BufferKind::kNumpy;
  base.payload = mpi::PayloadMode::kReal;
  base.opts.validate = true;
  base.opts.warmup = 10;
  base.opts.iterations = tiny ? 10 : 2000;
  w.geometry = base;
  const Range small = tiny ? Range{"small", 1, 64} : Range{"small", 1, 8 * KiB};
  const auto modes = {core::Mode::kNativeC, core::Mode::kPythonDirect};
  add_calls(w, base, "latency", bench_suite::run_latency, modes, {small});
  base.opts.iterations = tiny ? 2 : 200;
  add_calls(w, base, "bandwidth", bench_suite::run_bandwidth, modes, {small});
  return w;
}

/// p2p_large: 2 ranks, real numpy payloads 16 KiB-4 MiB, OMB-Py direct and
/// pickle modes, latency and bandwidth with the figures' large-message
/// iteration counts -- the cost is in the bytes, not the message count.
Workload p2p_large(bool tiny) {
  Workload w;
  w.name = tiny ? "p2p_large/tiny" : "p2p_large";
  w.workers = 1;
  core::SuiteConfig base;
  base.cluster = net::ClusterSpec::frontera();
  base.tuning = net::MpiTuning::mvapich2();
  base.nranks = 2;
  base.ppn = 1;
  base.buffer = buffers::BufferKind::kNumpy;
  base.payload = mpi::PayloadMode::kReal;
  base.opts.validate = true;
  base.opts.iterations_large = 2;
  base.opts.warmup_large = 1;
  w.geometry = base;
  const Range large = tiny ? Range{"large", 16 * KiB, 64 * KiB}
                           : Range{"large", 16 * KiB, 4 * MiB};
  const auto modes = {core::Mode::kPythonDirect, core::Mode::kPythonPickle};
  add_calls(w, base, "latency", bench_suite::run_latency, modes, {large});
  add_calls(w, base, "bandwidth", bench_suite::run_bandwidth, modes, {large});
  return w;
}

Workload make_workload(const std::string& name, bool tiny) {
  if (name == "fullsub_coll") return fullsub_coll(tiny);
  if (name == "p2p_small") return p2p_small(tiny);
  if (name == "p2p_large") return p2p_large(tiny);
  throw std::invalid_argument("unknown workload '" + name +
                              "' (fullsub_coll|p2p_small|p2p_large)");
}

// ---------------------------------------------------------------------------
// Correctness: every call's rows hash to a recorded reference.

/// FNV-1a over "size avg min max" per row, doubles at full precision, so
/// any change to any reported number changes the hash.
std::string hash_rows(const std::vector<core::Row>& rows) {
  std::uint64_t h = 1469598103934665603ULL;
  char line[160];
  for (const core::Row& r : rows) {
    const int n = std::snprintf(line, sizeof line, "%zu %.17g %.17g %.17g\n",
                                r.size, r.stats.avg, r.stats.min,
                                r.stats.max);
    for (int i = 0; i < n; ++i) {
      h ^= static_cast<unsigned char>(line[i]);
      h *= 1099511628211ULL;
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, h);
  return hex;
}

/// Reference file: "<workload> <call> <hash>" per line, '#' comments.
std::map<std::string, std::string> load_reference(const std::string& path,
                                                  const std::string& workload) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference file " + path);
  std::map<std::string, std::string> ref;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string w, call, hash;
    if (!(ls >> w >> call >> hash)) {
      throw std::runtime_error("malformed reference line: " + line);
    }
    if (w == workload) ref[call] = hash;
  }
  return ref;
}

// ---------------------------------------------------------------------------
// Host-side measurements

struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  long vol_csw = 0;
  long invol_csw = 0;
  long minor_faults = 0;
  long maxrss_kb = 0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  u.vol_csw = ru.ru_nvcsw;
  u.invol_csw = ru.ru_nivcsw;
  u.minor_faults = ru.ru_minflt;
  u.maxrss_kb = ru.ru_maxrss;
  return u;
}

/// Reset the kernel's RSS high-water mark to the current RSS.  Returns
/// false where /proc/self/clear_refs is unavailable.
bool reset_rss_peak() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

/// VmHWM in MB (0 when /proc is unavailable).
double rss_peak_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Sum the per-rank counters of a metrics CSV ("label,counter,rank,value")
/// by counter name; fault-plan rows (rank -1) are skipped.
std::map<std::string, double> sum_counters(const std::string& csv) {
  std::map<std::string, double> sums;
  std::ifstream in(csv);
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    const auto c1 = line.find(',');
    const auto c2 = line.find(',', c1 + 1);
    const auto c3 = line.find(',', c2 + 1);
    if (c3 == std::string::npos) continue;
    if (line.compare(c2 + 1, 2, "-1") == 0) continue;
    sums[line.substr(c1 + 1, c2 - c1 - 1)] +=
        std::strtod(line.c_str() + c3 + 1, nullptr);
  }
  return sums;
}

/// splitmix64: the seed's call-order permutation stream.
std::uint64_t splitmix(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<std::size_t> call_order(std::size_t n, std::uint64_t seed,
                                    std::uint64_t pass) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::uint64_t s = seed * 0x100000001b3ULL + pass;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[splitmix(s) % i]);
  }
  return order;
}

// ---------------------------------------------------------------------------
// Spans and per-call records

struct Span {
  int id;
  int parent;
  std::string name;
  double start_s;
  double end_s;
};

struct CallRecord {
  int span = -1;
  std::size_t call = 0;
  int pass = 0;
  bool traced = false;
  bool ok = false;
  double wall_s = 0.0;
  Usage du;                 ///< getrusage deltas (maxrss_kb unused)
  double peak_rss_mb = 0.0; ///< per-call high-water mark (traced only)
  std::map<std::string, double> counters;  ///< summed over ranks
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point t0) : t0_(t0) {}

  int open(const std::string& name, int parent) {
    spans_.push_back(Span{static_cast<int>(spans_.size()), parent, name,
                          now(), -1.0});
    return spans_.back().id;
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end_s = now(); }
  [[nodiscard]] const Span& span(int id) const {
    return spans_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] double now() const { return seconds_between(t0_, Clock::now()); }

 private:
  Clock::time_point t0_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Output

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) s += ", ";
    s += json_str(ms[i].name) + ": {\"value\": " + json_num(ms[i].value) +
         ", \"unit\": " + json_str(ms[i].unit) + "}";
  }
  return s + "}";
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool corrupt = false;
  bool record = false;
  bool setup_only = false;
  std::string reference;
  std::string trace_out;
  std::string scratch = ".";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(k + " needs a value");
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      a.seed = std::stoull(value());
      have_seed = true;
    } else if (k == "--seconds") {
      a.seconds = std::stod(value());
    } else if (k == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") throw std::invalid_argument("--trace 0|1");
      a.trace = v == "1";
    } else if (k == "--reference") {
      a.reference = value();
    } else if (k == "--trace-out") {
      a.trace_out = value();
    } else if (k == "--scratch") {
      a.scratch = value();
    } else if (k == "--tiny") {
      a.tiny = true;
    } else if (k == "--corrupt-reference") {
      a.corrupt = true;
    } else if (k == "--record") {
      a.record = true;
    } else if (k == "--setup-only") {
      a.setup_only = true;
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!a.record && a.reference.empty()) {
    throw std::invalid_argument("--reference is required");
  }
  if (!a.record && !a.setup_only && !have_seed) throw std::invalid_argument("--seed is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

/// Size the fiber pool for `w`; effective before the process's first world.
void apply_workers(const Workload& w) {
  if (w.workers > 0) {
    setenv("OMBX_SCHED_WORKERS", std::to_string(w.workers).c_str(), 1);
  } else {
    unsetenv("OMBX_SCHED_WORKERS");
  }
}

int record(const Args& a) {
  const Workload w = make_workload(a.workload, a.tiny);
  apply_workers(w);
  for (const Call& c : w.calls) {
    const auto rows = c.fn(c.cfg);
    std::cout << w.name << ' ' << c.name << ' ' << hash_rows(rows) << '\n';
    for (const core::Row& r : rows) {
      std::printf("# %s %s %zu %.17g %.17g %.17g\n", w.name.c_str(),
                  c.name.c_str(), r.size, r.stats.avg, r.stats.min,
                  r.stats.max);
    }
    std::fflush(stdout);
  }
  return 0;
}

double best(std::vector<double> v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

using Pick = std::function<bool(const CallRecord&)>;

/// Sum over calls of `stat` (median or best) of `f` over each call's
/// records chosen by `pick`: one pass's worth of the quantity.
double per_pass(const std::vector<CallRecord>& recs, std::size_t ncalls,
                const Pick& pick,
                const std::function<double(const CallRecord&)>& f,
                double (*stat)(std::vector<double>) = median) {
  double total = 0.0;
  for (std::size_t c = 0; c < ncalls; ++c) {
    std::vector<double> v;
    for (const CallRecord& r : recs) {
      if (r.call == c && pick(r)) v.push_back(f(r));
    }
    total += stat(std::move(v));
  }
  return total;
}

double counter(const CallRecord& r, const std::string& name) {
  const auto it = r.counters.find(name);
  return it == r.counters.end() ? 0.0 : it->second;
}

double msgs(const CallRecord& r) {
  return counter(r, "eager_msgs") + counter(r, "rendezvous_msgs") +
         counter(r, "self_msgs");
}

/// Every run makes at least this many passes, so best-of-N can skip a
/// disturbed pass and a traced run has, after its warm pass, both traced
/// and untraced passes.
constexpr int kMinPasses = 3;
/// Fresh driver processes whose set-up an untraced run also times.
constexpr int kSetupChildren = 8;

struct Setup {
  Workload w;
  std::map<std::string, std::string> ref;
  double spinup_s = 0.0;
};

/// Set-up, the work between driver start and the first timed call: build
/// the call list, load the reference and build, run (barrier) and tear down
/// one warm-up world at the workload's geometry.  That first world also
/// pays the process's one-off costs (pool threads, first touch), as the
/// first world of a figure binary does.
Setup set_up(const Args& a, Tracer& tr, int parent) {
  const int span = tr.open("setup", parent);
  Setup s;
  s.w = make_workload(a.workload, a.tiny);
  apply_workers(s.w);
  s.ref = load_reference(a.reference, s.w.name);
  if (a.corrupt && !s.w.calls.empty()) {
    std::string& h = s.ref[s.w.calls.front().name];
    h = h.empty() ? "0" : h;
    h.back() = h.back() == '0' ? '1' : '0';
  }
  const int ws = tr.open("mpi.world_spinup", span);
  {
    mpi::World world(core::make_world_config(s.w.geometry));
    world.run([](mpi::Comm& comm) { mpi::barrier(comm); });
  }
  tr.close(ws);
  tr.close(span);
  s.spinup_s = tr.span(ws).end_s - tr.span(ws).start_s;
  return s;
}

/// --setup-only: print the seconds from driver start to the end of set-up.
int setup_only(const Args& a, Clock::time_point t_main) {
  Tracer tr(t_main);
  (void)set_up(a, tr, -1);
  std::printf("%.17g\n", tr.now());
  return 0;
}

std::string shell_quote(const std::string& s) {
  std::string out = "'";
  for (const char c : s) {
    if (c == '\'') {
      out += "'\\''";
    } else {
      out += c;
    }
  }
  return out + "'";
}

/// Set-up seconds of a fresh driver process.  Each one pays the one-off
/// process costs again, so the median of several is a steady sample of
/// what one process's set-up costs.
double setup_in_child(const Args& a) {
  char exe[4096];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
  if (len <= 0) throw std::runtime_error("cannot locate the driver binary");
  exe[len] = '\0';
  const std::string cmd = shell_quote(exe) + " --setup-only --workload " +
                          shell_quote(a.workload) + " --reference " +
                          shell_quote(a.reference) + (a.tiny ? " --tiny" : "");
  FILE* p = popen(cmd.c_str(), "r");
  if (p == nullptr) throw std::runtime_error("cannot start " + cmd);
  double s = -1.0;
  const bool read = std::fscanf(p, "%lf", &s) == 1;
  if (pclose(p) != 0 || !read || !(s > 0.0)) {
    throw std::runtime_error("set-up child failed: " + cmd);
  }
  return s;
}

int measure(const Args& a, Clock::time_point t_main) {
  Tracer tr(t_main);
  const int root = tr.open("run", -1);
  const Setup su = set_up(a, tr, root);
  const Workload& w = su.w;
  const std::map<std::string, std::string>& ref = su.ref;

  // ---- Timed phase: passes over the workload's calls in seed-permuted
  // order.  After kMinPasses, a run stops before a pass that would end past
  // the budget.  In trace mode pass 0 is an untraced warm pass, then passes
  // alternate traced / untraced so the tracing overhead is measured in-run.
  const std::string metrics_csv = a.scratch + "/e2e_metrics_" +
                                  std::to_string(::getpid()) + ".csv";
  std::vector<CallRecord> recs;
  int failed = 0;
  const double setup_s = tr.now();
  // An untraced run also times the set-up of kSetupChildren fresh driver
  // processes between passes, spread over the run so that their median
  // does not hang on one moment of a shared host.
  std::vector<double> setups{setup_s};
  const auto sample_setups = [&](double share) {
    const double want = 1.0 + kSetupChildren * std::min(share, 1.0);
    while (!a.trace && static_cast<double>(setups.size()) < want) {
      setups.push_back(setup_in_child(a));
    }
  };
  int pass = 0;
  bool hwm_reset_ok = true;
  for (;; ++pass) {
    const bool traced = a.trace && pass % 2 == 1;
    const int ps = tr.open(traced ? "pass.traced" : "pass", root);
    for (const std::size_t ci : call_order(w.calls.size(), a.seed,
                                           static_cast<std::uint64_t>(pass))) {
      const Call& call = w.calls[ci];
      core::SuiteConfig cfg = call.cfg;
      CallRecord rec;
      rec.call = ci;
      rec.pass = pass;
      rec.traced = traced;
      // Every call starts from a trimmed heap: the freed memory of earlier
      // calls goes back to the kernel, so a call's page faults, and its
      // time, do not depend on which calls ran before it.
      malloc_trim(0);
      if (traced) {
        cfg.obs.metrics_csv = metrics_csv;
        std::remove(metrics_csv.c_str());
        hwm_reset_ok = reset_rss_peak() && hwm_reset_ok;
      }
      std::string err;
      std::string got;
      const Usage u0 = usage_now();
      rec.span = tr.open(call.name, ps);
      try {
        got = hash_rows(call.fn(cfg));
      } catch (const std::exception& e) {
        err = e.what();
      }
      tr.close(rec.span);
      const Usage u1 = usage_now();
      rec.wall_s = tr.span(rec.span).end_s - tr.span(rec.span).start_s;
      rec.du.user_s = u1.user_s - u0.user_s;
      rec.du.sys_s = u1.sys_s - u0.sys_s;
      rec.du.vol_csw = u1.vol_csw - u0.vol_csw;
      rec.du.invol_csw = u1.invol_csw - u0.invol_csw;
      rec.du.minor_faults = u1.minor_faults - u0.minor_faults;
      if (traced) {
        rec.peak_rss_mb = rss_peak_mb();
        rec.counters = sum_counters(metrics_csv);
      }
      const auto it = ref.find(call.name);
      if (!err.empty()) {
        std::cerr << "e2ebench: FAILED " << call.name << " (pass " << pass
                  << "): " << err << "\n";
      } else if (it == ref.end()) {
        std::cerr << "e2ebench: FAILED " << call.name
                  << ": no reference hash for workload " << w.name << "\n";
      } else if (it->second != got) {
        std::cerr << "e2ebench: MISMATCH " << call.name << " (pass " << pass
                  << "): rows hash " << got << ", reference " << it->second
                  << "\n";
      } else {
        rec.ok = true;
      }
      if (!rec.ok) ++failed;
      recs.push_back(std::move(rec));
    }
    tr.close(ps);
    const double pass_s = tr.span(ps).end_s - tr.span(ps).start_s;
    sample_setups((tr.now() - setup_s) / a.seconds);
    if (pass + 1 >= kMinPasses && tr.now() - setup_s + pass_s > a.seconds) {
      break;
    }
  }
  std::remove(metrics_csv.c_str());
  sample_setups(1.0);
  tr.close(root);

  const std::size_t n = w.calls.size();
  const int attempted = static_cast<int>(recs.size());
  const Usage end = usage_now();
  const double ops_failed =
      static_cast<double>(failed) / static_cast<double>(attempted);

  const auto wall = [](const CallRecord& r) { return r.wall_s; };
  std::vector<Metric> out;
  if (!a.trace) {
    const Pick all = [](const CallRecord&) { return true; };
    out = {
        // Best-of-N per call: the host is shared, and the fastest pass is
        // the least disturbed estimate of what the code itself costs.
        {"wall_s", per_pass(recs, n, all, wall, best), "s"},
        {"cpu_s", per_pass(recs, n, all,
                           [](const CallRecord& r) {
                             return r.du.user_s + r.du.sys_s;
                           },
                           best),
         "s"},
        {"peak_rss_mb", static_cast<double>(end.maxrss_kb) / 1024.0, "MB"},
        {"setup_s", median(setups), "s"},
    };
  } else {
    const Pick traced = [](const CallRecord& r) { return r.traced; };
    const auto med = [&](const std::function<double(const CallRecord&)>& f) {
      return per_pass(recs, n, traced, f);
    };
    const auto ctr = [&](const char* name) {
      return med([name](const CallRecord& r) { return counter(r, name); });
    };
    const double traced_s = med(wall);
    // Untraced passes after the warm pass 0, so both sides are warm.
    const double untraced_s = per_pass(
        recs, n, [](const CallRecord& r) { return !r.traced && r.pass > 0; },
        wall);
    const double cpu = med([](const CallRecord& r) {
      return r.du.user_s + r.du.sys_s;
    });
    const double nmsgs = med(msgs);
    double call_peak = 0.0;
    for (const CallRecord& r : recs) {
      if (r.traced) call_peak = std::max(call_peak, r.peak_rss_mb);
    }
    // Binding-layer host cost: each OMB-Py call minus its baseline call
    // (same bench and sizes) -- pickle minus direct, direct minus C.
    double binding = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      const Call& cc = w.calls[c];
      const char* base = cc.mode == "pickle" ? "py"
                         : cc.mode == "py"   ? "c"
                                             : nullptr;
      if (!base) continue;
      for (std::size_t b = 0; b < n; ++b) {
        const Call& bc = w.calls[b];
        if (bc.bench != cc.bench || bc.range != cc.range || bc.mode != base) {
          continue;
        }
        std::vector<double> hi, lo;
        for (const CallRecord& r : recs) {
          if (!r.traced) continue;
          if (r.call == c) hi.push_back(r.wall_s);
          if (r.call == b) lo.push_back(r.wall_s);
        }
        binding += median(hi) - median(lo);
      }
    }
    out = {
        {"bench_suite.calls_s", traced_s, "s"},
        {"mpi.world_spinup_s", su.spinup_s, "s"},
        {"mpi.msgs.eager", ctr("eager_msgs"), "count"},
        {"mpi.msgs.rendezvous", ctr("rendezvous_msgs"), "count"},
        {"mpi.msgs.self", ctr("self_msgs"), "count"},
        {"mpi.bytes.eager", ctr("eager_bytes"), "B"},
        {"mpi.bytes.rendezvous", ctr("rendezvous_bytes"), "B"},
        {"mpi.bytes.self", ctr("self_bytes"), "B"},
        {"mpi.host_ns_per_msg", nmsgs > 0 ? traced_s / nmsgs * 1e9 : 0.0,
         "ns"},
        {"mpi.mailbox_exact_hits", ctr("mailbox_exact_hits"), "count"},
        {"mpi.mailbox_mru_hits", ctr("mailbox_mru_hits"), "count"},
        {"mpi.mailbox_wildcard_scans", ctr("mailbox_wildcard_scans"),
         "count"},
        {"mpi.recvs_posted", ctr("recvs_posted"), "count"},
        {"mpi.rendezvous_waits", ctr("rendezvous_waits"), "count"},
        {"mpi.payload_inline", ctr("payload_inline"), "count"},
        {"mpi.payload_pooled", ctr("payload_pooled"), "count"},
        {"mpi.payload_heap", ctr("payload_heap"), "count"},
        {"sched.sys_s", med([](const CallRecord& r) { return r.du.sys_s; }),
         "s"},
        {"sched.vol_csw", med([](const CallRecord& r) {
           return static_cast<double>(r.du.vol_csw);
         }),
         "count"},
        {"sched.invol_csw", med([](const CallRecord& r) {
           return static_cast<double>(r.du.invol_csw);
         }),
         "count"},
        {"sched.cpu_per_wall", traced_s > 0 ? cpu / traced_s : 0.0, "ratio"},
        {"mem.call_peak_rss_mb", call_peak, "MB"},
        {"mem.minor_faults", med([](const CallRecord& r) {
           return static_cast<double>(r.du.minor_faults);
         }),
         "count"},
        {"pylayer.binding_s", binding, "s"},
        {"trace.overhead_s", traced_s - untraced_s, "s"},
    };
  }

  if (a.trace && !a.trace_out.empty()) {
    std::ofstream os(a.trace_out);
    if (!os) throw std::runtime_error("cannot write trace " + a.trace_out);
    os << "{\n  \"schema\": \"ombx-e2ebench-trace-v1\",\n"
       << "  \"workload\": " << json_str(w.name) << ",\n"
       << "  \"seed\": " << a.seed << ",\n"
       << "  \"workers\": " << w.workers << ",\n"
       << "  \"passes\": " << pass + 1 << ",\n"
       << "  \"rss_peak_reset\": " << (hwm_reset_ok ? "true" : "false")
       << ",\n  \"spans\": [\n";
    const auto& spans = tr.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      os << "    {\"id\": " << s.id << ", \"parent\": " << s.parent
         << ", \"name\": " << json_str(s.name)
         << ", \"start_s\": " << json_num(s.start_s)
         << ", \"end_s\": " << json_num(s.end_s) << "}"
         << (i + 1 < spans.size() ? ",\n" : "\n");
    }
    os << "  ],\n  \"calls\": [\n";
    for (std::size_t i = 0; i < recs.size(); ++i) {
      const CallRecord& r = recs[i];
      os << "    {\"span\": " << r.span << ", \"call\": "
         << json_str(w.calls[r.call].name) << ", \"pass\": " << r.pass
         << ", \"traced\": " << (r.traced ? "true" : "false")
         << ", \"ok\": " << (r.ok ? "true" : "false")
         << ", \"wall_s\": " << json_num(r.wall_s)
         << ", \"user_s\": " << json_num(r.du.user_s)
         << ", \"sys_s\": " << json_num(r.du.sys_s)
         << ", \"vol_csw\": " << r.du.vol_csw
         << ", \"invol_csw\": " << r.du.invol_csw
         << ", \"minor_faults\": " << r.du.minor_faults;
      if (r.traced) {
        os << ", \"peak_rss_mb\": " << json_num(r.peak_rss_mb)
           << ", \"counters\": {";
        bool first = true;
        for (const auto& [k, v] : r.counters) {
          if (v == 0.0) continue;
          os << (first ? "" : ", ") << json_str(k) << ": " << json_num(v);
          first = false;
        }
        os << "}";
      }
      os << "}" << (i + 1 < recs.size() ? ",\n" : "\n");
    }
    // Per-call medians of the traced passes, under the per-layer names.
    os << "  ],\n  \"per_call\": {\n";
    for (std::size_t c = 0; c < n; ++c) {
      std::vector<double> wall, mem, faults, tr_msgs;
      for (const CallRecord& r : recs) {
        if (r.call != c || !r.traced) continue;
        wall.push_back(r.wall_s);
        mem.push_back(r.peak_rss_mb);
        faults.push_back(static_cast<double>(r.du.minor_faults));
        tr_msgs.push_back(msgs(r));
      }
      const double m = median(tr_msgs);
      os << "    " << json_str(w.calls[c].name) << ": {"
         << "\"bench_suite.call_s\": " << json_num(median(wall))
         << ", \"mem.call_peak_rss_mb\": " << json_num(median(mem))
         << ", \"mem.minor_faults\": " << json_num(median(faults))
         << ", \"mpi.msgs\": " << json_num(m)
         << ", \"mpi.host_ns_per_msg\": "
         << json_num(m > 0 ? median(wall) / m * 1e9 : 0.0) << "}"
         << (c + 1 < n ? ",\n" : "\n");
    }
    const double calls_s = [&] {
      double s = 0.0;
      for (const CallRecord& r : recs) s += r.wall_s;
      return s;
    }();
    const double run_s = tr.span(root).end_s;
    os << "  },\n  \"metrics\": " << metrics_json(out) << ",\n"
       << "  \"accounting\": {\"run_wall_s\": " << json_num(run_s)
       << ", \"setup_s\": " << json_num(setup_s)
       << ", \"calls_s\": " << json_num(calls_s)
       << ", \"unaccounted_share\": "
       << json_num(1.0 - (calls_s + setup_s) / run_s) << "}\n}\n";
  }

  std::printf("# e2ebench workload=%s seed=%" PRIu64
              " workers=%d passes=%d calls=%d trace=%d\n",
              w.name.c_str(), a.seed, w.workers, pass + 1, attempted,
              a.trace ? 1 : 0);
  std::printf("# ops_failed %.6g share (%d of %d calls)\n", ops_failed, failed,
              attempted);
  for (const Metric& m : out) {
    std::printf("# %s %.17g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": %s}\n",
              failed == 0 ? "true" : "false", attempted, failed,
              metrics_json(out).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point t_main = Clock::now();
  try {
    const Args a = parse_args(argc, argv);
    if (a.setup_only) return setup_only(a, t_main);
    return a.record ? record(a) : measure(a, t_main);
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << e.what() << "\n";
    return 2;
  }
}
