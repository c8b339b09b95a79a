// restore_perfbench — one cold measurement process of the repository
// benchmark (perfbench/run.py drives it; see perfbench/README.md).
//
// Every process does its set-up, then the first call of its kind, so the
// process-wide memo caches (clean-run cycle counts, VM golden traces, the
// continuation LRU) start empty exactly as they do for a figure binary.
//
// Usage:
//   restore_perfbench --workload W --seed N --mode setup|call|layers --dir DIR
//                     [--trace] [--workers N]
//
//   --mode setup    set up only (an extra set-up sample).
//   --mode call     set up, run the workload's measured call once (the
//                   trace-analytics pass for at least kAnalyticsLoopS), check
//                   its outputs and print one JSON line.
//   --mode layers   the traced per-layer decomposition: the same work split
//                   into its public calls, each under a span.
//   --trace         record spans (name, start, end, parent, run id) in
//                   memory and write them to DIR/spans-<mode>.jsonl at exit.
//   --workers N     campaign worker threads (default 3).
//
// The JSON line carries raw measurements (seconds, counts, digests); run.py
// turns them into the benchmark's metrics.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "analytics/compact.hpp"
#include "analytics/queries.hpp"
#include "analytics/report.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "core/restore_core.hpp"
#include "faultinject/campaign_io.hpp"
#include "faultinject/classify.hpp"
#include "faultinject/export.hpp"
#include "faultinject/orchestrator.hpp"
#include "faultinject/uarch_campaign.hpp"
#include "faultinject/vm_campaign.hpp"
#include "perfmodel/overhead.hpp"
#include "uarch/core.hpp"
#include "uarch/state_registry.hpp"
#include "vm/vm.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace restore;
using Clock = std::chrono::steady_clock;

constexpr u64 kUarchSeed = 0xC0FE;  // fig4_uarch_all_state default
constexpr u64 kVmSeed = 0x5EED;     // fig2_vm_injection default
constexpr u64 kTrialsPerProgram = 150;
constexpr std::size_t kWorkers = 3;  // default_campaign_workers() on a 4-core host
constexpr u64 kClassifyInterval = 100;  // campaign_status / analyze default

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- spans ----

struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  long parent = -1;
};

// In-memory span recorder. Timing is always taken (the benchmark needs the
// durations either way); spans are only kept when tracing is on.
class Tracer {
 public:
  Tracer(bool on, std::string run_id) : on_(on), run_id_(std::move(run_id)) {}

  template <class F>
  double time(const std::string& name, F&& body) {
    const long id = on_ ? static_cast<long>(spans_.size()) : -1;
    if (on_) {
      spans_.push_back({name, seconds_between(origin_, Clock::now()), 0.0,
                        stack_.empty() ? -1 : stack_.back()});
      stack_.push_back(id);
    }
    const auto start = Clock::now();
    body();
    const auto end = Clock::now();
    if (on_) {
      spans_[static_cast<std::size_t>(id)].end_s = seconds_between(origin_, end);
      stack_.pop_back();
    }
    return seconds_between(start, end);
  }

  void write(const std::string& path) const {
    if (!on_) return;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[512];
      std::snprintf(line, sizeof line,
                    "{\"run\":\"%s\",\"id\":%zu,\"parent\":%ld,\"name\":\"%s\","
                    "\"start_s\":%.9f,\"end_s\":%.9f}\n",
                    run_id_.c_str(), i, s.parent, s.name.c_str(), s.start_s, s.end_s);
      out << line;
    }
  }

 private:
  bool on_;
  std::string run_id_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<long> stack_;
};

// A JSON array of numbers, for JsonBuilder::raw.
std::string json_numbers(const std::vector<double>& values) {
  std::vector<std::string> items;
  for (const double v : values) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    items.emplace_back(buf);
  }
  return analytics::json_array(items);
}

std::string hex(u64 value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

// Peak resident set of this process image. VmHWM, not ru_maxrss: Linux
// carries ru_maxrss across execve, so a child started from a larger parent
// would report the parent's peak.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
}

// Benchmark-owned reference kernel, timed next to every measured call: an
// interpreter-like loop of unpredictable branches and table loads and
// stores, the instruction mix of the simulator's hot loops. It never changes
// with the simulator, so its time tracks only the shared host's current
// speed; run.py scales the measured times by it.
constexpr long kReferenceSteps = 12'000'000;
std::atomic<u64> g_reference_sink{0};

double reference_kernel_once(long steps = kReferenceSteps) {
  const auto start = Clock::now();
  std::vector<u64> mem(1 << 16);
  u64 x = 88172645463325252ULL, acc = 0, pc = 0;
  for (long i = 0; i < steps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    switch ((x >> 3) & 7) {
      case 0: acc += mem[pc & 0xffff]; break;
      case 1: mem[(acc + pc) & 0xffff] = x; break;
      case 2: acc ^= x >> 5; break;
      case 3: pc += (acc & 1) ? 3 : 5; break;
      case 4: acc *= 0x9E3779B97F4A7C15ULL; break;
      case 5: pc = mem[x & 0xffff] & 0xffff; break;
      case 6: acc -= pc; break;
      default: mem[pc & 0xffff] += acc; break;
    }
    ++pc;
  }
  g_reference_sink += acc;
  return seconds_between(start, Clock::now());
}

// The kernel on as many threads at once as the measured call keeps busy (the
// campaign workers, or one), so it sees the share of the host those threads
// get. Returns the mean time of the copies.
double reference_kernel_s(std::size_t threads) {
  std::vector<double> times(threads);
  std::vector<std::thread> pool;
  for (std::size_t i = 1; i < threads; ++i) {
    pool.emplace_back([&times, i] { times[i] = reference_kernel_once(); });
  }
  times[0] = reference_kernel_once();
  for (auto& t : pool) t.join();
  double sum = 0.0;
  for (const double t : times) sum += t;
  return sum / static_cast<double>(threads);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<std::string> program_names() {
  std::vector<std::string> names;
  for (const auto& wl : workloads::all()) names.push_back(wl.name);
  return names;
}

// Set-up every workload pays before its first measured call: program
// assembly plus golden runs (workloads::all) and the injectable-state
// registry. Returns the time of the first workloads::all().
double common_setup(Tracer& tracer) {
  const double assemble_s = tracer.time("workloads.all", [] { workloads::all(); });
  tracer.time("uarch.state_registry", [] { uarch::StateRegistry::instance(); });
  return assemble_s;
}

faultinject::UarchCampaignConfig fig4_config(u64 seed) {
  faultinject::UarchCampaignConfig config;
  config.seed = kUarchSeed + seed;
  config.trials_per_workload = kTrialsPerProgram;
  return config;  // single-bit model, 10k-cycle window, 8 trials per point
}

faultinject::VmCampaignConfig fig2_config(u64 seed) {
  faultinject::VmCampaignConfig config;
  config.seed = kVmSeed + seed;
  config.trials_per_workload = kTrialsPerProgram;
  return config;  // result-bit model
}

// Worker count of the measured campaigns; --workers overrides it for the
// worker-count identity check (run.py --selftest).
std::size_t g_workers = kWorkers;

faultinject::CampaignRunOptions campaign_options(const std::string& out_jsonl) {
  faultinject::CampaignRunOptions options;
  options.workers = g_workers;
  options.out_jsonl = out_jsonl;
  return options;
}

// Canonical trace bytes of an in-memory campaign: the header line, then every
// record in (shard, slot) order — what the orchestrator writes on completion.
template <class Record, class ToLine>
std::string canonical_trace(std::string_view kind, u64 root_seed,
                            const std::vector<Record>& trials, const ToLine& to_line) {
  std::string out = faultinject::trace_header_line(kind) + "\n";
  std::size_t next = 0;
  for (const auto& shard : faultinject::plan_shards(root_seed, program_names(),
                                                    kTrialsPerProgram,
                                                    faultinject::kDefaultShardTrials)) {
    for (u64 slot = 0; slot < shard.trial_count && next < trials.size(); ++slot) {
      out += to_line(shard.index, slot, trials[next++]) + "\n";
    }
  }
  return out;
}

bool converged(const faultinject::UarchTrialRecord& t) {
  return !t.aborted() && !t.trace_diverged && t.uarch_state_equal;
}

void uarch_counts(analytics::JsonBuilder& out,
                  const std::vector<faultinject::UarchTrialRecord>& trials) {
  u64 conv = 0, div = 0;
  std::map<std::string, u64> outcomes;
  for (const auto& t : trials) {
    conv += converged(t) ? 1 : 0;
    div += t.trace_diverged ? 1 : 0;
    ++outcomes[std::string(to_string(faultinject::classify_trial(
        t, faultinject::DetectorModel::kPerfectCfv,
        faultinject::ProtectionModel::kBaseline, kClassifyInterval)))];
  }
  out.field("count.trials_converged", conv);
  out.field("count.trials_diverged", div);
  for (const auto& [name, n] : outcomes) out.field("count.uarch_outcome." + name, n);
}

void vm_counts(analytics::JsonBuilder& out, const std::vector<faultinject::VmTrialResult>& trials) {
  std::map<std::string, u64> outcomes;
  for (const auto& t : trials) ++outcomes[std::string(to_string(t.outcome))];
  for (const auto& [name, n] : outcomes) out.field("count.vm_outcome." + name, n);
}

void campaign_telemetry(analytics::JsonBuilder& out,
                        const faultinject::CampaignTelemetry& telemetry) {
  double busy_ms = 0.0, max_ms = 0.0;
  for (const auto& shard : telemetry.shards) {
    busy_ms += shard.wall_ms;
    max_ms = std::max(max_ms, shard.wall_ms);
  }
  out.field_f("telemetry.busy_ms", busy_ms);
  out.field_f("telemetry.shard_ms_max", max_ms);
  out.field_f("telemetry.wall_ms", telemetry.wall_ms);
  out.field("telemetry.workers", g_workers);
}

// ---- measured calls ----

struct Result {
  analytics::JsonBuilder out;
  u64 attempted = 0;
  u64 failed = 0;
};

void call_fig4(Tracer& tracer, u64 seed, Result& r) {
  const auto config = fig4_config(seed);
  faultinject::CampaignTelemetry telemetry;
  faultinject::UarchCampaignResult result;
  const double call_s = tracer.time("faultinject.run_uarch_campaign", [&] {
    result = run_uarch_campaign(config, campaign_options(""), &telemetry);
  });
  const u64 expected = kTrialsPerProgram * workloads::all().size();
  const std::string trace = canonical_trace("uarch", config.seed, result.trials,
                                            faultinject::uarch_trial_to_jsonl);
  r.out.field_f("call_s", call_s);
  r.out.field("trials", result.trials.size());
  r.out.field("digest.uarch_trace", hex(faultinject::fnv1a(trace)));
  uarch_counts(r.out, result.trials);
  campaign_telemetry(r.out, telemetry);
  r.attempted += expected;
  r.failed += expected - std::min<u64>(expected, result.trials.size());
}

void call_fig2(Tracer& tracer, u64 seed, const std::string& dir, Result& r) {
  const auto config = fig2_config(seed);
  const std::string path = dir + "/fig2.jsonl";
  faultinject::CampaignTelemetry telemetry;
  faultinject::VmCampaignResult result;
  const double call_s = tracer.time("faultinject.run_vm_campaign", [&] {
    result = run_vm_campaign(config, campaign_options(path), &telemetry);
  });
  const u64 expected = kTrialsPerProgram * workloads::all().size();
  const std::string trace = read_file(path);
  r.out.field_f("call_s", call_s);
  r.out.field("trials", result.trials.size());
  r.out.field("digest.vm_trace", hex(faultinject::fnv1a(trace)));
  vm_counts(r.out, result.trials);
  campaign_telemetry(r.out, telemetry);
  r.attempted += expected;
  r.failed += expected - std::min<u64>(expected, result.trials.size());
}

struct AnalyticsTraces {
  std::string vm_path;
  std::string uarch_path;
};

AnalyticsTraces generate_traces(Tracer& tracer, u64 seed, const std::string& dir) {
  AnalyticsTraces traces{dir + "/vm.jsonl", dir + "/uarch.jsonl"};
  tracer.time("setup.vm_trace", [&] {
    run_vm_campaign(fig2_config(seed), campaign_options(traces.vm_path));
  });
  tracer.time("setup.uarch_trace", [&] {
    run_uarch_campaign(fig4_config(seed), campaign_options(traces.uarch_path));
  });
  return traces;
}

// One pass of the analytics loop over one trace: the campaign_status scan
// (JSONL decode + model_breakdown), compaction, store open + analyze. Each
// step is timed on its own; checks run outside the timed regions.
struct AnalyticsPass {
  double decode_s = 0, breakdown_s = 0, compact_s = 0, open_s = 0, analyze_s = 0;
  u64 rows = 0, jsonl_bytes = 0, store_bytes = 0;
  std::string report_digest;
  bool ok = true;
};

AnalyticsPass analytics_pass(Tracer& tracer, const std::string& kind,
                             const std::string& path) {
  AnalyticsPass pass;
  const bool is_vm = kind == "vm";
  std::vector<faultinject::VmTrialResult> vm_trials;
  std::vector<faultinject::UarchTrialRecord> uarch_trials;
  pass.decode_s = tracer.time("faultinject.read_" + kind + "_trials_jsonl", [&] {
    std::ifstream in(path, std::ios::binary);
    if (is_vm) {
      for (auto& p : faultinject::read_vm_trials_jsonl(in)) {
        vm_trials.push_back(std::move(p.trial));
      }
    } else {
      for (auto& p : faultinject::read_uarch_trials_jsonl(in)) {
        uarch_trials.push_back(std::move(p.trial));
      }
    }
  });
  std::vector<faultinject::ModelBreakdownRow> breakdown;
  pass.breakdown_s = tracer.time("faultinject.model_breakdown." + kind, [&] {
    breakdown = is_vm ? faultinject::model_breakdown(vm_trials)
                      : faultinject::model_breakdown(uarch_trials,
                                                     faultinject::DetectorModel::kPerfectCfv,
                                                     faultinject::ProtectionModel::kBaseline,
                                                     kClassifyInterval);
  });
  const std::string store_path = analytics::store_path_for(path);
  analytics::CompactResult compacted;
  pass.compact_s = tracer.time("analytics.compact_trace." + kind, [&] {
    compacted = analytics::compact_trace(path, store_path);
  });
  std::unique_ptr<analytics::ColumnStoreReader> store;
  pass.open_s = tracer.time("analytics.ColumnStoreReader." + kind, [&] {
    store = std::make_unique<analytics::ColumnStoreReader>(store_path);
  });
  analytics::AnalysisReport report;
  pass.analyze_s = tracer.time("analytics.analyze." + kind,
                               [&] { report = analytics::analyze(*store); });
  u64 breakdown_total = 0;
  for (const auto& row : breakdown) breakdown_total += row.count;
  pass.rows = compacted.rows;
  pass.jsonl_bytes = compacted.jsonl_bytes;
  pass.store_bytes = compacted.store_bytes;
  pass.report_digest = hex(faultinject::fnv1a(analytics::report_json(report)));
  pass.ok = breakdown_total == compacted.rows && report.rows == compacted.rows &&
            analytics::reconstruct_trace_jsonl(*store) == read_file(path);
  return pass;
}

// Passes over both traces, (vm, uarch) each.
struct AnalyticsLoop {
  std::vector<double> pass_s;
  std::vector<std::pair<AnalyticsPass, AnalyticsPass>> passes;
  std::vector<double> reference_s;  // full-kernel equivalent, after each pass

  // Median over the passes of `step` summed over both traces.
  template <class Step>
  double median_of(const Step& step) const {
    std::vector<double> values;
    for (const auto& [vm, uarch] : passes) values.push_back(step(vm) + step(uarch));
    return median(values);
  }
};

AnalyticsLoop analytics_loop(Tracer& tracer, const AnalyticsTraces& traces,
                             std::size_t min_passes, double min_seconds, Result& r) {
  AnalyticsLoop loop;
  const auto start = Clock::now();
  while (loop.passes.size() < min_passes ||
         seconds_between(start, Clock::now()) < min_seconds) {
    AnalyticsPass vm, uarch;
    loop.pass_s.push_back(tracer.time("analytics.loop", [&] {
      vm = analytics_pass(tracer, "vm", traces.vm_path);
      uarch = analytics_pass(tracer, "uarch", traces.uarch_path);
    }));
    r.attempted += 2;
    r.failed += (vm.ok ? 0 : 1) + (uarch.ok ? 0 : 1);
    loop.passes.emplace_back(std::move(vm), std::move(uarch));
    // The host's speed drifts over seconds, and a pass is too short for the
    // kernel around the whole loop to follow it: an eighth of the kernel
    // after every pass does.
    loop.reference_s.push_back(8 * reference_kernel_once(kReferenceSteps / 8));
  }
  // Rows, bytes and digests of the last pass; every pass writes the same.
  const auto& [vm, uarch] = loop.passes.back();
  r.out.field("rows", vm.rows + uarch.rows);
  r.out.field("jsonl_bytes", vm.jsonl_bytes + uarch.jsonl_bytes);
  r.out.field("count.store_bytes.vm", vm.store_bytes);
  r.out.field("count.store_bytes.uarch", uarch.store_bytes);
  r.out.field("count.rows.vm", vm.rows);
  r.out.field("count.rows.uarch", uarch.rows);
  r.out.field("digest.vm_trace", hex(faultinject::fnv1a(read_file(traces.vm_path))));
  r.out.field("digest.uarch_trace", hex(faultinject::fnv1a(read_file(traces.uarch_path))));
  r.out.field("digest.vm_report", vm.report_digest);
  r.out.field("digest.uarch_report", uarch.report_digest);
  return loop;
}

// One set-up of trace-analytics generates its traces for about 2.8 s, and a
// pass over them takes under 0.1 s, so one child repeats the pass for
// kAnalyticsLoopS and reports the median pass.
constexpr std::size_t kAnalyticsMinPasses = 3;
constexpr double kAnalyticsLoopS = 2.0;

void call_analytics(Tracer& tracer, const AnalyticsTraces& traces, Result& r) {
  const auto loop = analytics_loop(tracer, traces, kAnalyticsMinPasses, kAnalyticsLoopS, r);
  r.out.field_f("call_s", median(loop.pass_s));
  r.out.field_f("reference_during_s", median(loop.reference_s));
  r.out.field_f("scan_s", loop.median_of([](const AnalyticsPass& p) {
    return p.decode_s + p.breakdown_s;
  }));
  r.out.field_f("compact_s", loop.median_of([](const AnalyticsPass& p) { return p.compact_s; }));
  r.out.field_f("query_s", loop.median_of([](const AnalyticsPass& p) {
    return p.open_s + p.analyze_s;
  }));
  r.out.field("iterations", loop.passes.size());
}

// The seed only permutes the order in which the programs are simulated; the
// Figure-7 table itself is seed-independent, so its digest is checked on
// every seed.
perfmodel::OverheadConfig fig7_config(u64 seed) {
  perfmodel::OverheadConfig config;
  config.workloads = program_names();
  Rng rng(seed);
  for (std::size_t i = config.workloads.size(); i > 1; --i) {
    std::swap(config.workloads[i - 1], config.workloads[rng.next() % i]);
  }
  return config;
}

std::string overhead_table(std::vector<perfmodel::OverheadPoint> points) {
  std::sort(points.begin(), points.end(), [](const auto& a, const auto& b) {
    return std::tie(a.workload, a.interval, a.policy) <
           std::tie(b.workload, b.interval, b.policy);
  });
  std::string table;
  for (const auto& p : points) {
    char line[256];
    std::snprintf(line, sizeof line, "%s %llu %d %llu %llu %llu %llu\n", p.workload.c_str(),
                  static_cast<unsigned long long>(p.interval), static_cast<int>(p.policy),
                  static_cast<unsigned long long>(p.baseline_cycles),
                  static_cast<unsigned long long>(p.restore_cycles),
                  static_cast<unsigned long long>(p.rollbacks),
                  static_cast<unsigned long long>(p.reexecuted_insns));
    table += line;
  }
  return table;
}

void overhead_counts(analytics::JsonBuilder& out,
                     const std::vector<perfmodel::OverheadPoint>& points) {
  std::map<std::string, u64> baseline;
  u64 restore_cycles = 0, rollbacks = 0, reexecuted = 0;
  for (const auto& p : points) {
    baseline[p.workload] = p.baseline_cycles;
    restore_cycles += p.restore_cycles;
    rollbacks += p.rollbacks;
    reexecuted += p.reexecuted_insns;
  }
  u64 baseline_cycles = 0;
  for (const auto& [name, cycles] : baseline) baseline_cycles += cycles;
  out.field("count.baseline_cycles", baseline_cycles);
  out.field("count.restore_cycles", restore_cycles);
  out.field("count.rollbacks", rollbacks);
  out.field("count.reexecuted_insns", reexecuted);
  out.field("count.points", points.size());
  out.field("sim_cycles", baseline_cycles + restore_cycles);
}

void call_rollback(Tracer& tracer, u64 seed, Result& r) {
  const auto config = fig7_config(seed);
  std::vector<perfmodel::OverheadPoint> points;
  const double call_s = tracer.time("perfmodel.measure_rollback_overhead", [&] {
    points = perfmodel::measure_rollback_overhead(config);
  });
  const u64 expected = config.workloads.size() * config.intervals.size() * 2;
  r.out.field_f("call_s", call_s);
  r.out.field("digest.overhead_table", hex(faultinject::fnv1a(overhead_table(points))));
  overhead_counts(r.out, points);
  r.attempted += expected;
  r.failed += expected - std::min<u64>(expected, points.size());
}

// ---- per-layer decomposition (--mode layers) ----

std::vector<double> shard_times_first_apart(const std::vector<faultinject::ShardSpec>& shards,
                                            const std::vector<double>& times,
                                            std::vector<double>& first) {
  std::vector<double> rest;
  std::string last;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (shards[i].workload != last) {
      first.push_back(times[i]);
      last = shards[i].workload;
    } else {
      rest.push_back(times[i]);
    }
  }
  return rest;
}

// The campaign's shard plan run inline, one public run_*_shard call after
// another (the first shard of each program apart: it pays the clean-run probe
// or golden trace), then its records encoded to the canonical trace and
// decoded back.
template <class Record, class Config, class RunShard, class ToLine, class ReadTrials>
std::vector<Record> inline_campaign(Tracer& tracer, const std::string& kind,
                                    const Config& config, const RunShard& run_shard,
                                    const ToLine& to_line, const ReadTrials& read_trials,
                                    Result& r) {
  const auto shards = faultinject::plan_shards(config.seed, program_names(),
                                               kTrialsPerProgram,
                                               faultinject::kDefaultShardTrials);
  std::vector<Record> trials;
  std::vector<double> times;
  for (const auto& shard : shards) {
    times.push_back(tracer.time("faultinject.run_" + kind + "_shard", [&] {
      for (auto& t : run_shard(config, shard)) trials.push_back(std::move(t));
    }));
  }
  std::vector<double> first;
  r.out.raw(kind + "_shard_s", json_numbers(shard_times_first_apart(shards, times, first)));
  r.out.raw(kind + "_first_shard_s", json_numbers(first));

  std::string trace;
  const double encode_s = tracer.time("faultinject." + kind + "_trial_to_jsonl", [&] {
    trace = canonical_trace(kind, config.seed, trials, to_line);
  });
  std::size_t decoded = 0;
  const double decode_s = tracer.time("faultinject.read_" + kind + "_trials_jsonl", [&] {
    std::istringstream in(trace);
    decoded = read_trials(in).size();
  });
  r.out.field_f("encode_s", encode_s);
  r.out.field_f("decode_s", decode_s);
  r.out.field("rows", trials.size());
  r.out.field("digest." + kind + "_trace", hex(faultinject::fnv1a(trace)));
  const u64 expected = kTrialsPerProgram * workloads::all().size();
  r.attempted += expected;
  r.failed += expected - std::min<u64>(expected, decoded);
  return trials;
}

void layers_fig4(Tracer& tracer, u64 seed, Result& r) {
  double probe_s = 0.0;
  u64 probe_cycles = 0;
  for (const auto& wl : workloads::all()) {
    probe_s += tracer.time("uarch.probe." + wl.name, [&] {
      uarch::Core probe(wl.program);
      probe.run(100'000'000);
      probe_cycles += probe.cycle_count();
    });
  }
  r.out.field_f("uarch.probe_s", probe_s);
  r.out.field("count.probe_cycles", probe_cycles);

  const auto trials = inline_campaign<faultinject::UarchTrialRecord>(
      tracer, "uarch", fig4_config(seed), faultinject::run_uarch_shard,
      faultinject::uarch_trial_to_jsonl, faultinject::read_uarch_trials_jsonl, r);
  r.out.field_f("faultinject.export.breakdown_s",
                tracer.time("faultinject.model_breakdown", [&] {
                  faultinject::model_breakdown(trials, faultinject::DetectorModel::kPerfectCfv,
                                               faultinject::ProtectionModel::kBaseline,
                                               kClassifyInterval);
                }));
  uarch_counts(r.out, trials);
}

void layers_fig2(Tracer& tracer, u64 seed, Result& r) {
  double golden_s = 0.0;
  u64 golden_insns = 0;
  for (const auto& wl : workloads::all()) {
    golden_s += tracer.time("vm.golden." + wl.name, [&] {
      vm::Vm machine(wl.program);
      while (machine.step()) ++golden_insns;
    });
  }
  r.out.field_f("vm.golden_s", golden_s);
  r.out.field("count.vm_golden_insns", golden_insns);

  const auto trials = inline_campaign<faultinject::VmTrialResult>(
      tracer, "vm", fig2_config(seed), faultinject::run_vm_shard,
      faultinject::vm_trial_to_jsonl, faultinject::read_vm_trials_jsonl, r);
  r.out.field_f("faultinject.export.breakdown_s",
                tracer.time("faultinject.model_breakdown",
                            [&] { faultinject::model_breakdown(trials); }));
  vm_counts(r.out, trials);
}

void layers_analytics(Tracer& tracer, const AnalyticsTraces& traces, Result& r) {
  constexpr std::size_t kPasses = 5;
  const auto loop = analytics_loop(tracer, traces, kPasses, 0.0, r);
  // Compaction without the root-cause replay, written beside the checked store.
  std::vector<double> plain_compact_s;
  for (std::size_t i = 0; i < kPasses; ++i) {
    double s = 0.0;
    for (const auto* path : {&traces.vm_path, &traces.uarch_path}) {
      analytics::CompactOptions no_root_cause;
      no_root_cause.derive_root_cause = false;
      s += tracer.time("analytics.compact_trace.no_root_cause", [&] {
        analytics::compact_trace(*path, *path + ".no-root-cause.cols", no_root_cause);
      });
    }
    plain_compact_s.push_back(s);
  }
  const double compact_s = loop.median_of([](const AnalyticsPass& p) { return p.compact_s; });
  r.out.field_f("decode_s", loop.median_of([](const AnalyticsPass& p) { return p.decode_s; }));
  r.out.field_f("faultinject.export.breakdown_s",
                loop.median_of([](const AnalyticsPass& p) { return p.breakdown_s; }));
  r.out.field_f("analytics.compact_s", compact_s);
  r.out.field_f("analytics.root_cause_s", compact_s - median(plain_compact_s));
  r.out.field_f("analytics.open_s",
                loop.median_of([](const AnalyticsPass& p) { return p.open_s; }));
  r.out.field_f("analytics.analyze_s",
                loop.median_of([](const AnalyticsPass& p) { return p.analyze_s; }));
  const auto& [vm, uarch] = loop.passes.back();
  r.out.field_f("analytics.store_ratio",
                static_cast<double>(vm.store_bytes + uarch.store_bytes) /
                    static_cast<double>(vm.jsonl_bytes + uarch.jsonl_bytes));
}

// The Figure-7 sweep split into its public calls: the baseline core run per
// program and one ReStoreCore run per (program, interval, policy), with the
// options perfmodel::measure_rollback_overhead documents for Figure 7.
void layers_rollback(Tracer& tracer, u64 seed, Result& r) {
  const auto config = fig7_config(seed);
  double baseline_s = 0.0;
  std::map<core::RollbackPolicy, double> restore_s;
  std::vector<perfmodel::OverheadPoint> points;
  for (const auto& name : config.workloads) {
    const auto& wl = workloads::by_name(name);
    u64 base_cycles = 0;
    baseline_s += tracer.time("uarch.baseline." + name, [&] {
      uarch::Core baseline(wl.program);
      baseline.run(200'000'000);
      base_cycles = baseline.cycle_count();
    });
    for (const u64 interval : config.intervals) {
      for (const auto policy : {core::RollbackPolicy::kImmediate, core::RollbackPolicy::kDelayed}) {
        core::ReStoreOptions options;
        options.checkpoint_interval = interval;
        options.policy = policy;
        options.exception_symptom = true;
        options.branch_symptom = true;
        options.throttle_max_rollbacks = ~u64{0};
        perfmodel::OverheadPoint point;
        restore_s[policy] += tracer.time("core.ReStoreCore.run", [&] {
          core::ReStoreCore restore(wl.program, options);
          restore.run(400'000'000);
          point.restore_cycles = restore.cycle_count();
          point.rollbacks = restore.stats().rollbacks;
          point.reexecuted_insns = restore.stats().reexecuted_insns;
        });
        point.workload = name;
        point.interval = interval;
        point.policy = policy;
        point.baseline_cycles = base_cycles;
        points.push_back(point);
      }
    }
  }
  r.out.field_f("uarch.baseline_s", baseline_s);
  r.out.field_f("core.restore_s.imm", restore_s[core::RollbackPolicy::kImmediate]);
  r.out.field_f("core.restore_s.delayed", restore_s[core::RollbackPolicy::kDelayed]);
  r.out.field("digest.overhead_table", hex(faultinject::fnv1a(overhead_table(points))));
  overhead_counts(r.out, points);
  r.attempted += points.size();
}

int run(const CliArgs& args) {
  const auto process_start = Clock::now();
  const std::string workload = args.value("workload").value_or("");
  const std::string mode = args.value("mode").value_or("call");
  const std::string dir = args.value("dir").value_or(".");
  const u64 seed = args.value_u64("seed", 0);
  const bool trace = args.has_flag("trace");
  g_workers = args.value_u64("workers", kWorkers);
  std::filesystem::create_directories(dir);
  Tracer tracer(trace, workload + "-" + mode + "-" + std::to_string(getpid()));

  Result r;
  AnalyticsTraces traces;
  double assemble_s = 0.0;
  tracer.time("setup", [&] {
    assemble_s = common_setup(tracer);
    if (workload == "trace-analytics") traces = generate_traces(tracer, seed, dir);
  });
  // Time from process start (main entry) to the first measured call.
  const double setup_s = seconds_between(process_start, Clock::now());
  // Campaign calls keep g_workers threads busy; the others run on one.
  const bool campaign = workload == "uarch-fig4" || workload == "vm-fig2";
  const std::size_t reference_threads = campaign ? std::max<std::size_t>(g_workers, 1) : 1;
  const double reference_before_s = reference_kernel_s(reference_threads);

  if (mode == "setup") {
    // Set-up only: extra set-up samples for workloads whose call is long.
  } else if (mode == "call") {
    if (workload == "uarch-fig4") {
      call_fig4(tracer, seed, r);
    } else if (workload == "vm-fig2") {
      call_fig2(tracer, seed, dir, r);
    } else if (workload == "trace-analytics") {
      call_analytics(tracer, traces, r);
    } else if (workload == "restore-rollback") {
      call_rollback(tracer, seed, r);
    } else {
      std::fprintf(stderr, "restore_perfbench: unknown workload '%s'\n", workload.c_str());
      return 2;
    }
  } else if (mode == "layers") {
    if (workload == "uarch-fig4") {
      layers_fig4(tracer, seed, r);
    } else if (workload == "vm-fig2") {
      layers_fig2(tracer, seed, r);
    } else if (workload == "trace-analytics") {
      layers_analytics(tracer, traces, r);
    } else if (workload == "restore-rollback") {
      layers_rollback(tracer, seed, r);
    } else {
      std::fprintf(stderr, "restore_perfbench: unknown workload '%s'\n", workload.c_str());
      return 2;
    }
  } else {
    std::fprintf(stderr, "restore_perfbench: unknown mode '%s'\n", mode.c_str());
    return 2;
  }

  r.out.field_f("setup_s", setup_s);
  r.out.field_f("reference_before_s", reference_before_s);
  r.out.field_f("reference_after_s", reference_kernel_s(reference_threads));
  r.out.field_f("workloads.assemble_s", assemble_s);
  r.out.field_f("peak_rss_mb", peak_rss_mib());
  r.out.field("attempted", r.attempted);
  r.out.field("failed", r.failed);
  tracer.write(dir + "/spans-" + mode + ".jsonl");
  std::printf("%s\n", r.out.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(CliArgs(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "restore_perfbench: %s\n", e.what());
    return 1;
  }
}
