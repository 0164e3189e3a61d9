#include "workloads/scenario.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>

#include "common/timer.h"
#include "net/wire_load.h"
#include "net/wire_server.h"
#include "obs/exporters.h"

namespace wazi::bench::workloads {
namespace {

// Splits one user seed into independent sub-streams (phase loads, data
// vs query generation) without the streams ever overlapping.
uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + stream * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

size_t ScenarioConfig::points() const {
  if (n_points > 0) return n_points;
  if (scale == "smoke") return 50000;
  if (scale == "paper") return 4000000;
  return 500000;  // default
}

double ScenarioConfig::phase_seconds() const {
  if (seconds > 0.0) return seconds;
  if (scale == "smoke") return 0.4;
  if (scale == "paper") return 3.0;
  return 1.5;
}

int ScenarioConfig::client_threads() const {
  if (threads > 0) return threads;
  return scale == "smoke" ? 2 : 4;
}

OpsResult DriveOps(int threads, double seconds, uint64_t seed,
                   const std::function<bool(int, Rng&)>& op) {
  const int n = std::max(1, threads);
  std::atomic<bool> start{false};
  std::atomic<bool> stop{false};
  std::atomic<int64_t> total_ops{0};
  std::atomic<int64_t> total_errors{0};
  std::vector<obs::HistogramSnapshot> latencies(static_cast<size_t>(n));
  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(n));
  for (int t = 0; t < n; ++t) {
    clients.emplace_back([&, t] {
      obs::Histogram rec(obs::Histogram::FineLatencyBoundsNs());
      Rng rng(seed + static_cast<uint64_t>(t));
      int64_t ops = 0, errors = 0;
      while (!start.load(std::memory_order_acquire)) {
        if (stop.load(std::memory_order_relaxed)) break;
        std::this_thread::yield();
      }
      while (!stop.load(std::memory_order_relaxed)) {
        Timer timer;
        if (!op(t, rng)) ++errors;
        rec.Record(timer.ElapsedNs());
        ++ops;
      }
      latencies[static_cast<size_t>(t)] = rec.Snapshot();
      total_ops.fetch_add(ops, std::memory_order_relaxed);
      total_errors.fetch_add(errors, std::memory_order_relaxed);
    });
  }
  // Same start-latch discipline as RunClientLoad: clock first, then
  // release, so no op lands outside the timed window.
  Timer wall;
  start.store(true, std::memory_order_release);
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6)));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : clients) t.join();

  OpsResult result;
  result.elapsed_seconds = wall.ElapsedSeconds();
  result.ops = total_ops.load();
  result.errors = total_errors.load();
  result.latencies = obs::SumSnapshots(latencies);
  return result;
}

ZipfSampler::ZipfSampler(size_t n, double theta) {
  cdf_.reserve(std::max<size_t>(1, n));
  double acc = 0.0;
  for (size_t i = 0; i < std::max<size_t>(1, n); ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_.push_back(acc);
  }
  for (double& c : cdf_) c /= acc;
  cdf_.back() = 1.0;  // guard against rounding at the top
}

size_t ZipfSampler::Sample(Rng& rng) const {
  const double u = rng.NextDouble();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<size_t>(it - cdf_.begin());
}

serve::ServeOptions Scenario::Options(const ScenarioConfig&) const {
  serve::ServeOptions opts;
  opts.num_shards = 1;
  opts.num_threads = 1;
  opts.auto_rebuild = false;  // comparable cells unless a scenario opts in
  opts.writer_coalesce_ms = 2;
  return opts;
}

PhaseResult Scenario::PhaseFromLoad(const std::string& name,
                                    const serve::ClientLoadResult& load,
                                    const serve::ResultCacheStats& before,
                                    const serve::ResultCacheStats& after) {
  PhaseResult phase;
  phase.name = name;
  phase.queries = load.queries;
  phase.writes = load.writes;
  phase.elapsed_seconds = load.elapsed_seconds;
  if (load.elapsed_seconds > 0.0) {
    phase.qps = static_cast<double>(load.queries) / load.elapsed_seconds;
    phase.writes_per_s =
        static_cast<double>(load.writes) / load.elapsed_seconds;
  }
  phase.p50_ns = std::llround(load.latencies.Percentile(50));
  phase.p90_ns = std::llround(load.latencies.Percentile(90));
  phase.p99_ns = std::llround(load.latencies.Percentile(99));
  const int64_t lookups = after.lookups() - before.lookups();
  phase.cache_hit_rate =
      lookups == 0 ? 0.0
                   : static_cast<double>(after.hits - before.hits) /
                         static_cast<double>(lookups);
  return phase;
}

PhaseResult Scenario::PhaseFromOps(const std::string& name,
                                   const OpsResult& ops, int64_t writes) {
  PhaseResult phase;
  phase.name = name;
  phase.queries = ops.ops - writes;
  phase.writes = writes;
  phase.elapsed_seconds = ops.elapsed_seconds;
  if (ops.elapsed_seconds > 0.0) {
    phase.qps = static_cast<double>(phase.queries) / ops.elapsed_seconds;
    phase.writes_per_s = static_cast<double>(writes) / ops.elapsed_seconds;
  }
  phase.p50_ns = std::llround(ops.latencies.Percentile(50));
  phase.p90_ns = std::llround(ops.latencies.Percentile(90));
  phase.p99_ns = std::llround(ops.latencies.Percentile(99));
  return phase;
}

ScenarioOutcome Scenario::Run(const ScenarioConfig& cfg) const {
  ScenarioOutcome outcome;
  outcome.scenario = id();
  outcome.description = description();
  outcome.config = cfg;

  const Dataset data = GenerateData(cfg);
  const Workload workload = GenerateQueries(cfg, data);
  outcome.points = data.size();

  const std::string index_name = cfg.index;
  serve::ServeLoop loop([&index_name] { return MakeIndex(index_name); },
                        data, workload, BuildOptions{}, Options(cfg));

  RunContext ctx;
  ctx.loop = &loop;
  ctx.data = &data;
  ctx.workload = &workload;

  // Transport: RunClientLoad-driven phases optionally go over a loopback
  // WireServer; every run_load call gets its own deterministic seed
  // sub-stream so repeated phases never replay each other's RNG.
  std::unique_ptr<net::WireServer> server;
  auto load_seed = std::make_shared<uint64_t>(0);
  const uint64_t base_seed = cfg.seed;
  if (cfg.net && SupportsNet()) {
    server = std::make_unique<net::WireServer>(&loop);
    std::string error;
    if (!server->Start(&error)) {
      outcome.failures.push_back("wire server failed to start: " + error);
      return outcome;
    }
    const uint16_t port = server->port();
    ctx.wire = true;
    outcome.transport = "wire";
    ctx.run_load = [port, base_seed, load_seed](
                       const Workload& w,
                       const serve::ClientLoadOptions& opts) {
      serve::ClientLoadOptions seeded = opts;
      seeded.seed = MixSeed(base_seed, 1000 + (*load_seed)++);
      return net::RunWireClientLoad("127.0.0.1", port, w, seeded);
    };
  } else {
    serve::ServeLoop* lp = &loop;
    ctx.run_load = [lp, base_seed, load_seed](
                       const Workload& w,
                       const serve::ClientLoadOptions& opts) {
      serve::ClientLoadOptions seeded = opts;
      seeded.seed = MixSeed(base_seed, 1000 + (*load_seed)++);
      return serve::RunClientLoad(*lp, w, seeded);
    };
  }

  Drive(cfg, ctx, &outcome.phases, &outcome.failures);
  loop.Flush();
  if (server != nullptr) server->Stop();

  Check(cfg, ctx, &outcome.failures, &outcome.invariant_checks);

  const serve::MigrationStats mig = loop.migration_stats();
  outcome.migrations = mig.migrations;
  outcome.incremental = mig.incremental;
  outcome.moved_points = mig.total_moved_points;
  outcome.last_moved_shards = mig.last_moved_shards;
  outcome.last_carried_shards = mig.last_carried_shards;
  outcome.epoch = loop.epoch();
  outcome.metrics_json = obs::ToJson(loop.metrics().Snapshot());
  return outcome;
}

std::string ScenarioJson(const ScenarioOutcome& outcome) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("schema").String("wazi.bench.scenario/1");
  w.Key("bench").String("scenarios");
  w.Key("scenario").String(outcome.scenario);
  w.Key("description").String(outcome.description);
  w.Key("scale").String(outcome.config.scale);
  w.Key("seed").UInt(outcome.config.seed);
  w.Key("index").String(outcome.config.index);
  w.Key("transport").String(outcome.transport);
  w.Key("points").UInt(outcome.points);
  w.Key("seconds_per_phase").Double(outcome.config.phase_seconds());
  w.Key("threads").Int(outcome.config.client_threads());
  w.Key("passed").Bool(outcome.passed());
  w.Key("failures").BeginArray();
  for (const std::string& f : outcome.failures) w.String(f);
  w.EndArray();
  w.Key("invariant_checks").Int(outcome.invariant_checks);
  w.Key("phases").BeginArray();
  for (const PhaseResult& p : outcome.phases) {
    w.BeginObject();
    w.Key("name").String(p.name);
    w.Key("queries").Int(p.queries);
    w.Key("writes").Int(p.writes);
    w.Key("elapsed_seconds").Double(p.elapsed_seconds);
    w.Key("qps").Double(p.qps);
    w.Key("writes_per_s").Double(p.writes_per_s);
    w.Key("p50_ns").Int(p.p50_ns);
    w.Key("p90_ns").Int(p.p90_ns);
    w.Key("p99_ns").Int(p.p99_ns);
    w.Key("cache_hit_rate").Double(p.cache_hit_rate);
    w.EndObject();
  }
  w.EndArray();
  int64_t total_queries = 0, total_writes = 0;
  for (const PhaseResult& p : outcome.phases) {
    total_queries += p.queries;
    total_writes += p.writes;
  }
  w.Key("totals").BeginObject();
  w.Key("queries").Int(total_queries);
  w.Key("writes").Int(total_writes);
  w.Key("migrations").Int(outcome.migrations);
  w.Key("incremental").Int(outcome.incremental);
  w.Key("moved_points").Int(outcome.moved_points);
  w.Key("last_moved_shards").Int(outcome.last_moved_shards);
  w.Key("last_carried_shards").Int(outcome.last_carried_shards);
  w.Key("epoch").UInt(outcome.epoch);
  w.EndObject();
  w.Key("metrics").Raw(outcome.metrics_json.empty() ? "{}"
                                                    : outcome.metrics_json);
  w.EndObject();
  return w.str();
}

bool WriteScenarioJson(const ScenarioOutcome& outcome,
                       const std::string& path) {
  return obs::WriteFile(path, ScenarioJson(outcome) + "\n");
}

// --- registry ---------------------------------------------------------

// Factories live in their scenario's own translation unit; explicit
// construction here keeps the linker from dropping them.
std::unique_ptr<Scenario> MakePoiLookupScenario();
std::unique_ptr<Scenario> MakeTimeseriesScenario();
std::unique_ptr<Scenario> MakeMovingObjectsScenario();
std::unique_ptr<Scenario> MakeScanHeavyScenario();
std::unique_ptr<Scenario> MakeShiftingSkewScenario();
std::unique_ptr<Scenario> MakeYcsbMixScenario();

const std::vector<Scenario*>& AllScenarios() {
  static const std::vector<std::unique_ptr<Scenario>>* owned = [] {
    auto* v = new std::vector<std::unique_ptr<Scenario>>();
    v->push_back(MakePoiLookupScenario());
    v->push_back(MakeTimeseriesScenario());
    v->push_back(MakeMovingObjectsScenario());
    v->push_back(MakeScanHeavyScenario());
    v->push_back(MakeShiftingSkewScenario());
    v->push_back(MakeYcsbMixScenario());
    std::sort(v->begin(), v->end(),
              [](const std::unique_ptr<Scenario>& a,
                 const std::unique_ptr<Scenario>& b) {
                return a->id() < b->id();
              });
    return v;
  }();
  static const std::vector<Scenario*>* view = [] {
    auto* v = new std::vector<Scenario*>();
    for (const std::unique_ptr<Scenario>& s : *owned) v->push_back(s.get());
    return v;
  }();
  return *view;
}

Scenario* FindScenario(const std::string& id) {
  for (Scenario* s : AllScenarios()) {
    if (s->id() == id) return s;
  }
  return nullptr;
}

}  // namespace wazi::bench::workloads
