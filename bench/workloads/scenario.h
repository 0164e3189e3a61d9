// The workload scenario library: named, self-describing serving workloads
// with recorded, machine-comparable results.
//
// Each Scenario bundles
//   * an id + catalog strings (description, op mix, what it stresses),
//   * a deterministic data generator and query generator — pure functions
//     of the ScenarioConfig (same seed => byte-identical streams, so a
//     baseline comparison measures the engine, not the generator),
//   * the ServeOptions it runs under (cache / shards / repartition knobs),
//   * a drive phase (client threads pushing its op mix through a live
//     ServeLoop), and
//   * pass/fail invariants checked on the quiesced loop (brute-force
//     result diffs, monotone counters, sentinel visibility).
//
// The template method Scenario::Run executes the whole pipeline and
// returns a ScenarioOutcome; ScenarioJson renders it under the
// "wazi.bench.scenario/1" schema, the shape tools/check_bench_json.py
// validates and tools/compare_bench_json.py gates against the committed
// BENCH_<scenario>.json baselines. `bench_scenarios` is the CLI driver.
//
// Scenario authors: subclass Scenario, implement the pure virtuals, and
// add a factory line to AllScenarios() in scenario.cc (explicit
// registration — static registrars in a static library get dropped by
// the linker).

#ifndef WAZI_BENCH_WORKLOADS_SCENARIO_H_
#define WAZI_BENCH_WORKLOADS_SCENARIO_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "serve/client_driver.h"
#include "serve/serve_loop.h"
#include "workload/dataset.h"

namespace wazi::bench::workloads {

// Resolved run parameters. `scale` picks the defaults; the explicit
// fields override them (the tiny-scale unit tests use the overrides).
struct ScenarioConfig {
  std::string scale = "smoke";  // smoke | default | paper
  uint64_t seed = 42;
  std::string index = "wazi";  // registry name served by the loop
  // Overrides: 0 / 0.0 means "derive from scale".
  size_t n_points = 0;
  double seconds = 0.0;  // per drive phase
  int threads = 0;       // client threads
  // Drive RunClientLoad-based phases over TCP loopback through a
  // WireServer instead of in-process (scenarios with custom op drivers
  // ignore this and stay embedded).
  bool net = false;

  size_t points() const;        // resolved dataset size
  double phase_seconds() const; // resolved per-phase duration
  int client_threads() const;   // resolved client thread count
};

// One measured drive phase (a scenario emits one or more, named).
struct PhaseResult {
  std::string name;
  int64_t queries = 0;  // completed read ops
  int64_t writes = 0;   // applied write ops
  double elapsed_seconds = 0.0;
  double qps = 0.0;
  double writes_per_s = 0.0;
  int64_t p50_ns = 0;
  int64_t p90_ns = 0;
  int64_t p99_ns = 0;
  double cache_hit_rate = 0.0;  // result-cache hits within this phase
};

// Everything one scenario run produced: per-phase numbers, the
// invariant verdict, migration/topology totals, and the final metrics
// registry snapshot (pre-rendered JSON).
struct ScenarioOutcome {
  std::string scenario;
  std::string description;
  ScenarioConfig config;
  size_t points = 0;
  std::vector<PhaseResult> phases;
  // Empty == passed; each entry is one human-readable invariant breach.
  std::vector<std::string> failures;
  // Totals from the loop after the drive phases quiesced.
  int64_t migrations = 0;
  int64_t incremental = 0;
  int64_t moved_points = 0;
  int64_t last_moved_shards = 0;
  int64_t last_carried_shards = 0;
  uint64_t epoch = 1;
  int64_t invariant_checks = 0;  // individual assertions evaluated
  std::string transport = "embedded";  // "wire" when cfg.net took effect
  std::string metrics_json;  // obs::ToJson of the final registry snapshot

  bool passed() const { return failures.empty(); }
};

// Custom-driver support: N client threads each run `op(thread, rng)` in a
// loop for `seconds`, timing every call. `op` returns false to count an
// error (the run keeps going; errors fail invariants later). Thread t's
// RNG is Rng(seed + t) — deterministic per (seed, threads).
struct OpsResult {
  int64_t ops = 0;
  int64_t errors = 0;
  double elapsed_seconds = 0.0;
  serve::LatencyRecorder latencies{0};
};
OpsResult DriveOps(int threads, double seconds, uint64_t seed,
                   const std::function<bool(int thread, Rng& rng)>& op);

// Bounded Zipf(theta) sampler over [0, n): precomputed CDF + binary
// search, deterministic per RNG stream. theta ~0.99 is the YCSB default
// ("Zipfian constant"); larger is more skewed.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double theta);
  size_t Sample(Rng& rng) const;
  size_t n() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;  // cumulative, normalized to cdf_.back() == 1
};

// Affinely maps `r` from `from` into `to` — the skew-shift transform that
// collapses a workload into a corner of the domain.
Rect MapInto(const Rect& r, const Rect& from, const Rect& to);

// The sentinel-grid checker: an 8x8 grid of points across `bounds`,
// inserted up front and never removed, so every probe must find them for
// the rest of the run, across any number of migrations. A throttled
// validator thread probes them through point lookups AND range queries
// centred on them — a point lost or double-routed during a live router
// swap or per-cell migration shows up as a miss.
class SentinelGrid {
 public:
  // Inserts the grid into `loop`, flushes, and starts the validator.
  SentinelGrid(serve::ServeLoop* loop, const Rect& bounds);
  ~SentinelGrid() { Stop(); }

  SentinelGrid(const SentinelGrid&) = delete;
  SentinelGrid& operator=(const SentinelGrid&) = delete;

  // Stops the validator (idempotent) and returns the misses it counted.
  int64_t Stop();
  const std::vector<Point>& points() const { return points_; }

 private:
  std::vector<Point> points_;
  std::atomic<int64_t> misses_{0};
  std::atomic<bool> stop_{false};
  std::thread validator_;
};

class Scenario {
 public:
  virtual ~Scenario() = default;

  // --- catalog ---
  virtual std::string id() const = 0;           // e.g. "poi_lookup"
  virtual std::string description() const = 0;  // one line
  virtual std::string op_mix() const = 0;       // e.g. "100% Zipf point gets"
  virtual std::string stresses() const = 0;     // subsystems/knobs exercised

  // --- deterministic generators (pure in cfg; used by tests directly) ---
  virtual Dataset GenerateData(const ScenarioConfig& cfg) const = 0;
  virtual Workload GenerateQueries(const ScenarioConfig& cfg,
                                   const Dataset& data) const = 0;
  // Serving knobs this scenario runs under. Default: 1 shard, no cache,
  // direct path. Override to exercise cache / shards / repartition.
  virtual serve::ServeOptions Options(const ScenarioConfig& cfg) const;

  // Runs the full pipeline: generate -> build ServeLoop -> drive ->
  // Flush -> check invariants -> snapshot metrics.
  ScenarioOutcome Run(const ScenarioConfig& cfg) const;

 protected:
  // What Drive/Check see: the live loop, the generated inputs, and a
  // transport-dispatching client-load runner (in-process, or over a
  // loopback WireServer when cfg.net and this scenario drives through
  // RunClientLoad). `wire` says which one run_load actually is.
  struct RunContext {
    serve::ServeLoop* loop = nullptr;
    const Dataset* data = nullptr;
    const Workload* workload = nullptr;
    std::function<serve::ClientLoadResult(const Workload&,
                                          const serve::ClientLoadOptions&)>
        run_load;
    bool wire = false;
  };

  // Pushes the scenario's op mix through ctx.loop, appending one
  // PhaseResult per measured phase. May append failures for errors that
  // can only be observed while driving (e.g. sentinel misses).
  virtual void Drive(const ScenarioConfig& cfg, RunContext& ctx,
                     std::vector<PhaseResult>* phases,
                     std::vector<std::string>* failures) const = 0;

  // Invariants on the quiesced loop (Flush() has completed). Bump
  // *checks for every individual assertion evaluated so the outcome can
  // prove the checks ran.
  virtual void Check(const ScenarioConfig& cfg, RunContext& ctx,
                     std::vector<std::string>* failures,
                     int64_t* checks) const = 0;

  // True when cfg.net can apply to this scenario (default: false; the
  // RunClientLoad-driven scenarios override to true).
  virtual bool SupportsNet() const { return false; }

  // Converts a client-load run (plus the cache-hit delta around it) into
  // a named phase row.
  static PhaseResult PhaseFromLoad(const std::string& name,
                                   const serve::ClientLoadResult& load,
                                   const serve::ResultCacheStats& before,
                                   const serve::ResultCacheStats& after);
  static PhaseResult PhaseFromOps(const std::string& name,
                                  const OpsResult& ops, int64_t writes);
};

// The registry: stable, id-sorted scenario singletons (explicitly
// constructed — see the header comment on linker-dropped registrars).
const std::vector<Scenario*>& AllScenarios();
Scenario* FindScenario(const std::string& id);

// "wazi.bench.scenario/1" rendering; WriteScenarioJson appends a
// trailing newline and reports I/O failure.
std::string ScenarioJson(const ScenarioOutcome& outcome);
bool WriteScenarioJson(const ScenarioOutcome& outcome,
                       const std::string& path);

}  // namespace wazi::bench::workloads

#endif  // WAZI_BENCH_WORKLOADS_SCENARIO_H_
