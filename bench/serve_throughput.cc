// Serving-engine throughput: QPS and latency percentiles versus client
// thread count AND shard count, read-only and mixed 95% read / 5% write,
// over the sharded snapshot-swapped index (src/serve/).
//
// Client threads drive ServeLoop::Range directly (the serving model:
// every client thread executes on the live per-shard snapshots,
// wait-free); writes are routed to the owning shard's background writer,
// which applies them in batches ending in per-shard snapshot swaps.
// Read-only QPS should scale with threads up to the hardware's core count,
// and the mixed-workload QPS should scale with shards: each shard has its
// own writer, so update application no longer serializes behind one
// thread, and each sub-query runs on an index 1/shards the size.
//
//   bench_serve_throughput [--shards 1,4] [--threads 1,2,4,8]
//                          [--cache-mb 0,64] [--admission-window 0,200]
//                          [--json <path>]
//   bench_serve_throughput --repartition 5 [--json <path>]
//   bench_serve_throughput --net [--threads 1,2,4,8] [--json <path>]
//
// --json <path> additionally writes a machine-readable snapshot of the
// run (schema "wazi.bench.serve/1": per-cell QPS + latency percentiles +
// cache hit rate, per-arm migration counters in --repartition mode, and
// the final serve metrics registry) — the file CI publishes as
// BENCH_serve_<scenario>.json and validates with
// tools/check_bench_json.py.
//
// --cache-mb N[,M] adds the snapshot-stamped result cache as a sweep
// axis (capacity per arm, 0 = off) and a `hit%` column; whenever any arm
// has a cache, reads are drawn SKEWED (90% of queries from the hottest
// 10% of rectangles, both arms alike) so the cache sees a hot set, and a
// 0-capacity arm is prepended if missing so the summary can print the
// cache-off -> cache-on QPS ratio. --admission-window US[,US2] sweeps
// the batched-admission axis: arms with a window > 0 drive reads through
// ServeLoop::SubmitQuery futures (8 in flight per client) so concurrent
// queries coalesce into snapshot-shared batches; 0 is the direct path.
//
// --repartition N replaces the sweep with a skew-shift experiment on N
// shards: a mixed-load phase on the build-time workload, then a phase
// whose queries AND inserts collapse into one corner of the domain,
// run once with the topology frozen ("off") and once with the
// repartition monitor enabled ("on": live router swap + data migration
// mid-phase; only the cells whose cuts move are captured and rebuilt, the
// rest are carried live). The scenario library's sentinel grid is probed
// through both phases; the run must complete with zero query errors and
// at least one migration. The table reports migrations, per-cell
// (incremental) migrations, last moved/carried shards and total moved
// points per arm. Prime shard counts (rank stripes, e.g. --repartition 5)
// show carrying best: a corner skew in a rows x cols grid can force a row
// re-cut that touches every cell.
//
// --net replaces the sweep with a wire-vs-embedded experiment: one
// ServeLoop is built, a WireServer (src/net/) listens on an ephemeral
// loopback port, and for each client thread count the SAME read-only
// workload runs twice — once in-process through the admission pipeline
// (SubmitQuery futures, 8 in flight per client) and once over TCP
// through pipelined WireClients (same depth). Both arms exercise
// identical batching, so QPS and latency deltas isolate the wire:
// framing, syscalls, loopback, and the server's reader/writer threads.
// A 95r/5w pass rides along. Cells carry transport "embedded" | "wire"
// in the JSON (CI publishes it as BENCH_serve_net.json).
//
//   WAZI_SCALE=smoke|default|paper   (50k / 1M / 8M points)
//   WAZI_SERVE_INDEX=wazi|base|flood|...   (default wazi)
//   WAZI_SERVE_SECONDS=<per-cell duration, default 1.5 (smoke 0.3)>
//   WAZI_SERVE_SHARDS=<default for --shards>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/harness.h"
#include "common/timer.h"
#include "net/wire_load.h"
#include "net/wire_server.h"
#include "obs/exporters.h"
#include "obs/metrics.h"
#include "serve/client_driver.h"
#include "serve/serve_loop.h"
#include "workloads/scenario.h"

namespace wazi::bench {
namespace {

using serve::ClientLoadOptions;
using serve::ClientLoadResult;
using serve::RunClientLoad;
using serve::ServeLoop;
using serve::ServeOptions;

struct CellResult {
  double qps = 0.0;
  double writes_per_s = 0.0;
  int64_t p50_ns = 0;
  int64_t p90_ns = 0;
  int64_t p99_ns = 0;
  double hit_rate = 0.0;  // result-cache hit rate within this cell
};

CellResult RunCell(ServeLoop& loop, const Workload& workload, int threads,
                   int write_pct, double seconds, bool skewed_reads,
                   bool via_admission) {
  ClientLoadOptions copts;
  copts.threads = threads;
  copts.write_pct = write_pct;
  copts.seconds = seconds;
  if (skewed_reads) {
    copts.hot_fraction = 0.1;
    copts.hot_pct = 90;
  }
  if (via_admission) copts.admission_depth = 8;
  const serve::ResultCacheStats before = loop.cache_stats();
  const ClientLoadResult load = RunClientLoad(loop, workload, copts);
  const serve::ResultCacheStats after = loop.cache_stats();
  CellResult cell;
  cell.qps = static_cast<double>(load.queries) / load.elapsed_seconds;
  cell.writes_per_s =
      static_cast<double>(load.writes) / load.elapsed_seconds;
  cell.p50_ns = load.latencies.PercentileNs(50);
  cell.p90_ns = load.latencies.PercentileNs(90);
  cell.p99_ns = load.latencies.PercentileNs(99);
  const int64_t lookups = after.lookups() - before.lookups();
  cell.hit_rate = lookups == 0 ? 0.0
                               : static_cast<double>(after.hits - before.hits) /
                                     static_cast<double>(lookups);
  return cell;
}

std::string FormatQps(double qps) {
  char buf[32];
  if (qps >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fM", qps / 1e6);
  } else if (qps >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1fk", qps / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f", qps);
  }
  return buf;
}

// Skew-shift phase experiment: pre-shift mixed load on the build-time
// workload, then queries + inserts collapsed into `corner`, with the
// repartition monitor on or off, probed by the sentinel grid.
struct RepartitionArmResult {
  double qps_pre = 0.0;
  double qps_post = 0.0;
  int64_t p99_post_ns = 0;
  int64_t repartitions = 0;
  int64_t incremental = 0;       // migrations that took the per-cell path
  int64_t moved_shards = 0;      // last migration's rebuilt shards
  int64_t carried_shards = 0;    // last migration's carried shards
  int64_t moved_points = 0;      // total points captured+rebuilt
  uint64_t epoch = 0;
  int64_t errors = 0;
};

RepartitionArmResult RunRepartitionArm(const std::string& index_name,
                                       const Dataset& data,
                                       const Workload& workload,
                                       int shards, double seconds,
                                       bool adaptive,
                                       obs::MetricsSnapshot* metrics_out) {
  ServeOptions opts;
  opts.num_shards = shards;
  opts.num_threads = 1;
  opts.auto_rebuild = false;  // isolate the topology effect
  opts.writer_coalesce_ms = 8;
  opts.repartition.enabled = adaptive;
  opts.repartition.poll_ms = 100;
  opts.repartition.max_imbalance = 1.4;
  opts.repartition.patience = 2;
  opts.repartition.min_queries = 256;
  opts.repartition.min_interval_ms = 1000;
  std::fprintf(stderr, "[serve] building %d shard(s) of %s (repartition "
               "%s)...\n",
               shards, index_name.c_str(), adaptive ? "on" : "off");
  ServeLoop loop([&index_name] { return MakeIndex(index_name); }, data,
                 workload, BuildOptions{}, opts);
  const Rect& b = data.bounds;
  workloads::SentinelGrid sentinels(&loop, b);

  RepartitionArmResult arm;
  {
    ClientLoadOptions copts;
    copts.threads = 2;
    copts.write_pct = 5;
    copts.seconds = seconds;
    const ClientLoadResult pre = RunClientLoad(loop, workload, copts);
    arm.qps_pre = static_cast<double>(pre.queries) / pre.elapsed_seconds;
  }

  // The shift: everything lands in the lower-left ~4% of the domain.
  const Rect corner =
      Rect::Of(b.min_x, b.min_y, b.min_x + (b.max_x - b.min_x) * 0.2,
               b.min_y + (b.max_y - b.min_y) * 0.2);
  Workload skewed;
  skewed.name = workload.name + "/skewed";
  skewed.selectivity = workload.selectivity;
  skewed.queries.reserve(workload.queries.size());
  for (const Rect& q : workload.queries) {
    skewed.queries.push_back(workloads::MapInto(q, b, corner));
  }
  {
    ClientLoadOptions copts;
    copts.threads = 2;
    copts.write_pct = 20;  // heavy corner inserts skew the item counts too
    copts.seconds = seconds * 2;
    copts.insert_region = corner;
    const ClientLoadResult post = RunClientLoad(loop, skewed, copts);
    arm.qps_post = static_cast<double>(post.queries) / post.elapsed_seconds;
    arm.p99_post_ns = post.latencies.PercentileNs(99);
  }

  // Grace window for the adaptive arm: on a loaded box the monitor's
  // trigger may land at the tail of the phase and the (synchronous)
  // migration complete just after it — keep validating sentinels while a
  // pending swap finishes instead of misreporting it as never happening.
  if (adaptive) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (loop.repartitions() == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  arm.errors = sentinels.Stop();
  const serve::MigrationStats mig = loop.migration_stats();
  std::fprintf(stderr,
               "[serve] %s arm done: imbalance %.2f, epoch %llu, "
               "%lld/%lld incremental, %lld pts moved\n",
               adaptive ? "adaptive" : "frozen", loop.imbalance(),
               static_cast<unsigned long long>(loop.epoch()),
               static_cast<long long>(mig.incremental),
               static_cast<long long>(mig.migrations),
               static_cast<long long>(mig.total_moved_points));
  arm.repartitions = loop.repartitions();
  arm.incremental = mig.incremental;
  arm.moved_shards = mig.last_moved_shards;
  arm.carried_shards = mig.last_carried_shards;
  arm.moved_points = mig.total_moved_points;
  arm.epoch = loop.epoch();
  if (metrics_out != nullptr) *metrics_out = loop.metrics().Snapshot();
  return arm;
}

// One sweep cell plus the coordinates it ran at (the JSON row).
struct JsonCell {
  int shards = 0;
  int cache_mb = 0;
  int adm_window = 0;
  int write_pct = 0;
  int threads = 0;
  CellResult cell;
  // How the clients reached the engine: in-process ("embedded") or over
  // the TCP wire protocol ("wire", --net mode only).
  std::string transport = "embedded";
};

void WriteCellJson(obs::JsonWriter& w, const JsonCell& jc) {
  w.BeginObject();
  w.Key("transport").String(jc.transport);
  w.Key("shards").Int(jc.shards);
  w.Key("cache_mb").Int(jc.cache_mb);
  w.Key("admission_window_us").Int(jc.adm_window);
  w.Key("write_pct").Int(jc.write_pct);
  w.Key("threads").Int(jc.threads);
  w.Key("qps").Double(jc.cell.qps);
  w.Key("writes_per_s").Double(jc.cell.writes_per_s);
  w.Key("p50_ns").Int(jc.cell.p50_ns);
  w.Key("p90_ns").Int(jc.cell.p90_ns);
  w.Key("p99_ns").Int(jc.cell.p99_ns);
  w.Key("cache_hit_rate").Double(jc.cell.hit_rate);
  w.EndObject();
}

// The machine-readable run snapshot CI publishes and validates
// (tools/check_bench_json.py): header, per-cell results and/or per-arm
// migration outcomes, and the final serve metrics registry.
int WriteBenchJson(const char* path, const std::string& index_name,
                   size_t points, double seconds,
                   const std::vector<JsonCell>& cells,
                   const std::vector<RepartitionArmResult>* arms,
                   const obs::MetricsSnapshot* metrics) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("schema").String("wazi.bench.serve/1");
  w.Key("bench").String("serve_throughput");
  w.Key("scenario").String(CurrentScale().name);
  w.Key("index").String(index_name);
  w.Key("points").UInt(points);
  w.Key("seconds_per_cell").Double(seconds);
  w.Key("cells").BeginArray();
  for (const JsonCell& jc : cells) WriteCellJson(w, jc);
  w.EndArray();
  if (arms != nullptr) {
    w.Key("repartition_arms").BeginArray();
    static const char* kArmLabels[] = {"off", "on"};
    for (size_t i = 0; i < arms->size(); ++i) {
      const RepartitionArmResult& arm = (*arms)[i];
      w.BeginObject();
      w.Key("arm").String(kArmLabels[i]);
      w.Key("qps_pre").Double(arm.qps_pre);
      w.Key("qps_post").Double(arm.qps_post);
      w.Key("p99_post_ns").Int(arm.p99_post_ns);
      w.Key("migrations").Int(arm.repartitions);
      w.Key("incremental").Int(arm.incremental);
      w.Key("last_moved_shards").Int(arm.moved_shards);
      w.Key("last_carried_shards").Int(arm.carried_shards);
      w.Key("moved_points").Int(arm.moved_points);
      w.Key("epoch").UInt(arm.epoch);
      w.Key("errors").Int(arm.errors);
      w.EndObject();
    }
    w.EndArray();
  }
  if (metrics != nullptr) {
    // The full registry of the last serve loop: migrations, stall
    // copies, cache counters, latency histogram — everything the serve
    // stack publishes, in the exporter's standard layout.
    w.Key("metrics").Raw(obs::ToJson(*metrics));
  }
  w.EndObject();
  if (!obs::WriteFile(path, w.str() + "\n")) {
    std::fprintf(stderr, "[serve] cannot write %s\n", path);
    return 1;
  }
  std::fprintf(stderr, "[serve] wrote %s\n", path);
  return 0;
}

// Converts a client-load run into the common cell shape (no cache in
// net mode, so hit rate stays 0).
CellResult CellFromLoad(const ClientLoadResult& load) {
  CellResult cell;
  cell.qps = static_cast<double>(load.queries) / load.elapsed_seconds;
  cell.writes_per_s =
      static_cast<double>(load.writes) / load.elapsed_seconds;
  cell.p50_ns = load.latencies.PercentileNs(50);
  cell.p90_ns = load.latencies.PercentileNs(90);
  cell.p99_ns = load.latencies.PercentileNs(99);
  return cell;
}

// Wire-vs-embedded: the same workload, thread counts and pipelining
// depth, once through in-process admission futures and once through TCP
// WireClients against a WireServer on loopback. Both arms batch through
// SubmitBatch with 8 requests in flight per client, so the reported
// ratio charges only the wire: framing, syscalls, loopback transit and
// the server's per-connection reader/writer threads.
int RunNetExperiment(const std::string& index_name, const Dataset& data,
                     const Workload& workload, int shards,
                     const std::vector<int>& thread_counts, double seconds,
                     const char* json_path) {
  // Fixed admission window for both arms (the --net comparison is not an
  // admission sweep; it just needs batching on and identical).
  constexpr int kWindowUs = 100;
  std::fprintf(stderr,
               "[serve] building %d shard(s) of %s over %zu points "
               "(net mode)...\n",
               shards, index_name.c_str(), data.size());
  Timer build_timer;
  ServeOptions opts;
  opts.num_shards = shards;
  opts.num_threads = 4;
  opts.auto_rebuild = false;
  opts.writer_coalesce_ms = 8;
  opts.admission.window_us = kWindowUs;
  ServeLoop loop([&index_name] { return MakeIndex(index_name); }, data,
                 workload, BuildOptions{}, opts);
  std::fprintf(stderr, "[serve] built in %.1fs; hw_threads=%u\n",
               build_timer.ElapsedSeconds(),
               std::thread::hardware_concurrency());

  net::WireServer server(&loop);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "[serve] wire server: %s\n", error.c_str());
    return 1;
  }
  std::fprintf(stderr, "[serve] wire server on 127.0.0.1:%u\n",
               static_cast<unsigned>(server.port()));

  std::vector<std::vector<std::string>> rows;
  std::vector<JsonCell> json_cells;
  const int ref_threads = thread_counts.back();
  double emb_ref_qps = 0.0, wire_ref_qps = 0.0;
  int64_t emb_ref_p50 = 0, wire_ref_p50 = 0;
  int64_t emb_ref_p99 = 0, wire_ref_p99 = 0;
  for (const int write_pct : {0, 5}) {
    const std::string mode = write_pct == 0 ? "read-only" : "95r/5w";
    for (const int threads : thread_counts) {
      const CellResult emb =
          RunCell(loop, workload, threads, write_pct, seconds,
                  /*skewed_reads=*/false, /*via_admission=*/true);
      ClientLoadOptions copts;
      copts.threads = threads;
      copts.write_pct = write_pct;
      copts.seconds = seconds;
      copts.admission_depth = 8;  // same pipelining depth as the embedded arm
      const ClientLoadResult wire_load = net::RunWireClientLoad(
          "127.0.0.1", server.port(), workload, copts);
      if (wire_load.elapsed_seconds <= 0.0 || wire_load.queries == 0) {
        std::fprintf(stderr,
                     "[serve] wire arm produced no load (connect failed?)\n");
        return 1;
      }
      const CellResult wire = CellFromLoad(wire_load);
      if (write_pct == 0 && threads == ref_threads) {
        emb_ref_qps = emb.qps;
        wire_ref_qps = wire.qps;
        emb_ref_p50 = emb.p50_ns;
        wire_ref_p50 = wire.p50_ns;
        emb_ref_p99 = emb.p99_ns;
        wire_ref_p99 = wire.p99_ns;
      }
      for (const auto* arm : {&emb, &wire}) {
        const bool is_wire = arm == &wire;
        rows.push_back({is_wire ? "wire" : "embedded", mode,
                        std::to_string(threads), FormatQps(arm->qps),
                        FormatNs(static_cast<double>(arm->p50_ns)),
                        FormatNs(static_cast<double>(arm->p90_ns)),
                        FormatNs(static_cast<double>(arm->p99_ns)),
                        FormatQps(arm->writes_per_s)});
        if (json_path != nullptr) {
          json_cells.push_back(JsonCell{shards, /*cache_mb=*/0, kWindowUs,
                                        write_pct, threads, *arm,
                                        is_wire ? "wire" : "embedded"});
        }
      }
      std::fprintf(stderr,
                   "[serve] net %s threads=%d: embedded %.0f q/s, wire "
                   "%.0f q/s\n",
                   mode.c_str(), threads, emb.qps, wire.qps);
    }
  }
  server.Stop();

  char title[200];
  std::snprintf(title, sizeof(title),
                "Wire vs embedded serving (%s, %zu pts, %d shard(s), "
                "admission window %dus, depth 8, %.1fs/cell)",
                index_name.c_str(), data.size(), shards, kWindowUs, seconds);
  PrintTable(title, {"transport", "mode", "threads", "QPS", "p50", "p90",
                     "p99", "w/s"},
             rows);
  if (emb_ref_qps > 0.0) {
    std::printf(
        "\nread-only at %d threads: wire carries %.0f%% of embedded QPS "
        "(%.2fx overhead); p50 +%s, p99 +%s\n",
        ref_threads, 100.0 * wire_ref_qps / emb_ref_qps,
        emb_ref_qps / wire_ref_qps,
        FormatNs(static_cast<double>(wire_ref_p50 - emb_ref_p50)).c_str(),
        FormatNs(static_cast<double>(wire_ref_p99 - emb_ref_p99)).c_str());
  }
  if (json_path != nullptr) {
    const obs::MetricsSnapshot metrics = loop.metrics().Snapshot();
    return WriteBenchJson(json_path, index_name, data.size(), seconds,
                          json_cells, /*arms=*/nullptr, &metrics);
  }
  return 0;
}

int RunRepartitionExperiment(const std::string& index_name,
                             const Dataset& data, const Workload& workload,
                             int shards, double seconds,
                             const char* json_path) {
  std::vector<std::vector<std::string>> rows;
  // Arms: frozen topology ("off"), then the repartition monitor ("on").
  std::vector<RepartitionArmResult> arms;
  obs::MetricsSnapshot last_metrics;
  for (const bool adaptive : {false, true}) {
    const RepartitionArmResult arm =
        RunRepartitionArm(index_name, data, workload, shards, seconds,
                          adaptive, &last_metrics);
    arms.push_back(arm);
    char moved[48];
    std::snprintf(moved, sizeof(moved), "%lld/%lld",
                  static_cast<long long>(arm.moved_shards),
                  static_cast<long long>(arm.carried_shards));
    rows.push_back({adaptive ? "on" : "off", FormatQps(arm.qps_pre),
                    FormatQps(arm.qps_post),
                    FormatNs(static_cast<double>(arm.p99_post_ns)),
                    std::to_string(arm.repartitions),
                    std::to_string(arm.incremental), moved,
                    std::to_string(arm.moved_points),
                    std::to_string(arm.errors)});
  }
  char title[200];
  std::snprintf(title, sizeof(title),
                "Skew-shift with live repartitioning (%s, %zu pts, %d "
                "shards, %.1fs pre / %.1fs post)",
                index_name.c_str(), data.size(), shards, seconds,
                seconds * 2);
  PrintTable(title,
             {"repart", "QPS pre", "QPS post", "p99 post", "migr", "incr",
              "mvd/carr", "moved pts", "errors"},
             rows);
  const RepartitionArmResult& frozen = arms[0];
  const RepartitionArmResult& adaptive = arms[1];
  if (frozen.qps_post > 0.0) {
    std::printf("\npost-shift QPS, repartition off -> on: %.2fx "
                "(%lld live migration(s), %lld query errors)\n",
                adaptive.qps_post / frozen.qps_post,
                static_cast<long long>(adaptive.repartitions),
                static_cast<long long>(adaptive.errors + frozen.errors));
  }
  const char* failure = nullptr;
  if (adaptive.repartitions < 1) {
    failure = "no migration triggered";
  } else if (frozen.errors + adaptive.errors > 0) {
    failure = "sentinel query errors";
  }
  if (failure != nullptr) {
    std::fprintf(stderr, "[serve] FAILED: %s\n", failure);
  }
  if (json_path != nullptr &&
      WriteBenchJson(json_path, index_name, data.size(), seconds,
                     /*cells=*/{}, &arms, &last_metrics) != 0) {
    return 1;
  }
  return failure == nullptr ? 0 : 1;
}

// "1,4" -> {1, 4}. Exits on malformed input or a value below `min_v`.
std::vector<int> ParseIntList(const char* arg, const char* flag,
                              int min_v = 1) {
  std::vector<int> values;
  const char* p = arg;
  char* end = nullptr;
  while (*p != '\0') {
    const long v = std::strtol(p, &end, 10);
    if (end == p || v < min_v) {
      std::fprintf(stderr, "%s wants a comma-separated list of ints >= %d\n",
                   flag, min_v);
      std::exit(2);
    }
    values.push_back(static_cast<int>(v));
    p = (*end == ',') ? end + 1 : end;
  }
  if (values.empty()) {
    std::fprintf(stderr, "%s wants at least one value\n", flag);
    std::exit(2);
  }
  return values;
}

int Main(int argc, char** argv) {
  const Scale& scale = CurrentScale();
  const size_t n = scale.name == "smoke"    ? 50000
                   : scale.name == "paper" ? 8000000
                                           : 1000000;
  const char* index_env = std::getenv("WAZI_SERVE_INDEX");
  const std::string index_name = index_env != nullptr ? index_env : "wazi";
  const char* sec_env = std::getenv("WAZI_SERVE_SECONDS");
  const double seconds = sec_env != nullptr  ? std::strtod(sec_env, nullptr)
                         : scale.name == "smoke" ? 0.3
                                                 : 1.5;

  const char* shards_env = std::getenv("WAZI_SERVE_SHARDS");
  std::vector<int> shard_counts =
      ParseIntList(shards_env != nullptr ? shards_env : "1,4", "--shards");
  std::vector<int> thread_counts = {1, 2, 4, 8};
  std::vector<int> cache_mbs = {0};
  std::vector<int> adm_windows = {0};
  int repartition_shards = 0;
  bool net_mode = false;
  const char* json_path = nullptr;
  int argi = 1;
  while (argi < argc) {
    // --net is the one valueless flag; everything else is a --flag value
    // pair.
    if (std::strcmp(argv[argi], "--net") == 0) {
      net_mode = true;
      argi += 1;
      continue;
    }
    if (argi + 1 >= argc) {
      std::fprintf(stderr, "flag '%s' is missing its value\n", argv[argi]);
      return 2;
    }
    if (std::strcmp(argv[argi], "--shards") == 0) {
      shard_counts = ParseIntList(argv[argi + 1], "--shards");
    } else if (std::strcmp(argv[argi], "--threads") == 0) {
      thread_counts = ParseIntList(argv[argi + 1], "--threads");
    } else if (std::strcmp(argv[argi], "--cache-mb") == 0) {
      cache_mbs = ParseIntList(argv[argi + 1], "--cache-mb", /*min_v=*/0);
    } else if (std::strcmp(argv[argi], "--admission-window") == 0) {
      adm_windows =
          ParseIntList(argv[argi + 1], "--admission-window", /*min_v=*/0);
    } else if (std::strcmp(argv[argi], "--repartition") == 0) {
      repartition_shards = ParseIntList(argv[argi + 1], "--repartition")[0];
    } else if (std::strcmp(argv[argi], "--json") == 0) {
      json_path = argv[argi + 1];
    } else {
      std::fprintf(stderr,
                   "unknown flag '%s' (known: --shards --threads --cache-mb "
                   "--admission-window --repartition --net "
                   "--json)\n",
                   argv[argi]);
      return 2;
    }
    argi += 2;
  }
  // The cache/admission arms only mean something against an off baseline
  // under the SAME (skewed) read stream, and the summaries read the
  // baseline from front() and the strongest arm from back(): normalize
  // each axis to sorted-unique with the 0 arm always present whenever any
  // arm is on, regardless of the order the flag listed them in.
  const auto normalize_axis = [](std::vector<int>* values) {
    std::sort(values->begin(), values->end());
    values->erase(std::unique(values->begin(), values->end()),
                  values->end());
    const bool active = values->back() > 0;
    if (active && values->front() != 0) values->insert(values->begin(), 0);
    return active;
  };
  const bool cache_axis = normalize_axis(&cache_mbs);
  const bool admission_axis = normalize_axis(&adm_windows);

  const Dataset& data = GetDataset(Region::kCaliNev, n);
  const Workload& workload =
      GetWorkload(Region::kCaliNev, scale.num_queries, 0.000256);

  if (net_mode) {
    if (repartition_shards > 0) {
      std::fprintf(stderr, "--net and --repartition are exclusive\n");
      return 2;
    }
    return RunNetExperiment(index_name, data, workload, shard_counts.back(),
                            thread_counts, seconds, json_path);
  }
  if (repartition_shards > 0) {
    return RunRepartitionExperiment(index_name, data, workload,
                                    repartition_shards, seconds, json_path);
  }

  std::vector<std::vector<std::string>> rows;
  std::vector<JsonCell> json_cells;
  obs::MetricsSnapshot last_metrics;
  double mixed_qps_by_shards_lo = 0.0, mixed_qps_by_shards_hi = 0.0;
  double read_qps_1 = 0.0, read_qps_8 = 0.0;
  double read_qps_cache_off = 0.0, read_qps_cache_on = 0.0;
  double read_hit_rate_on = 0.0;
  double read_qps_adm_off = 0.0, read_qps_adm_on = 0.0;
  const int mixed_ref_threads = thread_counts.back();
  for (const int shards : shard_counts) {
    for (const int cache_mb : cache_mbs) {
      for (const int adm_window : adm_windows) {
        std::fprintf(
            stderr,
            "[serve] building %d shard(s) of %s over %zu points "
            "(cache %d MB, admission window %d us)...\n",
            shards, index_name.c_str(), data.size(), cache_mb, adm_window);
        Timer build_timer;
        ServeOptions opts;
        opts.num_shards = shards;
        // Client threads execute queries themselves on the direct path;
        // when the admission axis is active EVERY arm gets the same
        // 4-worker pool (idle on direct arms), so the off -> on ratio
        // measures coalescing, not a pool-size change.
        opts.num_threads = admission_axis ? 4 : 1;
        opts.auto_rebuild = false; // keep cells comparable
        opts.writer_coalesce_ms = 8;
        opts.cache.capacity_bytes =
            static_cast<size_t>(cache_mb) * 1024 * 1024;
        opts.admission.window_us = adm_window;
        ServeLoop loop([&index_name] { return MakeIndex(index_name); }, data,
                       workload, BuildOptions{}, opts);
        std::fprintf(stderr, "[serve] built in %.1fs; hw_threads=%u\n",
                     build_timer.ElapsedSeconds(),
                     std::thread::hardware_concurrency());

        const bool reference_arm =
            cache_mb == cache_mbs.front() && adm_window == adm_windows.front();
        for (const int write_pct : {0, 5}) {
          const std::string mode = write_pct == 0 ? "read-only" : "95r/5w";
          for (const int threads : thread_counts) {
            const CellResult cell =
                RunCell(loop, workload, threads, write_pct, seconds,
                        /*skewed_reads=*/cache_axis,
                        /*via_admission=*/adm_window > 0);
            if (json_path != nullptr) {
              json_cells.push_back(JsonCell{shards, cache_mb, adm_window,
                                            write_pct, threads, cell});
            }
            if (reference_arm && shards == shard_counts.front() &&
                write_pct == 0) {
              if (threads == 1) read_qps_1 = cell.qps;
              if (threads == 8) read_qps_8 = cell.qps;
            }
            if (reference_arm && write_pct == 5 &&
                threads == mixed_ref_threads) {
              if (shards == shard_counts.front()) {
                mixed_qps_by_shards_lo = cell.qps;
              }
              if (shards == shard_counts.back()) {
                mixed_qps_by_shards_hi = cell.qps;
              }
            }
            // Cache summary: read-only cells of the first shard count at
            // the reference thread count, cache-off vs largest cache.
            if (shards == shard_counts.front() && write_pct == 0 &&
                threads == mixed_ref_threads &&
                adm_window == adm_windows.front()) {
              if (cache_mb == 0) read_qps_cache_off = cell.qps;
              if (cache_mb == cache_mbs.back()) {
                read_qps_cache_on = cell.qps;
                read_hit_rate_on = cell.hit_rate;
              }
            }
            // Admission summary: direct vs largest window, same slice.
            if (shards == shard_counts.front() && write_pct == 0 &&
                threads == mixed_ref_threads &&
                cache_mb == cache_mbs.front()) {
              if (adm_window == 0) read_qps_adm_off = cell.qps;
              if (adm_window == adm_windows.back()) {
                read_qps_adm_on = cell.qps;
              }
            }
            std::vector<std::string> row = {std::to_string(shards)};
            if (cache_axis) row.push_back(std::to_string(cache_mb) + "M");
            if (admission_axis) row.push_back(std::to_string(adm_window));
            row.insert(row.end(),
                       {mode, std::to_string(threads), FormatQps(cell.qps),
                        FormatNs(static_cast<double>(cell.p50_ns)),
                        FormatNs(static_cast<double>(cell.p90_ns)),
                        FormatNs(static_cast<double>(cell.p99_ns)),
                        FormatQps(cell.writes_per_s)});
            if (cache_axis) {
              char hit[16];
              std::snprintf(hit, sizeof(hit), "%.0f%%",
                            cell.hit_rate * 100.0);
              row.push_back(cache_mb == 0 ? "-" : hit);
            }
            rows.push_back(std::move(row));
            std::fprintf(
                stderr,
                "[serve] shards=%d cache=%dM admw=%d %s threads=%d done "
                "(%.0f q/s, hit %.0f%%)\n",
                shards, cache_mb, adm_window, mode.c_str(), threads, cell.qps,
                cell.hit_rate * 100.0);
          }
        }
        if (json_path != nullptr) last_metrics = loop.metrics().Snapshot();
      }
    }
  }

  char title[200];
  std::snprintf(title, sizeof(title),
                "Serving throughput (%s, %zu pts, sel 0.0256%%, %.1fs/cell, "
                "%u hw threads%s)",
                index_name.c_str(), data.size(), seconds,
                std::thread::hardware_concurrency(),
                cache_axis ? ", skewed reads: 90% in hottest 10%" : "");
  std::vector<std::string> header = {"shards"};
  if (cache_axis) header.push_back("cache");
  if (admission_axis) header.push_back("admw");
  header.insert(header.end(),
                {"mode", "threads", "QPS", "p50", "p90", "p99", "w/s"});
  if (cache_axis) header.push_back("hit%");
  PrintTable(title, header, rows);
  if (read_qps_1 > 0.0 && read_qps_8 > 0.0) {
    std::printf("\nread-only scaling 1 -> 8 threads (shards=%d): %.2fx\n",
                shard_counts.front(), read_qps_8 / read_qps_1);
  }
  if (shard_counts.size() > 1 && mixed_qps_by_shards_lo > 0.0) {
    std::printf("95r/5w QPS at %d threads, shards %d -> %d: %.2fx\n",
                mixed_ref_threads, shard_counts.front(), shard_counts.back(),
                mixed_qps_by_shards_hi / mixed_qps_by_shards_lo);
  }
  if (cache_axis && read_qps_cache_off > 0.0) {
    std::printf(
        "skewed read-only QPS at %d threads (shards=%d), cache 0 -> %dMB: "
        "%.2fx (hit rate %.0f%%)\n",
        mixed_ref_threads, shard_counts.front(), cache_mbs.back(),
        read_qps_cache_on / read_qps_cache_off, read_hit_rate_on * 100.0);
  }
  if (admission_axis && read_qps_adm_off > 0.0) {
    std::printf(
        "read-only QPS at %d threads (shards=%d), admission window 0 -> "
        "%dus: %.2fx\n",
        mixed_ref_threads, shard_counts.front(), adm_windows.back(),
        read_qps_adm_on / read_qps_adm_off);
  }
  if (json_path != nullptr) {
    return WriteBenchJson(json_path, index_name, data.size(), seconds,
                          json_cells, /*arms=*/nullptr, &last_metrics);
  }
  return 0;
}

}  // namespace
}  // namespace wazi::bench

int main(int argc, char** argv) { return wazi::bench::Main(argc, argv); }
