// Command-line front end for the library: generate synthetic data and
// workloads, build/persist a WaZI (or Base) index, and run queries.
//
//   wazi_cli generate   --region CaliNev --n 100000 --out points.csv
//   wazi_cli genqueries --region CaliNev --n 2000 --selectivity 0.0256%
//                       --out queries.csv
//   wazi_cli build      --points points.csv --queries queries.csv
//                       --index wazi --out index.bin
//   wazi_cli query      --index-file index.bin --rect 0.4,0.2,0.48,0.28
//   wazi_cli point      --index-file index.bin --at 0.44,0.24
//   wazi_cli stats      --index-file index.bin
//   wazi_cli throughput --threads 4 --shards 4 --mix 95r/5w --n 200000
//                       --seconds 3 [--region CaliNev --index wazi
//                        --queries 2000 --selectivity 0.0256%
//                        --repartition 0|1 --auto-shards 0|1 --cache-mb 64
//                        --admission-window 200
//                        --stats-json out.json --trace-dump 50
//                        --trace-sample 100]
//   wazi_cli serve      --listen 7450 [--bind 127.0.0.1 --seconds 0
//                        --shards 4 --n 200000 ... (build flags as above)]
//   wazi_cli throughput --connect 127.0.0.1:7450 [--threads 4
//                        --mix 95r/5w --seconds 3 --queries 2000]
//
// `throughput` (alias: `serve`) drives the concurrent serving engine
// (src/serve/): N client threads issue range queries against the live
// per-shard snapshots while writes stream through each shard's own
// background writer, and the command reports QPS plus latency percentiles.
// `--repartition 1` additionally enables the topology monitor, which
// re-cuts the shard map via a live migration when the load skews (only
// the cells whose cuts change move; the rest are carried), and
// `--auto-shards 1` lets the monitor grow/shrink the shard count (hot
// queues / idle slivers).
// `--cache-mb N` turns on the snapshot-stamped result cache (reads are
// then drawn skewed, 90% from the hottest 10% of queries, so the cache
// has a hot set to hold); `--admission-window US` routes reads through
// the batched admission pipeline (SubmitQuery futures, 8 in flight per
// client) with the given coalescing window in microseconds.
// `--stats-json <path>` writes the run summary, the full serve metrics
// registry and a trace-journal tail as one JSON document;
// `--trace-dump N` prints the journal's last N serve events (snapshot
// swaps, migration phases) to stderr after the run; and
// `--trace-sample N` samples every Nth query into a full
// submit→admit→execute→resolve span (see docs/OBSERVABILITY.md).
//
// `serve --listen PORT` builds the same engine but, instead of driving
// it with in-process clients, exposes it over the binary TCP wire
// protocol (src/net/, docs/ARCHITECTURE.md): a WireServer accepts any
// number of connections and pipelines their requests through batched
// admission. PORT 0 picks an ephemeral port (printed on stdout);
// `--bind` widens the listen address beyond loopback (an explicit
// operator decision); `--seconds 0` (the listen-mode default) serves
// until SIGINT/SIGTERM. `throughput --connect HOST:PORT` is the other
// half: it drives a REMOTE wazi_cli serve with pipelined WireClients
// (8 requests in flight per thread) and reports the same QPS + latency
// summary, measured through the wire.
//
// The persisted format only covers the Z-index family (wazi/base); the
// other baselines are in-memory research comparators.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "core/serialize.h"
#include "core/wazi.h"
#include "net/wire_load.h"
#include "net/wire_server.h"
#include "obs/exporters.h"
#include "serve/client_driver.h"
#include "serve/serve_loop.h"
#include "workload/io.h"
#include "workload/query_generator.h"
#include "workload/region_generator.h"

namespace {

using namespace wazi;

// --flag value parser; flags may appear in any order.
std::map<std::string, std::string> ParseFlags(int argc, char** argv,
                                              int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      std::fprintf(stderr, "expected --flag, got '%s'\n", argv[i]);
      std::exit(2);
    }
    flags[argv[i] + 2] = argv[i + 1];
  }
  return flags;
}

std::string FlagOr(const std::map<std::string, std::string>& flags,
                   const std::string& name, const std::string& fallback) {
  auto it = flags.find(name);
  return it == flags.end() ? fallback : it->second;
}

std::string RequireFlag(const std::map<std::string, std::string>& flags,
                        const std::string& name) {
  auto it = flags.find(name);
  if (it == flags.end()) {
    std::fprintf(stderr, "missing required flag --%s\n", name.c_str());
    std::exit(2);
  }
  return it->second;
}

// "0.0256%" -> 0.000256; "0.000256" -> 0.000256.
double ParseSelectivity(const std::string& s) {
  if (!s.empty() && s.back() == '%') {
    return std::strtod(s.substr(0, s.size() - 1).c_str(), nullptr) / 100.0;
  }
  return std::strtod(s.c_str(), nullptr);
}

bool ParseCoords(const std::string& s, std::vector<double>* out, size_t n) {
  out->clear();
  const char* p = s.c_str();
  char* end = nullptr;
  while (*p != '\0') {
    out->push_back(std::strtod(p, &end));
    if (end == p) return false;
    p = (*end == ',') ? end + 1 : end;
  }
  return out->size() == n;
}

Region RequireRegion(const std::map<std::string, std::string>& flags) {
  const std::string name = FlagOr(flags, "region", "CaliNev");
  Region region;
  if (!ParseRegion(name, &region)) {
    std::fprintf(stderr, "unknown region '%s'\n", name.c_str());
    std::exit(2);
  }
  return region;
}

int CmdGenerate(const std::map<std::string, std::string>& flags) {
  const Region region = RequireRegion(flags);
  const size_t n = std::strtoull(FlagOr(flags, "n", "100000").c_str(),
                                 nullptr, 10);
  const uint64_t seed =
      std::strtoull(FlagOr(flags, "seed", "42").c_str(), nullptr, 10);
  const Dataset data = GenerateRegion(region, n, seed);
  const std::string out = RequireFlag(flags, "out");
  if (!SavePointsCsvFile(data, out)) {
    std::fprintf(stderr, "failed to write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %zu %s points to %s\n", data.size(), data.name.c_str(),
              out.c_str());
  return 0;
}

int CmdGenQueries(const std::map<std::string, std::string>& flags) {
  const Region region = RequireRegion(flags);
  QueryGenOptions opts;
  opts.num_queries =
      std::strtoull(FlagOr(flags, "n", "2000").c_str(), nullptr, 10);
  opts.selectivity = ParseSelectivity(FlagOr(flags, "selectivity", "0.0256%"));
  opts.seed = std::strtoull(FlagOr(flags, "seed", "7").c_str(), nullptr, 10);
  const Workload w =
      GenerateCheckinWorkload(region, Rect::Of(0, 0, 1, 1), opts);
  const std::string out = RequireFlag(flags, "out");
  if (!SaveQueriesCsvFile(w, out)) {
    std::fprintf(stderr, "failed to write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %zu queries (selectivity %g) to %s\n", w.size(),
              opts.selectivity, out.c_str());
  return 0;
}

int CmdBuild(const std::map<std::string, std::string>& flags) {
  Dataset data;
  std::string error;
  if (!LoadPointsCsvFile(RequireFlag(flags, "points"), &data, &error)) {
    std::fprintf(stderr, "points: %s\n", error.c_str());
    return 1;
  }
  Workload workload;
  if (flags.count("queries") > 0 &&
      !LoadQueriesCsvFile(flags.at("queries"), &workload, &error)) {
    std::fprintf(stderr, "queries: %s\n", error.c_str());
    return 1;
  }
  const std::string kind = FlagOr(flags, "index", "wazi");
  std::unique_ptr<ZIndexVariant> index;
  if (kind == "wazi") {
    index = std::make_unique<Wazi>();
  } else if (kind == "base") {
    index = std::make_unique<BaseZ>();
  } else {
    std::fprintf(stderr, "--index must be wazi or base (got '%s')\n",
                 kind.c_str());
    return 2;
  }
  if (kind == "wazi" && workload.queries.empty()) {
    std::fprintf(stderr,
                 "warning: building wazi without --queries; the layout "
                 "cannot adapt (equivalent to kappa random splits)\n");
  }
  BuildOptions opts;
  opts.leaf_capacity = static_cast<int>(
      std::strtol(FlagOr(flags, "leaf-capacity", "256").c_str(), nullptr, 10));
  Timer timer;
  index->Build(data, workload, opts);
  const std::string out = RequireFlag(flags, "out");
  if (!index->SaveToFile(out)) {
    std::fprintf(stderr, "failed to write %s\n", out.c_str());
    return 1;
  }
  std::printf("built %s over %zu points in %.2fs (%zu leaves); saved to %s\n",
              kind.c_str(), data.size(), timer.ElapsedSeconds(),
              index->zindex().num_leaves(), out.c_str());
  return 0;
}

std::unique_ptr<Wazi> LoadIndexOrDie(
    const std::map<std::string, std::string>& flags) {
  auto index = std::make_unique<Wazi>();
  const std::string path = RequireFlag(flags, "index-file");
  if (!index->LoadFromFile(path)) {
    std::fprintf(stderr, "failed to load index from %s\n", path.c_str());
    std::exit(1);
  }
  return index;
}

int CmdQuery(const std::map<std::string, std::string>& flags) {
  auto index = LoadIndexOrDie(flags);
  std::vector<double> v;
  if (!ParseCoords(RequireFlag(flags, "rect"), &v, 4)) {
    std::fprintf(stderr, "--rect wants min_x,min_y,max_x,max_y\n");
    return 2;
  }
  const Rect q = Rect::Of(v[0], v[1], v[2], v[3]);
  std::vector<Point> hits;
  Timer timer;
  index->RangeQuery(q, &hits);
  const int64_t ns = timer.ElapsedNs();
  std::printf("# %zu hits in %lldus\n", hits.size(),
              static_cast<long long>(ns / 1000));
  const bool ids_only = FlagOr(flags, "ids-only", "false") == "true";
  for (const Point& p : hits) {
    if (ids_only) {
      std::printf("%lld\n", static_cast<long long>(p.id));
    } else {
      std::printf("%.17g,%.17g,%lld\n", p.x, p.y,
                  static_cast<long long>(p.id));
    }
  }
  return 0;
}

int CmdPoint(const std::map<std::string, std::string>& flags) {
  auto index = LoadIndexOrDie(flags);
  std::vector<double> v;
  if (!ParseCoords(RequireFlag(flags, "at"), &v, 2)) {
    std::fprintf(stderr, "--at wants x,y\n");
    return 2;
  }
  const bool found = index->PointQuery(Point{v[0], v[1], 0});
  std::printf("%s\n", found ? "found" : "missing");
  return found ? 0 : 3;
}

int CmdStats(const std::map<std::string, std::string>& flags) {
  auto index = LoadIndexOrDie(flags);
  const ZIndex& z = index->zindex();
  std::printf("points:        %zu\n", z.num_points());
  std::printf("leaves:        %zu\n", z.num_leaves());
  std::printf("tree nodes:    %zu\n", z.num_nodes());
  std::printf("leaf capacity: %d\n", z.leaf_capacity());
  std::printf("look-ahead:    %s\n", z.has_lookahead() ? "yes" : "no");
  std::printf("size:          %.2f MB\n",
              static_cast<double>(z.SizeBytes()) / (1024.0 * 1024.0));
  return 0;
}

// serve --listen: flipped by SIGINT/SIGTERM so the serve loop can drain
// and report stats instead of dying mid-connection.
std::atomic<bool> g_shutdown{false};

void HandleShutdownSignal(int) { g_shutdown.store(true); }

// "host:port" -> (host, port). False on missing/invalid port.
bool ParseHostPort(const std::string& s, std::string* host, uint16_t* port) {
  const size_t colon = s.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == s.size()) {
    return false;
  }
  char* end = nullptr;
  const long p = std::strtol(s.c_str() + colon + 1, &end, 10);
  if (*end != '\0' || p < 1 || p > 65535) return false;
  *host = s.substr(0, colon);
  *port = static_cast<uint16_t>(p);
  return true;
}

// "95r/5w" -> 5 (write percentage); "100r" -> 0. Returns -1 on bad input.
int ParseWritePct(const std::string& mix) {
  char* end = nullptr;
  const long reads = std::strtol(mix.c_str(), &end, 10);
  if (end == mix.c_str() || *end != 'r' || reads < 0 || reads > 100) {
    return -1;
  }
  return static_cast<int>(100 - reads);
}

int CmdThroughput(const std::map<std::string, std::string>& flags) {
  const Region region = RequireRegion(flags);
  const size_t n =
      std::strtoull(FlagOr(flags, "n", "200000").c_str(), nullptr, 10);
  const int threads = static_cast<int>(
      std::strtol(FlagOr(flags, "threads", "4").c_str(), nullptr, 10));
  const int shards = static_cast<int>(
      std::strtol(FlagOr(flags, "shards", "1").c_str(), nullptr, 10));
  const int write_pct = ParseWritePct(FlagOr(flags, "mix", "95r/5w"));
  // --listen PORT: serve the engine over TCP instead of driving it with
  // in-process clients (seconds then defaults to 0 = until SIGINT).
  // --connect HOST:PORT: drive a remote serve over TCP instead of
  // building an engine here.
  const std::string listen = FlagOr(flags, "listen", "");
  const std::string connect = FlagOr(flags, "connect", "");
  if (!listen.empty() && !connect.empty()) {
    std::fprintf(stderr, "--listen and --connect are exclusive\n");
    return 2;
  }
  const double seconds = std::strtod(
      FlagOr(flags, "seconds", listen.empty() ? "3" : "0").c_str(), nullptr);
  const std::string index_name = FlagOr(flags, "index", "wazi");
  const int cache_mb = static_cast<int>(
      std::strtol(FlagOr(flags, "cache-mb", "0").c_str(), nullptr, 10));
  const int adm_window = static_cast<int>(std::strtol(
      FlagOr(flags, "admission-window", "0").c_str(), nullptr, 10));
  // --stats-json <path>: write the run summary + full metrics registry +
  // trace-journal tail as JSON. --trace-dump N: print the last N journal
  // events to stderr. --trace-sample N: sample every Nth query into a
  // full span (0 = off; see docs/OBSERVABILITY.md).
  const std::string stats_json = FlagOr(flags, "stats-json", "");
  const long trace_dump =
      std::strtol(FlagOr(flags, "trace-dump", "0").c_str(), nullptr, 10);
  const long trace_sample =
      std::strtol(FlagOr(flags, "trace-sample", "0").c_str(), nullptr, 10);
  if (threads < 1 || shards < 1 || write_pct < 0 ||
      (seconds <= 0.0 && listen.empty()) || seconds < 0.0 || cache_mb < 0 ||
      adm_window < 0 || trace_dump < 0 || trace_sample < 0) {
    std::fprintf(stderr,
                 "--threads and --shards want >= 1, --mix wants e.g. "
                 "95r/5w, --seconds wants > 0, --cache-mb, "
                 "--admission-window, --trace-dump and --trace-sample "
                 "want >= 0\n");
    return 2;
  }
  if (MakeIndex(index_name) == nullptr) {
    std::fprintf(stderr, "unknown index '%s'; known:", index_name.c_str());
    for (const std::string& known : AllIndexNames()) {
      std::fprintf(stderr, " %s", known.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }

  QueryGenOptions qopts;
  qopts.num_queries =
      std::strtoull(FlagOr(flags, "queries", "2000").c_str(), nullptr, 10);
  qopts.selectivity = ParseSelectivity(FlagOr(flags, "selectivity", "0.0256%"));
  qopts.seed = 7;
  if (qopts.num_queries == 0) {
    std::fprintf(stderr, "--queries wants >= 1\n");
    return 2;
  }
  const Workload workload =
      GenerateCheckinWorkload(region, Rect::Of(0, 0, 1, 1), qopts);

  if (!connect.empty()) {
    std::string host;
    uint16_t port = 0;
    if (!ParseHostPort(connect, &host, &port)) {
      std::fprintf(stderr, "--connect wants HOST:PORT (numeric IPv4)\n");
      return 2;
    }
    serve::ClientLoadOptions copts;
    copts.threads = threads;
    copts.write_pct = write_pct;
    copts.seconds = seconds;
    copts.admission_depth = 8;  // pipeline the wire: 8 in flight per client
    std::fprintf(stderr, "driving %s:%u for %.1fs on %d threads "
                 "(%d%% writes, depth 8)...\n",
                 host.c_str(), port, seconds, threads, write_pct);
    const serve::ClientLoadResult load =
        net::RunWireClientLoad(host, port, workload, copts);
    if (load.elapsed_seconds <= 0.0) {
      std::fprintf(stderr, "cannot connect to %s:%u\n", host.c_str(), port);
      return 1;
    }
    std::printf("threads:        %d\n", threads);
    std::printf("mix:            %dr/%dw\n", 100 - write_pct, write_pct);
    std::printf("queries:        %lld (%.0f QPS over the wire)\n",
                static_cast<long long>(load.queries),
                static_cast<double>(load.queries) / load.elapsed_seconds);
    std::printf("writes:         %lld (%.0f/s)\n",
                static_cast<long long>(load.writes),
                static_cast<double>(load.writes) / load.elapsed_seconds);
    std::printf("latency p50:    %lldns\n",
                static_cast<long long>(load.latencies.PercentileNs(50)));
    std::printf("latency p90:    %lldns\n",
                static_cast<long long>(load.latencies.PercentileNs(90)));
    std::printf("latency p99:    %lldns\n",
                static_cast<long long>(load.latencies.PercentileNs(99)));
    return 0;
  }

  const Dataset data = GenerateRegion(region, n, /*seed=*/42);

  std::fprintf(stderr, "building %d shard(s) of %s over %zu points...\n",
               shards, index_name.c_str(), data.size());
  Timer build_timer;
  serve::ServeOptions sopts;
  sopts.num_shards = shards;
  sopts.num_threads = 1;  // client threads below execute queries themselves
  sopts.repartition.enabled = FlagOr(flags, "repartition", "0") == "1";
  // Monitor-driven shard-count auto-tuning; only matters with
  // --repartition 1.
  sopts.repartition.auto_shard_count =
      FlagOr(flags, "auto-shards", "0") == "1";
  sopts.cache.capacity_bytes = static_cast<size_t>(cache_mb) * 1024 * 1024;
  sopts.admission.window_us = adm_window;
  sopts.obs.trace_sample_every = static_cast<uint32_t>(trace_sample);
  // Admission arms execute batches on the engine pool, not the clients.
  if (adm_window > 0) sopts.num_threads = 4;
  // Listen mode runs the engine pool (wire requests go through batched
  // admission, executed by engine threads, not client threads).
  if (!listen.empty()) sopts.num_threads = 4;
  serve::ServeLoop loop([&index_name] { return MakeIndex(index_name); }, data,
                        workload, BuildOptions{}, sopts);

  if (!listen.empty()) {
    char* end = nullptr;
    const long port_arg = std::strtol(listen.c_str(), &end, 10);
    if (*end != '\0' || port_arg < 0 || port_arg > 65535) {
      std::fprintf(stderr, "--listen wants a port (0 = ephemeral)\n");
      return 2;
    }
    net::WireServerOptions wopts;
    wopts.bind_address = FlagOr(flags, "bind", "127.0.0.1");
    wopts.port = static_cast<uint16_t>(port_arg);
    net::WireServer server(&loop, wopts);
    std::string error;
    if (!server.Start(&error)) {
      std::fprintf(stderr, "wire server: %s\n", error.c_str());
      return 1;
    }
    std::printf("listening on %s:%u (%s, %d shard(s), %zu points)\n",
                wopts.bind_address.c_str(),
                static_cast<unsigned>(server.port()), index_name.c_str(),
                loop.num_shards(), data.size());
    std::fflush(stdout);  // scripts wait for the port line
    std::signal(SIGINT, HandleShutdownSignal);
    std::signal(SIGTERM, HandleShutdownSignal);
    Timer uptime;
    while (!g_shutdown.load() &&
           (seconds == 0.0 || uptime.ElapsedSeconds() < seconds)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    server.Stop();
    const net::WireServerStats ws = server.stats();
    std::printf("served %.1fs: %lld connection(s), %lld request(s), "
                "%lld response(s), %lld error frame(s), %lld backpressure "
                "pause(s), %lld B in / %lld B out\n",
                uptime.ElapsedSeconds(),
                static_cast<long long>(ws.connections_opened),
                static_cast<long long>(ws.requests),
                static_cast<long long>(ws.responses),
                static_cast<long long>(ws.error_frames),
                static_cast<long long>(ws.backpressure_pauses),
                static_cast<long long>(ws.bytes_read),
                static_cast<long long>(ws.bytes_written));
    return 0;
  }
  std::fprintf(stderr, "built in %.1fs; serving %.1fs on %d threads "
               "(%d%% writes, %d shards, %u hw threads)\n",
               build_timer.ElapsedSeconds(), seconds, threads, write_pct,
               loop.num_shards(), std::thread::hardware_concurrency());

  serve::ClientLoadOptions copts;
  copts.threads = threads;
  copts.write_pct = write_pct;
  copts.seconds = seconds;
  if (cache_mb > 0) {
    copts.hot_fraction = 0.1;  // give the cache a hot set to hold
    copts.hot_pct = 90;
  }
  if (adm_window > 0) copts.admission_depth = 8;
  const serve::ClientLoadResult load =
      serve::RunClientLoad(loop, workload, copts);

  std::printf("threads:        %d\n", threads);
  std::printf("shards:         %d\n", loop.num_shards());
  std::printf("mix:            %dr/%dw\n", 100 - write_pct, write_pct);
  std::printf("queries:        %lld (%.0f QPS)\n",
              static_cast<long long>(load.queries),
              static_cast<double>(load.queries) / load.elapsed_seconds);
  std::printf("writes:         %lld (%.0f/s)\n",
              static_cast<long long>(load.writes),
              static_cast<double>(load.writes) / load.elapsed_seconds);
  std::printf("latency p50:    %lldns\n",
              static_cast<long long>(load.latencies.PercentileNs(50)));
  std::printf("latency p90:    %lldns\n",
              static_cast<long long>(load.latencies.PercentileNs(90)));
  std::printf("latency p99:    %lldns\n",
              static_cast<long long>(load.latencies.PercentileNs(99)));
  std::printf("snapshots:      %llu versions published, %lld drift rebuilds\n",
              static_cast<unsigned long long>(loop.version()),
              static_cast<long long>(loop.rebuilds()));
  const serve::MigrationStats mig = loop.migration_stats();
  std::printf("topology:       epoch %llu, %lld live repartition(s) "
              "(%lld incremental, %lld pts moved, last %lld moved / %lld "
              "carried shards)\n",
              static_cast<unsigned long long>(loop.epoch()),
              static_cast<long long>(loop.repartitions()),
              static_cast<long long>(mig.incremental),
              static_cast<long long>(mig.total_moved_points),
              static_cast<long long>(mig.last_moved_shards),
              static_cast<long long>(mig.last_carried_shards));
  const obs::MetricsSnapshot reg = loop.metrics().Snapshot();
  std::printf("writers:        %lld retired snapshot(s) in epoch limbo, "
              "%lld update op(s) dropped\n",
              static_cast<long long>(reg.GaugeValue("serve_epoch_limbo")),
              static_cast<long long>(
                  reg.CounterValue("serve_writer_ops_dropped_total")));
  if (cache_mb > 0) {
    const serve::ResultCacheStats cs = loop.cache_stats();
    std::printf(
        "result cache:   %.0f%% hit rate (%lld hits, %lld misses, %lld "
        "stamp invalidations, %zu bytes held)\n",
        cs.hit_rate() * 100.0, static_cast<long long>(cs.hits),
        static_cast<long long>(cs.misses),
        static_cast<long long>(cs.invalidations), cs.size_bytes);
  }
  if (adm_window > 0) {
    const serve::AdmissionStats as = loop.admission_stats();
    std::printf(
        "admission:      %lld queries in %lld batches (mean %.1f, max "
        "%lld per snapshot acquisition)\n",
        static_cast<long long>(as.dispatched),
        static_cast<long long>(as.batches), as.mean_batch(),
        static_cast<long long>(as.max_batch));
  }
  if (trace_dump > 0) {
    const std::vector<obs::TraceEvent> tail =
        loop.journal().Tail(static_cast<size_t>(trace_dump));
    std::fprintf(stderr,
                 "--- trace journal: last %zu of %llu event(s), %llu "
                 "dropped ---\n",
                 tail.size(),
                 static_cast<unsigned long long>(loop.journal().recorded()),
                 static_cast<unsigned long long>(loop.journal().dropped()));
    const int64_t origin = tail.empty() ? 0 : tail.front().t_ns;
    for (const obs::TraceEvent& e : tail) {
      std::fprintf(stderr, "%s\n", obs::FormatEvent(e, origin).c_str());
    }
  }
  if (!stats_json.empty()) {
    obs::JsonWriter w;
    w.BeginObject();
    w.Key("schema").String("wazi.cli.throughput/1");
    w.Key("index").String(index_name);
    w.Key("threads").Int(threads);
    w.Key("shards").Int(loop.num_shards());
    w.Key("write_pct").Int(write_pct);
    w.Key("qps").Double(static_cast<double>(load.queries) /
                        load.elapsed_seconds);
    w.Key("writes_per_s").Double(static_cast<double>(load.writes) /
                                 load.elapsed_seconds);
    w.Key("p50_ns").Int(load.latencies.PercentileNs(50));
    w.Key("p90_ns").Int(load.latencies.PercentileNs(90));
    w.Key("p99_ns").Int(load.latencies.PercentileNs(99));
    w.Key("epoch").UInt(loop.epoch());
    w.Key("metrics").Raw(obs::ToJson(loop.metrics().Snapshot()));
    w.Key("trace").Raw(obs::TraceTailJson(
        loop.journal(), trace_dump > 0 ? static_cast<size_t>(trace_dump)
                                       : size_t{64}));
    w.EndObject();
    if (!obs::WriteFile(stats_json, w.str() + "\n")) {
      std::fprintf(stderr, "cannot write %s\n", stats_json.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s\n", stats_json.c_str());
  }
  return 0;
}

void Usage() {
  std::fprintf(
      stderr,
      "usage: wazi_cli "
      "<generate|genqueries|build|query|point|stats|throughput> "
      "[--flag value ...]\n"
      "see the header of tools/wazi_cli.cc for per-command flags\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  const std::string cmd = argv[1];
  const auto flags = ParseFlags(argc, argv, 2);
  if (cmd == "generate") return CmdGenerate(flags);
  if (cmd == "genqueries") return CmdGenQueries(flags);
  if (cmd == "build") return CmdBuild(flags);
  if (cmd == "query") return CmdQuery(flags);
  if (cmd == "point") return CmdPoint(flags);
  if (cmd == "stats") return CmdStats(flags);
  if (cmd == "throughput" || cmd == "serve") return CmdThroughput(flags);
  Usage();
  return 2;
}
