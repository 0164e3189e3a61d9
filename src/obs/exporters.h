// Exporters for the metrics registry and trace journal: a Prometheus-style
// text dump (scrape endpoint / CLI paste format) and a JSON snapshot
// (machine-readable perf trajectory — bench_scenarios emits
// BENCH_<scenario>.json through the JsonWriter here).
//
// Both render from MetricsSnapshot (a plain copy), never from the live
// registry, so exporting can never stall a hot path.

#ifndef WAZI_OBS_EXPORTERS_H_
#define WAZI_OBS_EXPORTERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace_journal.h"

namespace wazi::obs {

// Prometheus exposition text:
//
//   # TYPE wazi_serve_cache_hits_total counter
//   wazi_serve_cache_hits_total 1234
//   # TYPE wazi_serve_query_latency_ns histogram
//   wazi_serve_query_latency_ns_bucket{le="256"} 0
//   ...
//   wazi_serve_query_latency_ns_bucket{le="+Inf"} 57
//   wazi_serve_query_latency_ns_sum 812345
//   wazi_serve_query_latency_ns_count 57
//
// Metric names come from the registry verbatim plus the `prefix` (default
// "wazi_"); output is name-sorted and deterministic for a given snapshot.
std::string ToPrometheusText(const MetricsSnapshot& snap,
                             const std::string& prefix = "wazi_");

// Compact JSON object:
//   {"counters":{...},"gauges":{...},
//    "histograms":{"name":{"count":N,"sum":S,"p50":...,"p90":...,"p99":...,
//                          "buckets":[[bound,count],...]}}}
std::string ToJson(const MetricsSnapshot& snap);

// The last `n` journal events as a JSON array (oldest first), plus the
// journal's drop accounting:
//   {"capacity":C,"recorded":R,"dropped":D,"events":[
//     {"t_ns":...,"kind":"migration_plan","epoch":3,"shard":-1,
//      "a":2,"b":6,"c":1}, ...]}
std::string TraceTailJson(const TraceJournal& journal, size_t n);

// Minimal append-only JSON emitter shared by the exporters, the bench's
// BENCH_*.json writer and the CLI's --stats-json: explicit Begin/End
// nesting, automatic comma placement, correct string escaping and
// non-finite-double handling (NaN/Inf render as null — JSON has no
// spelling for them). The caller owns structural correctness (balanced
// Begin/End, keys only inside objects).
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  JsonWriter& Key(const std::string& k);
  JsonWriter& String(const std::string& v);
  JsonWriter& Int(int64_t v);
  JsonWriter& UInt(uint64_t v);
  JsonWriter& Double(double v);
  JsonWriter& Bool(bool v);
  JsonWriter& Null();
  // Splices a pre-rendered JSON value (e.g. another exporter's output)
  // in value position; the fragment must itself be valid JSON.
  JsonWriter& Raw(const std::string& json);

  const std::string& str() const { return out_; }

  static std::string Escape(const std::string& s);

 private:
  void Comma();  // separator before a value/key when one is pending

  std::string out_;
  std::vector<bool> needs_comma_;  // per open scope
};

// Writes `content` to `path` (truncating). Returns false on any I/O error.
bool WriteFile(const std::string& path, const std::string& content);

}  // namespace wazi::obs

#endif  // WAZI_OBS_EXPORTERS_H_
