#include "trace.h"

#include <cstdio>

#include "obs/trace_journal.h"

namespace wazi::perfbench {

size_t SpanLog::Begin(const char* name, uint64_t request, uint64_t parent) {
  SpanRecord r;
  r.name = name;
  r.request = request;
  r.span = ++next_id_;
  r.parent = parent;
  spans_.push_back(r);
  // Stamp last, so the bookkeeping above is not inside the span.
  spans_.back().start_ns = NowNs();
  return spans_.size() - 1;
}

void SpanLog::End(size_t slot) { spans_[slot].end_ns = NowNs(); }

void SpanLog::Add(const char* name, uint64_t request, uint64_t parent,
                  int64_t start_ns, int64_t end_ns) {
  spans_.push_back(
      SpanRecord{name, request, ++next_id_, parent, start_ns, end_ns});
}

// The serve trace journal's clock, so spans and journal events (migration
// phases) share one time axis.
int64_t NowNs() { return obs::TraceJournal::NowNs(); }

bool WriteTrace(const std::string& path,
                const std::vector<const SpanLog*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanLog* log : logs) {
    for (const SpanRecord& s : log->spans()) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"request\":%llu,\"span\":%llu,"
                   "\"parent\":%llu,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   s.name, static_cast<unsigned long long>(s.request),
                   static_cast<unsigned long long>(s.span),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace wazi::perfbench
