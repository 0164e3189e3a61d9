// Spans recorded by the benchmark around its calls into each layer of the
// serving engine. A span has a name, the request it belongs to, its own id,
// the id of the span that caused it (0 for a request's root) and its start
// and end on the steady clock. Spans stay in per-thread memory while the
// benchmark runs and are written out once, as JSON lines, when it ends.

#ifndef WAZI_PERFBENCH_TRACE_H_
#define WAZI_PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace wazi::perfbench {

struct SpanRecord {
  const char* name = "";  // a string literal: names are a fixed vocabulary
  uint64_t request = 0;
  uint64_t span = 0;
  uint64_t parent = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t duration_ns() const { return end_ns - start_ns; }
};

// One thread's spans. Ids are unique across threads: the thread's tag sits
// in the top 16 bits.
class SpanLog {
 public:
  explicit SpanLog(uint16_t thread_tag)
      : next_id_(static_cast<uint64_t>(thread_tag) << 48) {}

  uint64_t NewRequest() { return ++next_id_; }
  // Opens a span and returns its slot for End(); the span id is
  // spans()[slot].span.
  size_t Begin(const char* name, uint64_t request, uint64_t parent);
  void End(size_t slot);
  // Records a span whose bounds were stamped elsewhere (journal events).
  void Add(const char* name, uint64_t request, uint64_t parent,
           int64_t start_ns, int64_t end_ns);

  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  uint64_t next_id_;
  std::vector<SpanRecord> spans_;
};

// Scoped span: Begin on construction, End on destruction.
class Span {
 public:
  Span(SpanLog& log, const char* name, uint64_t request, uint64_t parent)
      : log_(log), slot_(log.Begin(name, request, parent)) {}
  ~Span() { log_.End(slot_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  uint64_t id() const { return log_.spans()[slot_].span; }

 private:
  SpanLog& log_;
  size_t slot_;
};

int64_t NowNs();

// Writes every span of every log to `path`, one JSON object per line.
bool WriteTrace(const std::string& path,
                const std::vector<const SpanLog*>& logs);

}  // namespace wazi::perfbench

#endif  // WAZI_PERFBENCH_TRACE_H_
