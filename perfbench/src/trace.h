// Benchmark-side tracing: spans recorded around calls into the stack's
// layers (the HTTP handler around WebServer::Dispatch, the archive, the
// analysis routines and the PL committer), kept in per-thread memory
// buffers and written out when the benchmark ends.
//
// A span belongs to one request (rid) and names its parent span, so the
// spans of a request form a tree rooted at the client's round trip. Ids
// derived from the rid let spans on other threads find their parent
// without a lookup: the round trip is RootSpanId(rid) and the server-side
// dispatch DispatchSpanId(rid).
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  int64_t rid = 0;
  int64_t id = 0;
  int64_t parent = 0;      // 0 = root of its request
  const char* layer = "";  // static strings only
  const char* name = "";
  int64_t t0_ns = 0;
  int64_t t1_ns = 0;
  int64_t value = 0;       // bytes moved, photons processed, ...
  // A per-operation summary (e.g. one item read made of several chunk
  // spans): reported as a measurement, left out of the span tree.
  bool summary = false;
};

// Steady-clock nanoseconds.
int64_t NowNs();

inline int64_t RootSpanId(int64_t rid) { return rid * 16; }
inline int64_t DispatchSpanId(int64_t rid) { return rid * 16 + 1; }

class Tracer {
 public:
  static Tracer& Get();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  // Ids for spans that are not derived from a request id.
  int64_t NewSpanId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  void Record(const Span& span);
  // Removes and returns every recorded span.
  std::vector<Span> Drain();

 private:
  struct Buffer {
    std::mutex mu;
    std::vector<Span> spans;
  };
  Buffer* ThreadBuffer();

  std::atomic<bool> enabled_{false};
  std::atomic<int64_t> next_id_{int64_t{1} << 50};
  std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

// The request and span the current thread is working for; layers called
// below inherit it as their parent.
struct SpanContext {
  int64_t rid = 0;
  int64_t span = 0;
};
SpanContext& CurrentContext();

class ScopedContext {
 public:
  ScopedContext(int64_t rid, int64_t span);
  ~ScopedContext();
  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  SpanContext saved_;
};

// Self time per layer: each span's duration minus the union of its
// children's intervals, summed by layer over all requests.
struct LayerTime {
  double self_ns = 0;
  int64_t spans = 0;
};
struct SelfTimes {
  std::map<std::string, LayerTime> by_layer;
  double root_ns = 0;     // summed durations of the request roots
  int64_t requests = 0;   // requests with a root span
};
SelfTimes ComputeSelfTimes(const std::vector<Span>& spans);

// One line per span: rid, id, parent, layer, name, t0_ns, t1_ns, value,
// summary flag (tab-separated, with a header line).
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
