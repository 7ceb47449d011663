#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();  // outlives every recording thread
  return *tracer;
}

Tracer::Buffer* Tracer::ThreadBuffer() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto owned = std::make_unique<Buffer>();
    buffer = owned.get();
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::move(owned));
  }
  return buffer;
}

void Tracer::Record(const Span& span) {
  Buffer* buffer = ThreadBuffer();
  std::lock_guard<std::mutex> lock(buffer->mu);
  buffer->spans.push_back(span);
}

std::vector<Span> Tracer::Drain() {
  std::vector<Span> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
    buffer->spans.clear();
  }
  return out;
}

SpanContext& CurrentContext() {
  thread_local SpanContext context;
  return context;
}

ScopedContext::ScopedContext(int64_t rid, int64_t span)
    : saved_(CurrentContext()) {
  CurrentContext() = SpanContext{rid, span};
}

ScopedContext::~ScopedContext() { CurrentContext() = saved_; }

SelfTimes ComputeSelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<int64_t, std::vector<const Span*>> children;
  for (const Span& span : spans) {
    if (!span.summary && span.parent != 0) {
      children[span.parent].push_back(&span);
    }
  }
  SelfTimes out;
  std::vector<std::pair<int64_t, int64_t>> intervals;
  for (const Span& span : spans) {
    if (span.summary) continue;
    if (span.parent == 0) {
      out.root_ns += static_cast<double>(span.t1_ns - span.t0_ns);
      ++out.requests;
    }
    intervals.clear();
    auto it = children.find(span.id);
    if (it != children.end()) {
      for (const Span* child : it->second) {
        int64_t lo = std::max(child->t0_ns, span.t0_ns);
        int64_t hi = std::min(child->t1_ns, span.t1_ns);
        if (hi > lo) intervals.emplace_back(lo, hi);
      }
    }
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t run_lo = 0, run_hi = -1;
    for (const auto& [lo, hi] : intervals) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    LayerTime& layer = out.by_layer[span.layer];
    layer.self_ns += static_cast<double>(span.t1_ns - span.t0_ns - covered);
    ++layer.spans;
  }
  return out;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "rid\tid\tparent\tlayer\tname\tt0_ns\tt1_ns\tvalue\tsummary\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%lld\t%lld\t%lld\t%s\t%s\t%lld\t%lld\t%lld\t%d\n",
                 static_cast<long long>(s.rid), static_cast<long long>(s.id),
                 static_cast<long long>(s.parent), s.layer, s.name,
                 static_cast<long long>(s.t0_ns),
                 static_cast<long long>(s.t1_ns),
                 static_cast<long long>(s.value), s.summary ? 1 : 0);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
