// Heap accounting and the in-memory span log.
#include <malloc.h>

#include <cstdio>

#include "dfbench.hpp"

// Defined by alloc_counter.cpp, which only the traced binary links; the
// weak reference resolves to null in the untraced one.
extern "C" std::uint64_t dfbench_alloc_count() __attribute__((weak));

namespace dfbench {

bool heap_allocs_counted() { return dfbench_alloc_count != nullptr; }

std::uint64_t heap_allocs() {
  return dfbench_alloc_count != nullptr ? dfbench_alloc_count() : 0;
}

double heap_in_use_mib() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

int SpanLog::open(std::string_view name, int trial) {
  Span s;
  s.name = std::string(name);
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
                   .count();
  s.id = static_cast<int>(spans_.size());
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.trial = trial;
  spans_.push_back(std::move(s));
  stack_.push_back(spans_.back().id);
  return spans_.back().id;
}

void SpanLog::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

double SpanLog::total_s(std::string_view name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_)
    if (s.name == name && s.end_ns >= 0) ns += s.end_ns - s.start_ns;
  return static_cast<double>(ns) * 1e-9;
}

std::int64_t SpanLog::self_ns(const Span& s) const {
  std::int64_t ns = s.end_ns - s.start_ns;
  for (const Span& c : spans_)
    if (c.parent == s.id && c.end_ns >= 0) ns -= c.end_ns - c.start_ns;
  return ns;
}

bool SpanLog::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  bool first = true;
  for (const Span& s : spans_) {
    if (s.end_ns < 0) continue;
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %d, "
                 "\"parent\": %d, \"trial\": %d, \"self_us\": %.3f}}",
                 first ? "" : ",\n", s.name.c_str(),
                 static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, s.id,
                 s.parent, s.trial, static_cast<double>(self_ns(s)) * 1e-3);
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace dfbench
