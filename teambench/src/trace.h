// In-memory span recorder for the traced run. A span brackets one call from
// the benchmark into a layer of the system (wire /find, TopK, FindTeams,
// BuildSnapshot, ...). Spans are appended under a mutex — a few thousand per
// run — and written out as JSON lines when the run ends. With tracing off
// every call is a branch on a null pointer and records nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace teambench {

/// \brief One recorded call: name, start, end, parent span and request id.
struct Span {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 = root span
  uint64_t request = 0;  ///< 0 = not tied to one request
  int64_t start_ns = 0;  ///< steady clock, relative to the tracer's origin
  int64_t end_ns = 0;

  double millis() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

class Tracer {
 public:
  Tracer();

  /// Allocates a span id (ids are unique per tracer, never 0).
  uint64_t NextId();
  void Record(Span span);

  /// Durations in milliseconds of every span called `name`, in record order.
  std::vector<double> DurationsMs(const std::string& name) const;
  size_t size() const;

  /// Writes one JSON object per span to `path`. Returns false on I/O error.
  bool WriteJsonLines(const std::string& path) const;

  int64_t NowNs() const;

 private:
  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;    // guarded by mu_
  std::vector<Span> spans_;  // guarded by mu_
};

/// \brief Records one span for its scope when `tracer` is non-null.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t parent = 0,
             uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// This span's id (0 when tracing is off), for children's `parent`.
  uint64_t id() const { return span_.id; }

 private:
  Tracer* tracer_;
  Span span_;
};

}  // namespace teambench
