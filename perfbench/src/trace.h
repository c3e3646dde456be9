// In-memory span recorder for the traced run (--trace 1).
//
// The benchmark times each layer from outside: a ScopedSpan wraps one
// call into a layer's public function and records (name, id, parent,
// trace, start, end, thread). Spans go into per-thread buffers, so
// recording takes no lock after a thread's first span; nothing is
// written until the run ends, when write_chrome_json() dumps every span
// in Chrome trace-event format. With tracing disabled a ScopedSpan reads
// no clock and records nothing.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";      ///< static string: the layer call
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t trace = 0;    ///< spans of one request/episode share it
  std::int64_t start_ns = 0;  ///< steady clock
  std::int64_t end_ns = 0;
  std::uint32_t thread = 0;
};

class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  [[nodiscard]] std::uint64_t next_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  void record(const Span& span);

  /// Durations in microseconds of every recorded span named `name`.
  /// Call only while no thread is recording.
  [[nodiscard]] std::vector<double> durations_us(std::string_view name) const;
  [[nodiscard]] std::size_t span_count() const;
  /// Chrome trace-event JSON (chrome://tracing, Perfetto).
  void write_chrome_json(const std::string& path) const;

 private:
  struct Buffer {
    std::uint32_t thread = 0;
    std::vector<Span> spans;
  };
  Buffer& local_buffer();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex buffers_mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  ///< guarded by buffers_mutex_
};

/// Times one layer call when tracing is on.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t parent = 0,
                      std::uint64_t trace = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// This span's id (0 when tracing is off), for children to name.
  [[nodiscard]] std::uint64_t id() const { return span_.id; }

 private:
  bool active_ = false;
  Span span_;
};

}  // namespace perfbench
