#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>

#include "common/error.h"

namespace perfbench {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::Buffer& Tracer::local_buffer() {
  // Buffers are owned by the tracer, so spans survive their thread.
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard lock(buffers_mutex_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffer = buffers_.back().get();
    buffer->thread = static_cast<std::uint32_t>(buffers_.size());
    buffer->spans.reserve(1 << 12);
  }
  return *buffer;
}

void Tracer::record(const Span& span) {
  Buffer& buffer = local_buffer();
  buffer.spans.push_back(span);
  buffer.spans.back().thread = buffer.thread;
}

std::vector<double> Tracer::durations_us(std::string_view name) const {
  std::vector<double> out;
  std::lock_guard lock(buffers_mutex_);
  for (const auto& buffer : buffers_) {
    for (const Span& span : buffer->spans) {
      if (name == span.name) {
        out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
      }
    }
  }
  return out;
}

std::size_t Tracer::span_count() const {
  std::lock_guard lock(buffers_mutex_);
  std::size_t count = 0;
  for (const auto& buffer : buffers_) count += buffer->spans.size();
  return count;
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  MUFFIN_REQUIRE(static_cast<bool>(out), "cannot write trace file " + path);
  std::lock_guard lock(buffers_mutex_);
  std::int64_t origin = INT64_MAX;
  for (const auto& buffer : buffers_) {
    for (const Span& span : buffer->spans) origin = std::min(origin, span.start_ns);
  }
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& buffer : buffers_) {
    for (const Span& span : buffer->spans) {
      out << (first ? "\n" : ",\n") << "{\"name\":\"" << span.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << span.thread
          << ",\"ts\":" << static_cast<double>(span.start_ns - origin) / 1e3
          << ",\"dur\":" << static_cast<double>(span.end_ns - span.start_ns) / 1e3
          << ",\"args\":{\"id\":" << span.id << ",\"parent\":" << span.parent
          << ",\"trace\":" << span.trace << "}}";
      first = false;
    }
  }
  out << "\n]}\n";
  MUFFIN_REQUIRE(static_cast<bool>(out), "failed writing trace file " + path);
}

ScopedSpan::ScopedSpan(const char* name, std::uint64_t parent,
                       std::uint64_t trace) {
  Tracer& tracer = Tracer::instance();
  if (!tracer.enabled()) return;
  active_ = true;
  span_.name = name;
  span_.id = tracer.next_id();
  span_.parent = parent;
  span_.trace = trace != 0 ? trace : span_.id;
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = now_ns();
  Tracer::instance().record(span_);
}

}  // namespace perfbench
