#include "obs/trace.hpp"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <stdexcept>

#include "obs/flight.hpp"

namespace obs {

std::string format_trace_id(std::uint64_t id) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(id));
  return buffer;
}

std::uint64_t parse_trace_id(const std::string& hex) {
  if (hex.empty() || hex.size() > 16) return 0;
  std::uint64_t value = 0;
  for (const char c : hex) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = c - 'A' + 10;
    } else {
      return 0;
    }
    value = (value << 4) | static_cast<std::uint64_t>(digit);
  }
  return value;
}

namespace {

// Sink state. The flag is read lock-free on the span fast path; the
// stream is touched only while a sink is open, under the lock.
std::atomic<bool> g_tracing{false};
std::mutex g_sink_mutex;
std::ofstream g_sink;

/// One process-wide trace clock: sink lines and flight-recorder records
/// share an origin, so a dump interleaves chronologically with the file.
double trace_seconds() {
  static support::Timer clock;
  return clock.seconds();
}

/// Span and trace ids come off one process-global counter: unique within
/// the process, dense, and cheap. 0 is reserved for "no id".
std::uint64_t next_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

TraceContext& thread_context() {
  thread_local TraceContext context;
  return context;
}

}  // namespace

TraceContext current_context() { return thread_context(); }

ContextScope::ContextScope(TraceContext context)
    : saved_(thread_context()) {
  thread_context() = context;
}

ContextScope::~ContextScope() { thread_context() = saved_; }

void open_trace(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_sink_mutex);
  if (g_sink.is_open()) g_sink.close();
  g_sink.open(path, std::ios::out | std::ios::trunc);
  if (!g_sink.is_open()) {
    throw std::runtime_error("obs: cannot open trace file: " + path);
  }
  trace_seconds();  // start the clock no later than the first sink line
  g_tracing.store(true, std::memory_order_release);
}

void close_trace() {
  std::lock_guard<std::mutex> lock(g_sink_mutex);
  g_tracing.store(false, std::memory_order_release);
  if (g_sink.is_open()) {
    g_sink.flush();
    g_sink.close();
  }
}

bool tracing() { return g_tracing.load(std::memory_order_acquire); }

Span::Span(const char* name) : Span(name, 0) {}

Span::Span(const char* name, std::uint64_t trace_id)
    : active_(detail::on()),
      name_(name),
      timer_([this](double elapsed) { finish(elapsed); }) {
  if (!active_) {
    timer_.cancel();
    return;
  }
  TraceContext& current = thread_context();
  saved_ = current;
  parent_id_ = current.span_id;
  context_.trace_id = trace_id != 0        ? trace_id
                      : current.trace_id != 0 ? current.trace_id
                                              : next_id();
  context_.span_id = next_id();
  current = context_;
  start_ = trace_seconds();
}

void Span::attr(const char* key, serve::Json value) {
  if (!active_) return;
  attrs_.emplace_back(key, std::move(value));
}

void Span::finish(double elapsed_seconds) {
  thread_context() = saved_;

  FlightRecord record;
  std::strncpy(record.name, name_, FlightRecord::kNameBytes - 1);
  record.trace_id = context_.trace_id;
  record.span_id = context_.span_id;
  record.parent_id = parent_id_;
  record.start = start_;
  record.dur = elapsed_seconds;
  if (!attrs_.empty()) {
    const std::string rendered =
        serve::Json::object(std::move(attrs_)).dump();
    // Keep only attrs that fit whole — a truncated buffer would be
    // invalid JSON in every dump downstream.
    if (rendered.size() < FlightRecord::kAttrsBytes) {
      std::memcpy(record.attrs, rendered.data(), rendered.size());
    }
  }
  flight_record(record);

  if (!g_tracing.load(std::memory_order_acquire)) return;
  const std::string line = render_span_line(record);
  std::lock_guard<std::mutex> lock(g_sink_mutex);
  // The sink may have closed between construction and destruction; a
  // closed-stream write would just set failbit, but skip it cleanly.
  if (!g_sink.is_open()) return;
  g_sink << line << '\n';
}

}  // namespace obs
