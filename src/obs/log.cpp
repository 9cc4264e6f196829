#include "obs/log.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"
#include "support/timer.hpp"

namespace obs {

namespace {

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kOff: return "off";
    case LogLevel::kError: return "error";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kInfo: return "info";
    case LogLevel::kDebug: return "debug";
  }
  return "?";
}

}  // namespace

LogLevel parse_log_level(const std::string& name) {
  for (const LogLevel level :
       {LogLevel::kOff, LogLevel::kError, LogLevel::kWarn, LogLevel::kInfo,
        LogLevel::kDebug}) {
    if (name == level_name(level)) return level;
  }
  throw std::runtime_error(
      "invalid log level \"" + name +
      "\" (expected off | error | warn | info | debug)");
}

namespace {

std::atomic<int> g_level{static_cast<int>(LogLevel::kInfo)};

// Sink + rate limiter state, all under one mutex: logging is not a hot
// path (the level check above filters before any lock is taken).
std::mutex g_log_mutex;
std::ofstream g_log_file;
double g_bucket_capacity = 128.0;
double g_bucket_rate = 64.0;
double g_bucket_tokens = 128.0;
double g_bucket_last = 0.0;
std::uint64_t g_dropped = 0;

/// Monotonic seconds for bucket refill (origin irrelevant).
double limiter_seconds() {
  static support::Timer clock;
  return clock.seconds();
}

/// Wall-clock seconds since the Unix epoch, millisecond resolution —
/// log lines are for operators and must align with other machines.
double wall_seconds() {
  const auto now = std::chrono::system_clock::now().time_since_epoch();
  const double seconds = std::chrono::duration<double>(now).count();
  return std::round(seconds * 1e3) / 1e3;
}

}  // namespace

LogLevel log_level() {
  return static_cast<LogLevel>(g_level.load(std::memory_order_relaxed));
}

void set_log_level(LogLevel level) {
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

void open_log(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_log_mutex);
  if (g_log_file.is_open()) g_log_file.close();
  if (path.empty()) return;  // back to stderr
  g_log_file.open(path, std::ios::out | std::ios::trunc);
  if (!g_log_file.is_open()) {
    throw std::runtime_error("obs: cannot open log file: " + path);
  }
}

void close_log() {
  std::lock_guard<std::mutex> lock(g_log_mutex);
  if (g_log_file.is_open()) {
    g_log_file.flush();
    g_log_file.close();
  }
}

void set_log_rate_limit(double capacity, double per_second) {
  std::lock_guard<std::mutex> lock(g_log_mutex);
  g_bucket_capacity = capacity;
  g_bucket_rate = per_second;
  g_bucket_tokens = capacity;
  g_bucket_last = limiter_seconds();
}

void log(LogLevel level, const char* component, const std::string& message,
         serve::JsonMembers attrs) {
  if (!detail::on()) return;
  if (level == LogLevel::kOff ||
      static_cast<int>(level) > g_level.load(std::memory_order_relaxed)) {
    return;
  }

  std::uint64_t dropped_before = 0;
  {
    std::lock_guard<std::mutex> lock(g_log_mutex);
    const double now = limiter_seconds();
    g_bucket_tokens = std::min(
        g_bucket_capacity,
        g_bucket_tokens + (now - g_bucket_last) * g_bucket_rate);
    g_bucket_last = now;
    if (g_bucket_tokens < 1.0) {
      ++g_dropped;
      return;
    }
    g_bucket_tokens -= 1.0;
    dropped_before = g_dropped;
    g_dropped = 0;
  }

  serve::JsonMembers members;
  members.emplace_back("ts", serve::Json(wall_seconds()));
  members.emplace_back("level", serve::Json(std::string(level_name(level))));
  members.emplace_back("component",
                       serve::Json(std::string(component)));
  const TraceContext context = current_context();
  if (context.trace_id != 0) {
    members.emplace_back("trace_id",
                         serve::Json(format_trace_id(context.trace_id)));
  }
  members.emplace_back("msg", serve::Json(message));
  if (dropped_before > 0) {
    members.emplace_back("dropped",
                         serve::Json(static_cast<double>(dropped_before)));
  }
  if (!attrs.empty()) {
    members.emplace_back("attrs", serve::Json::object(std::move(attrs)));
  }
  const std::string line = serve::Json::object(std::move(members)).dump();

  std::lock_guard<std::mutex> lock(g_log_mutex);
  if (g_log_file.is_open()) {
    g_log_file << line << '\n';
    g_log_file.flush();  // operators tail log files; lines must land
  } else {
    std::fprintf(stderr, "%s\n", line.c_str());
  }
}

}  // namespace obs
