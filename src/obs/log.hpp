// Leveled, structured NDJSON logging with token-bucket rate limiting.
//
// One line per event, machine-parsable, with the thread's current trace
// context attached automatically so log lines correlate with span trees:
//
//   {"ts":1723110123.042,"level":"warn","component":"engine",
//    "trace_id":"00000000000000a1","msg":"healed corrupt store entry",
//    "attrs":{"path":"cache/ab/cd.result"}}
//
// The sink is stderr by default; `--log-out <file>` redirects it and
// `--log-level <off|error|warn|info|debug>` filters (default: info).
// A global token bucket bounds the line rate so a hot failure path
// cannot melt the sink — dropped lines are counted and surfaced as a
// "dropped" field on the next line that passes.
//
// Like every obs facility: observe-only (log lines never feed back into
// an artifact) and one relaxed level check on the fast path when the level
// is filtered.
#pragma once

#include <string>

#include "serve/json.hpp"

namespace obs {

enum class LogLevel : int {
  kOff = 0,
  kError = 1,
  kWarn = 2,
  kInfo = 3,
  kDebug = 4,
};

/// Parses "off" | "error" | "warn" | "info" | "debug"; throws
/// std::runtime_error on anything else.
LogLevel parse_log_level(const std::string& name);

/// The current threshold (default kInfo): lines above it are dropped
/// before any formatting happens.
LogLevel log_level();
void set_log_level(LogLevel level);

/// Redirects the sink to `path` (truncating; throws std::runtime_error
/// if it cannot be opened). Empty restores stderr.
void open_log(const std::string& path);
void close_log();

/// Reconfigures the token bucket: at most `capacity` lines in a burst,
/// refilled at `per_second` lines per second. Defaults: 128, 64.
void set_log_rate_limit(double capacity, double per_second);

/// Emits one line (subject to level and rate limit). `attrs` ride in an
/// "attrs" object; keep them small and identifying, like span attrs.
void log(LogLevel level, const char* component, const std::string& message,
         serve::JsonMembers attrs = {});

inline void log_error(const char* component, const std::string& message,
                      serve::JsonMembers attrs = {}) {
  log(LogLevel::kError, component, message, std::move(attrs));
}
inline void log_warn(const char* component, const std::string& message,
                     serve::JsonMembers attrs = {}) {
  log(LogLevel::kWarn, component, message, std::move(attrs));
}
inline void log_info(const char* component, const std::string& message,
                     serve::JsonMembers attrs = {}) {
  log(LogLevel::kInfo, component, message, std::move(attrs));
}
inline void log_debug(const char* component, const std::string& message,
                      serve::JsonMembers attrs = {}) {
  log(LogLevel::kDebug, component, message, std::move(attrs));
}

}  // namespace obs
