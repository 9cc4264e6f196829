// The flight recorder: a fixed-capacity, lock-free ring of the most
// recently completed spans.
//
// Always on while observability is enabled at runtime — no sink or flag
// required — so when a production query is slow the recent past is
// already captured and can be dumped after the fact (the `trace-dump`
// admin kind, SIGUSR1 on the server). Records are fixed-size POD so a
// writer never allocates; oversized attrs are dropped, never truncated
// into invalid JSON.
//
// Concurrency: writers claim slots with one global fetch_add ticket and
// publish through a per-slot seqlock (version counter: odd while a write
// is in progress, even when stable). Readers copy a slot and re-check the
// version, discarding torn copies. A writer that finds a slot mid-write
// (only possible after a full ring wrap during the other writer's copy)
// drops its record rather than block — the recorder is diagnostic, a
// lost record under pathological contention beats a lock on the span
// path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace obs {

/// One completed span, fixed-size. `attrs` holds the rendered JSON attrs
/// object ("{...}") or an empty string when the span had none (or they
/// did not fit).
struct FlightRecord {
  static constexpr std::size_t kNameBytes = 40;
  static constexpr std::size_t kAttrsBytes = 168;

  char name[kNameBytes] = {};
  char attrs[kAttrsBytes] = {};
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
  double start = 0.0;
  double dur = 0.0;
};

/// Ring capacity in records (compile-time constant, exposed for tests).
std::size_t flight_capacity();

/// Appends one record (wait-free; see the seqlock note above). Called by
/// Span::finish — instrumented code does not normally call this.
void flight_record(const FlightRecord& record);

/// A consistent copy of every stable record, oldest first (sorted by
/// start time, then span id). Skips slots that were mid-write.
std::vector<FlightRecord> flight_snapshot();

/// The snapshot as NDJSON, one span line per record — the same schema the
/// `--trace-out` sink writes.
std::string flight_dump_ndjson();

/// One span line (no trailing newline); shared by the dump and the sink.
std::string render_span_line(const FlightRecord& record);

/// Clears the ring (tests).
void flight_reset();

}  // namespace obs
