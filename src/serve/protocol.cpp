#include "serve/protocol.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <utility>
#include <vector>

#include "engine/kinds.hpp"
#include "fleet/auth.hpp"
#include "mdp/solve.hpp"
#include "net/network.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/timer.hpp"

namespace serve {

namespace {

/// Per-kind request latency histogram. Handles for every kind the
/// protocol knows are resolved once (the registry lock is taken only
/// here, at first use); unknown/malformed requests land in kind="other".
obs::Histogram& request_latency(const std::string& kind) {
  static const std::map<std::string, obs::Histogram*> histograms = [] {
    std::map<std::string, obs::Histogram*> handles;
    for (const char* known :
         {"point", "sweep", "threshold", "upper-bound", "net-batch", "ping",
          "stats", "metrics", "trace-dump", "shutdown", "other"}) {
      handles.emplace(
          known, &obs::histogram(
                     "selfish_serve_request_seconds",
                     "End-to-end request latency (parse through render)",
                     obs::exponential_buckets(1e-5, 4.0, 14),
                     std::string("kind=\"") + known + "\""));
    }
    return handles;
  }();
  const auto it = histograms.find(kind);
  return it == histograms.end() ? *histograms.at("other") : *it->second;
}

[[maybe_unused]] obs::Histogram& g_registered_request_latency =
    request_latency("point");

/// Worst-N latency exemplars per request kind: the N slowest requests
/// seen, each with the trace id that identifies its span tree in a
/// `trace-dump`. A slow p99 in the latency histogram thus comes with a
/// concrete trace to pull. Small and mutex-guarded: one record per
/// request, snapshots only on `stats`.
struct Exemplar {
  double seconds = 0.0;
  std::uint64_t trace_id = 0;
};

class ExemplarTable {
 public:
  static constexpr std::size_t kWorstN = 4;

  void record(const std::string& kind, double seconds,
              std::uint64_t trace_id) {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Exemplar>& worst = worst_[kind];
    worst.push_back(Exemplar{seconds, trace_id});
    std::sort(worst.begin(), worst.end(),
              [](const Exemplar& a, const Exemplar& b) {
                return a.seconds > b.seconds;
              });
    if (worst.size() > kWorstN) worst.resize(kWorstN);
  }

  std::map<std::string, std::vector<Exemplar>> snapshot() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return worst_;
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::vector<Exemplar>> worst_;
};

ExemplarTable& exemplars() {
  static ExemplarTable table;
  return table;
}

/// Typed, default-aware field access over a request object. Every field a
/// kind understands is read exactly once; finish() rejects leftovers so
/// typos surface as errors instead of silently applying defaults (the
/// same contract support::Options enforces for CLI flags).
class FieldReader {
 public:
  explicit FieldReader(const Json& object) : object_(object) {
    consumed_.insert("id");
    consumed_.insert("kind");
    consumed_.insert("v");         // parsed by parse_request_object
    consumed_.insert("trace_id");  // parsed by parse_request_object
  }

  double number(const std::string& name, double fallback) {
    const Json* value = take(name);
    return value == nullptr ? fallback : value->as_number();
  }

  int integer(const std::string& name, int fallback) {
    const Json* value = take(name);
    if (value == nullptr) return fallback;
    const double raw = value->as_number();
    if (raw != std::floor(raw) || raw < -2147483648.0 || raw > 2147483647.0) {
      throw ProtocolError("field \"" + name + "\" must be an integer");
    }
    return static_cast<int>(raw);
  }

  std::uint64_t unsigned64(const std::string& name, std::uint64_t fallback) {
    const Json* value = take(name);
    if (value == nullptr) return fallback;
    const double raw = value->as_number();
    if (raw != std::floor(raw) || raw < 0.0 || raw > 9.007199254740992e15) {
      throw ProtocolError("field \"" + name +
                          "\" must be a non-negative integer");
    }
    return static_cast<std::uint64_t>(raw);
  }

  bool boolean(const std::string& name, bool fallback) {
    const Json* value = take(name);
    return value == nullptr ? fallback : value->as_bool();
  }

  std::string string(const std::string& name, const std::string& fallback) {
    const Json* value = take(name);
    return value == nullptr ? fallback : value->as_string();
  }

  /// Rejects fields no reader consumed.
  void finish() const {
    for (const auto& [name, value] : object_.as_object()) {
      if (consumed_.count(name) == 0) {
        throw ProtocolError("unknown field \"" + name + "\"");
      }
    }
  }

 private:
  const Json* take(const std::string& name) {
    consumed_.insert(name);
    return object_.find(name);
  }

  const Json& object_;
  std::set<std::string> consumed_;
};

/// The shared model/solver fields, with the CLI subcommands' defaults.
/// These fallbacks MUST equal the declare() defaults in
/// tools/selfish_mining_cli.cpp — that equality is what makes an empty
/// query byte-identical to the default subcommand invocation
/// (test_serve's DefaultsMatchTheCliSubcommands pins this side).
selfish::AttackParams params_from(FieldReader& fields) {
  selfish::AttackParams params;
  params.p = fields.number("p", 0.3);
  params.gamma = fields.number("gamma", 0.5);
  params.d = fields.integer("d", 2);
  params.f = fields.integer("f", 1);
  params.l = fields.integer("l", 4);
  params.burn_lost_races = fields.boolean("burn-lost-races", false);
  return params;
}

analysis::AnalysisOptions analysis_from(FieldReader& fields) {
  analysis::AnalysisOptions options;
  options.epsilon = fields.number("epsilon", 1e-3);
  options.solver.method =
      mdp::parse_solver_method(fields.string("solver", "vi"));
  return options;
}

engine::GenericJob build_job(const std::string& kind, const Json& object) {
  FieldReader fields(object);
  engine::GenericJob job;
  if (kind == "point") {
    engine::PointQuery query;
    query.params = params_from(fields);
    query.analysis = analysis_from(fields);
    query.stats = fields.boolean("stats", true);
    fields.finish();
    job = engine::make_point_job(query);
  } else if (kind == "sweep") {
    engine::SweepQuery query;
    query.base = params_from(fields);
    query.analysis = analysis_from(fields);
    query.p_min = fields.number("pmin", 0.0);
    query.p_max = fields.number("pmax", 0.3);
    query.step = fields.number("step", 0.05);
    fields.finish();
    job = engine::make_sweep_job(query);
  } else if (kind == "threshold") {
    engine::ThresholdQuery query;
    query.base = params_from(fields);
    query.options.analysis = analysis_from(fields);
    query.options.unfairness_margin = fields.number("margin", 0.005);
    query.options.p_tolerance = fields.number("ptol", 0.005);
    fields.finish();
    job = engine::make_threshold_job(query);
  } else if (kind == "upper-bound") {
    engine::UpperBoundQuery query;
    query.base = params_from(fields);
    query.options.analysis = analysis_from(fields);
    query.options.l_min = fields.integer("lmin", 2);
    query.options.l_max = fields.integer("lmax", 5);
    fields.finish();
    job = engine::make_upper_bound_job(query);
  } else if (kind == "net-batch") {
    engine::NetBatchQuery query;
    query.scenario = fields.string("scenario", "single-optimal");
    query.options.p = fields.number("p", 0.3);
    query.options.gamma = fields.number("gamma", 0.5);
    query.options.delay = fields.number("delay", 0.0);
    query.options.block_interval = fields.number("interval", 600.0);
    query.options.blocks = fields.unsigned64("blocks", 100000);
    query.options.honest_miners = fields.integer("honest", 3);
    query.options.d = fields.integer("d", 2);
    query.options.f = fields.integer("f", 1);
    query.options.l = fields.integer("l", 4);
    query.options.strategy = fields.string("strategy", "optimal");
    query.options.propagation = net::propagation_from_string(
        fields.string("propagation", "direct"));
    query.options.partition_start = fields.number("partition-start", 0.25);
    query.options.partition_stop = fields.number("partition-stop", 0.45);
    query.options.partition_fraction =
        fields.number("partition-frac", 0.5);
    query.options.asymmetry = fields.number("asymmetry", 4.0);
    query.runs = fields.integer("runs", 8);
    query.seed = fields.unsigned64("seed", 24141);
    query.epsilon = fields.number("epsilon", 1e-3);
    fields.finish();
    job = engine::make_net_batch_job(query);
  } else {
    throw ProtocolError(
        "unknown kind \"" + kind +
        "\" (expected point | sweep | threshold | upper-bound | "
        "net-batch | ping | stats | metrics | trace-dump | shutdown)");
  }
  return job;
}

/// Prefixes the echoed id when the client sent one, the protocol version
/// (every reply is versioned — clients gate on it before trusting the
/// rest of the envelope), and the trace id when the request has one
/// (client-supplied or server-minted).
JsonMembers reply_head(const Json& id, bool ok,
                       const std::string& trace_id = "") {
  JsonMembers members;
  if (!id.is_null()) members.emplace_back("id", id);
  members.emplace_back("ok", Json(ok));
  members.emplace_back(
      "v", Json(static_cast<double>(kProtocolVersion)));
  if (!trace_id.empty()) members.emplace_back("trace_id", Json(trace_id));
  return members;
}

std::string finish_reply(JsonMembers members) {
  return Json::object(std::move(members)).dump() + "\n";
}

/// The observability switch position, advertised by `ping` so a client
/// knows whether metrics/trace admin kinds will carry real data.
const char* obs_mode() {
  return obs::enabled() ? "on" : "runtime-off";
}

/// `ping` is the protocol v1 capability handshake: protocol version, the
/// job kinds this server executes (from its registry) plus the admin
/// kinds, the transport limits in force, and the obs mode.
std::string render_ping(const Json& id, const Service& service,
                        const Wire& wire, const std::string& trace_id) {
  JsonMembers members = reply_head(id, true, trace_id);
  members.emplace_back("kind", Json("ping"));
  members.emplace_back(
      "protocol", Json(static_cast<double>(kProtocolVersion)));
  std::vector<Json> kinds;
  for (const std::string& kind : service.registry().kinds()) {
    kinds.emplace_back(kind);
  }
  for (const char* kind :
       {"ping", "stats", "metrics", "trace-dump", "shutdown"}) {
    kinds.emplace_back(std::string(kind));
  }
  members.emplace_back("kinds", Json::array(std::move(kinds)));
  JsonMembers limits;
  limits.emplace_back(
      "max_line_bytes",
      Json(static_cast<double>(wire.limits.max_line_bytes)));
  limits.emplace_back("max_inflight",
                      Json(static_cast<double>(wire.limits.max_inflight)));
  limits.emplace_back(
      "max_inflight_per_connection",
      Json(static_cast<double>(wire.limits.max_inflight_per_connection)));
  limits.emplace_back("idle_timeout_seconds",
                      Json(wire.limits.idle_timeout_seconds));
  members.emplace_back("limits", Json::object(std::move(limits)));
  members.emplace_back("obs", Json(obs_mode()));
  // Secured servers advertise the auth state and this connection's
  // challenge — the client hashes the secret over `challenge` and pings
  // again with the result in `auth`. Open servers omit both members, so
  // existing clients and pinned ping-shape tests see unchanged replies.
  if (!wire.auth_secret.empty() && wire.auth != nullptr) {
    const bool authed =
        wire.auth->authenticated.load(std::memory_order_acquire);
    members.emplace_back("auth", Json(authed ? "ok" : "required"));
    members.emplace_back("challenge", Json(wire.auth->challenge));
  }
  return finish_reply(std::move(members));
}

std::string render_stats(const Json& id, const ServiceStats& stats,
                         const Wire& wire, const std::string& trace_id) {
  JsonMembers members = reply_head(id, true, trace_id);
  members.emplace_back("kind", Json("stats"));
  members.emplace_back("requests",
                       Json(static_cast<double>(stats.requests)));
  members.emplace_back("lru_hits",
                       Json(static_cast<double>(stats.lru_hits)));
  members.emplace_back("store_hits",
                       Json(static_cast<double>(stats.store_hits)));
  members.emplace_back("solves", Json(static_cast<double>(stats.solves)));
  members.emplace_back("coalesced",
                       Json(static_cast<double>(stats.coalesced)));
  members.emplace_back("errors", Json(static_cast<double>(stats.errors)));
  members.emplace_back("rejected",
                       Json(static_cast<double>(stats.rejected)));
  members.emplace_back("lru_evictions",
                       Json(static_cast<double>(stats.lru_evictions)));
  members.emplace_back("lru_bytes",
                       Json(static_cast<double>(stats.lru_bytes)));
  members.emplace_back("lru_entries",
                       Json(static_cast<double>(stats.lru_entries)));
  // Cross-process single-flight counters: summing `executions` across all
  // replicas sharing one cache dir must equal the number of distinct cold
  // keys — the fleet-smoke CI job asserts exactly that.
  JsonMembers fleet;
  fleet.emplace_back("executions",
                     Json(static_cast<double>(stats.fleet_executions)));
  fleet.emplace_back("waits", Json(static_cast<double>(stats.fleet_waits)));
  fleet.emplace_back("takeovers",
                     Json(static_cast<double>(stats.fleet_takeovers)));
  members.emplace_back("fleet", Json::object(std::move(fleet)));
  // Millisecond resolution keeps the canonical-double rendering short.
  members.emplace_back(
      "uptime_seconds",
      Json(std::round(stats.uptime_seconds * 1e3) / 1e3));
  JsonMembers kind_counts;
  kind_counts.reserve(stats.kinds.size());
  for (const auto& [kind, count] : stats.kinds) {
    kind_counts.emplace_back(kind, Json(static_cast<double>(count)));
  }
  members.emplace_back("kinds", Json::object(std::move(kind_counts)));
  // Worst-N latency exemplars per kind: each entry names a trace id a
  // `trace-dump` (or the trace sink) can resolve into a full span tree.
  JsonMembers exemplar_members;
  for (const auto& [kind, worst] : exemplars().snapshot()) {
    std::vector<Json> items;
    items.reserve(worst.size());
    for (const Exemplar& exemplar : worst) {
      JsonMembers fields;
      fields.emplace_back("seconds", Json(exemplar.seconds));
      fields.emplace_back(
          "trace_id", Json(obs::format_trace_id(exemplar.trace_id)));
      items.emplace_back(Json::object(std::move(fields)));
    }
    exemplar_members.emplace_back(kind, Json::array(std::move(items)));
  }
  members.emplace_back("exemplars",
                       Json::object(std::move(exemplar_members)));
  // Transport counters (reactor-side: connection and backpressure view),
  // present only when a transport is attached — the transport-free test
  // path has nothing meaningful to report here.
  if (wire.stats != nullptr) {
    const auto count = [](const std::atomic<std::uint64_t>& value) {
      return Json(
          static_cast<double>(value.load(std::memory_order_relaxed)));
    };
    const auto level = [](const std::atomic<std::int64_t>& value) {
      return Json(
          static_cast<double>(value.load(std::memory_order_relaxed)));
    };
    JsonMembers transport;
    transport.emplace_back("connections", level(wire.stats->connections));
    transport.emplace_back("accepted", count(wire.stats->accepted));
    transport.emplace_back("inflight", level(wire.stats->inflight));
    transport.emplace_back("busy", count(wire.stats->busy));
    transport.emplace_back("idle_closed", count(wire.stats->idle_closed));
    members.emplace_back("transport", Json::object(std::move(transport)));
  }
  return finish_reply(std::move(members));
}

/// `metrics` reply: the Prometheus text exposition rides in `body`, same
/// splice technique as render_result (the scrape can be tens of KB).
std::string render_metrics(const Json& id, const std::string& trace_id) {
  JsonMembers members = reply_head(id, true, trace_id);
  members.emplace_back("kind", Json("metrics"));
  std::string reply = Json::object(std::move(members)).dump();
  reply.pop_back();  // reopen the object: drop '}'
  reply += ",\"body\":";
  reply += json_quote(obs::prometheus_text());
  reply += "}\n";
  return reply;
}

/// `trace-dump` reply: the flight recorder's recent spans as NDJSON in
/// `body` (same splice; a full ring is ~1 MB of lines).
std::string render_trace_dump(const Json& id, const std::string& trace_id) {
  JsonMembers members = reply_head(id, true, trace_id);
  members.emplace_back("kind", Json("trace-dump"));
  std::string reply = Json::object(std::move(members)).dump();
  reply.pop_back();  // reopen the object: drop '}'
  reply += ",\"body\":";
  reply += json_quote(obs::flight_dump_ndjson());
  reply += "}\n";
  return reply;
}

/// Parses the optional client `trace_id` field: 1-16 hex digits, nonzero.
std::uint64_t trace_id_from(const Json& object) {
  const Json* field = object.find("trace_id");
  if (field == nullptr) return 0;
  const std::uint64_t value =
      field->type() == Json::Type::kString
          ? obs::parse_trace_id(field->as_string())
          : 0;
  if (value == 0) {
    throw ProtocolError(
        "field \"trace_id\" must be a string of 1-16 hex digits (nonzero)");
  }
  return value;
}

/// Parses the protocol version field: absent means v1 (pre-versioned
/// clients keep working), any other value than the supported revision is
/// a named `unsupported_version` rejection so old servers fail loudly in
/// front of newer clients instead of misinterpreting their requests.
void check_version(const Json& object) {
  const Json* field = object.find("v");
  if (field == nullptr) return;  // implicit v1
  const double raw = field->type() == Json::Type::kNumber
                         ? field->as_number()
                         : -1.0;
  if (raw != static_cast<double>(kProtocolVersion)) {
    throw ProtocolError(
        "unsupported protocol version (this server speaks v" +
            std::to_string(kProtocolVersion) + ")",
        "unsupported_version");
  }
}

/// Parses an already-decoded request object.
Request parse_request_object(const Json& object) {
  if (!object.is_object()) {
    throw ProtocolError("request must be a JSON object");
  }
  check_version(object);
  Request request;
  if (const Json* id = object.find("id")) request.id = *id;
  const Json* kind = object.find("kind");
  if (kind == nullptr) throw ProtocolError("missing \"kind\"");
  request.kind = kind->as_string();
  request.trace_id = trace_id_from(object);
  if (request.kind == "ping" || request.kind == "stats" ||
      request.kind == "metrics" || request.kind == "trace-dump" ||
      request.kind == "shutdown") {
    request.admin = true;
    FieldReader fields(object);
    if (request.kind == "ping") {
      // The challenge answer rides on ping (and only ping): the
      // handshake must work before authentication, and ping is the one
      // kind an unauthenticated client may send.
      request.auth = fields.string("auth", "");
    }
    fields.finish();  // admin requests take no other options
    return request;
  }
  request.job = build_job(request.kind, object);
  return request;
}

}  // namespace

Request parse_request(const std::string& line) {
  return parse_request_object(Json::parse(line));
}

FirstLine sniff_first_line(std::string_view buffer) {
  // Decide as early as possible, but never on a proper prefix of "GET ":
  // with a nonblocking transport a lone 'G' is routinely all that has
  // arrived of "GET /metrics HTTP/1.1", and equally all that has arrived
  // of nothing JSON (every request object starts with '{'), so the call
  // answers kNeedMore until the prefix diverges or completes.
  constexpr std::string_view kGet = "GET ";
  const std::size_t have = std::min(buffer.size(), kGet.size());
  if (buffer.compare(0, have, kGet, 0, have) != 0) return FirstLine::kNdjson;
  return buffer.size() >= kGet.size() ? FirstLine::kHttpGet
                                      : FirstLine::kNeedMore;
}

std::string render_result(const Json& id, const std::string& kind,
                          const QueryOutcome& outcome,
                          const std::string& trace_id) {
  JsonMembers members = reply_head(id, true, trace_id);
  members.emplace_back("kind", Json(kind));
  members.emplace_back("cached", Json(outcome.cached));
  members.emplace_back("source", Json(to_string(outcome.source)));
  members.emplace_back("seconds", Json(outcome.seconds));
  // The body is spliced in behind the metadata so the (possibly multi-
  // megabyte, shared) artifact is escaped straight into the reply instead
  // of passing through an intermediate Json string copy.
  std::string reply = Json::object(std::move(members)).dump();
  reply.pop_back();  // reopen the object: drop '}'
  reply += ",\"body\":";
  static const std::string kEmptyBody;
  reply += json_quote(outcome.payload == nullptr ? kEmptyBody
                                                 : *outcome.payload);
  reply += "}\n";
  return reply;
}

std::string render_error(const Json& id, const std::string& message,
                         const std::string& trace_id,
                         const std::string& code) {
  JsonMembers members = reply_head(id, false, trace_id);
  members.emplace_back("error", Json(message));
  if (!code.empty()) members.emplace_back("code", Json(code));
  return finish_reply(std::move(members));
}

std::string render_busy(const std::string& line, const std::string& scope) {
  // Best-effort id echo: the refused line has not been validated (the
  // whole point of refusing early is to spend nothing on it), so the id
  // is recovered only when the line happens to parse.
  Json id;
  try {
    const Json object = Json::parse(line);
    if (object.is_object()) {
      if (const Json* sent = object.find("id")) id = *sent;
    }
  } catch (const std::exception&) {
  }
  return render_error(id, "busy: " + scope + " in-flight limit reached",
                      "", "busy");
}

HandledLine handle_request(Service& service, const std::string& line,
                           const Wire& wire) {
  HandledLine handled;
  Json id;
  Request request;
  // End-to-end latency (parse through render) per kind; requests that die
  // in parsing are attributed to "other". Observe-only: the sink fires on
  // every return path below and never touches the reply. The exemplar
  // entry records which trace id a slow request belonged to.
  std::string latency_kind = "other";
  std::uint64_t exemplar_trace = 0;
  const support::ScopedTimer latency(
      [&latency_kind, &exemplar_trace](double seconds) {
        if (!obs::enabled()) return;
        request_latency(latency_kind).observe(seconds);
        exemplars().record(latency_kind, seconds, exemplar_trace);
      });
  try {
    const Json object = Json::parse(line);
    // Echo the id even when validation below rejects the request.
    if (object.is_object()) {
      if (const Json* sent = object.find("id")) id = *sent;
    }
    request = parse_request_object(object);
    latency_kind = request.kind;
  } catch (const ProtocolError& e) {
    service.note_rejected();
    handled.reply = render_error(id, e.what(), "", e.code());
    return handled;
  } catch (const std::exception& e) {
    // Rejected before reaching the service — count it there anyway, or
    // the operator-facing stats would show zero errors under a stream of
    // malformed/abusive requests.
    service.note_rejected();
    handled.reply = render_error(id, e.what());
    return handled;
  }

  // The request's root span: adopts the client's trace id when one was
  // sent, otherwise mints a fresh trace (obs on). Everything the request
  // triggers — service dispatch, engine chains, kernel sweeps — nests
  // under it via the thread-local context and the pool propagation.
  obs::Span span("serve.request", request.trace_id);
  span.attr("kind", Json(request.kind));
  exemplar_trace =
      request.trace_id != 0 ? request.trace_id : span.trace_id();
  // Replies echo only a *client-supplied* trace id: server-minted ids
  // would make otherwise-identical replies differ run to run (they stay
  // discoverable through `trace-dump` and the stats exemplars).
  const std::string trace_echo =
      request.trace_id != 0 ? obs::format_trace_id(request.trace_id) : "";

  // Authentication gate (secured servers only). A ping carrying an
  // `auth` answer is the handshake's second leg: verify it against this
  // connection's challenge in constant time. Every other kind requires
  // the connection to have authenticated already; ping without `auth`
  // stays open so clients can fetch the challenge and capabilities.
  const bool secured = !wire.auth_secret.empty() && wire.auth != nullptr;
  if (secured && request.kind == "ping" && !request.auth.empty()) {
    const std::string expected =
        fleet::hmac_sha256_hex(wire.auth_secret, wire.auth->challenge);
    if (fleet::equals_constant_time(request.auth, expected)) {
      wire.auth->authenticated.store(true, std::memory_order_release);
    } else {
      service.note_rejected();
      handled.reply = render_error(
          id, "auth failed: challenge response does not verify",
          trace_echo, "auth_failed");
      return handled;
    }
  }
  if (secured && request.kind != "ping" &&
      !wire.auth->authenticated.load(std::memory_order_acquire)) {
    service.note_rejected();
    handled.reply = render_error(
        id,
        "authentication required: answer the ping challenge with "
        "auth=HMAC-SHA256(secret, challenge) first",
        trace_echo, "auth_required");
    return handled;
  }

  try {
    if (request.admin) {
      service.note_admin(request.kind);
      if (request.kind == "ping") {
        handled.reply = render_ping(id, service, wire, trace_echo);
        return handled;
      }
      if (request.kind == "stats") {
        handled.reply = render_stats(id, service.stats(), wire, trace_echo);
        return handled;
      }
      if (request.kind == "metrics") {
        handled.reply = render_metrics(id, trace_echo);
        return handled;
      }
      if (request.kind == "trace-dump") {
        handled.reply = render_trace_dump(id, trace_echo);
        return handled;
      }
      handled.shutdown = request.kind == "shutdown";
      JsonMembers members = reply_head(id, true, trace_echo);
      members.emplace_back("kind", Json(request.kind));
      handled.reply = finish_reply(std::move(members));
      return handled;
    }
    // execute() counts these requests and failures itself.
    const QueryOutcome outcome = service.execute(request.job);
    handled.reply = render_result(id, request.kind, outcome, trace_echo);
  } catch (const std::exception& e) {
    handled.reply = render_error(id, e.what(), trace_echo);
  }
  return handled;
}

std::string handle_line(Service& service, const std::string& line) {
  return handle_request(service, line).reply;
}

}  // namespace serve
