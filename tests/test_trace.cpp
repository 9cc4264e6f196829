// Tier-1 tests for the tracing layer: trace-context propagation across
// the thread pool, the flight-recorder ring, the trace-dump admin kind,
// and the structured logger. The invariance suites live in test_obs.cpp;
// this file pins the request-tree mechanics.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/algorithm1.hpp"
#include "obs/flight.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "selfish/build.hpp"
#include "support/parallel.hpp"

namespace {

TEST(TraceIds, FormatAndParseRoundTrip) {
  EXPECT_EQ(obs::format_trace_id(0xdeadbeefu), "00000000deadbeef");
  EXPECT_EQ(obs::format_trace_id(1), "0000000000000001");
  EXPECT_EQ(obs::parse_trace_id("00000000deadbeef"), 0xdeadbeefu);
  EXPECT_EQ(obs::parse_trace_id("DEADBEEF"), 0xdeadbeefu);  // case-blind
  EXPECT_EQ(obs::parse_trace_id("a"), 0xau);  // short forms accepted
  // Malformed or reserved inputs map to 0 (the "no id" sentinel).
  EXPECT_EQ(obs::parse_trace_id(""), 0u);
  EXPECT_EQ(obs::parse_trace_id("0"), 0u);
  EXPECT_EQ(obs::parse_trace_id("xyz"), 0u);
  EXPECT_EQ(obs::parse_trace_id("00000000deadbeef0"), 0u);  // 17 digits
  EXPECT_EQ(obs::parse_trace_id("dead beef"), 0u);
}

/// Restores the runtime obs switch on scope exit (same pattern as
/// test_obs.cpp).
class EnabledGuard {
 public:
  explicit EnabledGuard(bool on) : before_(obs::enabled()) {
    obs::set_enabled(on);
  }
  ~EnabledGuard() { obs::set_enabled(before_); }

 private:
  bool before_;
};

TEST(TraceContext, NestsOnOneThread) {
  const EnabledGuard on(true);
  EXPECT_EQ(obs::current_context().trace_id, 0u);
  obs::Span root("outer");
  EXPECT_NE(root.trace_id(), 0u);
  EXPECT_EQ(obs::current_context().trace_id, root.trace_id());
  EXPECT_EQ(obs::current_context().span_id, root.span_id());
  {
    obs::Span child("inner");
    // Same trace, new span, and the child is now the thread's context.
    EXPECT_EQ(child.trace_id(), root.trace_id());
    EXPECT_NE(child.span_id(), root.span_id());
    EXPECT_EQ(obs::current_context().span_id, child.span_id());
  }
  EXPECT_EQ(obs::current_context().span_id, root.span_id());
}

TEST(TraceContext, PropagatesAcrossThreadPool) {
  const EnabledGuard on(true);
  constexpr std::size_t kTasks = 64;
  std::vector<std::uint64_t> trace_ids(kTasks);
  std::vector<std::uint64_t> parent_ids(kTasks);

  support::ThreadPool pool(4);
  obs::Span root("request.root");
  // Every pool job must observe the submitting thread's context: same
  // trace, parented at the root span — one tree, not 64 orphans.
  support::parallel_for(pool, kTasks, [&](std::size_t i) {
    const obs::TraceContext inherited = obs::current_context();
    obs::Span child("request.child");
    trace_ids[i] = child.trace_id();
    parent_ids[i] = inherited.span_id;
  });
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(trace_ids[i], root.trace_id()) << "task " << i;
    EXPECT_EQ(parent_ids[i], root.span_id()) << "task " << i;
  }
}

TEST(FlightRing, WrapsKeepingTheNewestRecords) {
  const EnabledGuard on(true);
  obs::flight_reset();
  const std::size_t capacity = obs::flight_capacity();
  ASSERT_GT(capacity, 0u);

  // 2x capacity sequential writes: the ring must retain exactly the last
  // `capacity` of them, every record intact.
  for (std::size_t i = 0; i < 2 * capacity; ++i) {
    obs::FlightRecord record;
    std::snprintf(record.name, sizeof(record.name), "wrap-%zu", i);
    record.trace_id = 7;
    record.span_id = i + 1;
    record.start = static_cast<double>(i);
    record.dur = 1.0;
    obs::flight_record(record);
  }
  const std::vector<obs::FlightRecord> snapshot = obs::flight_snapshot();
  ASSERT_EQ(snapshot.size(), capacity);
  std::set<std::uint64_t> seen;
  for (const obs::FlightRecord& record : snapshot) {
    // span_id = i + 1, so the retained window is (capacity, 2*capacity].
    EXPECT_GT(record.span_id, capacity);
    EXPECT_LE(record.span_id, 2 * capacity);
    char expected[obs::FlightRecord::kNameBytes];
    std::snprintf(expected, sizeof(expected), "wrap-%llu",
                  static_cast<unsigned long long>(record.span_id - 1));
    EXPECT_STREQ(record.name, expected);
    seen.insert(record.span_id);
  }
  EXPECT_EQ(seen.size(), capacity);  // no duplicates, none lost
  obs::flight_reset();
}

TEST(FlightRing, NoTornRecordsUnderConcurrentWriters) {
  const EnabledGuard on(true);
  obs::flight_reset();
  const std::size_t capacity = obs::flight_capacity();
  constexpr std::size_t kWriters = 8;
  const std::size_t per_writer = capacity / 2;  // 4x capacity in total

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (std::size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([w, per_writer] {
      for (std::size_t i = 0; i < per_writer; ++i) {
        obs::FlightRecord record;
        std::snprintf(record.name, sizeof(record.name), "writer-%zu", w);
        record.trace_id = w + 1;
        // Writer tag in the high bits: a torn record (one writer's name,
        // another's ids) becomes detectable.
        record.span_id = (static_cast<std::uint64_t>(w + 1) << 32) | i;
        record.start = static_cast<double>(i);
        obs::flight_record(record);
      }
    });
  }
  for (std::thread& writer : writers) writer.join();

  const std::vector<obs::FlightRecord> snapshot = obs::flight_snapshot();
  // Drops are legal under write collisions but every slot must hold one
  // complete record once the writers are done.
  ASSERT_EQ(snapshot.size(), capacity);
  for (const obs::FlightRecord& record : snapshot) {
    const std::uint64_t writer = record.span_id >> 32;
    ASSERT_GE(writer, 1u);
    ASSERT_LE(writer, kWriters);
    EXPECT_EQ(record.trace_id, writer);
    char expected[obs::FlightRecord::kNameBytes];
    std::snprintf(expected, sizeof(expected), "writer-%llu",
                  static_cast<unsigned long long>(writer - 1));
    EXPECT_STREQ(record.name, expected);
    EXPECT_LT(record.span_id & 0xffffffffu, per_writer);
  }
  obs::flight_reset();
}

TEST(TraceDump, AnswersRequestRootedSpanTree) {
  const EnabledGuard on(true);
  obs::flight_reset();
  serve::Service service(serve::ServiceOptions{});

  // One real analysis request carrying a client trace id...
  const std::string reply_line = serve::handle_line(
      service,
      "{\"kind\":\"sweep\",\"pmax\":0.1,\"d\":1,\"f\":1,\"l\":2,"
      "\"trace_id\":\"deadbeef\"}");
  const serve::Json reply = serve::Json::parse(reply_line);
  ASSERT_TRUE(reply.find("ok")->as_bool())
      << reply.find("error")->as_string();
  // ...whose reply echoes the id in canonical 16-digit form.
  ASSERT_NE(reply.find("trace_id"), nullptr);
  EXPECT_EQ(reply.find("trace_id")->as_string(), "00000000deadbeef");

  // trace-dump then returns the recent spans as NDJSON in `body`.
  const serve::Json dump =
      serve::Json::parse(serve::handle_line(service, "{\"kind\":\"trace-dump\"}"));
  ASSERT_TRUE(dump.find("ok")->as_bool());
  const std::string body = dump.find("body")->as_string();

  struct Line {
    std::string span;
    std::string parent;  ///< empty for roots
  };
  std::map<std::string, Line> by_span_id;  // span_id -> line
  std::istringstream lines(body);
  for (std::string text; std::getline(lines, text);) {
    const serve::Json line = serve::Json::parse(text);
    if (line.find("trace_id") == nullptr ||
        line.find("trace_id")->as_string() != "00000000deadbeef") {
      continue;  // spans of other tests / the dump request itself
    }
    Line entry;
    entry.span = line.find("span")->as_string();
    if (const serve::Json* parent = line.find("parent_id")) {
      entry.parent = parent->as_string();
    }
    EXPECT_GE(line.find("dur")->as_number(), 0.0);
    by_span_id.emplace(line.find("span_id")->as_string(), entry);
  }

  // The request's whole tree shares the client trace id: transport root,
  // service execution, engine dispatch, and the solver sweeps.
  std::set<std::string> names;
  for (const auto& [id, entry] : by_span_id) names.insert(entry.span);
  for (const char* expected :
       {"serve.request", "serve.execute", "engine.generic", "engine.solve",
        "mdp.value_iteration"}) {
    EXPECT_TRUE(names.count(expected) == 1)
        << "missing span " << expected << " in:\n" << body;
  }

  // Every span must chain through parent_id links to the serve.request
  // root — one connected tree, not a bag of same-trace orphans.
  const auto root_of = [&](const std::string& span_id) {
    std::string at = span_id;
    for (int hops = 0; hops < 64; ++hops) {
      const auto found = by_span_id.find(at);
      if (found == by_span_id.end() || found->second.parent.empty()) {
        return at;
      }
      at = found->second.parent;
    }
    return at;
  };
  std::string root_id;
  for (const auto& [id, entry] : by_span_id) {
    if (entry.span == "serve.request") root_id = id;
  }
  ASSERT_FALSE(root_id.empty());
  for (const auto& [id, entry] : by_span_id) {
    EXPECT_EQ(root_of(id), root_id)
        << entry.span << " does not chain to serve.request";
  }
  obs::flight_reset();
}

/// The `analysis.step` spans of one analysis, in solve order, each parsed
/// back from its flight-recorder attrs.
std::vector<serve::Json> analysis_steps(const analysis::AnalysisOptions& options,
                                        analysis::AnalysisResult& result) {
  const auto model = selfish::build_model(
      selfish::AttackParams{.p = 0.3, .gamma = 0.5, .d = 2, .f = 1, .l = 4});
  obs::flight_reset();
  result = analysis::analyze(model, options);
  std::vector<obs::FlightRecord> records = obs::flight_snapshot();
  obs::flight_reset();
  std::sort(records.begin(), records.end(),
            [](const auto& a, const auto& b) { return a.start < b.start; });
  std::vector<serve::Json> steps;
  for (const obs::FlightRecord& record : records) {
    if (std::strcmp(record.name, "analysis.step") == 0) {
      steps.push_back(serve::Json::parse(record.attrs));
    }
  }
  return steps;
}

TEST(AnalysisSpans, OneStepSpanPerSolveTellsTheSearch) {
  const EnabledGuard on(true);
  // A loose tol makes the Newton steps near the root gain too little,
  // so the search must tighten before it can certify.
  for (const double tol : {1e-7, 1e-3}) {
    const bool must_tighten = tol > 1e-4;
    analysis::AnalysisOptions options;
    options.solver.mean_payoff.tol = tol;
    analysis::AnalysisResult result;
    const std::vector<serve::Json> steps = analysis_steps(options, result);
    const std::string where = "tol=" + std::to_string(tol);
    ASSERT_EQ(steps.size(), static_cast<std::size_t>(result.search_iterations))
        << where;
    std::set<std::string> seen;
    for (std::size_t i = 0; i < steps.size(); ++i) {
      for (const char* key : {"beta", "gain_lo", "gain_hi", "sweeps", "stop"}) {
        ASSERT_NE(steps[i].find(key), nullptr) << where << " step " << i;
      }
      const std::string decision = steps[i].find("decision")->as_string();
      const std::string stop = steps[i].find("stop")->as_string();
      seen.insert(decision);
      // A tighten follows a step that only the width stop ended: a Newton
      // stop's strategy always lands past b.
      if (decision == "tighten") EXPECT_EQ(stop, "width") << where;
      if (i + 1 == steps.size()) {
        EXPECT_EQ(decision, "certify") << where;
        EXPECT_EQ(steps[i].find("beta")->as_number(), result.beta_hi);
        if (!must_tighten) EXPECT_EQ(stop, "sign") << where;
      } else {
        EXPECT_TRUE(decision == "newton" || decision == "tighten")
            << where << " step " << i << ": " << decision;
      }
    }
    EXPECT_EQ(seen.count("tighten"), must_tighten ? 1u : 0u) << where;
  }
}

TEST(Log, LinesAreNdjsonAndRateLimited) {
  const EnabledGuard on(true);
  const std::string path =
      (std::filesystem::temp_directory_path() / "test_trace_log.ndjson")
          .string();
  std::filesystem::remove(path);
  obs::open_log(path);
  // Bucket of 2 with no refill: of 5 lines, 2 pass and 3 drop; after a
  // reset the next line reports the drop count.
  obs::set_log_rate_limit(2.0, 0.0);
  for (int i = 0; i < 5; ++i) {
    obs::log_info("test", "burst", {{"i", serve::Json(double(i))}});
  }
  obs::set_log_rate_limit(10.0, 0.0);
  {
    obs::Span span("log.scope");
    obs::log_warn("test", "after-burst");
    // The thread's current trace context rides on every line.
    obs::close_log();
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::vector<serve::Json> lines;
    for (std::string text; std::getline(in, text);) {
      lines.push_back(serve::Json::parse(text));  // throws if not JSON
    }
    ASSERT_EQ(lines.size(), 3u);
    for (const serve::Json& line : lines) {
      EXPECT_NE(line.find("ts"), nullptr);
      EXPECT_EQ(line.find("component")->as_string(), "test");
    }
    EXPECT_EQ(lines[0].find("level")->as_string(), "info");
    EXPECT_EQ(lines[0].find("msg")->as_string(), "burst");
    EXPECT_EQ(lines[1].find("attrs")->find("i")->as_number(), 1.0);
    const serve::Json& after = lines[2];
    EXPECT_EQ(after.find("level")->as_string(), "warn");
    EXPECT_EQ(after.find("dropped")->as_number(), 3.0);
    EXPECT_EQ(after.find("trace_id")->as_string(),
              obs::format_trace_id(span.trace_id()));
  }
  // Restore defaults for any later test in this process.
  obs::set_log_rate_limit(128.0, 64.0);
  std::filesystem::remove(path);
}

TEST(Log, LevelFilterDropsBelowThreshold) {
  const EnabledGuard on(true);
  const std::string path =
      (std::filesystem::temp_directory_path() / "test_trace_level.ndjson")
          .string();
  std::filesystem::remove(path);
  obs::open_log(path);
  const obs::LogLevel before = obs::log_level();
  obs::set_log_level(obs::LogLevel::kWarn);
  obs::log_debug("test", "invisible");
  obs::log_info("test", "invisible");
  obs::log_error("test", "visible");
  obs::set_log_level(before);
  obs::close_log();

  std::ifstream in(path);
  std::string text;
  std::vector<std::string> lines;
  while (std::getline(in, text)) lines.push_back(text);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"visible\""), std::string::npos);
  std::filesystem::remove(path);
}

TEST(Log, ParseLevelAcceptsTheDocumentedNames) {
  EXPECT_EQ(obs::parse_log_level("off"), obs::LogLevel::kOff);
  EXPECT_EQ(obs::parse_log_level("debug"), obs::LogLevel::kDebug);
  EXPECT_THROW(obs::parse_log_level("verbose"), std::runtime_error);
}

}  // namespace
