// Observability layer: registry correctness under concurrency, histogram
// and exposition golden cases, and the byte-invariance contract — the
// same artifacts whether obs is on or off at runtime.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/algorithm1.hpp"
#include "analysis/sweep.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "selfish/build.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "support/parallel.hpp"

namespace {

/// Restores the runtime obs switch on scope exit, so a test that flips it
/// cannot leak a disabled registry into later tests.
class EnabledGuard {
 public:
  explicit EnabledGuard(bool on) : before_(obs::enabled()) {
    obs::set_enabled(on);
  }
  ~EnabledGuard() { obs::set_enabled(before_); }

 private:
  bool before_;
};

selfish::AttackParams tiny_params() {
  return selfish::AttackParams{.p = 0.25, .gamma = 0.5, .d = 1, .f = 1,
                               .l = 2};
}

TEST(ObsCounter, NoLostIncrementsUnderThreadPool) {
  const EnabledGuard on(true);
  obs::Counter counter;
  constexpr int kTasks = 64;
  constexpr int kIncrementsPerTask = 5000;
  support::ThreadPool pool(4);
  // Every index hammers the same counter from the pool's workers.
  // Sharding must not drop a single increment.
  support::parallel_for(pool, kTasks, [&](std::size_t) {
    for (int i = 0; i < kIncrementsPerTask; ++i) counter.add(1);
  });
  EXPECT_EQ(counter.value(),
            static_cast<std::uint64_t>(kTasks) * kIncrementsPerTask);
}

TEST(ObsGauge, SetAddAndHighWaterMark) {
  const EnabledGuard on(true);
  obs::Gauge gauge;
  gauge.set(7);
  EXPECT_EQ(gauge.value(), 7);
  gauge.add(-3);
  EXPECT_EQ(gauge.value(), 4);
  gauge.max_of(10);
  EXPECT_EQ(gauge.value(), 10);
  gauge.max_of(2);  // lower: no effect
  EXPECT_EQ(gauge.value(), 10);
}

TEST(ObsHistogram, GoldenBucketsAndQuantiles) {
  const EnabledGuard on(true);
  obs::Histogram histogram({1.0, 2.0, 4.0});
  for (const double v : {0.5, 1.5, 3.0, 10.0}) histogram.observe(v);

  const obs::HistogramSnapshot snap = histogram.snapshot();
  ASSERT_EQ(snap.bounds, (std::vector<double>{1.0, 2.0, 4.0}));
  ASSERT_EQ(snap.counts, (std::vector<std::uint64_t>{1, 1, 1, 1}));
  EXPECT_EQ(snap.count, 4u);
  EXPECT_DOUBLE_EQ(snap.sum, 15.0);

  // rank = q * count; linear interpolation inside the containing bucket
  // (lower edge 0 for the first); the overflow bucket clamps to the last
  // finite bound.
  EXPECT_DOUBLE_EQ(snap.quantile(0.125), 0.5);  // rank 0.5, bucket (0,1]
  EXPECT_DOUBLE_EQ(snap.quantile(0.25), 1.0);   // rank 1, top of (0,1]
  EXPECT_DOUBLE_EQ(snap.quantile(0.5), 2.0);    // rank 2, top of (1,2]
  EXPECT_DOUBLE_EQ(snap.quantile(1.0), 4.0);    // rank 4, +Inf clamps
  // An empty histogram has no answerable quantile: NaN, so callers can
  // distinguish "no data" from a real 0-valued observation.
  EXPECT_TRUE(std::isnan(obs::HistogramSnapshot{}.quantile(0.5)));
  EXPECT_TRUE(std::isnan(obs::HistogramSnapshot{}.quantile(1.0)));
}

TEST(ObsHistogram, SortsAndDeduplicatesBounds) {
  const EnabledGuard on(true);
  obs::Histogram histogram({4.0, 1.0, 2.0, 2.0});
  histogram.observe(1.5);
  const obs::HistogramSnapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.bounds, (std::vector<double>{1.0, 2.0, 4.0}));
  EXPECT_EQ(snap.counts, (std::vector<std::uint64_t>{0, 1, 0, 0}));
}

TEST(ObsRegistry, ExpositionFormatGolden) {
  const EnabledGuard on(true);
  // A private registry: the golden string must not depend on whatever the
  // instrumented subsystems registered in the process-global one.
  obs::Registry registry;
  registry.counter("test_jobs_total", "Jobs").add(3);
  registry.gauge("test_depth", "Current depth").set(-2);
  obs::Histogram& latency = registry.histogram(
      "test_seconds", "Latency", {0.5, 2.0}, "kind=\"a\"");
  latency.observe(0.1);
  latency.observe(3.0);

  // Families sorted by name, # HELP/# TYPE headers, cumulative buckets.
  EXPECT_EQ(registry.expose(),
            "# HELP test_depth Current depth\n"
            "# TYPE test_depth gauge\n"
            "test_depth -2\n"
            "# HELP test_jobs_total Jobs\n"
            "# TYPE test_jobs_total counter\n"
            "test_jobs_total 3\n"
            "# HELP test_seconds Latency\n"
            "# TYPE test_seconds histogram\n"
            "test_seconds_bucket{kind=\"a\",le=\"0.5\"} 1\n"
            "test_seconds_bucket{kind=\"a\",le=\"2\"} 1\n"
            "test_seconds_bucket{kind=\"a\",le=\"+Inf\"} 2\n"
            "test_seconds_sum{kind=\"a\"} 3.1\n"
            "test_seconds_count{kind=\"a\"} 2\n");
}

TEST(ObsRegistry, HandlesAreIdempotentAndTypeConflictsThrow) {
  const EnabledGuard on(true);
  obs::Registry registry;
  obs::Counter& first = registry.counter("test_total", "help");
  obs::Counter& second = registry.counter("test_total", "help");
  EXPECT_EQ(&first, &second);
  // Same name, different labels: a distinct series of the same family.
  obs::Counter& labeled =
      registry.counter("test_total", "help", "kind=\"x\"");
  EXPECT_NE(&first, &labeled);
  EXPECT_THROW(registry.gauge("test_total", "help"), std::runtime_error);
  EXPECT_THROW(registry.histogram("test_total", "help", {1.0}),
               std::runtime_error);
}

TEST(ObsRegistry, RuntimeSwitchGatesUpdates) {
  const EnabledGuard off(false);
  obs::Counter counter;
  counter.add(5);
  EXPECT_EQ(counter.value(), 0u);
  obs::set_enabled(true);
  counter.add(5);
  EXPECT_EQ(counter.value(), 5u);
}

TEST(ObsTrace, SpansSerializeToNdjson) {
  const EnabledGuard on(true);
  const std::string path =
      (std::filesystem::temp_directory_path() / "test_obs_trace.ndjson")
          .string();
  std::filesystem::remove(path);
  obs::open_trace(path);
  {
    obs::Span span("test.span");
    span.attr("answer", serve::Json(42.0));
    span.attr("tag", serve::Json(std::string("x")));
  }
  obs::close_trace();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  const serve::Json record = serve::Json::parse(line);
  ASSERT_NE(record.find("span"), nullptr);
  EXPECT_EQ(record.find("span")->as_string(), "test.span");
  ASSERT_NE(record.find("dur"), nullptr);
  EXPECT_GE(record.find("dur")->as_number(), 0.0);
  const serve::Json* attrs = record.find("attrs");
  ASSERT_NE(attrs, nullptr);
  EXPECT_DOUBLE_EQ(attrs->find("answer")->as_number(), 42.0);
  EXPECT_EQ(attrs->find("tag")->as_string(), "x");
  std::filesystem::remove(path);
}

TEST(ObsInstrumentation, SolverFamiliesAppearInGlobalScrape) {
  const EnabledGuard on(true);
  // One analysis drives the mdp + engine instrumentation; the global
  // scrape must list the families with the documented names.
  const auto model = selfish::build_model(tiny_params());
  (void)analysis::analyze(model, {});
  const std::string scrape = obs::prometheus_text();
  EXPECT_NE(scrape.find("selfish_mdp_solves_total"), std::string::npos);
  EXPECT_NE(scrape.find("selfish_mdp_bytes_per_sweep"), std::string::npos);
  EXPECT_NE(scrape.find("selfish_mdp_sweep_seconds_bucket"),
            std::string::npos);
}

// --- Byte-invariance: identical artifacts with obs on and off. ---------

TEST(ObsInvariance, AnalysisResultsIdenticalOnAndOff) {
  const auto model = selfish::build_model(tiny_params());
  analysis::AnalysisResult on_result, off_result;
  {
    const EnabledGuard on(true);
    on_result = analysis::analyze(model, {});
  }
  {
    const EnabledGuard off(false);
    off_result = analysis::analyze(model, {});
  }
  EXPECT_EQ(on_result.errev_lower_bound, off_result.errev_lower_bound);
  EXPECT_EQ(on_result.policy, off_result.policy);
}

TEST(ObsInvariance, SweepCsvIdenticalOnAndOff) {
  const auto grid = analysis::linspace_grid(0.1, 0.3, 0.1);
  std::string on_csv, off_csv;
  {
    const EnabledGuard on(true);
    std::ostringstream out;
    analysis::write_sweep_csv(analysis::sweep_p(tiny_params(), grid), out);
    on_csv = out.str();
  }
  {
    const EnabledGuard off(false);
    std::ostringstream out;
    analysis::write_sweep_csv(analysis::sweep_p(tiny_params(), grid), out);
    off_csv = out.str();
  }
  EXPECT_EQ(on_csv, off_csv);
}

TEST(ObsInvariance, ServedBodyIdenticalOnAndOff) {
  const std::string request =
      "{\"kind\":\"sweep\",\"d\":1,\"f\":1,\"l\":2,\"pmax\":0.1}";
  const auto body_of = [&](bool enabled) {
    const EnabledGuard guard(enabled);
    serve::Service service(serve::ServiceOptions{});
    const serve::Json reply =
        serve::Json::parse(serve::handle_line(service, request));
    const serve::Json* body = reply.find("body");
    EXPECT_NE(body, nullptr);
    return body == nullptr ? std::string() : body->as_string();
  };
  const std::string on_body = body_of(true);
  const std::string off_body = body_of(false);
  EXPECT_FALSE(on_body.empty());
  EXPECT_EQ(on_body, off_body);
}

TEST(ObsInvariance, MetricsKindAnswersInEveryMode) {
  // The metrics admin kind must answer ok in all three switch positions
  // (the body text differs — that is the point of a diagnostic endpoint —
  // but the protocol contract holds everywhere).
  serve::Service service(serve::ServiceOptions{});
  const serve::Json reply = serve::Json::parse(
      serve::handle_line(service, "{\"id\":7,\"kind\":\"metrics\"}"));
  ASSERT_NE(reply.find("ok"), nullptr);
  EXPECT_TRUE(reply.find("ok")->as_bool());
  ASSERT_NE(reply.find("body"), nullptr);
  EXPECT_FALSE(reply.find("body")->as_string().empty());
}

}  // namespace
