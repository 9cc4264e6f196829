// serve-mix: one op is one request/reply round trip to an in-process
// serve::Server on loopback (2 protocol workers, a store-backed Service
// with 2 solve threads). Load is a closed loop of two load-generator
// threads, each keeping one request outstanding on its own serve::Client
// connection; one thread per connection keeps every measured round trip
// free of time spent waiting on the other connection's reply. Requests
// follow a seeded Zipf stream over a fixed universe of small point,
// threshold and sweep jobs (d <= 2). Set-up starts the server and
// pre-solves a fixed half of the keys into the store; the LRU is capped
// below the working set, so LRU hits and store reads both recur. The
// other half of the universe is cold only once per pass, so every
// kFreshEvery-th op of a connection asks instead for a point never asked
// before: a universe point at a precision ε just below 1e-3 that no other
// op uses. Each such op is a store miss, a fleet lease, a cold solve and
// a store write, so those recur in steady state at a fixed share of the
// ops. Most ops are warm: the transport, protocol, LRU and store do most
// of the work, and the solver and lease the rest.
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <optional>
#include <thread>

#include "common.hpp"
#include "obs/trace.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

constexpr double kEpsilon = 1e-3;
constexpr int kClients = 2;
/// LRU budget in payload bytes: about a third of the universe's bodies.
constexpr std::size_t kLruBytes = 12 * 1024;
/// One op in this many, per connection, asks for a never-seen point.
constexpr int kFreshEvery = 1000;

struct Key {
  std::string line;  ///< The request, without id/version.
  bool point = false;
  selfish::AttackParams params;  ///< Point keys: the answered point.
};

/// A point request; `epsilon` is added when it is not the default.
std::string point_line(const selfish::AttackParams& params,
                       double epsilon = kEpsilon) {
  char buffer[160];
  int n = std::snprintf(buffer, sizeof buffer,
                        "{\"kind\":\"point\",\"p\":%.2f,\"gamma\":%.2f,"
                        "\"d\":%d,\"f\":%d",
                        params.p, params.gamma, params.d, params.f);
  if (epsilon != kEpsilon) {
    n += std::snprintf(buffer + n, sizeof buffer - n, ",\"epsilon\":%.17g",
                       epsilon);
  }
  std::snprintf(buffer + n, sizeof buffer - n, "}");
  return buffer;
}

/// The fixed universe, in Zipf rank order: kinds are interleaved so the
/// hottest ranks mix points, thresholds and sweeps.
std::vector<Key> universe() {
  const auto fields = [](double gamma, int d, int f) {
    char buffer[96];
    std::snprintf(buffer, sizeof buffer, "\"gamma\":%.2f,\"d\":%d,\"f\":%d",
                  gamma, d, f);
    return std::string(buffer);
  };
  std::vector<Key> points;
  for (const selfish::AttackParams& params : serve_mix_point_universe()) {
    points.push_back({point_line(params), true, params});
  }
  std::vector<Key> thresholds, sweeps;
  for (const auto& [d, f] : {std::pair{1, 1}, std::pair{2, 1}}) {
    for (const double gamma : {0.25, 0.5, 0.75}) {
      thresholds.push_back(
          {"{\"kind\":\"threshold\"," + fields(gamma, d, f) + "}", false, {}});
      sweeps.push_back(
          {"{\"kind\":\"sweep\"," + fields(gamma, d, f) + "}", false, {}});
    }
  }
  std::vector<Key> keys;
  std::size_t next_point = 0;
  for (std::size_t i = 0; i < thresholds.size(); ++i) {
    for (int k = 0; k < 4 && next_point < points.size(); ++k) {
      keys.push_back(points[next_point++]);
    }
    keys.push_back(thresholds[i]);
    keys.push_back(sweeps[i]);
  }
  while (next_point < points.size()) keys.push_back(points[next_point++]);
  return keys;
}

/// Parses "ERRev* in [lo, hi]; strategy achieves x" out of a point body.
bool parse_point_body(const std::string& body, double& lo, double& hi,
                      double& policy) {
  const std::size_t at = body.find("ERRev* in [");
  return at != std::string::npos &&
         std::sscanf(body.c_str() + at, "ERRev* in [%lf, %lf]; strategy achieves %lf",
                     &lo, &hi, &policy) == 3;
}

class ServeMix final : public Workload {
 public:
  explicit ServeMix(const Config& config)
      : config_(config),
        keys_(universe()),
        fresh_points_(serve_mix_point_universe()) {
    for (std::size_t rank = 1; rank <= keys_.size(); ++rank) {
      zipf_.push_back(1.0 / static_cast<double>(rank));
    }
  }

  ~ServeMix() override {
    stop_server();
    // Deleting is slow on discard-mounted disks and disturbs whatever runs
    // next, so the stores go only once nothing is measured any more.
    for (const std::string& dir : store_dirs_) std::filesystem::remove_all(dir);
  }

  double setup() override {
    stop_server();
    const double start = now_seconds();
    references_ = std::make_unique<References>(config_.data_dir);
    store_dirs_.push_back(config_.scratch_dir + "/serve-store-" +
                          std::to_string(store_dirs_.size()));
    serve::ServerOptions options;
    options.port = 0;
    options.workers = 2;
    options.service.cache_dir = store_dirs_.back();
    options.service.threads = 2;
    options.service.job_threads = 1;
    options.service.lru_bytes = kLruBytes;
    server_ = std::make_unique<serve::Server>(options);
    server_->start();
    for (int c = 0; c < kClients; ++c) {
      clients_.push_back(
          std::make_unique<serve::Client>("127.0.0.1", server_->port()));
    }
    for (std::size_t k = 0; k < keys_.size(); k += 2) {
      const serve::Reply reply = clients_[0]->request(keys_[k].line);
      if (!reply.ok) {
        throw std::runtime_error("pre-solve failed: " + reply.error);
      }
    }
    return now_seconds() - start;
  }

  int setup_reps() const override { return 15; }
  int traced_ops() const override { return 20000; }

  PassResult run(const PassSpec& spec) override {
    PassResult pass;
    first_bodies_.assign(keys_.size(), std::string());
    const serve::ServiceStats stats_before = server_->service().stats();
    const std::uint64_t busy_before = server_->transport_stats().busy.load();
    const ObsSnapshot before = ObsSnapshot::take();

    std::vector<PassResult> per_client(kClients);
    std::atomic<bool> failed_transport{false};
    const double pass_start = now_seconds();
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        try {
          load_loop(c, spec, pass_start, per_client[c]);
        } catch (const std::exception& error) {
          log_failure(std::string("serve-mix transport: ") + error.what());
          failed_transport = true;
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    pass.wall_s = now_seconds() - pass_start;

    for (const PassResult& part : per_client) {
      pass.attempted += part.attempted;
      pass.failed += part.failed;
      pass.latencies.merge(part.latencies);
    }
    if (failed_transport) ++pass.failed;

    const ObsSnapshot after = ObsSnapshot::take();
    const serve::ServiceStats stats = server_->service().stats();
    pass.exact["fleet.executions"] = static_cast<double>(
        stats.fleet_executions - stats_before.fleet_executions);
    pass.exact["mdp.solves"] =
        obs_delta(before, after, "selfish_mdp_solves_total");
    pass.exact["mdp.sweeps"] =
        obs_delta(before, after, "selfish_mdp_sweeps_total");
    if (spec.traced) {
      const double requests =
          static_cast<double>(stats.requests - stats_before.requests);
      const std::uint64_t n = pass.latencies.count();
      // The highest quantile with at least ten samples beyond it.
      const double tail_q =
          n > 20 ? 1.0 - 10.0 / static_cast<double>(n) : 0.5;
      const double rtt_p50 = pass.latencies.quantile(0.5) * 1e3;
      const double server_p50 =
          histogram_delta(before, after, "selfish_serve_request_seconds")
              .quantile(0.5) *
          1e3;
      Metrics& m = pass.layer;
      m["serve.rtt_p50_ms"] = {rtt_p50, "ms"};
      m["serve.tail_q"] = {tail_q, "ratio"};
      m["serve.tail_ms"] = {pass.latencies.quantile(tail_q) * 1e3, "ms"};
      m["serve.samples"] = {static_cast<double>(n), "count"};
      m["serve.server_p50_ms"] = {server_p50, "ms"};
      m["serve.wait_ms"] = {rtt_p50 - server_p50, "ms"};
      m["serve.lru_hit_ratio"] = {
          requests > 0
              ? static_cast<double>(stats.lru_hits - stats_before.lru_hits) /
                    requests
              : 0.0,
          "ratio"};
      m["serve.store_hits"] = {
          static_cast<double>(stats.store_hits - stats_before.store_hits),
          "count"};
      m["serve.solves"] = {
          static_cast<double>(stats.solves - stats_before.solves), "count"};
      m["serve.coalesced"] = {
          static_cast<double>(stats.coalesced - stats_before.coalesced),
          "count"};
      m["serve.busy"] = {
          static_cast<double>(server_->transport_stats().busy.load() -
                              busy_before),
          "count"};
      m["fleet.waits"] = {
          static_cast<double>(stats.fleet_waits - stats_before.fleet_waits),
          "count"};
      m["fleet.takeovers"] = {static_cast<double>(stats.fleet_takeovers -
                                                  stats_before.fleet_takeovers),
                              "count"};
    }
    return pass;
  }

 private:
  /// One connection's closed loop. In a fixed-count pass the clients
  /// split the ops evenly, each from its own seeded stream, so the set
  /// of keys requested — and hence every count — repeats exactly.
  void load_loop(int c, const PassSpec& spec, double pass_start,
                 PassResult& out) {
    support::Rng rng = support::Rng::for_stream(config_.seed, c);
    serve::Client& client = *clients_[c];
    const int quota = spec.fixed_ops / kClients;
    for (int i = 0;; ++i) {
      if (spec.fixed_ops > 0 ? i >= quota
                             : now_seconds() - pass_start >= spec.budget_s) {
        break;
      }
      std::size_t k = 0;
      const selfish::AttackParams* fresh = nullptr;
      double epsilon = kEpsilon;
      std::string line;
      if (i % kFreshEvery == kFreshEvery - 1) {
        // Fresh keys are numbered across connections, so none repeats.
        const std::size_t n =
            static_cast<std::size_t>(c + kClients * (i / kFreshEvery));
        fresh = &fresh_points_[n % fresh_points_.size()];
        epsilon = kEpsilon * (1.0 - 1e-6 * static_cast<double>(n + 1));
        line = point_line(*fresh, epsilon);
      } else {
        k = rng.discrete(zipf_);
        line = keys_[k].line;
      }
      ++out.attempted;
      const double start = now_seconds();
      serve::Reply reply;
      {
        std::optional<obs::Span> span;
        if (spec.traced) span.emplace("client.request");
        reply = client.request(line);
      }
      out.latencies.add(now_seconds() - start);
      const std::string why = fresh != nullptr
                                  ? check_point(*fresh, epsilon, reply)
                                  : check_reply(k, reply);
      if (!why.empty()) {
        ++out.failed;
        log_failure("serve-mix " + line + ": " + why);
      }
    }
  }

  /// A body must match the first body served for its key in this pass; a
  /// point body must also satisfy the answer contract (checked once, when
  /// its key is first seen — later bodies are byte-identical to it).
  std::string check_reply(std::size_t k, const serve::Reply& reply) {
    if (!reply.ok) return "error reply: " + reply.error;
    {
      const std::lock_guard<std::mutex> lock(bodies_mutex_);
      if (!first_bodies_[k].empty()) {
        return first_bodies_[k] == reply.body
                   ? std::string()
                   : "body differs from the first served for this key";
      }
      first_bodies_[k] = reply.body;
    }
    if (!keys_[k].point) return reply.body.empty() ? "empty body" : "";
    return check_point(keys_[k].params, kEpsilon, reply);
  }

  /// The answer contract on a point body, at the precision asked for.
  std::string check_point(const selfish::AttackParams& params,
                          double epsilon, const serve::Reply& reply) const {
    if (!reply.ok) return "error reply: " + reply.error;
    double lo = 0.0, hi = 0.0, policy = 0.0;
    if (!parse_point_body(reply.body, lo, hi, policy)) {
      return "point body has no ERRev bracket";
    }
    double ref_lo = 0.0, ref_hi = 0.0;
    const bool has_ref = references_->find(params.d, params.f, params.l,
                                           params.gamma, params.p, ref_lo,
                                           ref_hi);
    // Bodies print six decimals: allow the rounding of two of them.
    return check_answer(lo, hi, policy, epsilon, ref_lo, ref_hi, has_ref,
                        1e-6);
  }

  void stop_server() {
    clients_.clear();
    if (server_ != nullptr) {
      server_->stop();
      server_.reset();
    }
  }

  Config config_;
  std::vector<Key> keys_;
  std::vector<double> zipf_;
  std::vector<selfish::AttackParams> fresh_points_;
  std::unique_ptr<References> references_;
  std::vector<std::string> store_dirs_;  ///< One per set-up, newest last.
  std::unique_ptr<serve::Server> server_;
  std::vector<std::unique_ptr<serve::Client>> clients_;
  std::mutex bodies_mutex_;
  std::vector<std::string> first_bodies_;  ///< Guarded by bodies_mutex_.
};

}  // namespace

std::vector<selfish::AttackParams> serve_mix_point_universe() {
  std::vector<selfish::AttackParams> points;
  for (const auto& [d, f] : {std::pair{1, 1}, std::pair{2, 1}, std::pair{2, 2}}) {
    for (const double gamma : {0.25, 0.5, 0.75}) {
      for (const double p : {0.15, 0.25, 0.35}) {
        selfish::AttackParams params;
        params.d = d;
        params.f = f;
        params.gamma = gamma;
        params.p = p;
        points.push_back(params);
      }
    }
  }
  return points;
}

std::unique_ptr<Workload> make_serve_mix(const Config& config) {
  return std::make_unique<ServeMix>(config);
}

}  // namespace perfbench
