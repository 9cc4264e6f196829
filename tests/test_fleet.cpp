// The fleet tier (ISSUE 10 acceptance criteria): cross-process
// single-flight on lease files (crashed-holder takeover, contended
// O_EXCL create, waiter-reads-completed-entry), the two-writer-safe
// completion journal, rendezvous-hashing ownership, the dependency-free
// HMAC-SHA256 primitives against published vectors, and the protocol
// auth gate (challenge/response folded into ping).
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "engine/generic.hpp"
#include "engine/store.hpp"
#include "fleet/auth.hpp"
#include "fleet/lease.hpp"
#include "fleet/ring.hpp"
#include "fleet/router.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "support/check.hpp"

namespace {

namespace fs = std::filesystem;

struct ScratchDir {
  explicit ScratchDir(const std::string& name)
      : path((fs::temp_directory_path() / name).string()) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
  std::string path;
};

/// Fast-poll options so waiter/takeover paths run in milliseconds.
fleet::LeaseOptions fast_lease() {
  fleet::LeaseOptions options;
  options.poll_seconds = 0.005;
  options.stale_after_seconds = 0.5;
  options.heartbeat_seconds = 0.05;
  options.wait_timeout_seconds = 10.0;
  return options;
}

void write_file(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary);
  out << body;
}

/// Backdates a file's mtime by `seconds` — simulates a holder that died
/// long enough ago for the lease to be judged stale.
void age_file(const std::string& path, double seconds) {
  struct stat st{};
  ASSERT_EQ(::stat(path.c_str(), &st), 0);
  timespec times[2];
  times[0] = st.st_atim;
  times[1] = st.st_mtim;
  times[1].tv_sec -= static_cast<time_t>(seconds) + 1;
  ASSERT_EQ(::utimensat(AT_FDCWD, path.c_str(), times, 0), 0);
}

// ------------------------------------------------------------- leases

TEST(FleetLease, ColdFlightExecutesAndReleases) {
  ScratchDir scratch("sm_fleet_lease_cold");
  bool done = false;
  const fleet::FlightReport report = fleet::single_flight(
      scratch.path, "job", fast_lease(), [&] { return done; },
      [&] { done = true; });
  EXPECT_EQ(report.role, fleet::FlightRole::kExecuted);
  EXPECT_EQ(report.takeovers, 0u);
  // The lease is gone: the next flight for the same name wins instantly.
  EXPECT_FALSE(fs::exists(scratch.path + "/job.lease"));
}

TEST(FleetLease, CrashedHolderIsTakenOver) {
  ScratchDir scratch("sm_fleet_lease_stale");
  // A lease left behind by a holder that died mid-execute: present, but
  // its heartbeat stopped long ago.
  const std::string lease = scratch.path + "/job.lease";
  write_file(lease, "pid=999999 host=ghost acquired=0\n");
  age_file(lease, fast_lease().stale_after_seconds);

  bool done = false;
  const fleet::FlightReport report = fleet::single_flight(
      scratch.path, "job", fast_lease(), [&] { return done; },
      [&] { done = true; });
  EXPECT_EQ(report.role, fleet::FlightRole::kExecuted);
  EXPECT_GE(report.takeovers, 1u);
  EXPECT_TRUE(done);
  EXPECT_FALSE(fs::exists(lease));
}

TEST(FleetLease, ContendedCreateExecutesExactlyOnce) {
  ScratchDir scratch("sm_fleet_lease_race");
  std::atomic<int> executions{0};
  std::atomic<bool> done{false};
  const auto flight = [&] {
    return fleet::single_flight(
        scratch.path, "job", fast_lease(), [&] { return done.load(); },
        [&] {
          ++executions;
          // Hold the lease long enough that the loser must actually wait.
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          done.store(true);
        });
  };
  fleet::FlightReport a, b;
  std::thread t([&] { b = flight(); });
  a = flight();
  t.join();
  EXPECT_EQ(executions.load(), 1);
  // Exactly one executor; the other observed the ready result.
  const int executed = (a.role == fleet::FlightRole::kExecuted ? 1 : 0) +
                       (b.role == fleet::FlightRole::kExecuted ? 1 : 0);
  EXPECT_EQ(executed, 1);
}

TEST(FleetLease, WaiterReadsCompletedEntryWithoutExecuting) {
  ScratchDir scratch("sm_fleet_lease_ready");
  // The result already exists (stored by another replica) even though a
  // fresh foreign lease is still present — ready() wins before any lease
  // traffic, so the flight never blocks on the holder.
  write_file(scratch.path + "/job.lease", "pid=1 host=other acquired=0\n");
  bool executed = false;
  const fleet::FlightReport report = fleet::single_flight(
      scratch.path, "job", fast_lease(), [] { return true; },
      [&] { executed = true; });
  EXPECT_EQ(report.role, fleet::FlightRole::kWaited);
  EXPECT_FALSE(executed);
  // The foreign lease is untouched — it was never ours to release.
  EXPECT_TRUE(fs::exists(scratch.path + "/job.lease"));
}

TEST(FleetLease, ExecuteFailureReleasesTheLease) {
  ScratchDir scratch("sm_fleet_lease_throw");
  EXPECT_THROW(
      fleet::single_flight(
          scratch.path, "job", fast_lease(), [] { return false; },
          [] { throw support::Error("solver exploded"); }),
      support::Error);
  // Released on the error path: a retry can acquire immediately.
  EXPECT_FALSE(fs::exists(scratch.path + "/job.lease"));
}

// ------------------------------------------------------------ journal

TEST(FleetJournal, TwoWritersAndGarbageLinesHeal) {
  ScratchDir scratch("sm_fleet_journal");
  // Two store handles on one directory — the in-process journal mutex of
  // one handle cannot serialize the other, so this exercises the
  // O_APPEND single-write guarantee replicas rely on.
  engine::ResultStore a(scratch.path);
  engine::ResultStore b(scratch.path);

  std::vector<std::string> expected_hex;
  for (int i = 0; i < 8; ++i) {
    engine::GenericJob job;
    job.kind = "threshold";
    job.options = "case=" + std::to_string(i);
    const engine::JobKey key = engine::generic_job_key(job);
    expected_hex.push_back(key.hex());
    engine::GenericResult result;
    result.payload = "payload " + std::to_string(i);
    (i % 2 == 0 ? a : b).store_generic(key, result);
  }

  // A crashed writer can leave a torn line; an operator can edit the
  // file. Neither may poison the read.
  {
    std::ofstream out(a.journal_path(), std::ios::app | std::ios::binary);
    out << "torn-line-without-structure\n";
    out << "0123456789abcdef\n";          // name but no canonical key
    out << "not-hex-but-17ch threshold\n";  // bad digest charset
  }

  const auto records = a.read_journal();
  ASSERT_EQ(records.size(), expected_hex.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].hex, expected_hex[i]);
    EXPECT_NE(records[i].canonical.find("threshold/"), std::string::npos);
  }
}

// --------------------------------------------------------------- ring

TEST(FleetRing, RankedIsADeterministicPermutation) {
  const fleet::Ring ring({"a:1", "b:2", "c:3", "d:4"});
  for (std::uint64_t key = 1; key <= 64; ++key) {
    const std::vector<std::size_t> order = ring.ranked(key * 0x9e3779b9u);
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(std::set<std::size_t>(order.begin(), order.end()).size(), 4u);
    EXPECT_EQ(order, ring.ranked(key * 0x9e3779b9u));  // stable
    EXPECT_EQ(order.front(), ring.owner(key * 0x9e3779b9u));
  }
}

TEST(FleetRing, RemovingALoserDoesNotMoveTheOwner) {
  // The defining HRW property: dropping a member only reassigns keys that
  // member owned. Remove member "d:4" and check every key it did NOT own
  // keeps its owner.
  const std::vector<std::string> all = {"a:1", "b:2", "c:3", "d:4"};
  const fleet::Ring full(all);
  const fleet::Ring reduced({"a:1", "b:2", "c:3"});
  for (std::uint64_t key = 1; key <= 256; ++key) {
    const std::uint64_t hash = key * 0x2545f4914f6cdd1dull;
    const std::size_t owner = full.owner(hash);
    if (owner == 3) continue;  // d's keys legitimately move
    EXPECT_EQ(reduced.members()[reduced.owner(hash)], all[owner]);
  }
}

TEST(FleetRing, SpreadsKeysAcrossMembers) {
  const fleet::Ring ring({"a:1", "b:2", "c:3", "d:4"});
  std::vector<int> hits(4, 0);
  for (std::uint64_t key = 0; key < 4096; ++key) {
    ++hits[ring.owner(key * 0x9e3779b97f4a7c15ull + 1)];
  }
  for (const int count : hits) {
    // Perfectly even would be 1024; accept a generous band — this guards
    // against a broken mix (everything on one member), not distribution
    // quality.
    EXPECT_GT(count, 512);
    EXPECT_LT(count, 1536);
  }
}

// --------------------------------------------------------------- auth

TEST(FleetAuth, Sha256AndHmacMatchPublishedVectors) {
  // FIPS 180-4 "abc".
  const auto abc = fleet::sha256("abc", 3);
  EXPECT_EQ(fleet::to_hex(abc.data(), abc.size()),
            "ba7816bf8f01cfea414140de5dae2223"
            "b00361a396177a9cb410ff61f20015ad");
  // RFC 4231 test case 2 (short key, the common deployment shape).
  EXPECT_EQ(fleet::hmac_sha256_hex("Jefe", "what do ya want for nothing?"),
            "5bdcc146bf60754e6a042426089575c7"
            "5a003f089d2739839dec58b964ec3843");
  // RFC 4231 test case 1.
  EXPECT_EQ(fleet::hmac_sha256_hex(std::string(20, '\x0b'), "Hi There"),
            "b0344c61d8db38535ca8afceaf0bf12b"
            "881dc200c9833da726e9376c2e32cff7");
  // Long message exercising the double-block finale path.
  const std::string long_message(200, 'x');
  const auto digest =
      fleet::sha256(long_message.data(), long_message.size());
  EXPECT_EQ(fleet::to_hex(digest.data(), digest.size()).size(), 64u);
}

TEST(FleetAuth, ConstantTimeEqualsAndChallenges) {
  EXPECT_TRUE(fleet::equals_constant_time("abc", "abc"));
  EXPECT_FALSE(fleet::equals_constant_time("abc", "abd"));
  EXPECT_FALSE(fleet::equals_constant_time("abc", "abcd"));
  EXPECT_FALSE(fleet::equals_constant_time("", "x"));
  EXPECT_TRUE(fleet::equals_constant_time("", ""));
  // Challenges are 32 hex chars and (overwhelmingly) unique.
  const std::string one = fleet::random_challenge();
  EXPECT_EQ(one.size(), 32u);
  EXPECT_EQ(one.find_first_not_of("0123456789abcdef"), std::string::npos);
  EXPECT_NE(one, fleet::random_challenge());
}

TEST(FleetAuth, SecretFileLoadsTrimmedAndRejectsEmpty) {
  ScratchDir scratch("sm_fleet_secret");
  write_file(scratch.path + "/secret", "hunter2\n");
  EXPECT_EQ(fleet::load_secret_file(scratch.path + "/secret"), "hunter2");
  write_file(scratch.path + "/empty", "\n  \n");
  EXPECT_THROW(fleet::load_secret_file(scratch.path + "/empty"),
               support::InvalidArgument);
  EXPECT_THROW(fleet::load_secret_file(scratch.path + "/missing"),
               support::InvalidArgument);
}

/// Transport-free auth gate: drive handle_request with a secured Wire
/// exactly the way server.cpp does per connection.
TEST(FleetAuth, ProtocolGateRequiresTheChallengeResponse) {
  serve::Service service(serve::ServiceOptions{});
  serve::AuthSession session;
  session.challenge = fleet::random_challenge();
  serve::Wire wire;
  wire.auth_secret = "sesame";
  wire.auth = &session;

  // Non-ping requests on a secured wire are refused with the named code.
  const serve::Json denied = serve::Json::parse(
      serve::handle_request(service, "{\"kind\":\"stats\"}", wire).reply);
  EXPECT_FALSE(denied.find("ok")->as_bool());
  EXPECT_EQ(denied.find("code")->as_string(), "auth_required");

  // Ping advertises the challenge instead of leaking anything.
  const serve::Json pong = serve::Json::parse(
      serve::handle_request(service, "{\"kind\":\"ping\"}", wire).reply);
  EXPECT_TRUE(pong.find("ok")->as_bool());
  EXPECT_EQ(pong.find("auth")->as_string(), "required");
  EXPECT_EQ(pong.find("challenge")->as_string(), session.challenge);

  // A wrong answer is rejected and does not authenticate the session.
  const serve::Json bad = serve::Json::parse(
      serve::handle_request(
          service, "{\"kind\":\"ping\",\"auth\":\"deadbeef\"}", wire)
          .reply);
  EXPECT_FALSE(bad.find("ok")->as_bool());
  EXPECT_EQ(bad.find("code")->as_string(), "auth_failed");
  EXPECT_FALSE(session.authenticated.load());

  // The correct HMAC flips the session; non-ping kinds now pass.
  const std::string answer =
      fleet::hmac_sha256_hex("sesame", session.challenge);
  const serve::Json good = serve::Json::parse(
      serve::handle_request(
          service, "{\"kind\":\"ping\",\"auth\":\"" + answer + "\"}", wire)
          .reply);
  EXPECT_TRUE(good.find("ok")->as_bool());
  EXPECT_EQ(good.find("auth")->as_string(), "ok");
  EXPECT_TRUE(session.authenticated.load());
  const serve::Json stats = serve::Json::parse(
      serve::handle_request(service, "{\"kind\":\"stats\"}", wire).reply);
  EXPECT_TRUE(stats.find("ok")->as_bool());
}

TEST(FleetAuth, OpenServersDoNotGrowAuthMembers) {
  // Without a secret the ping reply must stay byte-compatible with
  // pre-fleet clients: no auth, no challenge.
  serve::Service service(serve::ServiceOptions{});
  serve::Wire wire;
  const serve::Json pong = serve::Json::parse(
      serve::handle_request(service, "{\"kind\":\"ping\"}", wire).reply);
  EXPECT_TRUE(pong.find("ok")->as_bool());
  EXPECT_EQ(pong.find("auth"), nullptr);
  EXPECT_EQ(pong.find("challenge"), nullptr);
}

TEST(FleetAuth, EndToEndHandshakeOverLoopback) {
  serve::ServerOptions options;
  options.port = 0;
  options.auth_secret = "sesame";
  serve::Server server(options);
  server.start();

  {
    // No secret: the session connects (ping is open) but any real
    // request is refused with the named code.
    serve::Client anonymous("127.0.0.1", server.port());
    const serve::Reply denied = anonymous.request("{\"kind\":\"stats\"}");
    EXPECT_FALSE(denied.ok);
    EXPECT_EQ(denied.code, "auth_required");
  }
  {
    serve::ClientOptions with_secret;
    with_secret.auth_secret = "sesame";
    serve::Client trusted("127.0.0.1", server.port(), with_secret);
    EXPECT_TRUE(trusted.request("{\"kind\":\"stats\"}").ok);
  }
  {
    // The wrong secret fails the handshake in the constructor — the
    // session never comes up half-authenticated.
    serve::ClientOptions wrong;
    wrong.auth_secret = "open barley";
    EXPECT_THROW(serve::Client("127.0.0.1", server.port(), wrong),
                 support::Error);
  }
  server.stop();
}

// ------------------------------------------------------------- router

TEST(FleetRouter, ParsesEndpointListsStrictly) {
  const std::vector<fleet::Endpoint> endpoints =
      fleet::parse_endpoints("127.0.0.1:7077,example.org:80,");
  ASSERT_EQ(endpoints.size(), 2u);
  EXPECT_EQ(endpoints[0].host, "127.0.0.1");
  EXPECT_EQ(endpoints[0].port, 7077);
  EXPECT_EQ(endpoints[1].host, "example.org");
  EXPECT_EQ(endpoints[1].port, 80);
  EXPECT_THROW(fleet::parse_endpoint("no-port"), support::InvalidArgument);
  EXPECT_THROW(fleet::parse_endpoint(":7077"), support::InvalidArgument);
  EXPECT_THROW(fleet::parse_endpoint("h:"), support::InvalidArgument);
  EXPECT_THROW(fleet::parse_endpoint("h:99999"), support::InvalidArgument);
  EXPECT_THROW(fleet::parse_endpoint("h:7x7"), support::InvalidArgument);
  EXPECT_THROW(fleet::parse_endpoints(",,"), support::InvalidArgument);
}

TEST(FleetRouter, RoutesAnalysisKindsByKeyAndAdminInListOrder) {
  // No connections are made: route() is pure.
  fleet::Router router(fleet::parse_endpoints(
      "127.0.0.1:1,127.0.0.1:2,127.0.0.1:3"));
  const std::string line =
      "{\"kind\":\"threshold\",\"gamma\":0.5,\"d\":1,\"f\":1,\"l\":2}";
  const std::vector<std::size_t> order = router.route(line);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order, router.route(line));  // deterministic
  // The ring agrees with the route: the owner leads.
  serve::Request request = serve::parse_request(line);
  EXPECT_EQ(order.front(),
            router.ring().owner(engine::generic_job_key(request.job).hash));
  // Admin kinds and unparseable lines go in member-list order.
  const std::vector<std::size_t> in_order = {0, 1, 2};
  EXPECT_EQ(router.route("{\"kind\":\"ping\"}"), in_order);
  EXPECT_EQ(router.route("not json at all"), in_order);
  // Different jobs spread: every member owns some of a sweep of 60
  // parameter points. (A handful of points can land on one owner by
  // chance — six do so once in 243 key formats — while 60 points leave a
  // member without a key about once in 10^10.)
  std::set<std::size_t> owners;
  for (int d = 1; d <= 6; ++d) {
    for (int g = 0; g <= 9; ++g) {
      const std::string point = "{\"kind\":\"threshold\",\"d\":" +
                                std::to_string(d) + ",\"gamma\":0." +
                                std::to_string(g) + "}";
      const std::size_t owner = router.route(point).front();
      EXPECT_EQ(owner, router.ring().owner(engine::generic_job_key(
                           serve::parse_request(point).job).hash))
          << point;
      owners.insert(owner);
    }
  }
  EXPECT_EQ(owners.size(), 3u);
}

}  // namespace
