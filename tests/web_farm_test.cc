// The open-loop stack end to end: seeded arrival processes (workloads/arrivals.h),
// the request-log round trip (workloads/request_log.h), and the Flash-style web
// farm (workloads/web_farm.h) — including the golden schedule pin and the
// determinism contract tools/trace_replay re-checks from the CLI.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/system.h"
#include "workloads/arrivals.h"
#include "workloads/request_log.h"
#include "workloads/web_farm.h"

namespace realrate {
namespace {

// ---------------------------------------------------------------------------
// Arrival processes.

TEST(ArrivalsTest, PoissonHitsTheConfiguredRate) {
  ArrivalConfig config;
  config.seed = 11;
  config.requests_per_sec = 1000.0;
  const auto records = GenerateRequests(config, Duration::Seconds(10));
  // 10k expected; a Poisson count deviates ~1% rms at this n, 10% is generous.
  EXPECT_GT(records.size(), 9000u);
  EXPECT_LT(records.size(), 11000u);
  EXPECT_TRUE(std::is_sorted(records.begin(), records.end(),
                             [](const RequestRecord& a, const RequestRecord& b) {
                               return a.arrival < b.arrival;
                             }));
  for (const RequestRecord& r : records) {
    EXPECT_GE(r.arrival, Duration::Zero());
    EXPECT_LT(r.arrival, Duration::Seconds(10));
    EXPECT_EQ(r.bytes, config.request_bytes);       // No tail configured.
    EXPECT_EQ(r.service_cycles, config.service_cycles);
  }
}

TEST(ArrivalsTest, SameSeedSameStreamDifferentSeedDifferentStream) {
  ArrivalConfig config;
  config.seed = 7;
  const auto a = GenerateRequests(config, Duration::Seconds(1));
  const auto b = GenerateRequests(config, Duration::Seconds(1));
  EXPECT_EQ(a, b);
  config.seed = 8;
  const auto c = GenerateRequests(config, Duration::Seconds(1));
  EXPECT_NE(a, c);
}

TEST(ArrivalsTest, LoadCurveDeadZoneSilencesArrivals) {
  ArrivalConfig config;
  config.seed = 3;
  config.requests_per_sec = 2000.0;
  config.load_curve = {{Duration::Zero(), 1.0},
                       {Duration::Millis(250), 0.0},   // Dead zone.
                       {Duration::Millis(500), 2.0}};  // Flash crowd.
  const auto records = GenerateRequests(config, Duration::Seconds(1));
  int64_t before = 0;
  int64_t dead = 0;
  int64_t spike = 0;
  for (const RequestRecord& r : records) {
    if (r.arrival < Duration::Millis(250)) {
      ++before;
    } else if (r.arrival < Duration::Millis(500)) {
      ++dead;
    } else {
      ++spike;
    }
  }
  EXPECT_EQ(dead, 0);
  EXPECT_GT(before, 0);
  // The spike window is twice as long as the 1x window and twice as dense.
  EXPECT_GT(spike, 2 * before);
}

TEST(ArrivalsTest, ParetoSizeTailsStayWithinBounds) {
  ArrivalConfig config;
  config.seed = 5;
  config.requests_per_sec = 5000.0;
  config.bytes_alpha = 1.5;
  config.max_request_bytes = 4096;
  config.service_alpha = 1.2;
  config.max_service_cycles = 10'000'000;
  const auto records = GenerateRequests(config, Duration::Seconds(1));
  ASSERT_FALSE(records.empty());
  bool some_byte_tail = false;
  bool some_service_tail = false;
  for (const RequestRecord& r : records) {
    EXPECT_GE(r.bytes, 1);
    EXPECT_LE(r.bytes, config.max_request_bytes);
    EXPECT_GE(r.service_cycles, 1);
    EXPECT_LE(r.service_cycles, config.max_service_cycles);
    some_byte_tail = some_byte_tail || r.bytes > 2 * config.request_bytes;
    some_service_tail = some_service_tail || r.service_cycles > 2 * config.service_cycles;
  }
  // Heavy tails actually produce heavy draws (alpha 1.5/1.2 over thousands of
  // requests makes a >2x draw overwhelmingly likely).
  EXPECT_TRUE(some_byte_tail);
  EXPECT_TRUE(some_service_tail);
}

TEST(ArrivalsTest, SessionArrivalsAreSortedAndBounded) {
  ArrivalConfig config;
  config.kind = ArrivalConfig::Kind::kParetoSessions;
  config.seed = 13;
  config.sessions_per_sec = 200.0;
  const auto records = GenerateRequests(config, Duration::Seconds(2));
  ASSERT_FALSE(records.empty());
  EXPECT_TRUE(std::is_sorted(records.begin(), records.end(),
                             [](const RequestRecord& a, const RequestRecord& b) {
                               return a.arrival < b.arrival;
                             }));
  for (const RequestRecord& r : records) {
    EXPECT_GE(r.arrival, Duration::Zero());
    EXPECT_LT(r.arrival, Duration::Seconds(2));
  }
  // ~400 sessions x mean 2 * 1.5/(1.5-1) = 6 requests: well above the session count.
  EXPECT_GT(records.size(), 800u);
}

TEST(ArrivalsTest, MeanServiceCyclesMatchesConfiguredTail) {
  ArrivalConfig fixed;
  EXPECT_DOUBLE_EQ(MeanServiceCycles(fixed), static_cast<double>(fixed.service_cycles));
  ArrivalConfig tailed;
  tailed.service_alpha = 2.0;  // Pareto mean = base * alpha/(alpha-1) = 2x base.
  EXPECT_DOUBLE_EQ(MeanServiceCycles(tailed), 2.0 * static_cast<double>(tailed.service_cycles));
}

TEST(ArrivalsTest, StreamPastTheRequestCapDiesInsteadOfTruncating) {
  // ~1000 arrivals in the horizon against a cap of 10: a silently truncated
  // stream would end the run's load early, so the generator refuses it.
  ArrivalConfig poisson;
  poisson.max_requests = 10;
  EXPECT_DEATH(GenerateRequests(poisson, Duration::Seconds(1)), "max_requests");
  ArrivalConfig sessions = poisson;
  sessions.kind = ArrivalConfig::Kind::kParetoSessions;
  EXPECT_DEATH(GenerateRequests(sessions, Duration::Seconds(1)), "max_requests");
  // A stream that fits the cap is untouched by it.
  poisson.max_requests = 2'000'000;
  const auto fits = GenerateRequests(poisson, Duration::Seconds(1));
  poisson.max_requests = static_cast<int64_t>(fits.size());
  EXPECT_EQ(GenerateRequests(poisson, Duration::Seconds(1)), fits);
}

// ---------------------------------------------------------------------------
// RequestInjector: one cursor over its own stream, extended by Append.

RequestRecord At(int64_t ms) { return {Duration::Millis(ms), 64, 1'000}; }

struct InjectorRig {
  Simulator sim;
  std::vector<Duration> seen;  // Sim time at each delivery.
  RequestInjector injector{sim, {At(1), At(2)},
                           [this](const RequestRecord& r) {
                             EXPECT_EQ(sim.Now(), TimePoint::Origin() + r.arrival);
                             seen.push_back(sim.Now() - TimePoint::Origin());
                           }};
};

TEST(RequestInjectorTest, DrainedChainResumesAtAppendTime) {
  InjectorRig rig;
  rig.sim.RunUntil(TimePoint::Origin() + Duration::Millis(5));
  EXPECT_EQ(rig.injector.injected(), 2);
  EXPECT_EQ(rig.sim.pending_events(), 0u);  // Drained: nothing carries the chain.
  rig.injector.Append({At(6), At(7)});
  EXPECT_EQ(rig.sim.pending_events(), 1u);  // Append scheduled the next arrival.
  rig.injector.Append({});                  // An empty batch changes nothing.
  EXPECT_EQ(rig.sim.pending_events(), 1u);
  rig.sim.RunUntil(TimePoint::Origin() + Duration::Millis(10));
  EXPECT_EQ(rig.seen, (std::vector<Duration>{Duration::Millis(1), Duration::Millis(2),
                                             Duration::Millis(6), Duration::Millis(7)}));
  EXPECT_EQ(rig.injector.injected(), 4);
}

TEST(RequestInjectorTest, AppendWhilePendingContinuesTheChain) {
  InjectorRig rig;
  rig.sim.RunUntil(TimePoint::Origin() + Duration::Millis(1));
  EXPECT_EQ(rig.injector.injected(), 1);
  EXPECT_EQ(rig.sim.pending_events(), 1u);  // The 2 ms arrival.
  rig.injector.Append({At(2), At(3)});
  EXPECT_EQ(rig.sim.pending_events(), 1u);  // No second chain.
  rig.sim.RunUntil(TimePoint::Origin() + Duration::Millis(10));
  EXPECT_EQ(rig.seen, (std::vector<Duration>{Duration::Millis(1), Duration::Millis(2),
                                             Duration::Millis(2), Duration::Millis(3)}));
  EXPECT_EQ(rig.injector.injected(), 4);
}

TEST(RequestInjectorTest, OutOfOrderAppendDies) {
  InjectorRig rig;
  // Earlier than the stream's last record, pending or not.
  EXPECT_DEATH(rig.injector.Append({At(1)}), "Precondition failed");
  rig.sim.RunUntil(TimePoint::Origin() + Duration::Millis(5));
  EXPECT_DEATH(rig.injector.Append({At(1)}), "Precondition failed");
  // An unsorted batch.
  EXPECT_DEATH(rig.injector.Append({At(7), At(6)}), "Precondition failed");
}

TEST(RequestInjectorTest, DestroyedInjectorNeverDelivers) {
  // A farm whose injector is torn down mid-run, with arrivals still ahead of it:
  // the simulator must keep running without ever calling into the dead injector
  // (under ASan a stale delivery is a use-after-free).
  WebFarmParams params;
  params.num_cpus = 2;
  params.num_workers = 2;
  params.arrivals.requests_per_sec = 2000.0;
  params.run_for = Duration::Millis(400);
  System system(WebFarmSystemConfig(params));
  std::unique_ptr<WebFarmInstance> farm = BuildWebFarm(
      WebFarmBuildOf(params, GenerateRequests(params.arrivals, params.run_for)),
      system.sim(), system.threads(), system.queues(), system.machine(),
      &system.controller());
  system.Start();
  system.RunFor(Duration::Millis(100));
  ASSERT_GT(farm->injector->injected(), 0);
  const int64_t pushed_bytes = farm->listen.buffer->total_pushed();
  const int64_t listen_drops = farm->listen_drops;
  const size_t pending = system.sim().pending_events();
  farm->injector.reset();
  EXPECT_EQ(system.sim().pending_events(), pending - 1);  // Its armed cursor.
  system.RunFor(Duration::Millis(300));
  for (int i = 0; i < 100 && system.sim().Step(); ++i) {
  }
  EXPECT_EQ(farm->listen.buffer->total_pushed(), pushed_bytes);  // No arrival since.
  EXPECT_EQ(farm->listen_drops, listen_drops);
  EXPECT_GT(farm->served(), 0);
}

// ---------------------------------------------------------------------------
// Request-log round trip.

TEST(RequestLogTest, SerializeParseRoundTripsExactly) {
  ArrivalConfig config;
  config.seed = 21;
  config.bytes_alpha = 1.5;
  config.service_alpha = 1.5;
  const auto records = GenerateRequests(config, Duration::Millis(500));
  ASSERT_FALSE(records.empty());
  std::vector<RequestRecord> reparsed;
  std::string error;
  const std::string text = SerializeRequestLog(records);
  ASSERT_TRUE(ParseRequestLog(text, &reparsed, &error)) << error;
  EXPECT_EQ(records, reparsed);

  // The same log with CRLF line endings (as saved by Windows tools) parses to the
  // same records.
  std::string crlf;
  for (const char ch : text) {
    if (ch == '\n') {
      crlf += '\r';
    }
    crlf += ch;
  }
  std::vector<RequestRecord> from_crlf;
  ASSERT_TRUE(ParseRequestLog(crlf, &from_crlf, &error)) << error;
  EXPECT_EQ(records, from_crlf);
}

TEST(RequestLogTest, CommentsAndBlankLinesAreIgnored) {
  std::vector<RequestRecord> records;
  std::string error;
  ASSERT_TRUE(ParseRequestLog("# header\n\n100 256 5000\n\n# tail\n200 128 6000\n",
                              &records, &error))
      << error;
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].arrival, Duration::Nanos(100));
  EXPECT_EQ(records[0].bytes, 256);
  EXPECT_EQ(records[1].service_cycles, 6000);
}

TEST(RequestLogTest, MalformedLinesFailWithLineNumbers) {
  const struct {
    const char* text;
    const char* needle;
  } cases[] = {
      {"100 256\n", "line 1"},                      // Missing field.
      {"100 256 5000 9\n", "line 1"},               // Extra field.
      {"abc 256 5000\n", "line 1"},                 // Garbage arrival.
      {"100 -5 5000\n", "line 1"},                  // Negative bytes.
      {"100 0 5000\n", "line 1"},                   // Zero bytes.
      {"100 256 0\n", "line 1"},                    // Zero service.
      {"200 256 5000\n100 256 5000\n", "line 2"},   // Arrivals went backwards.
      {"100 256 5000\r\r\n", "line 1"},            // Only one CR ends a line.
  };
  for (const auto& c : cases) {
    std::vector<RequestRecord> records;
    std::string error;
    EXPECT_FALSE(ParseRequestLog(c.text, &records, &error)) << c.text;
    EXPECT_NE(error.find(c.needle), std::string::npos)
        << "input " << c.text << " error: " << error;
    EXPECT_TRUE(records.empty());  // Failed parses never leave partial output.
  }
}

// ---------------------------------------------------------------------------
// The farm.

WebFarmParams PinParams() {
  WebFarmParams params;
  params.num_cpus = 2;
  params.num_workers = 4;
  params.run_for = Duration::Millis(300);
  params.arrivals.seed = 42;
  params.arrivals.requests_per_sec = 5000.0;
  return params;
}

// Recorded from the implementation at the commit that introduced the farm. A
// mismatch means the open-loop schedule drifted — a behavior change to justify
// explicitly, not a baseline to refresh casually (tools/trace_replay --selfcheck
// re-derives the equality facts; this pins the actual value).
constexpr uint64_t kWebFarmPinHash = 13076213962862507137ull;

TEST(WebFarmTest, GoldenScheduleIsPinned) {
  const WebFarmResult result = RunWebFarmScenario(PinParams());
  EXPECT_EQ(result.trace_hash, kWebFarmPinHash);
  EXPECT_GT(result.served, 0);
}

TEST(WebFarmTest, DeterministicAcrossRunsAndHostThreads) {
  const WebFarmResult a = RunWebFarmScenario(PinParams());
  const WebFarmResult b = RunWebFarmScenario(PinParams());
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.served, b.served);
  EXPECT_EQ(a.listen_drops, b.listen_drops);
  WebFarmParams fanned = PinParams();
  fanned.host_threads = 4;
  const WebFarmResult c = RunWebFarmScenario(fanned);
  EXPECT_EQ(a.trace_hash, c.trace_hash);
  EXPECT_EQ(a.served, c.served);
}

TEST(WebFarmTest, MailboxRoundsEngageAndStayBitIdentical) {
  // The mailbox gate's farm regime: one acceptor, sustained load near capacity, and
  // the feedback controller steering every queue toward half-full — so round-start
  // backlogs cover each worker's tick appetite, the listen queue covers the
  // acceptor's, and the per-worker headroom absorbs its round-robin dispatches.
  // These rounds previously all fell back to the sequential path (acceptors and
  // workers advertise no round-local work); now they must fan out AND stay
  // bit-identical, request metadata and admission decisions included.
  WebFarmParams params;
  params.num_cpus = 4;
  params.num_workers = 8;
  params.num_acceptors = 1;
  params.run_for = Duration::Millis(600);
  params.arrivals.requests_per_sec = 0.85 * WebFarmCapacityRps(params);
  const WebFarmResult seq = RunWebFarmScenario(params);
  EXPECT_EQ(seq.parallel_rounds, 0);
  EXPECT_EQ(seq.mailbox_rounds, 0);
  for (const int host_threads : {2, 4}) {
    WebFarmParams fanned = params;
    fanned.host_threads = host_threads;
    const WebFarmResult par = RunWebFarmScenario(fanned);
    EXPECT_GT(par.mailbox_rounds, 0) << host_threads << " host threads";
    EXPECT_EQ(par.trace_hash, seq.trace_hash) << host_threads << " host threads";
    EXPECT_EQ(par.served, seq.served) << host_threads << " host threads";
    EXPECT_EQ(par.accepted, seq.accepted) << host_threads << " host threads";
    EXPECT_EQ(par.dispatch_drops, seq.dispatch_drops) << host_threads << " host threads";
    EXPECT_EQ(par.p99_ms, seq.p99_ms) << host_threads << " host threads";
  }
}

TEST(WebFarmTest, ReplayingTheGeneratedStreamMatchesTheSeededRun) {
  const WebFarmParams seeded = PinParams();
  const WebFarmResult a = RunWebFarmScenario(seeded);
  WebFarmParams replayed = PinParams();
  replayed.replay = GenerateRequests(seeded.arrivals, seeded.run_for);
  replayed.arrivals.seed = 999;  // Must be ignored when replay is non-empty.
  const WebFarmResult b = RunWebFarmScenario(replayed);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.served, b.served);
}

TEST(WebFarmTest, OverloadShowsUpAsDropsNotCollapse) {
  WebFarmParams params = PinParams();
  const double capacity = WebFarmCapacityRps(params);
  params.arrivals.requests_per_sec = 0.5 * capacity;
  const WebFarmResult half = RunWebFarmScenario(params);
  params.arrivals.requests_per_sec = 2.0 * capacity;
  const WebFarmResult twice = RunWebFarmScenario(params);

  EXPECT_GT(twice.offered, half.offered);
  // Overload surfaces as admission drops...
  const double half_drop_frac =
      static_cast<double>(half.listen_drops + half.dispatch_drops) /
      static_cast<double>(half.offered);
  const double twice_drop_frac =
      static_cast<double>(twice.listen_drops + twice.dispatch_drops) /
      static_cast<double>(twice.offered);
  EXPECT_GT(twice_drop_frac, half_drop_frac);
  // ...while goodput saturates instead of collapsing.
  EXPECT_GE(twice.served, half.served);
  // Latency columns are well-formed at both loads.
  for (const WebFarmResult* r : {&half, &twice}) {
    EXPECT_GT(r->served, 0);
    EXPECT_LE(r->p50_ms, r->p99_ms);
    EXPECT_LE(r->p99_ms, r->p999_ms);
    EXPECT_LE(r->p999_ms, r->max_ms);
    EXPECT_GT(r->p50_ms, 0.0);
  }
  // Conservation: requests only ever sit in a queue, get dropped, or get served.
  for (const WebFarmResult* r : {&half, &twice}) {
    // accepted and dispatch_drops partition what the acceptor popped; the rest of
    // the non-listen-dropped stream is still sitting in the listen queue.
    EXPECT_LE(r->accepted + r->dispatch_drops, r->injected - r->listen_drops);
    EXPECT_LE(r->served, r->accepted);  // Unserved accepts are queued at a worker.
    EXPECT_EQ(r->injected, r->offered);  // Whole stream arrives within the horizon.
  }
}

TEST(WebFarmTest, LoadSweepSchedulesArePinned) {
  // The offered-load sweep: a 4-core, 8-worker farm for 1 s under one seed-99
  // stream per ratio of saturation, generated once and replayed. Each ratio's
  // schedule is pinned; across the sweep overload must surface as a rising drop
  // fraction while goodput saturates rather than collapsing.
  struct Row {
    double ratio;
    uint64_t trace_hash;
  };
  constexpr Row kSweep[] = {{0.5, 10195338160710204624ull},
                            {0.75, 3939434344561939996ull},
                            {1.0, 7758713012166673980ull},
                            {1.5, 2417153164444833427ull},
                            {2.0, 8051969049420729151ull}};
  WebFarmParams params;
  params.num_cpus = 4;
  params.num_workers = 8;
  params.run_for = Duration::Millis(1000);
  ArrivalConfig arrivals;
  arrivals.seed = 99;
  std::vector<WebFarmResult> results;
  for (const Row& row : kSweep) {
    arrivals.requests_per_sec = row.ratio * WebFarmCapacityRps(params);
    params.replay = GenerateRequests(arrivals, params.run_for);
    const WebFarmResult& r = results.emplace_back(RunWebFarmScenario(params));
    EXPECT_EQ(r.trace_hash, row.trace_hash) << row.ratio << "x";
    EXPECT_GT(r.served, 0) << row.ratio << "x";
    EXPECT_LE(r.p50_ms, r.p99_ms) << row.ratio << "x";
    EXPECT_LE(r.p99_ms, r.p999_ms) << row.ratio << "x";
  }
  const auto drop_frac = [](const WebFarmResult& r) {
    return static_cast<double>(r.listen_drops + r.dispatch_drops) /
           static_cast<double>(r.offered);
  };
  EXPECT_GT(drop_frac(results.back()), drop_frac(results.front()));
  EXPECT_GE(results.back().served, results.front().served);
}

TEST(WebFarmTest, OversizedReplayRecordsAreClampedNotFatal) {
  WebFarmParams params = PinParams();
  params.worker_queue_bytes = 1024;
  params.listen_queue_bytes = 2048;
  // Hand-written log with a record far larger than any queue: the injector must
  // clamp it to the smallest capacity rather than violate the TryPush contract.
  params.replay = {{Duration::Millis(1), 1 << 20, 100'000},
                   {Duration::Millis(2), 256, 100'000},
                   {Duration::Millis(3), 4096, 100'000}};
  const WebFarmResult result = RunWebFarmScenario(params);
  EXPECT_EQ(result.offered, 3);
  EXPECT_EQ(result.injected, 3);
  EXPECT_EQ(result.served, 3);
}

TEST(WebFarmTest, AllDropRunReturnsZeroedPercentilesNotAbort) {
  // Regression: an all-drop configuration serves zero requests, and the result
  // path must return explicit zeroed latency columns instead of hitting
  // SampleSet::Percentile's non-empty precondition. Service demand far beyond
  // the horizon guarantees nothing ever completes.
  WebFarmParams params = PinParams();
  params.run_for = Duration::Millis(200);
  params.arrivals.requests_per_sec = 500.0;
  params.arrivals.service_cycles = Cycles{4'000'000'000'000};
  const WebFarmResult result = RunWebFarmScenario(params);
  EXPECT_GT(result.injected, 0);
  EXPECT_EQ(result.served, 0);
  EXPECT_DOUBLE_EQ(result.p50_ms, 0.0);
  EXPECT_DOUBLE_EQ(result.p99_ms, 0.0);
  EXPECT_DOUBLE_EQ(result.p999_ms, 0.0);
  EXPECT_DOUBLE_EQ(result.mean_ms, 0.0);
  EXPECT_DOUBLE_EQ(result.max_ms, 0.0);
}

}  // namespace
}  // namespace realrate
