// trace_replay: the request-log workflow for the open-loop web farm
// (workloads/web_farm.h). Three modes:
//
//   trace_replay --generate FILE [--seed N] [--horizon-ms M] [--ratio X]
//                [--kind poisson|sessions]
//       Materializes a seeded arrival stream (offered load = ratio x farm
//       capacity) and writes it as a request log ("-" = stdout).
//
//   trace_replay --replay FILE [--cpus N] [--workers N] [--host-threads N]
//                [--horizon-ms M]
//       Runs the log through the farm and prints the latency columns, drop
//       counts, and the trace hash. The run is a pure function of (log, flags):
//       the same log replays to a bit-identical trace, at any host-thread count.
//
//   trace_replay --selfcheck [--seed N]
//       The determinism contract, end to end: generate -> serialize -> parse ->
//       replay, asserting the parsed stream round-trips exactly and that the
//       seed-driven run, the replayed run, and a host_threads=4 replayed run all
//       produce the same trace hash. Registered as a CTest smoke in every matrix.
//
// Log format: see workloads/request_log.h (one `arrival_ns bytes service_cycles`
// line per request; `#` comments).
//
// Malformed flags — a non-decimal or out-of-range number, a ratio that is not a
// finite positive number — are usage errors (exit 2 with a diagnostic), never
// wrapped, clamped or replaced by a default.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "cli_number.h"
#include "workloads/arrivals.h"
#include "workloads/request_log.h"
#include "workloads/web_farm.h"

namespace {

using realrate::ArrivalConfig;
using realrate::Duration;
using realrate::GenerateRequests;
using realrate::ParseRequestLog;
using realrate::RequestRecord;
using realrate::RunWebFarmScenario;
using realrate::SerializeRequestLog;
using realrate::WebFarmCapacityRps;
using realrate::WebFarmParams;
using realrate::WebFarmResult;

// Flag ranges. The horizon must stay representable as a Duration in nanoseconds,
// and a ratio beyond kMaxRatio x capacity is far past anything the farm models
// while keeping the arrival rate finite.
constexpr uint64_t kMaxHorizonMs = std::numeric_limits<int64_t>::max() / 1'000'000;
constexpr uint64_t kMaxHostThreads = std::numeric_limits<int>::max();
constexpr double kMaxRatio = 1e6;

struct Args {
  enum class Mode { kNone, kGenerate, kReplay, kSelfcheck };
  Mode mode = Mode::kNone;
  std::string file;
  uint64_t seed = 1;
  int64_t horizon_ms = 0;  // 0 (flag omitted) = mode-specific default.
  double ratio = 1.2;
  ArrivalConfig::Kind kind = ArrivalConfig::Kind::kPoisson;
  int64_t cpus = 4;
  int64_t workers = 8;
  int64_t host_threads = 1;
};

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --generate FILE [--seed N] [--horizon-ms M] [--ratio X]\n"
               "          [--kind poisson|sessions]\n"
               "       %s --replay FILE [--cpus N] [--workers N] [--host-threads N]\n"
               "          [--horizon-ms M]\n"
               "       %s --selfcheck [--seed N]\n",
               argv0, argv0, argv0);
}

bool Parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_text = [&](std::string& out) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value for %s\n", argv[0], arg.c_str());
        return false;
      }
      out = argv[++i];
      return true;
    };
    // One strict unsigned decimal in [lo, hi] (cli_number.h).
    auto next_u64 = [&](uint64_t lo, uint64_t hi, uint64_t& out) {
      std::string text;
      if (!next_text(text)) {
        return false;
      }
      if (!realrate::cli::ParseUnsigned(text.c_str(), hi, out) || out < lo) {
        std::fprintf(stderr, "%s: invalid number '%s' for %s (expected %llu..%llu)\n",
                     argv[0], text.c_str(), arg.c_str(), static_cast<unsigned long long>(lo),
                     static_cast<unsigned long long>(hi));
        return false;
      }
      return true;
    };
    uint64_t value = 0;
    if (arg == "--generate") {
      args.mode = Args::Mode::kGenerate;
      if (!next_text(args.file)) {
        return false;
      }
    } else if (arg == "--replay") {
      args.mode = Args::Mode::kReplay;
      if (!next_text(args.file)) {
        return false;
      }
    } else if (arg == "--selfcheck") {
      args.mode = Args::Mode::kSelfcheck;
    } else if (arg == "--seed") {
      if (!next_u64(0, std::numeric_limits<uint64_t>::max(), value)) {
        return false;
      }
      args.seed = value;
    } else if (arg == "--horizon-ms") {
      if (!next_u64(1, kMaxHorizonMs, value)) {
        return false;
      }
      args.horizon_ms = static_cast<int64_t>(value);
    } else if (arg == "--ratio") {
      std::string text;
      if (!next_text(text)) {
        return false;
      }
      char* end = nullptr;
      args.ratio = std::strtod(text.c_str(), &end);
      // Written as the accepting range so NaN fails too; inf fails the bound.
      if (end == text.c_str() || *end != '\0' || !(args.ratio > 0.0 && args.ratio <= kMaxRatio)) {
        std::fprintf(stderr, "%s: invalid ratio '%s' (expected a number in (0, %g])\n",
                     argv[0], text.c_str(), kMaxRatio);
        return false;
      }
    } else if (arg == "--kind") {
      std::string text;
      if (!next_text(text)) {
        return false;
      }
      if (text == "poisson") {
        args.kind = ArrivalConfig::Kind::kPoisson;
      } else if (text == "sessions") {
        args.kind = ArrivalConfig::Kind::kParetoSessions;
      } else {
        std::fprintf(stderr, "%s: --kind must be poisson or sessions\n", argv[0]);
        return false;
      }
    } else if (arg == "--cpus") {
      if (!next_u64(1, 64, value)) {
        return false;
      }
      args.cpus = static_cast<int64_t>(value);
    } else if (arg == "--workers") {
      if (!next_u64(1, 1024, value)) {
        return false;
      }
      args.workers = static_cast<int64_t>(value);
    } else if (arg == "--host-threads") {
      if (!next_u64(1, kMaxHostThreads, value)) {
        return false;
      }
      args.host_threads = static_cast<int64_t>(value);
    } else {
      Usage(argv[0]);
      return false;
    }
  }
  if (args.mode == Args::Mode::kNone) {
    Usage(argv[0]);
    return false;
  }
  return true;
}

// The farm every mode runs: WebFarmParams defaults with the CLI's machine shape.
// The selfcheck and the golden test in tests/web_farm_test.cc depend on these
// staying in sync with WebFarmParams' defaults.
WebFarmParams FarmParams(const Args& args, Duration run_for) {
  WebFarmParams params;
  params.num_cpus = static_cast<int>(args.cpus);
  params.num_workers = static_cast<int>(args.workers);
  params.host_threads = static_cast<int>(args.host_threads);
  params.run_for = run_for;
  return params;
}

ArrivalConfig StreamConfig(const Args& args) {
  WebFarmParams sizing;
  sizing.num_cpus = static_cast<int>(args.cpus);
  ArrivalConfig config;
  config.kind = args.kind;
  config.seed = args.seed;
  const double target_rps = args.ratio * WebFarmCapacityRps(sizing);
  if (args.kind == ArrivalConfig::Kind::kPoisson) {
    config.requests_per_sec = target_rps;
  } else {
    const double mean_session_requests = config.session_min_requests *
                                         config.session_alpha /
                                         (config.session_alpha - 1.0);
    config.sessions_per_sec = target_rps / mean_session_requests;
  }
  return config;
}

bool ReadFile(const std::string& path, std::string& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return false;
  }
  char buf[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.append(buf, n);
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

void PrintResult(const WebFarmResult& r) {
  std::printf("cpus=%d workers=%d\n", r.num_cpus, r.num_workers);
  std::printf("offered=%lld injected=%lld listen_drops=%lld accepted=%lld "
              "dispatch_drops=%lld served=%lld\n",
              static_cast<long long>(r.offered), static_cast<long long>(r.injected),
              static_cast<long long>(r.listen_drops), static_cast<long long>(r.accepted),
              static_cast<long long>(r.dispatch_drops), static_cast<long long>(r.served));
  std::printf("latency_ms p50=%.3f p99=%.3f p999=%.3f mean=%.3f max=%.3f\n", r.p50_ms,
              r.p99_ms, r.p999_ms, r.mean_ms, r.max_ms);
  std::printf("user_fraction=%.3f squishes=%lld quality_exceptions=%lld\n",
              r.aggregate_user_fraction, static_cast<long long>(r.squish_events),
              static_cast<long long>(r.quality_exceptions));
  std::printf("trace_hash=%llu\n", static_cast<unsigned long long>(r.trace_hash));
}

int Generate(const Args& args) {
  const Duration horizon =
      Duration::Millis(args.horizon_ms > 0 ? args.horizon_ms : 2000);
  const std::vector<RequestRecord> records = GenerateRequests(StreamConfig(args), horizon);
  const std::string text = SerializeRequestLog(records);
  if (args.file == "-") {
    std::fwrite(text.data(), 1, text.size(), stdout);
    return 0;
  }
  std::FILE* f = std::fopen(args.file.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", args.file.c_str());
    return 1;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  std::printf("wrote %zu requests to %s\n", records.size(), args.file.c_str());
  return 0;
}

int Replay(const Args& args) {
  std::string text;
  if (!ReadFile(args.file, text)) {
    std::fprintf(stderr, "cannot read %s\n", args.file.c_str());
    return 1;
  }
  std::vector<RequestRecord> records;
  std::string error;
  if (!ParseRequestLog(text, &records, &error)) {
    std::fprintf(stderr, "%s: %s\n", args.file.c_str(), error.c_str());
    return 1;
  }
  // An empty (or comment/whitespace-only) log parses successfully but replaying
  // zero requests is never what the caller meant — the usual cause is a wrong
  // path or a generate step that wrote nothing. Loud error over silent no-op,
  // matching the strict-flag precedent.
  if (records.empty()) {
    std::fprintf(stderr, "%s: request log contains no requests; nothing to replay\n",
                 args.file.c_str());
    return 1;
  }
  // Default horizon: the last arrival plus settling time, so the tail of the log
  // actually gets served.
  Duration run_for = Duration::Millis(args.horizon_ms);
  if (!run_for.IsPositive()) {
    const Duration last = records.empty() ? Duration::Zero() : records.back().arrival;
    run_for = last + Duration::Millis(500);
  }
  WebFarmParams params = FarmParams(args, run_for);
  params.replay = std::move(records);
  PrintResult(RunWebFarmScenario(params));
  return 0;
}

int Selfcheck(const Args& args) {
  // A short overloaded farm: drops and deep queues exercise every code path the
  // determinism contract has to cover.
  Args shaped = args;
  shaped.ratio = 1.5;
  const Duration horizon = Duration::Millis(400);
  const ArrivalConfig config = StreamConfig(shaped);
  const std::vector<RequestRecord> records = GenerateRequests(config, horizon);
  if (records.empty()) {
    std::fprintf(stderr, "selfcheck: generated an empty stream\n");
    return 1;
  }

  // 1. The log round-trips bit-exactly.
  std::vector<RequestRecord> reparsed;
  std::string error;
  if (!ParseRequestLog(SerializeRequestLog(records), &reparsed, &error)) {
    std::fprintf(stderr, "selfcheck: reparse failed: %s\n", error.c_str());
    return 1;
  }
  if (reparsed != records) {
    std::fprintf(stderr, "selfcheck: serialize/parse round trip diverged (%zu vs %zu)\n",
                 records.size(), reparsed.size());
    return 1;
  }

  // 2. Seed-driven and replayed runs are bit-identical, at 1 and 4 host threads.
  WebFarmParams seeded = FarmParams(shaped, horizon);
  seeded.arrivals = config;
  const WebFarmResult from_seed = RunWebFarmScenario(seeded);

  WebFarmParams replayed = FarmParams(shaped, horizon);
  replayed.replay = reparsed;
  const WebFarmResult from_log = RunWebFarmScenario(replayed);

  WebFarmParams fanned = replayed;
  fanned.host_threads = 4;
  const WebFarmResult from_log_mt = RunWebFarmScenario(fanned);

  if (from_seed.trace_hash != from_log.trace_hash ||
      from_seed.served != from_log.served) {
    std::fprintf(stderr, "selfcheck: seed run and replay diverged (hash %llu vs %llu)\n",
                 static_cast<unsigned long long>(from_seed.trace_hash),
                 static_cast<unsigned long long>(from_log.trace_hash));
    return 1;
  }
  if (from_log.trace_hash != from_log_mt.trace_hash ||
      from_log.served != from_log_mt.served) {
    std::fprintf(stderr,
                 "selfcheck: host_threads 1 and 4 diverged (hash %llu vs %llu)\n",
                 static_cast<unsigned long long>(from_log.trace_hash),
                 static_cast<unsigned long long>(from_log_mt.trace_hash));
    return 1;
  }
  if (from_seed.served == 0) {
    std::fprintf(stderr, "selfcheck: nothing served\n");
    return 1;
  }

  // 3. A mailbox-eligible farm: at 85% of capacity (no sustained overload, so
  // queues keep both a fill cushion and headroom) the acceptor's scatter and the
  // workers' drains stay within the per-core epoch mailbox gate's bounds. The
  // 4-host-thread replay must actually stake rounds — otherwise the host-thread
  // equality above is vacuous for queue-driven rounds — and still reproduce the
  // sequential trace bit for bit.
  Args steady = args;
  steady.ratio = 0.85;
  const std::vector<RequestRecord> steady_records =
      GenerateRequests(StreamConfig(steady), horizon);
  WebFarmParams steady_seq = FarmParams(steady, horizon);
  steady_seq.replay = steady_records;
  const WebFarmResult steady_one = RunWebFarmScenario(steady_seq);
  WebFarmParams steady_par = FarmParams(steady, horizon);
  steady_par.replay = steady_records;
  steady_par.host_threads = 4;
  const WebFarmResult steady_four = RunWebFarmScenario(steady_par);
  if (steady_four.mailbox_rounds <= 0 || steady_four.parallel_rounds <= 0) {
    std::fprintf(stderr,
                 "selfcheck: the 85%%-capacity replay staked no mailbox rounds "
                 "(parallel=%lld mailbox=%lld) — the host-thread equality is "
                 "vacuous for queue-driven rounds\n",
                 static_cast<long long>(steady_four.parallel_rounds),
                 static_cast<long long>(steady_four.mailbox_rounds));
    return 1;
  }
  if (steady_one.trace_hash != steady_four.trace_hash ||
      steady_one.served != steady_four.served) {
    std::fprintf(stderr,
                 "selfcheck: mailbox replay diverged at host_threads 4 (hash %llu "
                 "vs %llu)\n",
                 static_cast<unsigned long long>(steady_one.trace_hash),
                 static_cast<unsigned long long>(steady_four.trace_hash));
    return 1;
  }

  std::printf("selfcheck ok: %zu requests, served=%lld, trace_hash=%llu, "
              "mailbox_rounds=%lld\n",
              records.size(), static_cast<long long>(from_seed.served),
              static_cast<unsigned long long>(from_seed.trace_hash),
              static_cast<long long>(steady_four.mailbox_rounds));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!Parse(argc, argv, args)) {
    return 2;
  }
  switch (args.mode) {
    case Args::Mode::kGenerate:
      return Generate(args);
    case Args::Mode::kReplay:
      return Replay(args);
    case Args::Mode::kSelfcheck:
      return Selfcheck(args);
    case Args::Mode::kNone:
      break;
  }
  return 2;
}
