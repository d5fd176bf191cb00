// realrate_check: seeded fuzzing driver for the invariant oracle and the
// differential scheduler harness (src/harness). Runs N generated workloads — each
// derived entirely from a uint64 seed — under RBS+feedback, lottery, MLFQ, and
// fixed-priority machines, validating runtime invariants and metamorphic properties.
// On the first violating seed it prints the seed, the generated workload, every
// failure, a ready-to-paste repro command, and writes the offending trace dump to
// --dump-dir. See docs/TESTING.md.
//
// Usage:
//   realrate_check [--iterations N] [--seed-base S] [--dump-dir DIR]
//                  [--no-metamorphic] [--host-threads N] [--quiet]
//   realrate_check --seed S          # one seed, verbose (the repro mode)
//
// Every numeric flag is validated strictly: negative values, garbage, overflow, and
// out-of-range widths (--host-threads needs >= 2; omit the flag for the hardware
// default) are usage errors with a non-zero exit, never silently reinterpreted.
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness/differential.h"
#include "harness/workload_gen.h"

namespace {

struct Args {
  int64_t iterations = 50;
  uint64_t seed_base = 1;
  uint64_t single_seed = 0;
  bool single = false;
  bool metamorphic = true;
  bool quiet = false;
  // Widest host-thread count for the host-thread equivalence pass; 0 means "use
  // the host's hardware concurrency" (SeedCheckOptions::equivalence_host_threads).
  int64_t host_threads = 0;
  bool host_threads_set = false;
  std::string dump_dir = ".";
};

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--iterations N] [--seed-base S] [--seed S] [--dump-dir DIR]\n"
               "          [--no-metamorphic] [--host-threads N] [--quiet]\n",
               argv0);
}

bool Parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // A malformed number must fail loudly: silently running seed 0 instead of the
    // one pasted from a CI log would "reproduce" the wrong scenario. strtoull alone
    // is not enough — it wraps negative input ("-5" becomes 2^64-5) and clamps
    // overflow with errno, so both are rejected explicitly.
    auto next = [&](uint64_t& out) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value for %s\n", argv[0], arg.c_str());
        return false;
      }
      const char* text = argv[++i];
      auto invalid = [&] {
        std::fprintf(stderr, "%s: invalid number '%s' for %s\n", argv[0], text,
                     arg.c_str());
        return false;
      };
      if (text[0] < '0' || text[0] > '9') {
        return invalid();  // Signs, whitespace, empty: the flags take unsigned decimal.
      }
      errno = 0;
      char* end = nullptr;
      out = std::strtoull(text, &end, 10);
      if (end == text || *end != '\0' || errno == ERANGE) {
        return invalid();
      }
      return true;
    };
    uint64_t value = 0;
    if (arg == "--iterations") {
      if (!next(value)) {
        return false;
      }
      args.iterations = static_cast<int64_t>(value);
    } else if (arg == "--seed-base") {
      if (!next(value)) {
        return false;
      }
      args.seed_base = value;
    } else if (arg == "--seed") {
      if (!next(value)) {
        return false;
      }
      args.single_seed = value;
      args.single = true;
    } else if (arg == "--host-threads") {
      if (!next(value)) {
        return false;
      }
      args.host_threads = static_cast<int64_t>(value);
      args.host_threads_set = true;
    } else if (arg == "--dump-dir" && i + 1 < argc) {
      args.dump_dir = argv[++i];
    } else if (arg == "--no-metamorphic") {
      args.metamorphic = false;
    } else if (arg == "--quiet") {
      args.quiet = true;
    } else {
      Usage(argv[0]);
      return false;
    }
  }
  if (args.iterations <= 0) {
    std::fprintf(stderr, "%s: --iterations must be positive\n", argv[0]);
    return false;
  }
  // 0 stays the internal "hardware concurrency" default, but only by omitting the
  // flag: an explicit --host-threads 0 (or 1) asks for a fan-out width that cannot
  // exercise the parallel engine, which is operator error, not a configuration.
  if (args.host_threads_set && args.host_threads < 2) {
    std::fprintf(stderr, "%s: --host-threads must be >= 2 (omit for the hardware default)\n",
                 argv[0]);
    return false;
  }
  return true;
}

// Writes the failing seed's artifact (spec + failures + trace) for CI upload.
// Returns the path, or "" if the directory was unwritable.
std::string WriteArtifact(const Args& args, const realrate::SeedReport& report) {
  const std::string path =
      args.dump_dir + "/realrate_check_seed_" + std::to_string(report.seed) + ".txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return "";
  }
  std::fprintf(f, "%s\nfailures:\n", report.spec.ToString().c_str());
  for (const std::string& failure : report.failures) {
    std::fprintf(f, "  %s\n", failure.c_str());
  }
  if (!report.trace_dump.empty()) {
    std::fprintf(f, "\noffending trace:\n%s", report.trace_dump.c_str());
  }
  std::fclose(f);
  return path;
}

int ReportFailure(const Args& args, const realrate::SeedReport& report) {
  std::fprintf(stderr, "FAIL seed %llu\n%s",
               static_cast<unsigned long long>(report.seed),
               report.spec.ToString().c_str());
  for (const std::string& failure : report.failures) {
    std::fprintf(stderr, "  %s\n", failure.c_str());
  }
  const std::string artifact = WriteArtifact(args, report);
  if (!artifact.empty()) {
    std::fprintf(stderr, "trace dump written to %s\n", artifact.c_str());
  }
  std::fprintf(stderr, "reproduce with: realrate_check --seed %llu\n",
               static_cast<unsigned long long>(report.seed));
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!Parse(argc, argv, args)) {
    return 2;
  }
  realrate::SeedCheckOptions options;
  options.run_metamorphic = args.metamorphic;
  options.equivalence_host_threads = static_cast<int>(args.host_threads);

  if (args.single) {
    const realrate::SeedReport report = realrate::CheckSeed(args.single_seed, options);
    if (!report.ok()) {
      return ReportFailure(args, report);  // Prints the spec with the failures.
    }
    std::printf("%s", report.spec.ToString().c_str());
    std::printf("seed %llu: all invariants and metamorphic properties hold\n",
                static_cast<unsigned long long>(args.single_seed));
    return 0;
  }

  // Vacuity accounting for the host-thread equivalence pass: across the battery,
  // how many rounds actually fanned out, how many staked queue ops through the
  // per-core epoch mailboxes, and how many seeds came from the generator's
  // mailbox-regime bucket. If bucket seeds were generated but not one round
  // staked, the 1-vs-N equality quietly stopped testing parallel queue rounds —
  // that is a harness regression, failed as loudly as a trace divergence. The same
  // holds for the pick oracle: a 100-seed battery in which no pick was checked
  // while a core's pick index was active has stopped testing the index.
  int64_t total_parallel_rounds = 0;
  int64_t total_mailbox_rounds = 0;
  int64_t mailbox_regime_seeds = 0;
  int64_t total_indexed_pick_checks = 0;
  for (int64_t i = 0; i < args.iterations; ++i) {
    const uint64_t seed = args.seed_base + static_cast<uint64_t>(i);
    const realrate::SeedReport report = realrate::CheckSeed(seed, options);
    if (!report.ok()) {
      return ReportFailure(args, report);
    }
    total_parallel_rounds += report.equivalence_parallel_rounds;
    total_mailbox_rounds += report.equivalence_mailbox_rounds;
    mailbox_regime_seeds += report.spec.mailbox_regime ? 1 : 0;
    total_indexed_pick_checks += report.indexed_pick_checks;
    if (!args.quiet && (i + 1) % 25 == 0) {
      std::printf("%lld/%lld seeds ok (last: %llu)\n", static_cast<long long>(i + 1),
                  static_cast<long long>(args.iterations),
                  static_cast<unsigned long long>(seed));
      std::fflush(stdout);
    }
  }
  if (!args.quiet) {
    std::printf("all %lld seeds passed (seeds %llu..%llu)\n",
                static_cast<long long>(args.iterations),
                static_cast<unsigned long long>(args.seed_base),
                static_cast<unsigned long long>(args.seed_base +
                                                static_cast<uint64_t>(args.iterations) - 1));
    std::printf("host-thread equivalence: %lld rounds fanned out, %lld staked queue "
                "ops via mailboxes (%lld mailbox-regime seeds)\n",
                static_cast<long long>(total_parallel_rounds),
                static_cast<long long>(total_mailbox_rounds),
                static_cast<long long>(mailbox_regime_seeds));
    std::printf("pick oracle: %lld picks checked with the pick index active\n",
                static_cast<long long>(total_indexed_pick_checks));
  }
  if (mailbox_regime_seeds > 0 && total_mailbox_rounds == 0) {
    std::fprintf(stderr,
                 "FAIL vacuity: %lld mailbox-regime seeds ran the host-thread "
                 "equivalence pass but zero rounds staked queue ops through the "
                 "mailboxes — the 1-vs-N comparison no longer exercises parallel "
                 "queue rounds\n",
                 static_cast<long long>(mailbox_regime_seeds));
    return 1;
  }
  if (args.iterations >= 100 && total_indexed_pick_checks == 0) {
    std::fprintf(stderr,
                 "FAIL vacuity: %lld seeds ran but the oracle checked no pick made "
                 "while a core's pick index was active — the index went unchecked\n",
                 static_cast<long long>(args.iterations));
    return 1;
  }
  return 0;
}
