/**
 * @file
 * heron_tune: command-line tuning driver.
 *
 * Tune one operator for one DLA from the shell, print the winning
 * schedule and generated kernel source, and optionally append the
 * result to a JSON-lines tuning log.
 *
 * Usage:
 *   heron_tune --dla v100|t4|a100|dlboost|vta
 *              --op gemm|gemv|bmm|c1d|c2d|c3d|t2d|dil|scan
 *              --shape M,N,K (operator-specific parameter list)
 *              [--trials N] [--seed S] [--tuner heron|autotvm|
 *               ansor|amos|akg|vendor] [--log FILE] [--emit]
 *              [--journal FILE] [--fault-transient RATE]
 *              [--fault-timeout RATE] [--trace FILE]
 *              [--metrics FILE] [--telemetry FILE]
 *
 * --journal keeps a flushed JSONL record of every measurement;
 * re-running the same command after a crash resumes from it
 * bit-identically. The --fault-* flags inject seeded measurement
 * faults to exercise the retry/timeout machinery.
 *
 * Observability: --trace writes a Chrome trace-event JSON (load in
 * chrome://tracing or Perfetto), --metrics writes the process
 * metrics snapshot as JSON, --telemetry streams one JSONL record
 * per measurement round. Any of the three also arms the profiler
 * and prints an end-of-run summary table.
 *
 * Examples:
 *   heron_tune --dla v100 --op gemm --shape 512,1024,1024
 *   heron_tune --dla dlboost --op c2d \
 *              --shape 16,64,56,56,64,3,3,1,1,1 --trials 400
 *   heron_tune --dla vta --op gemm --shape 256,256,256 --emit
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "autotune/checkpoint.h"
#include "autotune/record.h"
#include "autotune/tuner.h"
#include "codegen/emitter.h"
#include "schedule/concrete.h"
#include "support/profiler.h"

using namespace heron;

namespace {

struct CliArgs {
    std::string dla = "v100";
    std::string op = "gemm";
    std::string tuner = "heron";
    std::vector<int64_t> shape;
    int trials = 200;
    uint64_t seed = 1;
    std::string log_path;
    std::string journal_path;
    std::string trace_path;
    std::string metrics_path;
    std::string telemetry_path;
    double fault_transient = 0.0;
    double fault_timeout = 0.0;
    double fault_hung = 0.0;
    int measure_workers = 1;
    int sample_workers = 1;
    int quarantine_threshold = 3;
    double watchdog_ms = 2000.0;
    bool emit = false;

    bool
    profiled() const
    {
        return !trace_path.empty() || !metrics_path.empty() ||
               !telemetry_path.empty();
    }
};

/** Exit codes (also printed by --help). */
enum ExitCode {
    kExitSuccess = 0,
    /** No valid program found / workload unsupported. */
    kExitNoProgram = 1,
    /** Bad command line. */
    kExitUsage = 2,
    /** Tuning stopped with every candidate quarantined. */
    kExitAllQuarantined = 3,
    /** Journal corrupt beyond the recoverable torn tail. */
    kExitJournalCorrupt = 4,
    /** Search deadline exhausted before a program was found. */
    kExitDeadlineExhausted = 5,
};

void
print_usage(std::FILE *to)
{
    std::fprintf(
        to,
        "usage: heron_tune --dla <v100|t4|a100|dlboost|vta>"
        " --op <gemm|gemv|bmm|c1d|c2d|c3d|t2d|dil|scan>"
        " --shape <comma-separated>"
        " [--trials N] [--seed S]"
        " [--tuner heron|autotvm|ansor|amos|akg|vendor]"
        " [--log FILE] [--journal FILE]"
        " [--measure-workers N] [--sample-workers N]"
        " [--watchdog-ms MS]"
        " [--quarantine-threshold N]"
        " [--fault-transient RATE] [--fault-timeout RATE]"
        " [--fault-hung RATE]"
        " [--trace FILE] [--metrics FILE]"
        " [--telemetry FILE] [--emit] [--help]\n"
        "\n"
        "robustness:\n"
        "  --measure-workers N       parallel measurement workers "
        "(default 1;\n"
        "                            results are bit-identical for "
        "any N)\n"
        "  --sample-workers N        parallel CSP sampling workers "
        "(default 1;\n"
        "                            populations are bit-identical "
        "for any N)\n"
        "  --watchdog-ms MS          per-candidate measurement "
        "deadline (2000)\n"
        "  --quarantine-threshold N  invalid/hung strikes before a "
        "schedule\n"
        "                            signature is quarantined (3; 0 "
        "disables)\n"
        "  --fault-hung RATE         inject wedged-kernel faults at "
        "RATE\n"
        "\n"
        "exit codes:\n"
        "  0  success\n"
        "  1  no valid program found / workload unsupported\n"
        "  2  bad command line\n"
        "  3  tuning stopped with every candidate quarantined\n"
        "  4  journal corrupt beyond recovery (a torn tail is\n"
        "     recoverable; CRC mismatches, malformed lines, or\n"
        "     sequence regressions are not)\n"
        "  5  search deadline exhausted before a valid program\n");
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr, "heron_tune: %s\n", msg);
    print_usage(stderr);
    std::exit(kExitUsage);
}

CliArgs
parse(int argc, char **argv)
{
    CliArgs args;
    for (int i = 1; i < argc; ++i) {
        auto need = [&](const char *flag) {
            if (i + 1 >= argc)
                usage((std::string(flag) + " needs a value").c_str());
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--dla")) {
            args.dla = need("--dla");
        } else if (!std::strcmp(argv[i], "--op")) {
            args.op = need("--op");
        } else if (!std::strcmp(argv[i], "--tuner")) {
            args.tuner = need("--tuner");
        } else if (!std::strcmp(argv[i], "--shape")) {
            std::istringstream in(need("--shape"));
            std::string token;
            while (std::getline(in, token, ','))
                args.shape.push_back(std::atoll(token.c_str()));
        } else if (!std::strcmp(argv[i], "--trials")) {
            args.trials = std::atoi(need("--trials"));
        } else if (!std::strcmp(argv[i], "--seed")) {
            args.seed = static_cast<uint64_t>(
                std::atoll(need("--seed")));
        } else if (!std::strcmp(argv[i], "--log")) {
            args.log_path = need("--log");
        } else if (!std::strcmp(argv[i], "--journal")) {
            args.journal_path = need("--journal");
        } else if (!std::strcmp(argv[i], "--trace")) {
            args.trace_path = need("--trace");
        } else if (!std::strcmp(argv[i], "--metrics")) {
            args.metrics_path = need("--metrics");
        } else if (!std::strcmp(argv[i], "--telemetry")) {
            args.telemetry_path = need("--telemetry");
        } else if (!std::strcmp(argv[i], "--fault-transient")) {
            args.fault_transient =
                std::atof(need("--fault-transient"));
        } else if (!std::strcmp(argv[i], "--fault-timeout")) {
            args.fault_timeout = std::atof(need("--fault-timeout"));
        } else if (!std::strcmp(argv[i], "--fault-hung")) {
            args.fault_hung = std::atof(need("--fault-hung"));
        } else if (!std::strcmp(argv[i], "--measure-workers")) {
            args.measure_workers =
                std::atoi(need("--measure-workers"));
        } else if (!std::strcmp(argv[i], "--sample-workers")) {
            args.sample_workers =
                std::atoi(need("--sample-workers"));
        } else if (!std::strcmp(argv[i],
                                "--quarantine-threshold")) {
            args.quarantine_threshold =
                std::atoi(need("--quarantine-threshold"));
        } else if (!std::strcmp(argv[i], "--watchdog-ms")) {
            args.watchdog_ms = std::atof(need("--watchdog-ms"));
        } else if (!std::strcmp(argv[i], "--help") ||
                   !std::strcmp(argv[i], "-h")) {
            print_usage(stdout);
            std::exit(kExitSuccess);
        } else if (!std::strcmp(argv[i], "--emit")) {
            args.emit = true;
        } else {
            usage((std::string("unknown flag ") + argv[i]).c_str());
        }
    }
    return args;
}

hw::DlaSpec
spec_for(const std::string &name)
{
    if (name == "v100")
        return hw::DlaSpec::v100();
    if (name == "t4")
        return hw::DlaSpec::t4();
    if (name == "a100")
        return hw::DlaSpec::a100();
    if (name == "dlboost")
        return hw::DlaSpec::dlboost();
    if (name == "vta")
        return hw::DlaSpec::vta();
    usage("unknown --dla");
}

ops::Workload
workload_for(const CliArgs &args, const hw::DlaSpec &spec)
{
    ir::DataType dt = spec.kind == hw::DlaKind::kTensorCore
                          ? ir::DataType::kFloat16
                          : ir::DataType::kInt8;
    const auto &s = args.shape;
    auto want = [&](size_t n, const char *fmt) {
        if (s.size() != n)
            usage((std::string("--shape for this op must be ") +
                   fmt)
                      .c_str());
    };
    if (args.op == "gemm") {
        want(3, "M,N,K");
        return ops::gemm(s[0], s[1], s[2], dt);
    }
    if (args.op == "gemv") {
        want(2, "M,K");
        return ops::gemv(s[0], s[1], dt);
    }
    if (args.op == "bmm") {
        want(4, "B,M,N,K");
        return ops::bmm(s[0], s[1], s[2], s[3], dt);
    }
    if (args.op == "c1d") {
        want(7, "N,CI,L,CO,KW,stride,pad");
        return ops::c1d(s[0], s[1], s[2], s[3], s[4], s[5], s[6],
                        dt);
    }
    if (args.op == "c2d") {
        want(9, "N,CI,H,W,CO,R,S,stride,pad");
        return ops::c2d(s[0], s[1], s[2], s[3], s[4], s[5], s[6],
                        s[7], s[8], dt);
    }
    if (args.op == "c3d") {
        want(11, "N,CI,D,H,W,CO,KD,R,S,stride,pad");
        return ops::c3d(s[0], s[1], s[2], s[3], s[4], s[5], s[6],
                        s[7], s[8], s[9], s[10], dt);
    }
    if (args.op == "t2d") {
        want(9, "N,CI,H,W,CO,R,S,stride,pad");
        return ops::t2d(s[0], s[1], s[2], s[3], s[4], s[5], s[6],
                        s[7], s[8], dt);
    }
    if (args.op == "dil") {
        want(10, "N,CI,H,W,CO,R,S,stride,pad,dilation");
        return ops::dil(s[0], s[1], s[2], s[3], s[4], s[5], s[6],
                        s[7], s[8], s[9], dt);
    }
    if (args.op == "scan") {
        want(2, "N,L");
        return ops::scan(s[0], s[1]);
    }
    usage("unknown --op");
}

std::unique_ptr<autotune::Tuner>
tuner_for(const CliArgs &args, const hw::DlaSpec &spec)
{
    autotune::TuneConfig config;
    config.trials = args.trials;
    config.seed = args.seed;
    config.journal_path = args.journal_path;
    config.telemetry_path = args.telemetry_path;
    config.faults.transient_rate = args.fault_transient;
    config.faults.timeout_rate = args.fault_timeout;
    config.faults.hung_rate = args.fault_hung;
    config.measure_workers = args.measure_workers;
    config.sample_workers = args.sample_workers;
    config.quarantine_threshold = args.quarantine_threshold;
    config.watchdog_deadline_ms = args.watchdog_ms;
    if (args.tuner == "heron")
        return autotune::make_heron_tuner(spec, config);
    if (args.tuner == "autotvm")
        return autotune::make_autotvm_tuner(spec, config);
    if (args.tuner == "ansor")
        return autotune::make_ansor_tuner(spec, config);
    if (args.tuner == "amos")
        return autotune::make_amos_tuner(spec, config);
    if (args.tuner == "akg")
        return autotune::make_akg_tuner(spec, config);
    if (args.tuner == "vendor")
        return autotune::make_vendor_library(spec, config);
    usage("unknown --tuner");
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args = parse(argc, argv);
    if (args.shape.empty())
        usage("--shape is required");

    hw::DlaSpec spec = spec_for(args.dla);
    ops::Workload workload = workload_for(args, spec);
    auto tuner = tuner_for(args, spec);
    if (!tuner->supports(workload)) {
        std::fprintf(stderr, "%s does not support %s on %s\n",
                     tuner->name().c_str(), workload.name.c_str(),
                     spec.name.c_str());
        return kExitNoProgram;
    }

    // Refuse to resume from a journal showing real corruption. A
    // torn tail (crash mid-append) is recoverable and fine; CRC
    // mismatches, malformed lines, or sequence regressions mean the
    // journal was damaged or spliced and silently resuming from it
    // could replay wrong measurements.
    if (!args.journal_path.empty()) {
        autotune::RecordReadStats jstats;
        autotune::TuningJournal::load(args.journal_path, &jstats);
        if (jstats.corrupt()) {
            std::fprintf(
                stderr,
                "heron_tune: journal %s is corrupt beyond recovery "
                "(%lld malformed, %lld CRC mismatch(es), %lld "
                "sequence regression(s)); move it aside to start "
                "fresh\n",
                args.journal_path.c_str(),
                static_cast<long long>(jstats.malformed),
                static_cast<long long>(jstats.crc_mismatches),
                static_cast<long long>(jstats.seq_regressions));
            return kExitJournalCorrupt;
        }
        if (jstats.recovered_truncations > 0)
            std::printf("Recovered a torn journal tail in %s "
                        "(crash mid-append); resuming.\n",
                        args.journal_path.c_str());
    }

    prof::Profiler &profiler = prof::Profiler::global();
    if (args.profiled())
        profiler.enable();

    std::printf("Tuning %s on %s with %s (%d trials)...\n",
                workload.label().c_str(), spec.name.c_str(),
                tuner->name().c_str(), args.trials);
    auto outcome = tuner->tune(workload);

    if (args.profiled()) {
        if (!args.trace_path.empty()) {
            if (profiler.write_chrome_trace(args.trace_path))
                std::printf("Wrote Chrome trace to %s\n",
                            args.trace_path.c_str());
            else
                std::fprintf(stderr,
                             "heron_tune: cannot write trace %s\n",
                             args.trace_path.c_str());
        }
        if (!args.metrics_path.empty()) {
            if (profiler.write_metrics(args.metrics_path))
                std::printf("Wrote metrics snapshot to %s\n",
                            args.metrics_path.c_str());
            else
                std::fprintf(stderr,
                             "heron_tune: cannot write metrics %s\n",
                             args.metrics_path.c_str());
        }
        std::printf("%s",
                    profiler.summary_table().to_string().c_str());
        if (outcome.profiled)
            std::printf("Phase decomposition drift: %.4f s "
                        "(search+model wall minus profiler spans)\n",
                        outcome.profile_delta_seconds);
    }

    if (!outcome.result.found()) {
        std::printf("No valid program found (%s).\n",
                    autotune::stop_reason_name(
                        outcome.stop_reason));
        switch (outcome.stop_reason) {
          case autotune::StopReason::kAllQuarantined:
            return kExitAllQuarantined;
          case autotune::StopReason::kDeadline:
            return kExitDeadlineExhausted;
          default:
            return kExitNoProgram;
        }
    }
    std::printf("Best: %.4f ms, %.0f GFLOP/s (peak %.0f); %lld/%lld "
                "measurements valid; compile %.1f s (%.1f s "
                "measuring)\n",
                outcome.result.best_latency_ms,
                outcome.result.best_gflops, spec.peak_gmacs() * 2.0,
                static_cast<long long>(outcome.result.valid_count),
                static_cast<long long>(
                    outcome.result.total_measured),
                outcome.compile_seconds(), outcome.measure_seconds);
    const hw::MeasureStats &ms = outcome.measure_stats;
    if (ms.transient_faults || ms.timeouts || ms.invalid ||
        ms.retries || outcome.replayed)
        std::printf("Failures: %lld transient, %lld timeout, %lld "
                    "invalid; %lld retries (%lld exhausted), %lld "
                    "outliers rejected; %lld replayed from "
                    "journal\n",
                    static_cast<long long>(ms.transient_faults),
                    static_cast<long long>(ms.timeouts),
                    static_cast<long long>(ms.invalid),
                    static_cast<long long>(ms.retries),
                    static_cast<long long>(ms.exhausted_retries),
                    static_cast<long long>(ms.outliers_rejected),
                    static_cast<long long>(outcome.replayed));
    if (ms.hung || outcome.watchdog_fires ||
        outcome.abandoned_workers || outcome.pool_degraded ||
        outcome.quarantined_signatures || outcome.quarantine_skips)
        std::printf("Pool: %lld hung, %lld watchdog fire(s), %lld "
                    "worker(s) abandoned%s; %lld signature(s) "
                    "quarantined, %lld candidate(s) skipped\n",
                    static_cast<long long>(ms.hung),
                    static_cast<long long>(outcome.watchdog_fires),
                    static_cast<long long>(
                        outcome.abandoned_workers),
                    outcome.pool_degraded
                        ? " (degraded to serial)"
                        : "",
                    static_cast<long long>(
                        outcome.quarantined_signatures),
                    static_cast<long long>(
                        outcome.quarantine_skips));
    const csp::SolverStats &ss = outcome.solver_stats;
    if (ss.solve_calls > 0)
        std::printf("Solver: %lld solve(s), %lld solution(s), %lld "
                    "propagation(s) (%.1f/solve), %lld revision(s), "
                    "%lld backtrack(s), %lld restart(s), %lld unsat "
                    "(%lld from memo), %lld budget, %lld deadline\n",
                    static_cast<long long>(ss.solve_calls),
                    static_cast<long long>(ss.solutions),
                    static_cast<long long>(ss.propagations),
                    static_cast<double>(ss.propagations) /
                        static_cast<double>(ss.solve_calls),
                    static_cast<long long>(ss.revisions),
                    static_cast<long long>(ss.backtracks),
                    static_cast<long long>(ss.restarts),
                    static_cast<long long>(ss.unsat),
                    static_cast<long long>(ss.unsat_memo_hits),
                    static_cast<long long>(ss.budget_exhausted),
                    static_cast<long long>(ss.deadline_aborts));

    rules::SpaceGenerator generator(spec, rules::Options::heron());
    auto space = generator.generate(workload);
    if (space.csp.num_vars() == outcome.result.best.size()) {
        auto program = space.bind(outcome.result.best);
        std::printf("\n%s", program.to_string().c_str());
        if (args.emit)
            std::printf("\n%s",
                        codegen::emit_source(space, program).c_str());
    }

    if (!args.log_path.empty() &&
        space.csp.num_vars() == outcome.result.best.size()) {
        autotune::TuningRecord record;
        record.workload = workload.name;
        record.dla = spec.name;
        record.tuner = tuner->name();
        record.latency_ms = outcome.result.best_latency_ms;
        record.gflops = outcome.result.best_gflops;
        record.assignment = outcome.result.best;
        std::ofstream log(args.log_path, std::ios::app);
        log << record.to_json() << "\n";
        std::printf("\nAppended record to %s\n",
                    args.log_path.c_str());
    }
    return 0;
}
