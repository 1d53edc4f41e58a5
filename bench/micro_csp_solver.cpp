/**
 * @file
 * CSP solver throughput microbench (the tuning pipeline's hot
 * loop). Reproduces the fig12 CGA solve workload — plain population
 * draws plus crossover-constrained offspring solves on the C2D, GEMM
 * and Table 10 C3D spaces — and reports solver throughput, per-solve
 * latency percentiles (p99 shows the restart schedule's tail),
 * backtrack, propagation and revision counts, and SampleBatch worker
 * scaling into a JSON artifact.
 *
 * Usage:
 *   micro_csp_solver [--trials N] [--seed S] [--quick]
 *                    [--out FILE]         (default BENCH_csp_solver.json)
 *
 * The embedded baseline constants are the pre-trail-rewrite solver's
 * throughput for the identical workload, recorded on the development
 * machine; the reported speedups are indicative, not a calibrated
 * cross-machine comparison. Exit code is nonzero when SampleBatch
 * results differ across worker counts (a determinism violation).
 */
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "csp/sample_batch.h"
#include "csp/solver.h"
#include "model/cost_model.h"
#include "ops/op_library.h"
#include "rules/space_generator.h"
#include "support/stats.h"

using namespace heron;
using Clock = std::chrono::steady_clock;

namespace {

/**
 * Pre-rewrite solver throughput (solves/sec) for one workload,
 * measured with the snapshot-per-decision engine on the same
 * machine and trial counts this bench defaults to.
 */
struct Baseline {
    double plain = 0.0;
    double offspring = 0.0;
};

struct SolveSeries {
    int solved = 0;
    int attempts = 0;
    double solves_per_sec = 0.0;
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double p99_ms = 0.0;
    double backtracks_per_solve = 0.0;
    double propagations_per_solve = 0.0;
    double revisions_per_solve = 0.0;
};

struct BatchPoint {
    int workers = 0;
    double solves_per_sec = 0.0;
    /** Throughput over the 1-worker point of the same series. */
    double speedup = 1.0;
    /** speedup / workers (1.0 = perfectly linear scaling). */
    double effective_parallelism = 1.0;
};

struct WorkloadReport {
    std::string name;
    SolveSeries plain;
    SolveSeries offspring;
    Baseline baseline;
    std::vector<BatchPoint> batch;
    bool batch_deterministic = true;
};

double
seconds_since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start)
        .count();
}

/** CGA-crossover-style extra set: pin key vars to parent values. */
std::vector<csp::Constraint>
crossover_extras(const std::vector<csp::VarId> &keys,
                 const std::vector<csp::Assignment> &parents,
                 Rng &rng)
{
    std::vector<csp::Constraint> extra;
    const auto &p1 = parents[rng.index(parents.size())];
    const auto &p2 = parents[rng.index(parents.size())];
    for (csp::VarId v : keys) {
        csp::Constraint c;
        c.kind = csp::ConstraintKind::kIn;
        c.result = v;
        c.constants = {p1[static_cast<size_t>(v)],
                       p2[static_cast<size_t>(v)]};
        extra.push_back(std::move(c));
    }
    return extra;
}

/** Summarize one timed run of solves on @p latencies.size() inputs. */
SolveSeries
make_series(const std::vector<double> &latencies, int solved,
            double elapsed, const csp::SolverStats &before,
            const csp::SolverStats &after)
{
    const int n = static_cast<int>(latencies.size());
    SolveSeries series;
    series.solved = solved;
    series.attempts = n;
    series.solves_per_sec = elapsed > 0 ? n / elapsed : 0.0;
    series.p50_ms = percentile(latencies, 50.0);
    series.p95_ms = percentile(latencies, 95.0);
    series.p99_ms = percentile(latencies, 99.0);
    if (n > 0) {
        series.backtracks_per_solve =
            static_cast<double>(after.backtracks - before.backtracks) /
            n;
        series.propagations_per_solve =
            static_cast<double>(after.propagations -
                                before.propagations) /
            n;
        series.revisions_per_solve =
            static_cast<double>(after.revisions - before.revisions) /
            n;
    }
    return series;
}

SolveSeries
run_plain(csp::RandSatSolver &solver, Rng &rng, int n)
{
    std::vector<double> latencies;
    latencies.reserve(static_cast<size_t>(n));
    csp::SolverStats before = solver.stats();
    auto start = Clock::now();
    int solved = 0;
    for (int i = 0; i < n; ++i) {
        auto t0 = Clock::now();
        solved += solver.solve_one(rng).has_value();
        latencies.push_back(seconds_since(t0) * 1e3);
    }
    double elapsed = seconds_since(start);
    csp::SolverStats after = solver.stats();

    return make_series(latencies, solved, elapsed, before, after);
}

SolveSeries
run_offspring(csp::RandSatSolver &solver,
              const std::vector<csp::VarId> &keys,
              const std::vector<csp::Assignment> &parents, Rng &rng,
              int n)
{
    std::vector<double> latencies;
    latencies.reserve(static_cast<size_t>(n));
    csp::SolverStats before = solver.stats();
    auto start = Clock::now();
    int solved = 0;
    for (int i = 0; i < n; ++i) {
        auto extra = crossover_extras(keys, parents, rng);
        auto t0 = Clock::now();
        solved += solver.solve_one(rng, extra).has_value();
        latencies.push_back(seconds_since(t0) * 1e3);
    }
    double elapsed = seconds_since(start);
    csp::SolverStats after = solver.stats();

    return make_series(latencies, solved, elapsed, before, after);
}

void
print_series(const char *label, const SolveSeries &s)
{
    std::printf("  %-10s %7.1f solves/sec  p50 %.3f ms  p95 %.3f "
                "ms  p99 %.3f ms  %.1f backtracks/solve  %.1f "
                "props/solve  %.1f revs/solve  (%d/%d ok)\n",
                label, s.solves_per_sec, s.p50_ms, s.p95_ms, s.p99_ms,
                s.backtracks_per_solve, s.propagations_per_solve,
                s.revisions_per_solve, s.solved, s.attempts);
}

void
write_json(const std::string &path, int trials, uint64_t seed,
           const std::vector<WorkloadReport> &reports)
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out) {
        std::fprintf(stderr, "micro_csp_solver: cannot write %s\n",
                     path.c_str());
        return;
    }
    auto series = [&](const char *name, const SolveSeries &s,
                      const char *suffix) {
        std::fprintf(out,
                     "    \"%s\": {\"solves_per_sec\": %.2f, "
                     "\"p50_ms\": %.5f, \"p95_ms\": %.5f, "
                     "\"p99_ms\": %.5f, "
                     "\"backtracks_per_solve\": %.2f, "
                     "\"propagations_per_solve\": %.2f, "
                     "\"revisions_per_solve\": %.2f, "
                     "\"solved\": %d, \"attempts\": %d}%s\n",
                     name, s.solves_per_sec, s.p50_ms, s.p95_ms,
                     s.p99_ms, s.backtracks_per_solve,
                     s.propagations_per_solve, s.revisions_per_solve,
                     s.solved, s.attempts, suffix);
    };
    unsigned cores = std::thread::hardware_concurrency();
    std::fprintf(out,
                 "{\n  \"bench\": \"micro_csp_solver\",\n"
                 "  \"trials\": %d,\n  \"seed\": %llu,\n"
                 "  \"hardware_concurrency\": %u,\n"
                 // Skipped-not-passed: scaling numbers from a box
                 // without the cores to show parallelism are not
                 // evidence either way, and must not be asserted.
                 "  \"batch_scaling\": {\"status\": \"%s\", "
                 "\"reason\": \"%s\"},\n"
                 "  \"workloads\": [\n",
                 trials, static_cast<unsigned long long>(seed),
                 cores, cores >= 4 ? "measured" : "skipped",
                 cores >= 4
                     ? "hardware_concurrency >= 4"
                     : "fewer than 4 cores; speedup reflects "
                       "oversubscription, not scaling");
    for (size_t i = 0; i < reports.size(); ++i) {
        const WorkloadReport &r = reports[i];
        std::fprintf(out, "  {\n    \"name\": \"%s\",\n",
                     r.name.c_str());
        series("plain", r.plain, ",");
        series("offspring", r.offspring, ",");
        // A workload without a recorded baseline gets neither the
        // baseline nor the speedup keys: a 0.0 would read as measured.
        if (r.baseline.plain > 0)
            std::fprintf(out,
                         "    \"baseline_plain_solves_per_sec\": "
                         "%.1f,\n"
                         "    \"speedup_plain\": %.2f,\n",
                         r.baseline.plain,
                         r.plain.solves_per_sec / r.baseline.plain);
        if (r.baseline.offspring > 0)
            std::fprintf(out,
                         "    \"baseline_offspring_solves_per_sec\": "
                         "%.1f,\n"
                         "    \"speedup_offspring\": %.2f,\n",
                         r.baseline.offspring,
                         r.offspring.solves_per_sec /
                             r.baseline.offspring);
        std::fprintf(out, "    \"batch\": [");
        for (size_t j = 0; j < r.batch.size(); ++j)
            std::fprintf(out,
                         "{\"workers\": %d, \"solves_per_sec\": "
                         "%.2f, \"speedup\": %.3f, "
                         "\"effective_parallelism\": %.3f}%s",
                         r.batch[j].workers,
                         r.batch[j].solves_per_sec,
                         r.batch[j].speedup,
                         r.batch[j].effective_parallelism,
                         j + 1 < r.batch.size() ? ", " : "");
        std::fprintf(out, "],\n");
        std::fprintf(out, "    \"batch_deterministic\": %s\n  }%s\n",
                     r.batch_deterministic ? "true" : "false",
                     i + 1 < reports.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("Wrote %s\n", path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    int trials = 200;
    uint64_t seed = 1;
    std::string out_path = "BENCH_csp_solver.json";
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--trials") && i + 1 < argc)
            trials = std::atoi(argv[++i]);
        else if (!std::strcmp(argv[i], "--seed") && i + 1 < argc)
            seed = static_cast<uint64_t>(std::atoll(argv[++i]));
        else if (!std::strcmp(argv[i], "--quick"))
            trials = 40;
        else if (!std::strcmp(argv[i], "--out") && i + 1 < argc)
            out_path = argv[++i];
    }

    struct Case {
        ops::Workload workload;
        Baseline baseline;
    };
    // Baselines: pre-trail-rewrite solver, same workloads, 200
    // trials, -O2 -g -DNDEBUG (the RelWithDebInfo flags this bench
    // ships with), averaged over three alternating back-to-back
    // runs on the development machine (see file comment).
    std::vector<Case> cases;
    cases.push_back({ops::c2d(16, 64, 28, 28, 64, 3, 3, 1, 1),
                     {240.8, 980.0}});
    cases.push_back(
        {ops::gemm(512, 1024, 1024), {3218.2, 3775.5}});
    // Table 10's C3D: the space where crossover solves spend most of
    // their revisions (no pre-rewrite baseline was recorded).
    cases.push_back(
        {ops::c3d(4, 16, 16, 28, 28, 32, 3, 3, 3, 1, 1), {}});

    unsigned cores = std::thread::hardware_concurrency();
    std::printf("hardware concurrency: %u (batch scaling is "
                "bounded by available cores)\n",
                cores);
    if (cores < 4)
        std::printf("note: < 4 cores — batch scaling assertions "
                    "are SKIPPED (not passed) on this machine\n");
    rules::SpaceGenerator gen(hw::DlaSpec::v100(),
                              rules::Options::heron());
    std::vector<WorkloadReport> reports;
    bool deterministic = true;
    for (const Case &c : cases) {
        auto space = gen.generate(c.workload);
        std::printf("%s: %zu vars, %zu constraints\n",
                    c.workload.name.c_str(), space.csp.num_vars(),
                    space.csp.num_constraints());

        WorkloadReport report;
        report.name = c.workload.name;
        report.baseline = c.baseline;

        csp::RandSatSolver solver(space.csp);
        Rng rng(seed);
        report.plain = run_plain(solver, rng, trials);
        print_series("plain", report.plain);

        auto parents = solver.solve_n(rng, 16);
        if (parents.empty()) {
            std::fprintf(stderr, "no parents for %s\n",
                         c.workload.name.c_str());
            return 1;
        }
        model::CostModel model(space.csp);
        auto keys = model.key_variables(8);
        report.offspring =
            run_offspring(solver, keys, parents, rng, trials);
        print_series("offspring", report.offspring);

        // SampleBatch scaling: identical seed sequence per worker
        // count; results must be byte-equal and throughput should
        // approach linear in workers (on a machine with the cores
        // to show it — see the batch_scaling marker in the JSON).
        const int population = 24;
        const int batches = std::max(2, trials / population);
        std::vector<std::vector<csp::Assignment>> reference;
        for (int workers : {1, 2, 4, 8}) {
            csp::SampleBatch batch(space.csp, {}, workers);
            std::vector<std::vector<csp::Assignment>> results;
            auto start = Clock::now();
            for (int b = 0; b < batches; ++b)
                results.push_back(
                    batch.sample(seed + static_cast<uint64_t>(b),
                                 population));
            double elapsed = seconds_since(start);
            size_t total = 0;
            for (const auto &r : results)
                total += r.size();
            BatchPoint point;
            point.workers = workers;
            point.solves_per_sec =
                elapsed > 0 ? static_cast<double>(total) / elapsed
                            : 0.0;
            if (!report.batch.empty() &&
                report.batch.front().solves_per_sec > 0) {
                point.speedup = point.solves_per_sec /
                                report.batch.front().solves_per_sec;
                point.effective_parallelism =
                    point.speedup / workers;
            }
            report.batch.push_back(point);
            std::printf("  batch x%d   %7.1f solves/sec  "
                        "speedup %.2fx  eff-par %.2f "
                        "(%zu samples, %d batches)\n",
                        workers, point.solves_per_sec,
                        point.speedup, point.effective_parallelism,
                        total, batches);
            if (workers == 1) {
                reference = std::move(results);
            } else if (results != reference) {
                report.batch_deterministic = false;
                deterministic = false;
                std::fprintf(stderr,
                             "DETERMINISM VIOLATION: %d-worker "
                             "batch differs from serial\n",
                             workers);
            }
        }
        if (report.baseline.plain > 0)
            std::printf("  speedup    plain %.2fx, offspring %.2fx "
                        "vs pre-rewrite baseline\n",
                        report.plain.solves_per_sec /
                            report.baseline.plain,
                        report.offspring.solves_per_sec /
                            report.baseline.offspring);
        reports.push_back(std::move(report));
    }

    write_json(out_path, trials, seed, reports);
    return deterministic ? 0 : 2;
}
