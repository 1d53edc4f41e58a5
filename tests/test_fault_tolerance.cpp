/**
 * @file
 * Tests for the fault-tolerant tuning runtime: deterministic fault
 * injection, measurement retry/timeout/outlier handling, typed
 * solver failures with wall-clock deadlines, the CGA relaxation
 * ladder, checkpoint/resume equivalence, and the recoverable-error
 * paths for untrusted tuning-log input.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "autotune/checkpoint.h"
#include "autotune/record.h"
#include "autotune/tuner.h"
#include "csp/solver.h"
#include "hw/fault_injection.h"
#include "model/cost_model.h"
#include "ops/op_library.h"
#include "rules/space_generator.h"
#include "search/cga.h"
#include "support/rng.h"

namespace heron {
namespace {

using autotune::ReplayCursor;
using autotune::TuningJournal;
using autotune::TuningRecord;
using csp::Assignment;
using csp::Csp;
using csp::Domain;
using csp::RandSatSolver;
using csp::SolveFailure;
using csp::SolverConfig;
using csp::VarId;

/** A bound, valid GEMM program plus its space for measurer tests. */
struct Bound {
    rules::GeneratedSpace space;
    schedule::ConcreteProgram program;
};

Bound
make_bound(uint64_t seed = 5)
{
    rules::SpaceGenerator gen(hw::DlaSpec::v100(),
                              rules::Options::heron());
    Bound b{gen.generate(ops::gemm(256, 256, 256)), {}};
    RandSatSolver solver(b.space.csp);
    Rng rng(seed);
    auto a = solver.solve_one(rng);
    HERON_CHECK(a.has_value());
    b.program = b.space.bind(*a);
    return b;
}

TEST(FaultInjection, DeterministicUnderFixedSeed)
{
    auto b = make_bound();
    hw::MeasureConfig mc;
    mc.timeout_ms = 50.0;
    hw::FaultConfig fc;
    fc.transient_rate = 0.25;
    fc.timeout_rate = 0.1;
    fc.outlier_rate = 0.1;
    fc.spurious_invalid_rate = 0.05;
    fc.seed = 42;

    hw::FaultyMeasurer m1(b.space.spec, mc, fc);
    hw::FaultyMeasurer m2(b.space.spec, mc, fc);
    for (int i = 0; i < 30; ++i) {
        auto r1 = m1.measure(b.program);
        auto r2 = m2.measure(b.program);
        EXPECT_EQ(r1.valid, r2.valid) << "measurement " << i;
        EXPECT_EQ(r1.failure, r2.failure) << "measurement " << i;
        EXPECT_EQ(r1.attempts, r2.attempts) << "measurement " << i;
        EXPECT_DOUBLE_EQ(r1.latency_ms, r2.latency_ms);
        EXPECT_DOUBLE_EQ(r1.gflops, r2.gflops);
    }
    EXPECT_DOUBLE_EQ(m1.simulated_seconds(),
                     m2.simulated_seconds());
    EXPECT_EQ(m1.injected_count(), m2.injected_count());
    EXPECT_GT(m1.injected_count(), 0);
}

TEST(FaultInjection, RetriesRecoverTransients)
{
    auto b = make_bound();
    hw::MeasureConfig mc;
    mc.max_retries = 3;
    hw::FaultConfig fc;
    fc.transient_rate = 0.3;
    hw::FaultyMeasurer measurer(b.space.spec, mc, fc);

    int valid = 0;
    bool saw_retry = false;
    for (int i = 0; i < 40; ++i) {
        auto r = measurer.measure(b.program);
        valid += r.valid ? 1 : 0;
        saw_retry |= r.valid && r.attempts > 1;
    }
    // P(4 consecutive transients) = 0.81%: nearly everything
    // recovers within the retry budget.
    EXPECT_GT(measurer.stats().transient_faults, 0);
    EXPECT_GT(measurer.stats().retries, 0);
    EXPECT_TRUE(saw_retry);
    EXPECT_GE(valid, 36);
}

TEST(FaultInjection, TimeoutsAreClassifiedAndCharged)
{
    auto b = make_bound();
    hw::MeasureConfig mc;
    mc.harness_overhead_s = 0.1;
    mc.timeout_ms = 40.0;
    mc.max_retries = 0;
    mc.retry_backoff_s = 0.0;
    hw::FaultConfig fc;
    fc.timeout_rate = 1.0;
    hw::FaultyMeasurer measurer(b.space.spec, mc, fc);

    auto r = measurer.measure(b.program);
    EXPECT_FALSE(r.valid);
    EXPECT_EQ(r.failure, hw::MeasureFailure::kTimeout);
    EXPECT_EQ(measurer.stats().timeouts, 1);
    EXPECT_EQ(measurer.stats().exhausted_retries, 1);
    // One attempt: harness overhead + the watchdog's 40 ms.
    EXPECT_NEAR(measurer.simulated_seconds(), 0.1 + 0.04, 1e-9);
}

TEST(FaultInjection, OutliersAreRejectedBeforeAveraging)
{
    auto b = make_bound();
    hw::MeasureConfig mc;
    mc.repeats = 5;
    hw::Measurer clean(b.space.spec, mc);
    double clean_ms = clean.measure(b.program).latency_ms;

    // Median-based rejection assumes outliers are a minority of
    // the repeats; a rate this low keeps that true for every
    // 5-repeat measurement in the run.
    hw::FaultConfig fc;
    fc.outlier_rate = 0.1;
    fc.outlier_scale = 20.0;
    hw::FaultyMeasurer measurer(b.space.spec, mc, fc);
    int64_t rejected = 0;
    for (int i = 0; i < 20; ++i) {
        auto r = measurer.measure(b.program);
        ASSERT_TRUE(r.valid);
        // A kept 20x outlier would drag the 5-repeat mean up by
        // ~4x; rejection keeps every mean near the clean latency.
        EXPECT_LT(r.latency_ms, 1.2 * clean_ms);
    }
    rejected = measurer.stats().outliers_rejected;
    EXPECT_GT(rejected, 0);
}

/**
 * SUM CSP that is unsatisfiable by parity (@p n odd-valued vars
 * cannot sum to an odd @p target when n is even) but looks fine to
 * bounds propagation, so the solver must search the whole tree.
 */
Csp
parity_trap(int n, int64_t target)
{
    Csp csp;
    std::vector<VarId> vars;
    for (int i = 0; i < n; ++i)
        vars.push_back(csp.add_var("x" + std::to_string(i),
                                   Domain::of({1, 3}), true));
    VarId s = csp.add_var("s", Domain::singleton(target));
    csp.add_sum(s, vars);
    return csp;
}

TEST(SolverFailure, RootWipeoutIsProvenUnsat)
{
    Csp csp;
    VarId x = csp.add_var("x", Domain::singleton(1), true);
    VarId y = csp.add_var("y", Domain::singleton(2), true);
    csp.add_eq(x, y);

    RandSatSolver solver(csp);
    Rng rng(1);
    EXPECT_FALSE(solver.solve_one(rng).has_value());
    EXPECT_EQ(solver.last_failure(), SolveFailure::kUnsat);
    // UNSAT is proven at the root: no restarts were attempted.
    EXPECT_EQ(solver.stats().restarts, 0);
}

TEST(SolverFailure, ExhaustedBudgetIsReported)
{
    Csp csp = parity_trap(8, 17);
    SolverConfig config;
    config.max_backtracks = 1024;
    RandSatSolver solver(csp, config);
    Rng rng(2);
    EXPECT_FALSE(solver.solve_one(rng).has_value());
    EXPECT_EQ(solver.last_failure(), SolveFailure::kBudget);
    EXPECT_EQ(solver.stats().backtracks, config.max_backtracks);

    // A success resets the failure reason.
    Csp easy;
    easy.add_var("x", Domain::of({1, 2}), true);
    RandSatSolver ok(easy);
    EXPECT_TRUE(ok.solve_one(rng).has_value());
    EXPECT_EQ(ok.last_failure(), SolveFailure::kNone);
}

TEST(SolverFailure, DeadlineBoundsWallClock)
{
    Csp csp = parity_trap(16, 33);
    SolverConfig config;
    config.max_backtracks = 1000000000;
    config.deadline_ms = 50.0;
    RandSatSolver solver(csp, config);
    Rng rng(3);

    auto start = std::chrono::steady_clock::now();
    EXPECT_FALSE(solver.solve_one(rng).has_value());
    double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_EQ(solver.last_failure(), SolveFailure::kDeadline);
    EXPECT_EQ(solver.stats().deadline_aborts, 1);
    // The deadline is checked before every propagation step; even
    // with generous slack for a loaded machine the abort must come
    // orders of magnitude before the budget would ever run out.
    EXPECT_LT(elapsed_ms, 5000.0);
}

TEST(CgaLadder, RecoversOffspringFromUnsatCrossover)
{
    // EQ-chain space: only (1,1,1) and (2,2,2) are valid. Seeding
    // the population with the *invalid* (1,2,1) makes crossover add
    // contradictory singleton IN constraints, so subproblems are
    // UNSAT until the relaxation ladder drops enough of them.
    Csp csp;
    VarId x = csp.add_var("x", Domain::of({1, 2}), true);
    VarId y = csp.add_var("y", Domain::of({1, 2}), true);
    VarId z = csp.add_var("z", Domain::of({1, 2}), true);
    csp.add_eq(x, y);
    csp.add_eq(y, z);

    RandSatSolver solver(csp);
    model::CostModel model(csp);
    std::vector<Assignment> population = {{1, 2, 1}};
    Rng rng(4);
    auto offspring = search::constraint_crossover_mutation(
        csp, solver, model, population, /*count=*/8, /*key_vars=*/3,
        /*random_keys=*/true, rng);

    // The ladder was exercised (at least one UNSAT subproblem) and
    // no offspring was lost to it.
    EXPECT_GE(solver.stats().failures, 1);
    ASSERT_EQ(offspring.size(), 8u);
    for (const auto &child : offspring)
        EXPECT_TRUE(csp.valid(child));
}

TEST(FaultTolerantTuning, CompletesBudgetUnderFaults)
{
    ops::Workload workload = ops::gemm(256, 256, 256);
    autotune::TuneConfig config;
    config.trials = 60;
    config.seed = 11;
    config.measure.timeout_ms = 50.0;

    auto clean =
        autotune::make_heron_tuner(hw::DlaSpec::v100(), config);
    auto clean_outcome = clean->tune(workload);
    ASSERT_TRUE(clean_outcome.result.found());
    EXPECT_EQ(clean_outcome.result.total_measured, 60);

    config.faults.transient_rate = 0.2;
    config.faults.timeout_rate = 0.05;
    auto faulty =
        autotune::make_heron_tuner(hw::DlaSpec::v100(), config);
    auto outcome = faulty->tune(workload);

    // The full trial budget is spent despite the faults, a valid
    // program is found, per-category failures are accounted, and
    // the result stays within 10% of the fault-free run.
    EXPECT_EQ(outcome.result.total_measured, 60);
    ASSERT_TRUE(outcome.result.found());
    EXPECT_GT(outcome.measure_stats.transient_faults, 0);
    EXPECT_GT(outcome.measure_stats.timeouts, 0);
    EXPECT_GT(outcome.measure_stats.retries, 0);
    EXPECT_GE(outcome.result.best_gflops,
              0.9 * clean_outcome.result.best_gflops);
}

/** Keep only the first @p keep lines of @p path (simulated kill). */
void
truncate_lines(const std::string &path, size_t keep)
{
    std::ifstream in(path);
    ASSERT_TRUE(in.is_open());
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    in.close();
    ASSERT_GT(lines.size(), keep);
    std::ofstream out(path, std::ios::trunc);
    for (size_t i = 0; i < keep; ++i)
        out << lines[i] << "\n";
}

TEST(Checkpoint, ResumeIsBitIdenticalToUninterruptedRun)
{
    ops::Workload workload = ops::gemm(256, 256, 256);
    autotune::TuneConfig config;
    config.trials = 40;
    config.seed = 21;
    // Faults on: resume must also replay the fault schedule.
    config.faults.transient_rate = 0.1;

    // Baseline: no journal.
    auto baseline =
        autotune::make_heron_tuner(hw::DlaSpec::v100(), config)
            ->tune(workload);
    ASSERT_TRUE(baseline.result.found());

    // Journaled run: journaling alone must not perturb the search.
    std::string journal =
        ::testing::TempDir() + "heron_ckpt_test.jsonl";
    std::remove(journal.c_str());
    config.journal_path = journal;
    auto journaled =
        autotune::make_heron_tuner(hw::DlaSpec::v100(), config)
            ->tune(workload);
    EXPECT_EQ(journaled.replayed, 0);
    EXPECT_EQ(journaled.result.best, baseline.result.best);
    EXPECT_DOUBLE_EQ(journaled.result.best_latency_ms,
                     baseline.result.best_latency_ms);

    // Kill the run after 15 measurements and resume it.
    truncate_lines(journal, 15);
    auto resumed =
        autotune::make_heron_tuner(hw::DlaSpec::v100(), config)
            ->tune(workload);
    EXPECT_EQ(resumed.replayed, 15);
    EXPECT_EQ(resumed.result.total_measured, 40);

    // Bit-identical convergence: same best assignment, same
    // latencies, same best-so-far trajectory.
    EXPECT_EQ(resumed.result.best, baseline.result.best);
    EXPECT_DOUBLE_EQ(resumed.result.best_latency_ms,
                     baseline.result.best_latency_ms);
    EXPECT_DOUBLE_EQ(resumed.result.best_gflops,
                     baseline.result.best_gflops);
    EXPECT_EQ(resumed.result.history, baseline.result.history);
    std::remove(journal.c_str());
}

TEST(Checkpoint, DivergentJournalDropsTail)
{
    TuningRecord r;
    r.workload = "w";
    r.dla = "d";
    r.tuner = "t";
    r.assignment = {1, 2, 3};
    ReplayCursor cursor({r, r}, "w", "d", "t");
    EXPECT_EQ(cursor.remaining(), 2u);
    // First record matches; the second diverges and is dropped.
    EXPECT_NE(cursor.match({1, 2, 3}), nullptr);
    EXPECT_EQ(cursor.match({9, 9, 9}), nullptr);
    EXPECT_EQ(cursor.remaining(), 0u);
    EXPECT_EQ(cursor.replayed(), 1);
}

TEST(Records, MalformedLinesAreCountedNotFatal)
{
    TuningRecord r;
    r.workload = "w";
    r.dla = "d";
    r.tuner = "t";
    r.latency_ms = 1.25;
    r.gflops = 3.5;
    r.assignment = {4, 8};
    std::string text = r.to_json() + "\n" + "{not json\n" +
                       r.to_json() + "\n" + "\n" + "also bad\n";

    autotune::RecordReadStats stats;
    auto records = autotune::read_records(text, &stats);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(stats.malformed, 2);
    EXPECT_EQ(stats.first_bad_line, 2);
    EXPECT_EQ(records[0].assignment, r.assignment);
    EXPECT_DOUBLE_EQ(records[0].latency_ms, 1.25);
}

/** Four distinct, seq-stamped records for durability tests. */
std::vector<TuningRecord>
stamped_records()
{
    std::vector<TuningRecord> records(4);
    for (size_t i = 0; i < records.size(); ++i) {
        auto &r = records[i];
        r.workload = "w";
        r.dla = "d";
        r.tuner = "t";
        r.seq = static_cast<int64_t>(i) + 1;
        r.latency_ms = 1.5 + static_cast<double>(i);
        r.gflops = 10.0 * static_cast<double>(i + 1);
        r.assignment = {static_cast<int64_t>(i), 7};
    }
    return records;
}

TEST(Records, TornTailRecoveredAtEveryByteOffset)
{
    auto records = stamped_records();
    std::string text = autotune::write_records(records);
    ASSERT_EQ(text.back(), '\n');
    // Start of the final record's line.
    size_t start = text.rfind('\n', text.size() - 2) + 1;

    // Truncate at every byte offset within the final record (and at
    // its trailing newline): the three preceding records always load
    // intact, and a partially-present final line is exactly one
    // recovered truncation — never malformed, never a CRC error.
    for (size_t cut = start; cut <= text.size(); ++cut) {
        autotune::RecordReadStats stats;
        auto loaded =
            autotune::read_records(text.substr(0, cut), &stats);
        if (cut == text.size()) {
            ASSERT_EQ(loaded.size(), 4u) << "cut " << cut;
            EXPECT_EQ(stats.recovered_truncations, 0);
        } else if (cut == start) {
            ASSERT_EQ(loaded.size(), 3u) << "cut " << cut;
            EXPECT_EQ(stats.recovered_truncations, 0);
        } else {
            ASSERT_EQ(loaded.size(), 3u) << "cut " << cut;
            EXPECT_EQ(stats.recovered_truncations, 1)
                << "cut " << cut;
        }
        EXPECT_EQ(stats.malformed, 0) << "cut " << cut;
        EXPECT_EQ(stats.crc_mismatches, 0) << "cut " << cut;
        EXPECT_FALSE(stats.corrupt()) << "cut " << cut;
        for (size_t i = 0; i < 3; ++i) {
            EXPECT_EQ(loaded[i].seq, records[i].seq);
            EXPECT_EQ(loaded[i].assignment, records[i].assignment);
            EXPECT_DOUBLE_EQ(loaded[i].latency_ms,
                             records[i].latency_ms);
        }
    }
}

TEST(Records, CrcDetectsMidJournalByteFlip)
{
    auto records = stamped_records();
    std::string text = autotune::write_records(records);
    // Flip one payload byte inside the *second* line: the torn-tail
    // rule cannot excuse it, so it must surface as real corruption.
    size_t line2 = text.find('\n') + 1;
    size_t victim = text.find("\"w\"", line2);
    ASSERT_NE(victim, std::string::npos);
    text[victim + 1] = 'W';

    autotune::RecordReadStats stats;
    auto loaded = autotune::read_records(text, &stats);
    EXPECT_EQ(loaded.size(), 3u);
    EXPECT_EQ(stats.crc_mismatches, 1);
    EXPECT_EQ(stats.first_bad_line, 2);
    EXPECT_EQ(stats.malformed, 0);
    EXPECT_TRUE(stats.corrupt());
}

TEST(Records, SeqRegressionFlagsSplicedJournal)
{
    std::string text =
        autotune::write_records(stamped_records());
    // A journal concatenated with itself: every line is valid and
    // CRC-clean, but the restarting sequence betrays the splice.
    autotune::RecordReadStats stats;
    auto loaded = autotune::read_records(text + text, &stats);
    EXPECT_EQ(loaded.size(), 8u);
    EXPECT_EQ(stats.seq_regressions, 1);
    EXPECT_EQ(stats.malformed, 0);
    EXPECT_EQ(stats.crc_mismatches, 0);
    EXPECT_TRUE(stats.corrupt());
}

TEST(Checkpoint, JournalOpenRepairsTornTail)
{
    auto records = stamped_records();
    std::string path =
        ::testing::TempDir() + "heron_torn_tail.jsonl";
    std::remove(path.c_str());
    {
        // Two complete lines plus a torn fragment (crashed append).
        std::string text = autotune::write_records(
            {records[0], records[1]});
        std::ofstream out(path, std::ios::binary);
        out << text << records[2].to_json().substr(0, 11);
    }

    // open() truncates the fragment before appending, so the next
    // record never concatenates onto torn bytes.
    TuningJournal journal;
    ASSERT_TRUE(journal.open(path, /*next_seq=*/3));
    TuningRecord next = records[2];
    next.seq = 0; // stamped by the journal
    journal.append(next);

    autotune::RecordReadStats stats;
    auto loaded = TuningJournal::load(path, &stats);
    ASSERT_EQ(loaded.size(), 3u);
    EXPECT_FALSE(stats.corrupt());
    EXPECT_EQ(stats.recovered_truncations, 0);
    EXPECT_EQ(loaded[2].seq, 3);
    EXPECT_EQ(loaded[2].assignment, records[2].assignment);
    std::remove(path.c_str());
}

TEST(Checkpoint, InjectedCrashTearsExactlyOneLine)
{
    auto records = stamped_records();
    std::string path =
        ::testing::TempDir() + "heron_crash_plan.jsonl";
    std::remove(path.c_str());
    TuningJournal journal;
    ASSERT_TRUE(journal.open(path));
    journal.set_crash_plan({/*after_records=*/2,
                            /*partial_bytes=*/9});
    for (auto &r : records) {
        TuningRecord unstamped = r;
        unstamped.seq = 0;
        journal.append(unstamped);
    }
    // The third append crashed the journal; the fourth was dropped.
    EXPECT_TRUE(journal.crashed());

    autotune::RecordReadStats stats;
    auto loaded = TuningJournal::load(path, &stats);
    EXPECT_EQ(loaded.size(), 2u);
    EXPECT_EQ(stats.recovered_truncations, 1);
    EXPECT_FALSE(stats.corrupt());
    std::remove(path.c_str());
}

TEST(FaultInjection, HungFaultIsFinalAndChargedDeterministically)
{
    auto b = make_bound();
    hw::MeasureConfig mc;
    mc.max_retries = 3;
    hw::FaultConfig fc;
    fc.hung_rate = 1.0;

    // No cancel token attached: the cooperative wedge returns
    // immediately (nothing to wait on) but still resolves as kHung
    // with the canonical error and charge — and is never retried,
    // because a wedge reproduces.
    hw::FaultyMeasurer m1(b.space.spec, mc, fc);
    hw::FaultyMeasurer m2(b.space.spec, mc, fc);
    auto r1 = m1.measure(b.program);
    auto r2 = m2.measure(b.program);
    auto canonical = hw::hung_result();
    EXPECT_FALSE(r1.valid);
    EXPECT_EQ(r1.failure, hw::MeasureFailure::kHung);
    EXPECT_EQ(r1.error, canonical.error);
    EXPECT_EQ(r1.attempts, 1);
    EXPECT_EQ(m1.stats().hung, 1);
    EXPECT_EQ(m1.stats().retries, 0);
    EXPECT_DOUBLE_EQ(m1.simulated_seconds(),
                     hw::hung_charge_s(mc, fc));
    EXPECT_EQ(r1.failure, r2.failure);
    EXPECT_DOUBLE_EQ(m1.simulated_seconds(),
                     m2.simulated_seconds());
}

TEST(Records, RoundTripPreservesDoublesExactly)
{
    TuningRecord r;
    r.workload = "w";
    r.dla = "d";
    r.tuner = "t";
    r.valid = true;
    r.latency_ms = 0.123456789012345678; // not representable
    r.gflops = 1e6 / 3.0;
    r.assignment = {1};
    auto parsed = TuningRecord::from_json(r.to_json());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->valid, r.valid);
    // Bit-identical round trip, not merely approximate.
    EXPECT_EQ(parsed->latency_ms, r.latency_ms);
    EXPECT_EQ(parsed->gflops, r.gflops);
}

TEST(Records, ReplayRejectsDlaMismatch)
{
    auto b = make_bound();
    hw::Measurer measurer(b.space.spec);

    RandSatSolver solver(b.space.csp);
    Rng rng(6);
    auto a = solver.solve_one(rng);
    ASSERT_TRUE(a.has_value());

    TuningRecord record;
    record.workload = b.space.workload.name;
    record.dla = "some-other-dla";
    record.tuner = "Heron";
    record.assignment = *a;
    EXPECT_FALSE(
        autotune::replay(record, b.space, measurer).has_value());

    record.dla = b.space.spec.name;
    auto result = autotune::replay(record, b.space, measurer);
    ASSERT_TRUE(result.has_value());
    EXPECT_TRUE(result->valid);
}

TEST(Binder, TryBindRecoversFromGarbageInput)
{
    auto b = make_bound();

    std::string error;
    Assignment short_a(3, 1);
    EXPECT_FALSE(b.space.try_bind(short_a, &error).has_value());
    EXPECT_NE(error.find("values"), std::string::npos);

    RandSatSolver solver(b.space.csp);
    Rng rng(7);
    auto a = solver.solve_one(rng);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.space.try_bind(*a).has_value());

    // Corrupt one value far outside its domain (a negative tile
    // size would previously abort inside checked arithmetic).
    Assignment bad = *a;
    bad[0] = -999;
    error.clear();
    EXPECT_FALSE(b.space.try_bind(bad, &error).has_value());
    EXPECT_NE(error.find("domain"), std::string::npos);
}

} // namespace
} // namespace heron
