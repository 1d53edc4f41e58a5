/**
 * @file
 * Property/fuzz tests for the CSP solver: random small problems are
 * brute-forced for ground truth and compared against RandSAT
 * (soundness always; completeness on satisfiable instances), and
 * propagation is validated never to prune a brute-force solution.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <optional>

#include "csp/propagate.h"
#include "csp/sample_batch.h"
#include "csp/solver.h"
#include "ops/op_library.h"
#include "rules/space_generator.h"
#include "support/math_util.h"
#include "support/rng.h"

namespace heron::csp {
namespace {

/** A randomly generated small CSP plus its brute-force solutions. */
struct FuzzProblem {
    Csp csp;
    std::vector<Assignment> solutions; // over all vars
};

/**
 * Build a random problem: 3-5 tunable vars with small explicit
 * domains, 1-2 derived vars, and random constraints among them.
 */
FuzzProblem
make_problem(uint64_t seed)
{
    Rng rng(seed);
    FuzzProblem problem;
    Csp &csp = problem.csp;

    int num_tunables = static_cast<int>(rng.uniform_int(3, 5));
    std::vector<VarId> tunables;
    for (int i = 0; i < num_tunables; ++i) {
        std::vector<int64_t> values;
        int size = static_cast<int>(rng.uniform_int(2, 4));
        for (int v = 0; v < size; ++v)
            values.push_back(rng.uniform_int(1, 6));
        tunables.push_back(csp.add_var("t" + std::to_string(i),
                                       Domain::of(values), true));
    }

    // One PROD and one SUM derived variable over random operands.
    auto random_operands = [&]() {
        std::vector<VarId> ops;
        int count = static_cast<int>(rng.uniform_int(2, 3));
        for (int i = 0; i < count; ++i)
            ops.push_back(rng.pick(tunables));
        return ops;
    };
    VarId prod = csp.add_var("prod", Domain::interval(1, 1000));
    csp.add_prod(prod, random_operands());
    VarId sum = csp.add_var("sum", Domain::interval(0, 100));
    csp.add_sum(sum, random_operands());

    // Random relational constraints.
    if (rng.bernoulli(0.5))
        csp.add_le(rng.pick(tunables), rng.pick(tunables));
    if (rng.bernoulli(0.5))
        csp.add_in(rng.pick(tunables),
                   {rng.uniform_int(1, 6), rng.uniform_int(1, 6)});
    if (rng.bernoulli(0.4))
        csp.add_le(prod, csp.add_const(rng.uniform_int(4, 60)));
    if (rng.bernoulli(0.3))
        csp.add_eq(rng.pick(tunables), rng.pick(tunables));

    // Brute force over tunables; derived vars are functionally
    // determined (prod/sum of tunables).
    std::vector<int64_t> values(csp.num_vars(), 0);
    std::function<void(size_t)> enumerate = [&](size_t index) {
        if (index == tunables.size()) {
            Assignment a = values;
            // Constants and other fixed vars take their domain
            // value; derived vars are overwritten below.
            for (size_t v = 0; v < csp.num_vars(); ++v) {
                const auto &info = csp.var(static_cast<VarId>(v));
                if (!info.tunable && !info.initial.empty())
                    a[v] = info.initial.min();
            }
            for (VarId t : tunables)
                a[static_cast<size_t>(t)] =
                    values[static_cast<size_t>(t)];
            // Fill derived vars by evaluating their constraints.
            for (const auto &c : csp.constraints()) {
                if (c.kind == ConstraintKind::kProd) {
                    int64_t p = 1;
                    for (VarId op : c.operands)
                        p *= a[static_cast<size_t>(op)];
                    if (static_cast<size_t>(c.result) >=
                        tunables.size())
                        a[static_cast<size_t>(c.result)] = p;
                }
                if (c.kind == ConstraintKind::kSum) {
                    int64_t s = 0;
                    for (VarId op : c.operands)
                        s += a[static_cast<size_t>(op)];
                    if (static_cast<size_t>(c.result) >=
                        tunables.size())
                        a[static_cast<size_t>(c.result)] = s;
                }
            }
            if (csp.valid(a))
                problem.solutions.push_back(std::move(a));
            return;
        }
        for (int64_t v :
             csp.var(tunables[index]).initial.values()) {
            values[static_cast<size_t>(tunables[index])] = v;
            enumerate(index + 1);
        }
    };
    enumerate(0);
    return problem;
}

class SolverFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(SolverFuzz, AgreesWithBruteForce)
{
    auto problem = make_problem(GetParam());
    RandSatSolver solver(problem.csp);
    Rng rng(GetParam() * 31 + 7);
    auto result = solver.solve_one(rng);

    if (problem.solutions.empty()) {
        // Unsat: the solver must not fabricate a solution
        // (solve_one internally asserts validity, so returning
        // nullopt is the only sound outcome).
        EXPECT_FALSE(result.has_value());
    } else {
        ASSERT_TRUE(result.has_value());
        EXPECT_TRUE(problem.csp.valid(*result));
        // The returned solution must be among the brute-forced set
        // when projected onto the tunables.
        bool found = false;
        for (const auto &sol : problem.solutions) {
            bool same = true;
            for (VarId t : problem.csp.tunable_vars())
                same &= sol[static_cast<size_t>(t)] ==
                        (*result)[static_cast<size_t>(t)];
            found |= same;
        }
        EXPECT_TRUE(found);
    }
}

TEST_P(SolverFuzz, PropagationNeverPrunesSolutions)
{
    auto problem = make_problem(GetParam() + 5000);
    PropagationEngine engine(problem.csp);
    bool consistent = engine.propagate();
    if (!consistent) {
        EXPECT_TRUE(problem.solutions.empty());
        return;
    }
    for (const auto &sol : problem.solutions) {
        for (size_t v = 0; v < problem.csp.num_vars(); ++v) {
            EXPECT_TRUE(engine.domain(static_cast<VarId>(v))
                            .contains(sol[v]))
                << "propagation pruned value " << sol[v]
                << " of var "
                << problem.csp.var(static_cast<VarId>(v)).name;
        }
    }
}

TEST_P(SolverFuzz, SolveNReturnsDistinctValidSolutions)
{
    auto problem = make_problem(GetParam() + 9000);
    if (problem.solutions.empty())
        GTEST_SKIP() << "unsat instance";
    RandSatSolver solver(problem.csp);
    Rng rng(GetParam());
    auto sols = solver.solve_n(rng, 4);
    EXPECT_GE(sols.size(), 1u);
    for (size_t i = 0; i < sols.size(); ++i) {
        EXPECT_TRUE(problem.csp.valid(sols[i]));
        for (size_t j = i + 1; j < sols.size(); ++j)
            EXPECT_NE(sols[i], sols[j]);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverFuzz,
                         ::testing::Range<uint64_t>(1, 41));

/**
 * Reference solver: snapshot-per-decision backtracking, the way the
 * solver worked before the undo trail was introduced. It replicates
 * RandSatSolver's branching heuristics and RNG consumption exactly
 * but undoes every decision by re-constructing the engine from a
 * copy saved before it, so agreement with RandSatSolver on the same seed proves
 * the trail rewrite is search-order preserving. Restarts follow the
 * same shared luby() schedule over the same backtrack budget.
 */
class SnapshotReferenceSolver
{
  public:
    explicit SnapshotReferenceSolver(const Csp &csp,
                                     SolverConfig config = {})
        : csp_(csp), config_(config), engine_(std::in_place, csp)
    {
        root_ok_ = engine_->propagate();
    }

    std::optional<Assignment>
    solve_one(Rng &rng)
    {
        if (!root_ok_)
            return std::nullopt;
        rng_ = &rng;
        const PropagationEngine root = *engine_;
        backtracks_ = 0;
        for (int64_t restart = 0; backtracks_ < config_.max_backtracks;
             ++restart) {
            backtracks_left_ = std::min<int64_t>(
                config_.max_backtracks - backtracks_,
                kLubyUnit * luby(restart + 1));
            if (recurse()) {
                Assignment a = engine_->extract();
                engine_.emplace(root);
                return a;
            }
            engine_.emplace(root);
        }
        return std::nullopt;
    }

    /** Backtracks spent by the last solve_one call. */
    int64_t backtracks() const { return backtracks_; }

  private:
    const Csp &csp_;
    SolverConfig config_;
    std::optional<PropagationEngine> engine_;
    bool root_ok_ = false;
    Rng *rng_ = nullptr;
    /** Backtracks spent by the current solve_one call. */
    int64_t backtracks_ = 0;
    int64_t backtracks_left_ = 0;

    VarId
    pick_branch_var()
    {
        std::vector<VarId> open;
        if (config_.branch_tunables_first) {
            int64_t best = std::numeric_limits<int64_t>::max();
            for (VarId v : csp_.tunable_vars()) {
                const Domain &d = engine_->domain(v);
                if (d.is_singleton())
                    continue;
                if (d.size() < best) {
                    best = d.size();
                    open.clear();
                }
                if (d.size() == best)
                    open.push_back(v);
            }
            if (!open.empty())
                return open[rng_->index(open.size())];
        }
        VarId best = -1;
        int64_t best_size = 0;
        for (size_t i = 0; i < csp_.num_vars(); ++i) {
            const Domain &d = engine_->domain(static_cast<VarId>(i));
            if (d.is_singleton())
                continue;
            if (best < 0 || d.size() < best_size) {
                best = static_cast<VarId>(i);
                best_size = d.size();
            }
        }
        return best;
    }

    std::vector<int64_t>
    candidate_values(const Domain &d)
    {
        std::vector<int64_t> vals;
        if (d.is_explicit() || d.size() <= 256) {
            vals = d.values();
            rng_->shuffle(vals);
        } else {
            vals.push_back(d.min());
            vals.push_back(d.max());
            for (int i = 0; i < 6; ++i)
                vals.push_back(rng_->uniform_int(d.min(), d.max()));
            std::sort(vals.begin(), vals.end());
            vals.erase(std::unique(vals.begin(), vals.end()),
                       vals.end());
            rng_->shuffle(vals);
        }
        return vals;
    }

    bool
    recurse()
    {
        VarId var = pick_branch_var();
        if (var < 0)
            return engine_->all_assigned();
        for (int64_t value : candidate_values(engine_->domain(var))) {
            const PropagationEngine snapshot = *engine_;
            if (engine_->assign_and_propagate(var, value)) {
                if (recurse())
                    return true;
            }
            if (backtracks_left_ <= 0)
                return false;
            engine_.emplace(snapshot);
            ++backtracks_;
            if (--backtracks_left_ <= 0)
                return false;
        }
        return false;
    }
};

/** Solve the same problem with both solvers on the same seed. */
void
expect_trail_matches_snapshot(const Csp &csp, uint64_t seed,
                              SolverConfig config)
{
    config.unsat_memo = false;
    RandSatSolver trail_solver(csp, config);
    SnapshotReferenceSolver snapshot_solver(csp, config);
    Rng trail_rng(seed);
    Rng snapshot_rng(seed);
    auto trail = trail_solver.solve_one(trail_rng);
    auto snapshot = snapshot_solver.solve_one(snapshot_rng);
    ASSERT_EQ(trail.has_value(), snapshot.has_value());
    if (trail) {
        EXPECT_EQ(*trail, *snapshot);
    }
    EXPECT_EQ(trail_solver.stats().backtracks, snapshot_solver.backtracks());
    // Both searches consumed identical RNG streams.
    EXPECT_EQ(trail_rng.next_u64(), snapshot_rng.next_u64());
}

/**
 * The comparison above under the default budget and under a tight
 * one, whose Luby allotments of 32 32 64 32 32 8 give up after six
 * restarts.
 */
void
expect_trail_matches_snapshot(const Csp &csp, uint64_t seed)
{
    SolverConfig tight;
    tight.max_backtracks = 200;
    for (SolverConfig config : {SolverConfig{}, tight}) {
        SCOPED_TRACE(config.max_backtracks);
        expect_trail_matches_snapshot(csp, seed, config);
    }
}

TEST_P(SolverFuzz, TrailSolverMatchesSnapshotReference)
{
    auto problem = make_problem(GetParam() + 13000);
    for (uint64_t round = 0; round < 3; ++round)
        expect_trail_matches_snapshot(problem.csp,
                                      GetParam() * 97 + round);
}

TEST(TrailEquivalence, MatchesSnapshotReferenceOnRealSpaces)
{
    rules::SpaceGenerator gen(hw::DlaSpec::v100(),
                              rules::Options::heron());
    auto gemm = gen.generate(ops::gemm(512, 512, 512));
    auto c2d =
        gen.generate(ops::c2d(16, 64, 28, 28, 64, 3, 3, 1, 1,
                              ir::DataType::kFloat16));
    for (uint64_t seed = 1; seed <= 5; ++seed) {
        expect_trail_matches_snapshot(gemm.csp, seed);
        expect_trail_matches_snapshot(c2d.csp, seed);
    }
}

TEST(TrailEquivalence, MatchesSnapshotReferenceAcrossRestarts)
{
    // An odd sum of sixteen odd numbers: unsatisfiable, but not
    // provably so by bounds propagation, so both solvers spend every
    // budget in full and go through every restart of the schedule.
    Csp csp;
    std::vector<VarId> vars;
    for (int i = 0; i < 16; ++i)
        vars.push_back(csp.add_var("x" + std::to_string(i),
                                   Domain::of({1, 3}), true));
    csp.add_sum(csp.add_var("s", Domain::singleton(33)), vars);
    for (uint64_t seed = 1; seed <= 5; ++seed)
        expect_trail_matches_snapshot(csp, seed);
}

TEST_P(SolverFuzz, TrailUndoRestoresExactRootDomains)
{
    auto problem = make_problem(GetParam() + 17000);
    PropagationEngine engine(problem.csp);
    if (!engine.propagate())
        return;
    const std::vector<Domain> root = engine.domains();
    Rng rng(GetParam());
    for (int round = 0; round < 8; ++round) {
        VarId var = static_cast<VarId>(
            rng.index(problem.csp.num_vars()));
        const Domain &d = engine.domain(var);
        if (d.empty())
            continue;
        int64_t value = rng.bernoulli(0.5) ? d.min() : d.max();
        engine.push_level();
        engine.assign_and_propagate(var, value);
        engine.pop_level();
        for (size_t v = 0; v < problem.csp.num_vars(); ++v)
            EXPECT_EQ(engine.domain(static_cast<VarId>(v)).values(),
                      root[v].values())
                << "trail undo corrupted var "
                << problem.csp.var(static_cast<VarId>(v)).name;
    }
}

/** Field-wise SolverStats equality (no operator== on purpose). */
void
expect_stats_equal(const SolverStats &a, const SolverStats &b)
{
    EXPECT_EQ(a.solve_calls, b.solve_calls);
    EXPECT_EQ(a.solutions, b.solutions);
    EXPECT_EQ(a.backtracks, b.backtracks);
    EXPECT_EQ(a.restarts, b.restarts);
    EXPECT_EQ(a.failures, b.failures);
    EXPECT_EQ(a.unsat, b.unsat);
    EXPECT_EQ(a.budget_exhausted, b.budget_exhausted);
    EXPECT_EQ(a.deadline_aborts, b.deadline_aborts);
    EXPECT_EQ(a.propagations, b.propagations);
    EXPECT_EQ(a.revisions, b.revisions);
    EXPECT_EQ(a.unsat_memo_hits, b.unsat_memo_hits);
}

TEST(SampleBatchDeterminism, WorkerCountInvariantOnRealSpace)
{
    rules::SpaceGenerator gen(hw::DlaSpec::v100(),
                              rules::Options::heron());
    auto space = gen.generate(ops::gemm(512, 512, 512));
    SampleBatch serial(space.csp, {}, 1);
    SampleBatch two(space.csp, {}, 2);
    SampleBatch four(space.csp, {}, 4);
    for (uint64_t seed = 1; seed <= 4; ++seed) {
        auto a = serial.sample(seed, 12);
        auto b = two.sample(seed, 12);
        auto c = four.sample(seed, 12);
        EXPECT_GE(a.size(), 1u);
        EXPECT_EQ(a, b);
        EXPECT_EQ(a, c);
        for (const auto &sol : a)
            EXPECT_TRUE(space.csp.valid(sol));
    }
    expect_stats_equal(serial.stats(), two.stats());
    expect_stats_equal(serial.stats(), four.stats());
}

TEST(SampleBatchDeterminism, RepeatCallsArePureFunctionsOfSeed)
{
    rules::SpaceGenerator gen(hw::DlaSpec::v100(),
                              rules::Options::heron());
    auto space = gen.generate(ops::gemm(512, 512, 512));
    SampleBatch batch(space.csp, {}, 3);
    auto first = batch.sample(7, 8);
    auto second = batch.sample(7, 8);
    EXPECT_EQ(first, second);
    EXPECT_NE(batch.sample(8, 8), first);
}

TEST(SampleBatchDeterminism, ExtraConstraintsWorkerInvariant)
{
    rules::SpaceGenerator gen(hw::DlaSpec::v100(),
                              rules::Options::heron());
    auto space = gen.generate(ops::gemm(512, 512, 512));
    // Pin a tunable to two of its values, CGA-crossover style.
    VarId key = space.csp.tunable_vars().front();
    const Domain &d = space.csp.var(key).initial;
    Constraint pin;
    pin.kind = ConstraintKind::kIn;
    pin.result = key;
    pin.constants = {d.min(), d.max()};
    std::vector<Constraint> extra = {pin};
    SampleBatch serial(space.csp, {}, 1);
    SampleBatch four(space.csp, {}, 4);
    auto a = serial.sample(11, 6, extra);
    auto b = four.sample(11, 6, extra);
    EXPECT_EQ(a, b);
    EXPECT_EQ(serial.last_failure(), four.last_failure());
    for (const auto &sol : a)
        EXPECT_TRUE(space.csp.satisfies(pin, sol));
}

/** Pinned outcome of a seeded sequence of crossover-style solves. */
struct Trajectory {
    /** Combined hash of every solve's result or failure reason. */
    uint64_t results_hash = 0;
    int64_t backtracks = 0;
    int64_t propagations = 0;
    int64_t restarts = 0;
    int64_t solutions = 0;
    int64_t unsat = 0;
    int64_t budget_exhausted = 0;
    /** The RNG's next draw after the last solve. */
    uint64_t next_draw = 0;
};

/**
 * CGA-style crossover extras: IN {parent1[v], parent2[v]} over
 * random variables (CGA's random-key mode), derived ones included,
 * which makes some subproblems much harder than others.
 */
std::vector<Constraint>
crossover_extras(const Csp &csp, const std::vector<Assignment> &parents,
                 Rng &rng)
{
    const Assignment &p1 = rng.pick(parents);
    const Assignment &p2 = rng.pick(parents);
    std::vector<Constraint> extra;
    for (int k = 0; k < 16; ++k) {
        Constraint c;
        c.kind = ConstraintKind::kIn;
        c.result = static_cast<VarId>(rng.index(csp.num_vars()));
        c.constants = {p1[static_cast<size_t>(c.result)],
                       p2[static_cast<size_t>(c.result)]};
        extra.push_back(std::move(c));
    }
    return extra;
}

/**
 * Sample parents, then run @p solves crossover solves on one
 * solver, recording every result and the search counters. Also
 * checks that re-solving the last subproblem on the now-warm solver
 * costs exactly the revisions it costs on a fresh solver: per-call
 * stats may depend on nothing but the call's inputs.
 */
Trajectory
run_crossover_trajectory(const Csp &csp, uint64_t seed, int solves)
{
    // A tight budget so the sequence also restarts and gives up:
    // Luby allotments of 32 32 64 32 32 64 spend it in six restarts.
    SolverConfig config;
    config.max_backtracks = 256;
    config.unsat_memo = false;
    RandSatSolver solver(csp, config);
    Rng rng(seed);
    auto parents = solver.solve_n(rng, 8);
    EXPECT_GE(parents.size(), 2u);
    if (parents.size() < 2)
        return {};
    std::vector<Constraint> extra;
    Trajectory t;
    for (int i = 0; i < solves; ++i) {
        extra = crossover_extras(csp, parents, rng);
        auto result = solver.solve_one(rng, extra);
        t.results_hash = hash_combine(
            t.results_hash,
            result ? assignment_hash(*result)
                   : static_cast<uint64_t>(solver.last_failure()));
    }
    const SolverStats &s = solver.stats();
    t.backtracks = s.backtracks;
    t.propagations = s.propagations;
    t.restarts = s.restarts;
    t.solutions = s.solutions;
    t.unsat = s.unsat;
    t.budget_exhausted = s.budget_exhausted;
    t.next_draw = rng.next_u64();

    RandSatSolver fresh(csp, config);
    Rng warm_rng(seed + 1), fresh_rng(seed + 1);
    const int64_t warm_before = solver.stats().revisions;
    auto warm = solver.solve_one(warm_rng, extra);
    auto cold = fresh.solve_one(fresh_rng, extra);
    EXPECT_EQ(warm, cold);
    EXPECT_EQ(solver.stats().revisions - warm_before,
              fresh.stats().revisions);
    return t;
}

void
expect_trajectory(const Trajectory &got, const Trajectory &want)
{
    EXPECT_EQ(got.results_hash, want.results_hash);
    EXPECT_EQ(got.backtracks, want.backtracks);
    EXPECT_EQ(got.propagations, want.propagations);
    EXPECT_EQ(got.restarts, want.restarts);
    EXPECT_EQ(got.solutions, want.solutions);
    EXPECT_EQ(got.unsat, want.unsat);
    EXPECT_EQ(got.budget_exhausted, want.budget_exhausted);
    EXPECT_EQ(got.next_draw, want.next_draw);
}

// Golden search trajectories on the Table 10 C2D and C3D spaces.
// Propagation order is free to change (every propagator is a
// monotone contraction with a unique fixpoint), but the search it
// drives is not: a change to the revision schedule alone must leave
// every value here as it is. The restart schedule is part of the
// search; the values were recorded with Luby restarts of 32-backtrack
// units under a 256-backtrack budget.
TEST(GoldenTrajectory, CrossoverSolvesOnTable10C2d)
{
    rules::SpaceGenerator gen(hw::DlaSpec::v100(),
                              rules::Options::heron());
    auto space = gen.generate(ops::c2d(16, 64, 28, 28, 64, 3, 3, 1, 1));
    expect_trajectory(run_crossover_trajectory(space.csp, 3, 48),
                      {6800340959737256718ull, 419, 1480, 4, 56, 0, 0,
                       15157498281568867575ull});
}

TEST(GoldenTrajectory, CrossoverSolvesOnTable10C3d)
{
    rules::SpaceGenerator gen(hw::DlaSpec::v100(),
                              rules::Options::heron());
    auto space =
        gen.generate(ops::c3d(4, 16, 16, 28, 28, 32, 3, 3, 3, 1, 1));
    expect_trajectory(run_crossover_trajectory(space.csp, 5, 48),
                      {14066398316097501737ull, 1948, 3581, 39, 53, 0, 3,
                       12992864434490054107ull});
}

TEST_P(SolverFuzz, SampleBatchWorkerInvariantOnFuzzProblems)
{
    auto problem = make_problem(GetParam() + 21000);
    SampleBatch serial(problem.csp, {}, 1);
    SampleBatch four(problem.csp, {}, 4);
    auto a = serial.sample(GetParam(), 6);
    auto b = four.sample(GetParam(), 6);
    EXPECT_EQ(a, b);
    EXPECT_EQ(serial.last_failure(), four.last_failure());
    expect_stats_equal(serial.stats(), four.stats());
}

} // namespace
} // namespace heron::csp
