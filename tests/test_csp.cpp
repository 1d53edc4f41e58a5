/**
 * @file
 * Unit and property tests for the CSP module: domains, constraint
 * evaluation, propagation, and the RandSAT solver.
 */
#include <gtest/gtest.h>

#include <set>

#include "csp/csp.h"
#include "csp/propagate.h"
#include "csp/solver.h"
#include "support/math_util.h"
#include "support/rng.h"

namespace heron::csp {
namespace {

TEST(Domain, SingletonBasics)
{
    Domain d = Domain::singleton(5);
    EXPECT_TRUE(d.is_singleton());
    EXPECT_EQ(d.value(), 5);
    EXPECT_TRUE(d.contains(5));
    EXPECT_FALSE(d.contains(4));
}

TEST(Domain, ExplicitSetSortsAndDedups)
{
    Domain d = Domain::of({4, 1, 4, 2});
    EXPECT_EQ(d.size(), 3);
    EXPECT_EQ(d.min(), 1);
    EXPECT_EQ(d.max(), 4);
    std::vector<int64_t> expected{1, 2, 4};
    EXPECT_EQ(d.values(), expected);
}

TEST(Domain, IntervalBounds)
{
    Domain d = Domain::interval(3, 10);
    EXPECT_EQ(d.size(), 8);
    EXPECT_TRUE(d.contains(3));
    EXPECT_TRUE(d.contains(10));
    EXPECT_FALSE(d.contains(11));
}

TEST(Domain, RestrictBoundsOnExplicit)
{
    Domain d = Domain::of({1, 2, 4, 8, 16});
    EXPECT_TRUE(d.restrict_bounds(2, 8));
    std::vector<int64_t> expected{2, 4, 8};
    EXPECT_EQ(d.values(), expected);
    EXPECT_FALSE(d.restrict_bounds(1, 100)); // no change
}

TEST(Domain, AssignOutsideWipesOut)
{
    Domain d = Domain::of({1, 2, 3});
    d.assign(9);
    EXPECT_TRUE(d.empty());
}

TEST(Domain, RemoveFromInterval)
{
    Domain d = Domain::interval(1, 5);
    EXPECT_TRUE(d.remove(1));
    EXPECT_EQ(d.min(), 2);
    EXPECT_TRUE(d.remove(5));
    EXPECT_EQ(d.max(), 4);
    EXPECT_TRUE(d.remove(3)); // interior: materializes
    std::vector<int64_t> expected{2, 4};
    EXPECT_EQ(d.values(), expected);
}

TEST(Domain, IntersectValuesConvertsInterval)
{
    Domain d = Domain::interval(0, 100);
    d.intersect_values({8, 16, 32, 256});
    std::vector<int64_t> expected{8, 16, 32};
    EXPECT_EQ(d.values(), expected);
}

TEST(Domain, FilterPredicate)
{
    Domain d = Domain::of({1, 2, 3, 4, 5, 6});
    d.filter([](int64_t v) { return v % 2 == 0; });
    std::vector<int64_t> expected{2, 4, 6};
    EXPECT_EQ(d.values(), expected);
}

TEST(Csp, NamesResolve)
{
    Csp csp;
    VarId x = csp.add_var("x", Domain::of({1, 2}), true);
    EXPECT_EQ(csp.var_id("x"), x);
    EXPECT_EQ(csp.find_var("nope"), -1);
    EXPECT_EQ(csp.tunable_vars().size(), 1u);
}

TEST(Csp, ConstCacheReuses)
{
    Csp csp;
    VarId a = csp.add_const(48 * 1024);
    VarId b = csp.add_const(48 * 1024);
    EXPECT_EQ(a, b);
}

TEST(Csp, SatisfiesEachKind)
{
    Csp csp;
    VarId x = csp.add_var("x", Domain::interval(0, 100), true);
    VarId y = csp.add_var("y", Domain::interval(0, 100), true);
    VarId z = csp.add_var("z", Domain::interval(0, 10000));
    VarId u = csp.add_var("u", Domain::interval(0, 1), true);
    csp.add_prod(z, {x, y});
    csp.add_sum(z, {x, y}); // deliberately inconsistent with prod
    csp.add_eq(x, y);
    csp.add_le(x, y);
    csp.add_in(x, {3, 5});
    csp.add_select(z, u, {x, y});

    Assignment a(4);
    a[static_cast<size_t>(x)] = 3;
    a[static_cast<size_t>(y)] = 3;
    a[static_cast<size_t>(z)] = 9;
    a[static_cast<size_t>(u)] = 0;

    const auto &cs = csp.constraints();
    EXPECT_TRUE(csp.satisfies(cs[0], a));  // 9 == 3*3
    EXPECT_FALSE(csp.satisfies(cs[1], a)); // 9 != 3+3
    EXPECT_TRUE(csp.satisfies(cs[2], a));  // 3 == 3
    EXPECT_TRUE(csp.satisfies(cs[3], a));  // 3 <= 3
    EXPECT_TRUE(csp.satisfies(cs[4], a));  // 3 in {3,5}
    EXPECT_FALSE(csp.satisfies(cs[5], a)); // z != x
    EXPECT_EQ(csp.count_violations(a), 2);
}

TEST(Propagate, ProdForwardAndBackward)
{
    Csp csp;
    VarId a = csp.add_var("a", Domain::of({2, 4}), true);
    VarId b = csp.add_var("b", Domain::of({3, 5}), true);
    VarId p = csp.add_var("p", Domain::interval(0, 1000));
    csp.add_prod(p, {a, b});

    PropagationEngine engine(csp);
    ASSERT_TRUE(engine.propagate());
    EXPECT_EQ(engine.domain(p).min(), 6);
    EXPECT_EQ(engine.domain(p).max(), 20);

    ASSERT_TRUE(engine.assign_and_propagate(a, 4));
    ASSERT_TRUE(engine.assign_and_propagate(b, 5));
    EXPECT_TRUE(engine.domain(p).is_singleton());
    EXPECT_EQ(engine.domain(p).value(), 20);
}

TEST(Propagate, ProdBackSolvesLastOperand)
{
    Csp csp;
    VarId a = csp.add_var("a", Domain::of({2, 4, 8}), true);
    VarId b = csp.add_var("b", Domain::of({2, 4, 8}), true);
    VarId p = csp.add_var("p", Domain::interval(1, 64));
    csp.add_prod(p, {a, b});

    PropagationEngine engine(csp);
    ASSERT_TRUE(engine.assign_and_propagate(p, 16));
    ASSERT_TRUE(engine.assign_and_propagate(a, 8));
    EXPECT_TRUE(engine.domain(b).is_singleton());
    EXPECT_EQ(engine.domain(b).value(), 2);
}

TEST(Propagate, ProdConflictWhenIndivisible)
{
    Csp csp;
    VarId a = csp.add_var("a", Domain::of({3}), true);
    VarId b = csp.add_var("b", Domain::of({2, 4}), true);
    VarId p = csp.add_var("p", Domain::interval(1, 64));
    csp.add_prod(p, {a, b});

    PropagationEngine engine(csp);
    EXPECT_FALSE(engine.assign_and_propagate(p, 7));
}

TEST(Propagate, SumBounds)
{
    Csp csp;
    VarId a = csp.add_var("a", Domain::interval(1, 10), true);
    VarId b = csp.add_var("b", Domain::interval(2, 20), true);
    VarId s = csp.add_var("s", Domain::interval(0, 12));
    csp.add_sum(s, {a, b});

    PropagationEngine engine(csp);
    ASSERT_TRUE(engine.propagate());
    // s <= 12 so a <= 12 - b.min = 10, b <= 12 - a.min = 11.
    EXPECT_LE(engine.domain(b).max(), 11);
    EXPECT_GE(engine.domain(s).min(), 3);
}

TEST(Propagate, LeTightensBothSides)
{
    Csp csp;
    VarId a = csp.add_var("a", Domain::interval(5, 100), true);
    VarId b = csp.add_var("b", Domain::interval(0, 50), true);
    csp.add_le(a, b);

    PropagationEngine engine(csp);
    ASSERT_TRUE(engine.propagate());
    EXPECT_LE(engine.domain(a).max(), 50);
    EXPECT_GE(engine.domain(b).min(), 5);
}

TEST(Propagate, EqMerges)
{
    Csp csp;
    VarId a = csp.add_var("a", Domain::of({1, 2, 3, 4}), true);
    VarId b = csp.add_var("b", Domain::of({3, 4, 5}), true);
    csp.add_eq(a, b);

    PropagationEngine engine(csp);
    ASSERT_TRUE(engine.propagate());
    std::vector<int64_t> expected{3, 4};
    EXPECT_EQ(engine.domain(a).values(), expected);
    EXPECT_EQ(engine.domain(b).values(), expected);
}

TEST(Propagate, InIntersects)
{
    Csp csp;
    VarId a = csp.add_var("a", Domain::interval(0, 100), true);
    csp.add_in(a, {1, 2, 4, 8, 256});

    PropagationEngine engine(csp);
    ASSERT_TRUE(engine.propagate());
    std::vector<int64_t> expected{1, 2, 4, 8};
    EXPECT_EQ(engine.domain(a).values(), expected);
}

TEST(Propagate, SelectFixedSelectorActsAsEq)
{
    Csp csp;
    VarId v = csp.add_var("v", Domain::interval(0, 100));
    VarId u = csp.add_var("u", Domain::singleton(1), true);
    VarId x = csp.add_var("x", Domain::of({7}), true);
    VarId y = csp.add_var("y", Domain::of({9}), true);
    csp.add_select(v, u, {x, y});

    PropagationEngine engine(csp);
    ASSERT_TRUE(engine.propagate());
    EXPECT_TRUE(engine.domain(v).is_singleton());
    EXPECT_EQ(engine.domain(v).value(), 9);
}

TEST(Propagate, SelectPrunesSelector)
{
    Csp csp;
    VarId v = csp.add_var("v", Domain::of({7}));
    VarId u = csp.add_var("u", Domain::interval(0, 1), true);
    VarId x = csp.add_var("x", Domain::of({7}), true);
    VarId y = csp.add_var("y", Domain::of({9}), true);
    csp.add_select(v, u, {x, y});

    PropagationEngine engine(csp);
    ASSERT_TRUE(engine.propagate());
    EXPECT_TRUE(engine.domain(u).is_singleton());
    EXPECT_EQ(engine.domain(u).value(), 0);
}

TEST(Solver, SolvesTilingChain)
{
    // Classic Heron shape: extent = t0*t1*t2 with divisor domains.
    Csp csp;
    auto divs = divisors(64);
    VarId t0 = csp.add_var("t0", Domain::of(divs), true);
    VarId t1 = csp.add_var("t1", Domain::of(divs), true);
    VarId t2 = csp.add_var("t2", Domain::of(divs), true);
    VarId e = csp.add_var("e", Domain::singleton(64));
    csp.add_prod(e, {t0, t1, t2});

    RandSatSolver solver(csp);
    Rng rng(1);
    for (int i = 0; i < 50; ++i) {
        auto a = solver.solve_one(rng);
        ASSERT_TRUE(a.has_value());
        EXPECT_EQ((*a)[static_cast<size_t>(t0)] *
                      (*a)[static_cast<size_t>(t1)] *
                      (*a)[static_cast<size_t>(t2)],
                  64);
    }
}

TEST(Solver, SolutionsAreDiverse)
{
    Csp csp;
    auto divs = divisors(256);
    VarId t0 = csp.add_var("t0", Domain::of(divs), true);
    VarId t1 = csp.add_var("t1", Domain::of(divs), true);
    VarId e = csp.add_var("e", Domain::singleton(256));
    csp.add_prod(e, {t0, t1});

    RandSatSolver solver(csp);
    Rng rng(2);
    std::set<int64_t> seen;
    for (int i = 0; i < 60; ++i) {
        auto a = solver.solve_one(rng);
        ASSERT_TRUE(a.has_value());
        seen.insert((*a)[static_cast<size_t>(t0)]);
    }
    // 9 divisors of 256; random sampling should hit most of them.
    EXPECT_GE(seen.size(), 6u);
}

TEST(Solver, RespectsMemoryStyleConstraint)
{
    // mem = a*b*4 <= 48, a,b in divisors(16)
    Csp csp;
    auto divs = divisors(16);
    VarId a = csp.add_var("a", Domain::of(divs), true);
    VarId b = csp.add_var("b", Domain::of(divs), true);
    VarId four = csp.add_const(4);
    VarId mem = csp.add_var("mem", Domain::interval(0, 1 << 20));
    VarId cap = csp.add_const(48);
    csp.add_prod(mem, {a, b, four});
    csp.add_le(mem, cap);

    RandSatSolver solver(csp);
    Rng rng(3);
    for (int i = 0; i < 40; ++i) {
        auto sol = solver.solve_one(rng);
        ASSERT_TRUE(sol.has_value());
        int64_t m = (*sol)[static_cast<size_t>(mem)];
        EXPECT_LE(m, 48);
        EXPECT_EQ(m, (*sol)[static_cast<size_t>(a)] *
                         (*sol)[static_cast<size_t>(b)] * 4);
    }
}

TEST(Solver, DetectsUnsat)
{
    Csp csp;
    VarId a = csp.add_var("a", Domain::of({2, 4}), true);
    csp.add_in(a, {3, 5});
    RandSatSolver solver(csp);
    Rng rng(4);
    EXPECT_FALSE(solver.solve_one(rng).has_value());
}

TEST(Solver, ExtraConstraintsNarrowSolutions)
{
    Csp csp;
    auto divs = divisors(64);
    VarId t0 = csp.add_var("t0", Domain::of(divs), true);
    VarId t1 = csp.add_var("t1", Domain::of(divs), true);
    VarId e = csp.add_var("e", Domain::singleton(64));
    csp.add_prod(e, {t0, t1});

    Constraint pin;
    pin.kind = ConstraintKind::kIn;
    pin.result = t0;
    pin.constants = {8};

    RandSatSolver solver(csp);
    Rng rng(5);
    for (int i = 0; i < 20; ++i) {
        auto a = solver.solve_one(rng, {pin});
        ASSERT_TRUE(a.has_value());
        EXPECT_EQ((*a)[static_cast<size_t>(t0)], 8);
        EXPECT_EQ((*a)[static_cast<size_t>(t1)], 8);
    }
}

TEST(Solver, SolveNDedups)
{
    Csp csp;
    csp.add_var("a", Domain::of({1, 2}), true);
    RandSatSolver solver(csp);
    Rng rng(6);
    auto sols = solver.solve_n(rng, 10);
    EXPECT_LE(sols.size(), 2u);
    EXPECT_GE(sols.size(), 1u);
}

TEST(Solver, TensorCoreStyleIntrinsicConstraint)
{
    // m*n*k == 4096, m,n,k in {8,16,32}: the TensorCore wmma rule.
    Csp csp;
    Domain shapes = Domain::of({8, 16, 32});
    VarId m = csp.add_var("m", shapes, true);
    VarId n = csp.add_var("n", shapes, true);
    VarId k = csp.add_var("k", shapes, true);
    VarId mnk = csp.add_const(4096);
    csp.add_prod(mnk, {m, n, k});

    RandSatSolver solver(csp);
    Rng rng(7);
    std::set<std::vector<int64_t>> seen;
    for (int i = 0; i < 100; ++i) {
        auto a = solver.solve_one(rng);
        ASSERT_TRUE(a.has_value());
        int64_t vm = (*a)[static_cast<size_t>(m)];
        int64_t vn = (*a)[static_cast<size_t>(n)];
        int64_t vk = (*a)[static_cast<size_t>(k)];
        EXPECT_EQ(vm * vn * vk, 4096);
        seen.insert({vm, vn, vk});
    }
    // {8,16,32} triples multiplying to 4096: permutations of
    // (8,16,32) plus (16,16,16) = 7 total; expect good coverage.
    EXPECT_GE(seen.size(), 5u);
}

/** Property sweep: PROD chains of varying extent solve correctly. */
class SolverExtentSweep : public ::testing::TestWithParam<int64_t>
{
};

TEST_P(SolverExtentSweep, ProductDecompositionHolds)
{
    int64_t extent = GetParam();
    Csp csp;
    auto divs = divisors(extent);
    VarId t0 = csp.add_var("t0", Domain::of(divs), true);
    VarId t1 = csp.add_var("t1", Domain::of(divs), true);
    VarId t2 = csp.add_var("t2", Domain::of(divs), true);
    VarId t3 = csp.add_var("t3", Domain::of(divs), true);
    VarId e = csp.add_var("e", Domain::singleton(extent));
    csp.add_prod(e, {t0, t1, t2, t3});

    RandSatSolver solver(csp);
    Rng rng(static_cast<uint64_t>(extent));
    for (int i = 0; i < 10; ++i) {
        auto a = solver.solve_one(rng);
        ASSERT_TRUE(a.has_value());
        int64_t prod = 1;
        for (VarId t : {t0, t1, t2, t3})
            prod *= (*a)[static_cast<size_t>(t)];
        EXPECT_EQ(prod, extent);
    }
}

INSTANTIATE_TEST_SUITE_P(Extents, SolverExtentSweep,
                         ::testing::Values(1, 2, 12, 64, 100, 128, 504,
                                           1000, 1024, 4096));

TEST(SolverStats, AccumulatesFieldWise)
{
    SolverStats a;
    a.solve_calls = 3;
    a.solutions = 2;
    a.backtracks = 10;
    a.restarts = 1;
    a.failures = 1;
    a.unsat = 1;
    a.propagations = 40;
    a.revisions = 200;
    SolverStats b;
    b.solve_calls = 4;
    b.solutions = 4;
    b.budget_exhausted = 2;
    b.deadline_aborts = 1;
    b.propagations = 60;
    b.revisions = 300;
    b.unsat_memo_hits = 5;
    a += b;
    EXPECT_EQ(a.solve_calls, 7);
    EXPECT_EQ(a.solutions, 6);
    EXPECT_EQ(a.backtracks, 10);
    EXPECT_EQ(a.restarts, 1);
    EXPECT_EQ(a.failures, 1);
    EXPECT_EQ(a.unsat, 1);
    EXPECT_EQ(a.budget_exhausted, 2);
    EXPECT_EQ(a.deadline_aborts, 1);
    EXPECT_EQ(a.propagations, 100);
    EXPECT_EQ(a.revisions, 500);
    EXPECT_EQ(a.unsat_memo_hits, 5);
}

TEST(Solver, LubySequence)
{
    const int64_t want[] = {1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8};
    for (int64_t i = 1; i <= 15; ++i)
        EXPECT_EQ(luby(i), want[i - 1]) << "luby(" << i << ")";
    EXPECT_EQ(luby(31), 16);
    EXPECT_EQ(luby(32), 1);

    // An odd sum of sixteen odd numbers: unsatisfiable, but not
    // provably so by bounds propagation, so every restart runs until
    // its Luby allotment is spent. Units of kLubyUnit = 32 over a
    // budget of 800: 32 32 64 32 32 64 128 32 32 64 32 32 64 128
    // (768 in total), then the last restart gets the 32 that are
    // left instead of 256.
    static_assert(kLubyUnit == 32);
    Csp csp;
    std::vector<VarId> vars;
    for (int i = 0; i < 16; ++i)
        vars.push_back(csp.add_var("x" + std::to_string(i),
                                   Domain::of({1, 3}), true));
    csp.add_sum(csp.add_var("s", Domain::singleton(33)), vars);
    SolverConfig config;
    config.max_backtracks = 800;
    RandSatSolver solver(csp, config);
    Rng rng(1);
    EXPECT_FALSE(solver.solve_one(rng).has_value());
    EXPECT_EQ(solver.last_failure(), SolveFailure::kBudget);
    EXPECT_EQ(solver.stats().backtracks, 800);
    EXPECT_EQ(solver.stats().restarts, 14);

    // The schedule restarts with every call.
    EXPECT_FALSE(solver.solve_one(rng).has_value());
    EXPECT_EQ(solver.stats().backtracks, 1600);
    EXPECT_EQ(solver.stats().restarts, 28);
}

TEST(Solver, UnsatMemoShortCircuitsRepeatedProofs)
{
    Csp csp;
    VarId t = csp.add_var("t", Domain::of({1, 2, 3, 4}), true);
    RandSatSolver solver(csp);
    Rng rng(1);

    // An extra set disproved by root propagation: t pinned to a
    // value outside its domain.
    Constraint pin;
    pin.kind = ConstraintKind::kIn;
    pin.result = t;
    pin.constants = {9};
    std::vector<Constraint> extra = {pin};

    EXPECT_FALSE(solver.solve_one(rng, extra).has_value());
    EXPECT_EQ(solver.last_failure(), SolveFailure::kUnsat);
    EXPECT_EQ(solver.stats().unsat_memo_hits, 0);

    // The same (proven-UNSAT) set again: answered from the memo.
    EXPECT_FALSE(solver.solve_one(rng, extra).has_value());
    EXPECT_EQ(solver.last_failure(), SolveFailure::kUnsat);
    EXPECT_EQ(solver.stats().unsat_memo_hits, 1);
    EXPECT_EQ(solver.stats().unsat, 2);

    // A satisfiable set is unaffected, and the base problem still
    // solves — the engine popped cleanly back to the root fixpoint.
    pin.constants = {2, 3};
    EXPECT_TRUE(solver.solve_one(rng, {pin}).has_value());
    auto base = solver.solve_one(rng);
    ASSERT_TRUE(base.has_value());
    EXPECT_TRUE(csp.valid(*base));
    EXPECT_EQ(solver.stats().unsat_memo_hits, 1);
}

TEST(Solver, UnsatMemoCanBeDisabled)
{
    Csp csp;
    VarId t = csp.add_var("t", Domain::of({1, 2}), true);
    SolverConfig config;
    config.unsat_memo = false;
    RandSatSolver solver(csp, config);
    Rng rng(1);
    Constraint pin;
    pin.kind = ConstraintKind::kIn;
    pin.result = t;
    pin.constants = {7};
    EXPECT_FALSE(solver.solve_one(rng, {pin}).has_value());
    EXPECT_FALSE(solver.solve_one(rng, {pin}).has_value());
    EXPECT_EQ(solver.stats().unsat_memo_hits, 0);
    EXPECT_EQ(solver.stats().unsat, 2);
}

} // namespace
} // namespace heron::csp
