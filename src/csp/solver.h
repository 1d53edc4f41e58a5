/**
 * @file
 * RandSAT: randomized constraint-satisfaction solving.
 *
 * Heron uses a constraint solver only to draw *random valid
 * assignments* from a CSP (paper §5.1, "random constraint
 * satisfaction"). This solver performs randomized backtracking
 * search with propagation after every decision. Restarts follow the
 * Luby schedule (Luby, Sinclair & Zuckerman 1993): restart r gets
 * kLubyUnit * luby(r + 1) backtracks, until one solve call has
 * spent max_backtracks in total. Solve times on CGA crossover
 * subproblems are heavy-tailed, and a universal restart schedule
 * cuts the tail that a fixed one leaves: most solves finish within
 * a few short restarts, and a run that is stuck deep in a bad
 * subtree is abandoned early instead of after a fixed long budget.
 *
 * Throughput design: the solver owns one PropagationEngine for its
 * whole lifetime and computes the base problem's root-propagation
 * fixpoint once, in the constructor. Every solve call starts from
 * that memoized fixpoint — extra constraints are layered on with
 * push_extras()/pop_extras(), decisions backtrack over the engine's
 * undo trail, and restarts pop back to the fixpoint instead of
 * rebuilding the engine. A bounded signature-keyed memo
 * short-circuits extra-constraint sets recently *proven* UNSAT by
 * root propagation (CGA re-proposes the same invalid crossovers
 * often); budget/deadline failures are never memoized because they
 * are not proofs.
 */
#ifndef HERON_CSP_SOLVER_H
#define HERON_CSP_SOLVER_H

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "csp/csp.h"
#include "csp/propagate.h"
#include "support/rng.h"

namespace heron::csp {

/**
 * Term @p i (1-based) of the Luby sequence 1, 1, 2, 1, 1, 2, 4, 1,
 * 1, 2, 1, 1, 2, 4, 8, ...: luby(2^k - 1) = 2^(k-1), and otherwise
 * luby(i) = luby(i - 2^(k-1) + 1) for the k with
 * 2^(k-1) <= i < 2^k - 1.
 */
constexpr int64_t
luby(int64_t i)
{
    for (;;) {
        int64_t k = 1;
        while ((int64_t{1} << k) - 1 < i)
            ++k;
        if ((int64_t{1} << k) - 1 == i)
            return int64_t{1} << (k - 1);
        i -= (int64_t{1} << (k - 1)) - 1;
    }
}

/**
 * Backtracks of one Luby unit: restart r (0-based) gets
 * kLubyUnit * luby(r + 1) backtracks, capped by what is left of
 * SolverConfig::max_backtracks.
 */
constexpr int64_t kLubyUnit = 32;

/** Knobs for the randomized solver. */
struct SolverConfig {
    /** Backtracks, over all restarts, before one solve call gives up. */
    int max_backtracks = 8192;
    /**
     * Prefer branching on tunable variables before auxiliary ones
     * (auxiliaries are usually fixed by propagation anyway).
     */
    bool branch_tunables_first = true;
    /**
     * Wall-clock deadline per solve call in milliseconds (0 =
     * unbounded). Checked before every propagation step, so a solve
     * overshoots the deadline by at most one step.
     */
    double deadline_ms = 0.0;
    /**
     * Memoize extra-constraint sets proven UNSAT by root
     * propagation. SampleBatch disables this inside its workers so
     * aggregate batch statistics are worker-count invariant.
     */
    bool unsat_memo = true;
};

/** Why a solve call returned no assignment. */
enum class SolveFailure : uint8_t {
    kNone = 0,
    /** Proven unsatisfiable (root propagation wiped out a domain). */
    kUnsat,
    /** Backtrack budget exhausted (may still be sat). */
    kBudget,
    /** Wall-clock deadline expired (may still be sat). */
    kDeadline,
};

/** Name of a failure reason ("none", "unsat", ...). */
const char *solve_failure_name(SolveFailure failure);

/** Statistics accumulated across solve calls. */
struct SolverStats {
    int64_t solve_calls = 0;
    int64_t solutions = 0;
    int64_t backtracks = 0;
    int64_t restarts = 0;
    int64_t failures = 0;
    /** Solve calls that proved the subproblem unsatisfiable. */
    int64_t unsat = 0;
    /** Solve calls that exhausted the backtrack budget. */
    int64_t budget_exhausted = 0;
    /** Solve calls aborted by the wall-clock deadline. */
    int64_t deadline_aborts = 0;
    /** Propagation fixpoint computations. */
    int64_t propagations = 0;
    /** Individual constraint revisions. */
    int64_t revisions = 0;
    /** UNSAT solve calls answered from the signature memo. */
    int64_t unsat_memo_hits = 0;

    /** Field-wise accumulation (merging worker/offspring solvers). */
    SolverStats &operator+=(const SolverStats &other);
};

/**
 * Randomized finite-domain solver over a Csp plus optional extra
 * constraints.
 *
 * Not thread-safe: one RandSatSolver per thread (see SampleBatch
 * for the deterministic parallel front-end).
 */
class RandSatSolver
{
  public:
    /** Solver over the base problem only. */
    explicit RandSatSolver(const Csp &csp, SolverConfig config = {});

    /**
     * Draw one random valid assignment of all variables.
     * @param extra additional constraints (e.g. CGA crossover IN
     *        constraints); not stored.
     * @return nullopt when no solution was found within the budget
     *         (the subproblem may be unsatisfiable).
     */
    std::optional<Assignment>
    solve_one(Rng &rng, const std::vector<Constraint> &extra = {});

    /**
     * Draw up to @p n random valid assignments (duplicates are
     * removed). Fewer may be returned for tight subproblems.
     */
    std::vector<Assignment>
    solve_n(Rng &rng, int n, const std::vector<Constraint> &extra = {});

    /**
     * Check satisfiability of the problem plus @p extra within the
     * configured budget (sound "sat", incomplete "unsat").
     */
    bool feasible(Rng &rng, const std::vector<Constraint> &extra = {});

    /** Accumulated statistics. */
    const SolverStats &stats() const { return stats_; }

    /**
     * Why the most recent solve_one/feasible call failed (kNone
     * after a success). Lets callers distinguish a proven-UNSAT
     * subproblem from an exhausted budget or an expired deadline
     * and degrade accordingly.
     */
    SolveFailure last_failure() const { return last_failure_; }

    /** The problem this solver samples from. */
    const Csp &csp() const { return csp_; }

    /** The configuration the solver was built with. */
    const SolverConfig &config() const { return config_; }

  private:
    /** Entries kept in the UNSAT memo before it is reset. */
    static constexpr size_t kUnsatMemoCap = 4096;

    const Csp &csp_;
    SolverConfig config_;
    SolverStats stats_;
    SolveFailure last_failure_ = SolveFailure::kNone;

    /** Persistent engine holding the base root fixpoint at depth 0. */
    PropagationEngine engine_;
    /** False when the base problem is UNSAT at the root. */
    bool root_ok_ = false;
    /** Engine counters already folded into stats_. */
    PropagationEngine::Stats engine_synced_;

    /**
     * Extra-constraint sets proven UNSAT by root propagation, keyed
     * by an order-independent combined signature; the stored sorted
     * per-constraint signature vector guards against collisions.
     */
    std::unordered_map<uint64_t, std::vector<uint64_t>> unsat_memo_;

    std::optional<Assignment>
    search(Rng &rng, const std::vector<Constraint> &extra);

    /** Fold new engine propagation counters into stats_. */
    void sync_engine_stats();
};

} // namespace heron::csp

#endif // HERON_CSP_SOLVER_H
