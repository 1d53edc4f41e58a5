#include "csp/solver.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <unordered_set>

#include "support/logging.h"
#include "support/math_util.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace heron::csp {

namespace {

using Clock = std::chrono::steady_clock;

/**
 * One restart's depth-first search over the solver's persistent
 * engine. The engine arrives at the root fixpoint (base problem
 * plus any pushed extras); every decision opens a trail level and
 * backtracking pops it. On success the decision levels are left
 * open so the caller can extract before popping back to the root.
 */
class Dfs
{
  public:
    Dfs(const Csp &csp, PropagationEngine &engine, Rng &rng,
        const SolverConfig &config, SolverStats &stats,
        Clock::time_point deadline)
        : csp_(csp), engine_(engine), rng_(rng), config_(config),
          stats_(stats), deadline_(deadline)
    {
    }

    /** Search until a solution or @p budget backtracks. */
    std::optional<Assignment>
    run(int64_t budget)
    {
        backtracks_left_ = budget;
        if (recurse())
            return engine_.extract();
        return std::nullopt;
    }

    /** The wall-clock deadline expired during the search. */
    bool deadline_hit() const { return deadline_hit_; }

  private:
    const Csp &csp_;
    PropagationEngine &engine_;
    Rng &rng_;
    const SolverConfig &config_;
    SolverStats &stats_;
    Clock::time_point deadline_;
    int64_t backtracks_left_ = 0;
    bool deadline_hit_ = false;
    // Scratch for pick_branch_var's tie-break list; consumed before
    // the search recurses, so one buffer serves every depth and the
    // per-decision allocation disappears.
    std::vector<VarId> open_;

    VarId
    pick_branch_var()
    {
        // Most-constrained unassigned tunable first (smallest
        // domain, ties broken randomly). Value choice stays fully
        // random, which provides the sample diversity RandSAT
        // needs; ordering by domain size surfaces conflicts early.
        std::vector<VarId> &open = open_;
        open.clear();
        if (config_.branch_tunables_first) {
            int64_t best = std::numeric_limits<int64_t>::max();
            for (VarId v : csp_.tunable_vars()) {
                const Domain &d = engine_.domain(v);
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
                return open[rng_.index(open.size())];
        }
        VarId best = -1;
        int64_t best_size = 0;
        for (size_t i = 0; i < csp_.num_vars(); ++i) {
            const Domain &d = engine_.domain(static_cast<VarId>(i));
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
            rng_.shuffle(vals);
        } else {
            // Huge interval: sample a handful of representative
            // values. Such variables are normally fixed by
            // propagation; this is a safety net.
            vals.push_back(d.min());
            vals.push_back(d.max());
            for (int i = 0; i < 6; ++i)
                vals.push_back(rng_.uniform_int(d.min(), d.max()));
            std::sort(vals.begin(), vals.end());
            vals.erase(std::unique(vals.begin(), vals.end()),
                       vals.end());
            rng_.shuffle(vals);
        }
        return vals;
    }

    bool
    recurse()
    {
        VarId var = pick_branch_var();
        if (var < 0)
            return engine_.all_assigned();

        for (int64_t value : candidate_values(engine_.domain(var))) {
            // Deadline check before every propagation step, so the
            // solve overshoots the deadline by at most one step.
            if (deadline_ != Clock::time_point::max() &&
                Clock::now() >= deadline_) {
                deadline_hit_ = true;
                return false;
            }
            engine_.push_level();
            if (engine_.assign_and_propagate(var, value)) {
                if (recurse())
                    return true; // levels stay open for extract()
            }
            // An exhausted budget or deadline abandons the restart:
            // the caller pops all open levels at once, and the
            // unwinding is not counted as backtracks.
            if (deadline_hit_ || backtracks_left_ <= 0)
                return false;
            engine_.pop_level();
            ++stats_.backtracks;
            if (--backtracks_left_ <= 0)
                return false;
        }
        return false;
    }
};

} // namespace

const char *
solve_failure_name(SolveFailure failure)
{
    switch (failure) {
      case SolveFailure::kNone: return "none";
      case SolveFailure::kUnsat: return "unsat";
      case SolveFailure::kBudget: return "budget";
      case SolveFailure::kDeadline: return "deadline";
    }
    return "?";
}

SolverStats &
SolverStats::operator+=(const SolverStats &other)
{
    solve_calls += other.solve_calls;
    solutions += other.solutions;
    backtracks += other.backtracks;
    restarts += other.restarts;
    failures += other.failures;
    unsat += other.unsat;
    budget_exhausted += other.budget_exhausted;
    deadline_aborts += other.deadline_aborts;
    propagations += other.propagations;
    revisions += other.revisions;
    unsat_memo_hits += other.unsat_memo_hits;
    return *this;
}

RandSatSolver::RandSatSolver(const Csp &csp, SolverConfig config)
    : csp_(csp), config_(config), engine_(csp)
{
    // Compute the base problem's root fixpoint once; every solve
    // call starts from this state. Its engine counters are absorbed
    // into the sync baseline rather than stats_: the fixpoint is
    // per-problem setup, not per-solve work, and excluding it keeps
    // aggregate stats worker-count invariant when SampleBatch
    // creates one solver per worker.
    root_ok_ = engine_.propagate();
    engine_synced_ = engine_.stats();
}

void
RandSatSolver::sync_engine_stats()
{
    const PropagationEngine::Stats &now = engine_.stats();
    stats_.propagations += now.propagations - engine_synced_.propagations;
    stats_.revisions += now.revisions - engine_synced_.revisions;
    engine_synced_ = now;
}

std::optional<Assignment>
RandSatSolver::search(Rng &rng, const std::vector<Constraint> &extra)
{
    HERON_TRACE_SCOPE("csp/solve");
    ++stats_.solve_calls;
    int64_t backtracks_before = stats_.backtracks;
    int64_t restarts_before = stats_.restarts;
    // Publish the outcome to the process-wide metrics registry as
    // one batch per solve call so the DFS inner loop stays free of
    // atomic traffic.
    auto publish = [&]() {
        HERON_COUNTER_INC("csp.solve_calls");
        HERON_COUNTER_ADD("csp.backtracks",
                          stats_.backtracks - backtracks_before);
        HERON_COUNTER_ADD("csp.restarts",
                          stats_.restarts - restarts_before);
        switch (last_failure_) {
          case SolveFailure::kNone:
            HERON_COUNTER_INC("csp.solutions");
            break;
          case SolveFailure::kUnsat:
            HERON_COUNTER_INC("csp.unsat");
            break;
          case SolveFailure::kBudget:
            HERON_COUNTER_INC("csp.budget_exhausted");
            break;
          case SolveFailure::kDeadline:
            HERON_COUNTER_INC("csp.deadline_aborts");
            break;
        }
        sync_engine_stats();
    };
    auto fail_unsat = [&]() {
        ++stats_.failures;
        ++stats_.unsat;
        last_failure_ = SolveFailure::kUnsat;
        publish();
        return std::nullopt;
    };

    if (!root_ok_)
        return fail_unsat();

    // Failures seen by earlier calls must not steer this call's
    // revision order (see PropagationEngine::reset_failure_lane).
    engine_.reset_failure_lane();

    // UNSAT memo: answer recently-disproven extra sets without
    // touching the engine. Memo hits consume no RNG, matching the
    // root-conflict path they cache.
    uint64_t memo_key = 0;
    std::vector<uint64_t> memo_sig;
    const bool use_memo = config_.unsat_memo && !extra.empty();
    if (use_memo) {
        memo_sig.reserve(extra.size());
        for (const auto &c : extra)
            memo_sig.push_back(c.signature());
        std::sort(memo_sig.begin(), memo_sig.end());
        memo_key = hash_u64(memo_sig.size());
        for (uint64_t s : memo_sig)
            memo_key = hash_combine(memo_key, s);
        auto it = unsat_memo_.find(memo_key);
        if (it != unsat_memo_.end() && it->second == memo_sig) {
            ++stats_.unsat_memo_hits;
            HERON_COUNTER_INC("csp.unsat_memo_hits");
            return fail_unsat();
        }
    }

    const bool push = !extra.empty();
    if (push && !engine_.push_extras(extra)) {
        // Root propagation disproved the extras: a proof, so it is
        // safe to memoize (budget/deadline failures are not).
        engine_.pop_extras();
        if (use_memo) {
            if (unsat_memo_.size() >= kUnsatMemoCap)
                unsat_memo_.clear();
            unsat_memo_.emplace(memo_key, std::move(memo_sig));
        }
        return fail_unsat();
    }

    const size_t base_depth = engine_.depth();
    auto finish = [&](std::optional<Assignment> result) {
        engine_.pop_to_depth(base_depth);
        if (push)
            engine_.pop_extras();
        publish();
        return result;
    };

    Clock::time_point deadline = Clock::time_point::max();
    if (config_.deadline_ms > 0.0)
        deadline = Clock::now() +
                   std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(
                           config_.deadline_ms));
    // Luby restarts over one backtrack budget per call. The budget
    // left is read off this call's own backtrack count, so the
    // schedule depends only on the call's inputs.
    for (int64_t restart = 0;; ++restart) {
        const int64_t left =
            config_.max_backtracks - (stats_.backtracks - backtracks_before);
        if (left <= 0)
            break;
        if (restart > 0)
            ++stats_.restarts;
        Dfs dfs(csp_, engine_, rng, config_, stats_, deadline);
        auto result =
            dfs.run(std::min(left, kLubyUnit * luby(restart + 1)));
        if (result) {
            ++stats_.solutions;
            last_failure_ = SolveFailure::kNone;
            return finish(std::move(result));
        }
        // Back to the root fixpoint for the next restart (replaces
        // the historical engine reconstruction).
        engine_.pop_to_depth(base_depth);
        if (dfs.deadline_hit()) {
            ++stats_.failures;
            ++stats_.deadline_aborts;
            last_failure_ = SolveFailure::kDeadline;
            return finish(std::nullopt);
        }
    }
    ++stats_.failures;
    ++stats_.budget_exhausted;
    last_failure_ = SolveFailure::kBudget;
    return finish(std::nullopt);
}

std::optional<Assignment>
RandSatSolver::solve_one(Rng &rng, const std::vector<Constraint> &extra)
{
    auto result = search(rng, extra);
    if (result) {
        HERON_CHECK(csp_.valid(*result))
            << "solver produced an invalid assignment";
        for (const auto &c : extra)
            HERON_CHECK(csp_.satisfies(c, *result))
                << "solver violated an extra constraint";
    }
    return result;
}

std::vector<Assignment>
RandSatSolver::solve_n(Rng &rng, int n,
                       const std::vector<Constraint> &extra)
{
    std::vector<Assignment> results;
    std::unordered_set<uint64_t> seen;
    // A few extra attempts absorb duplicate draws in tight spaces.
    int attempts = n + std::max(4, n / 2);
    for (int i = 0; i < attempts && static_cast<int>(results.size()) < n;
         ++i) {
        auto a = solve_one(rng, extra);
        if (!a)
            break; // budget exhausted; subproblem likely too tight
        uint64_t h = assignment_hash(*a);
        if (seen.insert(h).second)
            results.push_back(std::move(*a));
    }
    return results;
}

bool
RandSatSolver::feasible(Rng &rng, const std::vector<Constraint> &extra)
{
    return search(rng, extra).has_value();
}

} // namespace heron::csp
