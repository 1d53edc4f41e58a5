#include "speed.h"

#include "common.h"

namespace pb {

namespace {

/**
 * Solutions of the n-queens problem, by bitmask backtracking: a
 * branchy integer search in a few hundred bytes of stack, like the
 * CSP backtracking that dominates the tuning workloads, and with no
 * memory traffic of its own.
 */
int
queens(unsigned full, unsigned cols, unsigned left, unsigned right)
{
    if (cols == full)
        return 1;
    int count = 0;
    unsigned free = ~(cols | left | right) & full;
    while (free) {
        unsigned bit = free & -free;
        free ^= bit;
        count += queens(full, cols | bit, (left | bit) << 1,
                        (right | bit) >> 1);
    }
    return count;
}

constexpr int kQueens = 13;
constexpr int kQueensSolutions = 73712;
/** Probe runs per sample() call, about 40 ms each. */
constexpr int kRuns = 3;

} // namespace

void
SpeedProbe::sample()
{
    for (int i = 0; i < kRuns; ++i) {
        Clock::time_point t0 = Clock::now();
        int solutions = queens((1u << kQueens) - 1, 0, 0, 0);
        ms_.push_back(seconds_since(t0) * 1e3);
        ok_ = ok_ && solutions == kQueensSolutions;
    }
}

double
SpeedProbe::median_ms() const
{
    return median(ms_);
}

double
SpeedProbe::factor() const
{
    return ms_.empty() ? 1.0 : kReferenceProbeMs / median_ms();
}

} // namespace pb
