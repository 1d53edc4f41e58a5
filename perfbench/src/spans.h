/**
 * @file
 * Per-layer attribution from the spans and counters the program
 * already records (support/trace, support/metrics). Self time of a
 * span is its duration minus the part covered by its children on the
 * same thread.
 */
#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <cstdint>
#include <string>
#include <vector>

namespace pb {

/** One completed span from the tracer's timeline. */
struct SpanEvent {
    std::string name;
    int tid = 0;
    double ts_us = 0.0;
    double dur_us = 0.0;
};

/** The tracer's buffered timeline (Tracer::chrome_trace_json). */
std::vector<SpanEvent> trace_events();

/**
 * Tuning layers of every Heron tune recorded since the tracer was
 * last cleared, in seconds of wall time on the tuning thread. Only
 * spans inside a recorded "tuner/tune" span count. The layers are
 * disjoint, so unattributed() is what the tuner spent outside all of
 * them.
 */
struct TunerLayers {
    /** "tuner/tune" spans: the tunes' own wall time. */
    double tune_s = 0.0;
    /** csp/solve under cga/crossover (the serial crossover solver). */
    double crossover_solve_s = 0.0;
    /** cga/crossover minus its csp/solve children. */
    double crossover_self_s = 0.0;
    /** csp/sample_batch: whole-population sampling (blocking). */
    double sample_s = 0.0;
    double fit_s = 0.0;
    /** phase/model minus model/fit: cost-model queries. */
    double predict_s = 0.0;
    double generate_s = 0.0;
    /** pool/measure_batch: simulated measurement, wall part. */
    double measure_s = 0.0;

    double
    attributed() const
    {
        return crossover_solve_s + crossover_self_s + sample_s +
               fit_s + predict_s + generate_s + measure_s;
    }
    double unattributed() const { return tune_s - attributed(); }
};

/**
 * Split the recorded spans into TunerLayers. @p events must hold the
 * whole timeline (check Tracer::dropped_events() is 0).
 */
TunerLayers tuner_layers(const std::vector<SpanEvent> &events);

/** Solver counters since the metrics registry was last reset. */
struct SolverCounts {
    int64_t solves = 0;
    int64_t backtracks = 0;
    int64_t propagations = 0;
    int64_t budget_exhausted = 0;
    int64_t invalid_measurements = 0;
};

SolverCounts solver_counts();

} // namespace pb

#endif // PERFBENCH_SPANS_H
