/**
 * @file
 * The three workloads. Each runs whole rounds of its operations for
 * Options::seconds, checks every output, and fills the metrics of the
 * run (end-to-end untraced, per-layer traced).
 */
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "common.h"

namespace pb {

/** The five Table 10 Heron tunes on V100, plus their library. */
Result run_tune_tab10(const Options &options);

/** Closed-loop lookups against a store loaded with seeded records. */
Result run_serve_warm(const Options &options);

/** One ResNet-50 graph request against an empty store. */
Result run_serve_cold(const Options &options);

/**
 * Extra set-ups timed before each round; setup_s is the median of all
 * set-ups of a run. Set-up takes about a millisecond, so single
 * samples are mostly scheduling noise, and spreading them over the
 * run also averages over the machine's speed drifting during it.
 */
constexpr int kSetupBatch = 25;

/**
 * Rounds after which tune-tab10 and serve-cold-model read peak_rss_mb.
 * Freed memory is not all returned to the system, so the high-water
 * mark creeps up round by round; read at a fixed round, it measures
 * the same work whatever the machine's speed lets a run complete.
 */
constexpr int kPeakRssRounds = 2;

/** Per-round tracing for the traced run: odd rounds are traced. */
bool traced_round(const Options &options, int round);

/** Arm or disarm span recording and zero spans and counters. */
void begin_round_trace(bool traced);

} // namespace pb

#endif // PERFBENCH_WORKLOADS_H
