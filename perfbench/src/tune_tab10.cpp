/**
 * @file
 * tune-tab10: Heron tunes the five Table 10 operators on V100 with a
 * fixed seed and trial budget, then emits their library. A round is
 * the five tunes plus the emit; rounds repeat with identical inputs,
 * so each round must also reproduce the first bit for bit.
 */
#include <cmath>
#include <cstdio>
#include <memory>

#include "autotune/library.h"
#include "autotune/tuner.h"
#include "inputs.h"
#include "spans.h"
#include "support/metrics.h"
#include "support/profiler.h"
#include "support/trace.h"
#include "workloads.h"

namespace pb {

namespace {

/** Trials per operator: one round of five tunes takes a few seconds. */
constexpr int kTrials = 48;
constexpr int kShortTrials = 24;

} // namespace

bool
traced_round(const Options &options, int round)
{
    return options.trace && round % 2 == 1;
}

void
begin_round_trace(bool traced)
{
    auto &profiler = heron::prof::Profiler::global();
    if (traced)
        profiler.enable();
    else
        profiler.disable();
    heron::trace::Tracer::global().clear();
    heron::metrics::Registry::global().reset();
}

Result
run_tune_tab10(const Options &options)
{
    Result res;
    pin_to_one_cpu();
    const hw::DlaSpec spec = hw::DlaSpec::v100();
    const std::vector<ops::Workload> workloads = tab10_workloads();

    autotune::TuneConfig config;
    config.trials = options.short_run ? kShortTrials : kTrials;
    config.seed = options.tune_seed;
    config.sample_workers = 1;

    // Set-up: the tuner and the benchmark's own freshly generated
    // spaces (used only by the checks). Timed again in batches before
    // the rounds, on throwaway copies; the median counts.
    std::vector<double> setup_s;
    auto set_up = [&](std::unique_ptr<autotune::Tuner> *tuner,
                      std::vector<rules::GeneratedSpace> *spaces) {
        Clock::time_point t0 = Clock::now();
        *tuner = autotune::make_heron_tuner(spec, config);
        rules::SpaceGenerator generator(spec, rules::Options::heron());
        spaces->clear();
        for (const auto &w : workloads)
            spaces->push_back(generator.generate(w));
        setup_s.push_back(seconds_since(t0));
    };
    auto set_up_batch = [&]() {
        std::unique_ptr<autotune::Tuner> throwaway_tuner;
        std::vector<rules::GeneratedSpace> throwaway_spaces;
        for (int i = 0; i < kSetupBatch; ++i)
            set_up(&throwaway_tuner, &throwaway_spaces);
    };
    std::unique_ptr<autotune::Tuner> tuner;
    std::vector<rules::GeneratedSpace> spaces;
    set_up(&tuner, &spaces);

    hw::MeasureConfig remeasure_config;
    remeasure_config.seed = options.seed;
    hw::Measurer remeasurer(spec, remeasure_config);

    std::vector<csp::Assignment> first_best(workloads.size());
    std::vector<double> tune_us;
    std::vector<double> op_max_us;
    std::vector<double> untraced_wall;
    std::vector<double> traced_wall;
    std::vector<double> kernel_ms;
    double tune_wall_sum = 0.0;
    int64_t tunes = 0;

    // Per-layer sums over traced rounds.
    std::vector<double> traced_op_s(workloads.size(), 0.0);
    TunerLayers layers_sum;
    double emit_ms_sum = 0.0;
    heron::csp::SolverStats solver;
    int64_t invalid_measurements = 0;
    int traced_rounds = 0;

    Clock::time_point start = Clock::now();
    for (int round = 0;; ++round) {
        bool need_more = round < 1 || (options.trace && round < 2);
        if (!need_more && seconds_since(start) >= options.seconds)
            break;
        // Between rounds the tuner's threads are idle.
        res.speed.sample();
        set_up_batch();
        bool traced = traced_round(options, round);
        begin_round_trace(traced);

        Clock::time_point round_start = Clock::now();
        std::vector<autotune::TuneOutcome> outcomes;
        std::vector<double> round_op_s;
        for (const auto &w : workloads) {
            Clock::time_point t0 = Clock::now();
            outcomes.push_back(tuner->tune(w));
            round_op_s.push_back(seconds_since(t0));
        }
        Clock::time_point emit_start = Clock::now();
        std::vector<autotune::NetworkLayerSpec> library_layers;
        for (size_t i = 0; i < workloads.size(); ++i) {
            autotune::NetworkLayerSpec layer;
            layer.workload = workloads[i];
            if (outcomes[i].result.found()) {
                autotune::TuningRecord record;
                record.latency_ms = outcomes[i].result.best_latency_ms;
                record.gflops = outcomes[i].result.best_gflops;
                record.assignment = outcomes[i].result.best;
                layer.record = std::move(record);
            }
            library_layers.push_back(std::move(layer));
        }
        autotune::NetworkLibrary library =
            autotune::LibraryBuilder(spec, config)
                .emit_network("table10", library_layers);
        double emit_ms = seconds_since(emit_start) * 1e3;
        double wall = seconds_since(round_start);

        // Checks, outside the timed region.
        res.attempted += static_cast<int64_t>(workloads.size());
        for (size_t i = 0; i < workloads.size(); ++i) {
            const auto &o = outcomes[i];
            const std::string name = op_short_name(workloads[i]);
            if (!o.result.found()) {
                ++res.failed;
                res.check(false, name + ": no valid program found");
                continue;
            }
            res.check(o.measure_stats.invalid == 0,
                      name + ": " + std::to_string(o.measure_stats.invalid) +
                          " invalid measurement(s)");
            if (round == 0) {
                first_best[i] = o.result.best;
                KernelCheck k = check_kernel(spaces[i], o.result.best,
                                             o.result.best_latency_ms,
                                             kLatencyTolerance, remeasurer);
                res.check(k.ok, name + ": best program " + k.error);
                kernel_ms.push_back(k.remeasured_ms);
            } else {
                res.check(o.result.best == first_best[i],
                          name + ": round " + std::to_string(round) +
                              " did not reproduce round 0");
            }
        }
        res.check(library.instances ==
                          static_cast<int64_t>(workloads.size()) &&
                      library.emitted ==
                          static_cast<int64_t>(workloads.size()),
                  "table10 library: " + std::to_string(library.emitted) +
                      " kernel(s) emitted");

        (traced ? traced_wall : untraced_wall).push_back(wall);
        if (round < kPeakRssRounds)
            res.set("peak_rss_mb", peak_rss_mb());
        if (!traced) {
            // Operators differ in size: lat_p50_us is the median of
            // every tune of the run, lat_p99_us the median over rounds
            // of the round's slowest tune (too few tunes for a tail).
            for (double s : round_op_s)
                tune_us.push_back(s * 1e6);
            op_max_us.push_back(percentile(round_op_s, 100) * 1e6);
            for (double s : round_op_s)
                tune_wall_sum += s;
            tunes += static_cast<int64_t>(round_op_s.size());
            continue;
        }

        ++traced_rounds;
        auto &tracer = heron::trace::Tracer::global();
        tracer.set_enabled(false);
        res.check(tracer.dropped_events() == 0,
                  "tracer dropped spans; per-layer split incomplete");
        TunerLayers l = tuner_layers(trace_events());
        for (size_t i = 0; i < workloads.size(); ++i)
            traced_op_s[i] += round_op_s[i];
        layers_sum.tune_s += l.tune_s;
        layers_sum.crossover_solve_s += l.crossover_solve_s;
        layers_sum.crossover_self_s += l.crossover_self_s;
        layers_sum.sample_s += l.sample_s;
        layers_sum.fit_s += l.fit_s;
        layers_sum.predict_s += l.predict_s;
        layers_sum.generate_s += l.generate_s;
        layers_sum.measure_s += l.measure_s;
        emit_ms_sum += emit_ms;
        solver = {};
        invalid_measurements = 0;
        for (const auto &o : outcomes) {
            solver += o.solver_stats;
            invalid_measurements += o.measure_stats.invalid;
        }

        // The layers must add up: the tune spans plus the emit cover
        // the round's wall clock, and the layers never sum past the
        // tune spans (they are disjoint).
        double covered = l.tune_s + emit_ms / 1e3;
        res.check(std::fabs(covered - wall) <= 0.02 * wall + 0.005,
                  "tune spans + emit " + std::to_string(covered) +
                      " s vs round wall " + std::to_string(wall) + " s");
        res.check(l.unattributed() >= -0.01 * l.tune_s,
                  "tuner layers sum past the tune spans by " +
                      std::to_string(-l.unattributed()) + " s");
    }

    res.set("setup_s", median(setup_s));
    res.set("model_ready_s", median(untraced_wall));
    double model_ms = 0.0;
    for (double ms : kernel_ms)
        model_ms += ms;
    res.set("model_latency_ms", model_ms);
    res.set("kernel_latency_us", geomean(kernel_ms) * 1e3);
    res.set("req_per_s", tune_wall_sum > 0 ? tunes / tune_wall_sum : 0.0);
    res.set("lat_p50_us", median(tune_us));
    res.set("lat_p99_us", median(op_max_us));

    if (traced_rounds > 0) {
        double n = traced_rounds;
        for (size_t i = 0; i < workloads.size(); ++i)
            res.set("autotune.tune_s." + op_short_name(workloads[i]),
                    traced_op_s[i] / n);
        res.set("csp.crossover_solve_s", layers_sum.crossover_solve_s / n);
        res.set("csp.sample_s", layers_sum.sample_s / n);
        res.set("search.crossover_self_s", layers_sum.crossover_self_s / n);
        res.set("model.fit_s", layers_sum.fit_s / n);
        res.set("model.predict_s", layers_sum.predict_s / n);
        res.set("rules.generate_ms", layers_sum.generate_s / n * 1e3);
        res.set("hw.measure_s", layers_sum.measure_s / n);
        res.set("autotune.unattributed_s", layers_sum.unattributed() / n);
        res.set("codegen.emit_ms", emit_ms_sum / n);
        res.set("csp.solves", static_cast<double>(solver.solve_calls));
        double solves = std::max<int64_t>(1, solver.solve_calls);
        res.set("csp.backtracks_per_solve", solver.backtracks / solves);
        res.set("csp.propagations_per_solve", solver.propagations / solves);
        res.set("csp.budget_exhausted",
                static_cast<double>(solver.budget_exhausted));
        res.set("hw.invalid_measurements",
                static_cast<double>(invalid_measurements));
        res.set("trace.overhead_pct",
                (median(traced_wall) / median(untraced_wall) - 1.0) * 100.0);
    }
    return res;
}

} // namespace pb
