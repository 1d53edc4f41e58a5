/**
 * @file
 * Paper Table 10 + Fig. 14: compilation time.
 *
 * Table 10 compares total compilation (tuning) time of AutoTVM,
 * AMOS, and Heron on five operators at the same trial budget;
 * Fig. 14 breaks Heron's time into CGA (search), hardware
 * measurement, and other (cost model) components.
 *
 * Hardware measurement time is *simulated* (repeats x modeled
 * latency + per-measurement harness overhead), since that is what
 * dominates on real testbeds; search and model times are real
 * wall-clock of this process.
 *
 * Expected shape: Heron's total is comparable to or below the
 * baselines (paper: 87% of AutoTVM, 82% of AMOS) and measurement
 * dominates the breakdown (paper: ~76% measurement, ~23% CGA).
 */
#include "bench_common.h"

using namespace heron;

int
main(int argc, char **argv)
{
    auto options = bench::BenchOptions::parse(argc, argv, 150);
    auto spec = hw::DlaSpec::v100();
    auto config = options.tune_config();

    std::vector<ops::Workload> workloads = {
        ops::gemm(512, 1024, 1024),
        ops::bmm(192, 128, 128, 64),
        ops::c1d(16, 64, 256, 128, 3, 1, 1),
        ops::c2d(16, 64, 28, 28, 64, 3, 3, 1, 1),
        ops::c3d(4, 16, 16, 28, 28, 32, 3, 3, 3, 1, 1),
    };
    if (options.quick)
        workloads.resize(2);

    std::printf("Table 10 / Fig. 14 reproduction: %d trials per "
                "tuner\n\n",
                options.trials);

    TextTable t10({"operator", "AutoTVM (s)", "AMOS (s)",
                   "Heron (s)", "Heron/AutoTVM", "Heron/AMOS"});
    t10.set_title("Table 10: compilation time (simulated "
                  "measurement + real search)");
    TextTable t14({"operator", "measure%", "CGA%", "model%",
                   "total (s)"});
    t14.set_title("Fig. 14: breakdown of Heron's compilation time");

    for (const auto &w : workloads) {
        auto autotvm = autotune::make_autotvm_tuner(spec, config);
        auto amos = autotune::make_amos_tuner(spec, config);
        auto heron = autotune::make_heron_tuner(spec, config);

        auto o_autotvm = autotvm->tune(w);
        auto o_amos = amos->tune(w);
        auto o_heron = heron->tune(w);
        std::fprintf(stderr, "  %s done\n", w.name.c_str());

        double ta = o_autotvm.compile_seconds();
        double tm = o_amos.compile_seconds();
        double th = o_heron.compile_seconds();
        t10.add_row({w.name, TextTable::fmt(ta, 1),
                     TextTable::fmt(tm, 1), TextTable::fmt(th, 1),
                     TextTable::fmt(ta > 0 ? th / ta : 0, 2),
                     TextTable::fmt(tm > 0 ? th / tm : 0, 2)});

        double total = th > 0 ? th : 1.0;
        t14.add_row(
            {w.name,
             TextTable::fmt(100.0 * o_heron.measure_seconds / total,
                            1),
             TextTable::fmt(100.0 * o_heron.search_seconds / total,
                            1),
             TextTable::fmt(100.0 * o_heron.model_seconds / total,
                            1),
             TextTable::fmt(th, 1)});
    }
    std::printf("%s\n", t10.to_string().c_str());
    std::printf("%s\n", t14.to_string().c_str());
    std::printf("Note: the paper reports 61-79%% measurement and "
                "~23%% CGA; compare the measure%% and CGA%% columns "
                "above.\n");
    return 0;
}
