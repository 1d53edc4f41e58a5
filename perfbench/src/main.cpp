/**
 * @file
 * heron_perfbench: the repo's end-to-end benchmark.
 *
 *   heron_perfbench --workload <tune-tab10|serve-warm|serve-cold-model>
 *                   --seed N --seconds S --trace 0|1 [--short]
 *                   [--work-dir DIR] [--tune-seed N]
 *
 * Runs whole rounds of the workload for S seconds, checks every
 * output, and prints one JSON object as the last stdout line:
 * {"correct","attempted","failed","metrics"} with the end-to-end
 * metrics (--trace 0) or the per-layer metrics (--trace 1).
 */
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "support/logging.h"
#include "workloads.h"

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "heron_perfbench: %s\nusage: heron_perfbench --workload "
                 "<tune-tab10|serve-warm|serve-cold-model> --seed N "
                 "--seconds S --trace 0|1 [--short] [--work-dir DIR] "
                 "[--tune-seed N]\n",
                 why);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    pb::Options options;
    for (int i = 1; i < argc; ++i) {
        auto need = [&](const char *flag) -> const char * {
            if (i + 1 >= argc)
                usage((std::string(flag) + " needs a value").c_str());
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--workload"))
            options.workload = need("--workload");
        else if (!std::strcmp(argv[i], "--seed"))
            options.seed = std::strtoull(need("--seed"), nullptr, 10);
        else if (!std::strcmp(argv[i], "--tune-seed"))
            options.tune_seed = std::strtoull(need("--tune-seed"), nullptr, 10);
        else if (!std::strcmp(argv[i], "--seconds"))
            options.seconds = std::atof(need("--seconds"));
        else if (!std::strcmp(argv[i], "--trace"))
            options.trace = std::atoi(need("--trace")) != 0;
        else if (!std::strcmp(argv[i], "--short"))
            options.short_run = true;
        else if (!std::strcmp(argv[i], "--work-dir"))
            options.work_dir = need("--work-dir");
        else
            usage((std::string("unknown flag ") + argv[i]).c_str());
    }
    options.nproc =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    if (options.seconds <= 0.0)
        usage("--seconds must be positive");
    // Each run gets its own scratch directory inside the work dir.
    options.work_dir += "/" + options.workload + "-" +
                        std::to_string(::getpid());
    std::error_code ec;
    std::filesystem::remove_all(options.work_dir, ec);
    std::filesystem::create_directories(options.work_dir, ec);
    if (ec)
        usage(("cannot create " + options.work_dir).c_str());
    heron::set_log_level(heron::LogLevel::kWarn);

    pb::Result result;
    if (options.workload == "tune-tab10")
        result = pb::run_tune_tab10(options);
    else if (options.workload == "serve-warm")
        result = pb::run_serve_warm(options);
    else if (options.workload == "serve-cold-model")
        result = pb::run_serve_cold(options);
    else
        usage(("unknown workload " + options.workload).c_str());
    std::filesystem::remove_all(options.work_dir, ec);
    pb::report_at_reference_speed(result);

    const auto &catalogue = options.trace ? pb::per_layer_metrics()
                                          : pb::end_to_end_metrics();
    if (!options.trace) {
        // End-to-end metrics are never 0 on a working run.
        for (const auto &m : catalogue)
            result.check(result.get(m.name) > 0.0,
                         std::string("metric ") + m.name + " not measured");
    } else {
        std::printf("%-30s %16s  %s\n", "layer", "value", "unit");
        for (const auto &m : catalogue)
            std::printf("%-30s %16.6g  %s\n", m.name, result.get(m.name),
                        m.unit);
    }
    std::printf("%s\n", result.to_json(catalogue).c_str());
    std::fflush(stdout);
    return result.correct() ? 0 : 1;
}
