/**
 * @file
 * Shared pieces of the end-to-end benchmark: run options, the result
 * record printed as the last stdout line, the metric catalogue, small
 * statistics helpers, and the kernel checks every workload runs
 * against code paths apart from the one under test.
 */
#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "csp/csp.h"
#include "hw/dla_spec.h"
#include "hw/measurer.h"
#include "ops/networks.h"
#include "ops/op_library.h"
#include "rules/space_generator.h"
#include "speed.h"

namespace heron::autotune {
}
namespace heron::serve {
}

namespace pb {

namespace autotune = heron::autotune;
namespace csp = heron::csp;
namespace hw = heron::hw;
namespace ops = heron::ops;
namespace rules = heron::rules;
namespace serve = heron::serve;

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
double seconds_since(Clock::time_point start);

/** Command-line options shared by every workload. */
struct Options {
    std::string workload;
    /** Workload seed: the same seed gives the same inputs. */
    uint64_t seed = 1;
    /**
     * Seed of the Heron tunes (tune-tab10, serve-cold-model). Fixed,
     * as in the paper's Table 10 run; change it only to measure the
     * seed-to-seed spread of the search results.
     */
    uint64_t tune_seed = 1;
    /** Measured time of one run, seconds. */
    double seconds = 10.0;
    /** Traced run: print the per-layer metrics. */
    bool trace = false;
    /** Brief run with every output check on (benchmark self-test). */
    bool short_run = false;
    /** Scratch directory for stores and emitted headers. */
    std::string work_dir = ".bench_build/work";
    /** Threads of serve-warm's input generator (hardware_concurrency). */
    int nproc = 1;
};

/** One metric as printed: name, unit, value. */
struct MetricSpec {
    const char *name;
    const char *unit;
};

/** End-to-end metrics, printed by every untraced run. */
const std::vector<MetricSpec> &end_to_end_metrics();

/** Per-layer metrics, printed by every traced run. */
const std::vector<MetricSpec> &per_layer_metrics();

/**
 * Outcome of one run: output-check verdict, operation counts, and
 * the metric values a workload filled in.
 */
class Result
{
  public:
    /** Record a failed output check (the run reports correct=false). */
    void check(bool ok, const std::string &what);

    bool correct() const { return errors_.empty(); }

    void set(const std::string &name, double value);
    /** Value of @p name, 0 when the workload did not set it. */
    double get(const std::string &name) const;

    int64_t attempted = 0;
    int64_t failed = 0;
    /** The run's host-speed samples (see speed.h). */
    SpeedProbe speed;

    /**
     * The result line: {"correct","attempted","failed","metrics"}
     * with every metric of @p catalogue (missing per-layer metrics
     * read 0: that layer did no work on this workload).
     */
    std::string to_json(const std::vector<MetricSpec> &catalogue) const;

  private:
    std::vector<std::string> errors_;
    std::map<std::string, double> values_;
};

/**
 * Latency samples in log-spaced buckets 0.5% wide: constant memory
 * however many requests a run sends (so peak RSS does not grow with
 * throughput), percentiles within a quarter percent.
 */
class LatencyHistogram
{
  public:
    LatencyHistogram();

    void add(double us);
    void merge(const LatencyHistogram &other);

    int64_t count() const { return count_; }
    double mean() const;
    /** Nearest-rank percentile, @p p in [0, 100] (0 when empty). */
    double percentile(double p) const;

  private:
    std::vector<int64_t> buckets_;
    int64_t count_ = 0;
    double sum_ = 0.0;
};

/**
 * Scale the host-time end-to-end metrics of @p result (setup_s,
 * model_ready_s, req_per_s, lat_p50_us, lat_p99_us) to reference
 * speed with result.speed, and set the per-layer host.probe_ms.
 * Simulated kernel latencies, memory and per-layer times stay as
 * measured. Logs the wall-clock values on stderr.
 */
void report_at_reference_speed(Result &result);

/**
 * Pin the calling thread, and so every thread started from it later,
 * to the first CPU it may run on. Threads on different vCPUs of a
 * shared host wait for the host to wake each other's vCPU; on one
 * vCPU they hand over locally. Logs and leaves the thread as it was
 * if the kernel refuses.
 */
void pin_to_one_cpu();

double median(std::vector<double> values);

/** Nearest-rank percentile, @p p in [0, 100]. */
double percentile(std::vector<double> values, double p);

double geomean(const std::vector<double> &values);

/** Peak resident set of this process, MiB. */
double peak_rss_mb();

/** Lower bound on a workload's latency: MACs / peak GMAC/s, ms. */
double roofline_ms(const hw::DlaSpec &spec,
                   const ops::Workload &workload);

/** What check_kernel found out about one served or tuned kernel. */
struct KernelCheck {
    bool ok = false;
    std::string error;
    /** Noise-free simulated latency of the bound program, ms. */
    double simulated_ms = 0.0;
    /** Latency re-measured by the benchmark's own measurer, ms. */
    double remeasured_ms = 0.0;
};

/**
 * Bind @p assignment against @p space (generated by the benchmark,
 * not taken from the program under test), check the simulator
 * accepts it, that its latency is at least the roofline bound, and,
 * when @p reported_ms > 0, that it is within @p tolerance of the
 * latency the program reported. Re-measures it on @p measurer.
 */
KernelCheck check_kernel(const rules::GeneratedSpace &space,
                         const csp::Assignment &assignment,
                         double reported_ms, double tolerance,
                         hw::Measurer &measurer);

/**
 * Relative tolerance between a reported (noisy, mean of repeats)
 * latency and the noise-free simulated one: many standard errors of
 * the measurer's default 1% noise.
 */
constexpr double kLatencyTolerance = 0.06;

/** "[1,2,3]" for an assignment (the wire form). */
std::string assignment_json(const csp::Assignment &assignment);

/** Wire form of a workload: "op":"c2d","shape":[...]. */
std::string workload_json(const ops::Workload &workload);

/**
 * Raw value after the first `"key":` of a one-line JSON object: a
 * number, true/false, or a string without its quotes ("" if absent).
 */
std::string json_field(std::string_view line, std::string_view key);

/**
 * Problems with a graph response for @p network that should have
 * converged with its whole library emitted inline ("" when none):
 * coverage 1, one distinct kernel per distinct layer, instance count
 * equal to the sum of the layer counts, and a dispatch case that
 * returns a kernel for every layer.
 */
std::string check_graph_response(std::string_view line,
                                 const ops::Network &network,
                                 const hw::DlaSpec &spec);

} // namespace pb

#endif // PERFBENCH_COMMON_H
