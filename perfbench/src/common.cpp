#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <limits>
#include <set>
#include <sstream>

#include "hw/simulator.h"
#include "serve/workload_key.h"

namespace pb {

double
seconds_since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

const std::vector<MetricSpec> &
end_to_end_metrics()
{
    static const std::vector<MetricSpec> metrics = {
        {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
        {"model_ready_s", "s"},
        {"model_latency_ms", "ms"},
        {"kernel_latency_us", "us"},
        {"req_per_s", "1/s"},
        {"lat_p50_us", "us"},
        {"lat_p99_us", "us"},
    };
    return metrics;
}

const std::vector<MetricSpec> &
per_layer_metrics()
{
    static const std::vector<MetricSpec> metrics = {
        {"autotune.tune_s.gemm", "s"},
        {"autotune.tune_s.bmm", "s"},
        {"autotune.tune_s.c1d", "s"},
        {"autotune.tune_s.c2d", "s"},
        {"autotune.tune_s.c3d", "s"},
        {"csp.crossover_solve_s", "s"},
        {"csp.sample_s", "s"},
        {"search.crossover_self_s", "s"},
        {"csp.solves", "count"},
        {"csp.backtracks_per_solve", "count"},
        {"csp.propagations_per_solve", "count"},
        {"csp.budget_exhausted", "count"},
        {"model.fit_s", "s"},
        {"model.predict_s", "s"},
        {"rules.generate_ms", "ms"},
        {"hw.measure_s", "s"},
        {"hw.invalid_measurements", "count"},
        {"autotune.unattributed_s", "s"},
        {"serve.parse_us", "us"},
        {"serve.queue_us", "us"},
        {"serve.handle_us", "us"},
        {"serve.serialize_us", "us"},
        {"serve.write_us", "us"},
        {"serve.transport_us", "us"},
        {"registry.exact_us", "us"},
        {"registry.nearest_us", "us"},
        {"registry.exact_hits", "count"},
        {"registry.nearest_hits", "count"},
        {"registry.negative_hits", "count"},
        {"registry.misses", "count"},
        {"registry.transferred", "count"},
        {"registry.fallback_rejected", "count"},
        {"tier_share.exact_pct", "%"},
        {"tier_share.nearest_pct", "%"},
        {"tier_share.negative_pct", "%"},
        {"tier_share.graph_pct", "%"},
        {"graph.request_us", "us"},
        {"codegen.emit_ms", "ms"},
        {"store.replay_ms", "ms"},
        {"registry.load_ms", "ms"},
        {"store.appends", "count"},
        {"store.append_us", "us"},
        {"registry.hot_swaps", "count"},
        {"tune_queue.tune_s", "s"},
        {"tune_queue.idle_s", "s"},
        {"graph.status_polls", "count"},
        {"trace.overhead_pct", "%"},
        {"host.probe_ms", "ms"},
    };
    return metrics;
}

void
Result::check(bool ok, const std::string &what)
{
    if (ok)
        return;
    // Report the first few failures in full; a systematic fault would
    // otherwise flood stderr with one line per operation.
    if (errors_.size() < 20)
        std::fprintf(stderr, "perfbench: check failed: %s\n",
                     what.c_str());
    errors_.push_back(what);
}

void
Result::set(const std::string &name, double value)
{
    values_[name] = value;
}

double
Result::get(const std::string &name) const
{
    auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
}

std::string
Result::to_json(const std::vector<MetricSpec> &catalogue) const
{
    std::ostringstream out;
    out << std::setprecision(std::numeric_limits<double>::max_digits10);
    out << "{\"correct\":" << (correct() ? "true" : "false")
        << ",\"attempted\":" << attempted << ",\"failed\":" << failed
        << ",\"metrics\":{";
    bool first = true;
    for (const MetricSpec &m : catalogue) {
        double v = get(m.name);
        if (!std::isfinite(v))
            v = 0.0;
        out << (first ? "" : ",") << "\"" << m.name
            << "\":{\"value\":" << v << ",\"unit\":\"" << m.unit
            << "\"}";
        first = false;
    }
    out << "}}";
    return out.str();
}

namespace {

constexpr double kHistMinUs = 0.1;
constexpr double kHistRatio = 1.005;
constexpr size_t kHistBuckets = 4200; // 0.1 us .. ~130 s

} // namespace

LatencyHistogram::LatencyHistogram() : buckets_(kHistBuckets, 0) {}

void
LatencyHistogram::add(double us)
{
    double x = std::max(us, kHistMinUs);
    size_t b = static_cast<size_t>(std::log(x / kHistMinUs) /
                                   std::log(kHistRatio));
    ++buckets_[std::min(b, kHistBuckets - 1)];
    ++count_;
    sum_ += us;
}

void
LatencyHistogram::merge(const LatencyHistogram &other)
{
    for (size_t i = 0; i < kHistBuckets; ++i)
        buckets_[i] += other.buckets_[i];
    count_ += other.count_;
    sum_ += other.sum_;
}

double
LatencyHistogram::mean() const
{
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

double
LatencyHistogram::percentile(double p) const
{
    if (count_ == 0)
        return 0.0;
    int64_t rank = std::max<int64_t>(
        1, static_cast<int64_t>(std::ceil(p / 100.0 * count_)));
    int64_t seen = 0;
    for (size_t i = 0; i < kHistBuckets; ++i) {
        seen += buckets_[i];
        if (seen >= rank)
            // Geometric middle of the bucket.
            return kHistMinUs * std::pow(kHistRatio, i + 0.5);
    }
    return kHistMinUs * std::pow(kHistRatio, kHistBuckets);
}

void
pin_to_one_cpu()
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (!CPU_ISSET(cpu, &allowed))
                continue;
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpu, &one);
            if (sched_setaffinity(0, sizeof(one), &one) == 0)
                return;
            break;
        }
    }
    std::fprintf(stderr, "perfbench: cannot pin to one CPU; running "
                         "unpinned, and noisier\n");
}

void
report_at_reference_speed(Result &result)
{
    const double f = result.speed.factor();
    result.check(result.speed.median_ms() > 0.0,
                 "host speed was never probed");
    result.check(result.speed.ok(), "host probe counted wrong");
    std::fprintf(stderr, "perfbench: host probe %.3f ms, factor %.4f; "
                         "at this run's speed:",
                 result.speed.median_ms(), f);
    for (const char *name :
         {"setup_s", "model_ready_s", "lat_p50_us", "lat_p99_us"}) {
        std::fprintf(stderr, " %s %.6g", name, result.get(name));
        result.set(name, result.get(name) * f);
    }
    std::fprintf(stderr, " req_per_s %.6g\n", result.get("req_per_s"));
    result.set("req_per_s", result.get("req_per_s") / f);
    result.set("host.probe_ms", result.speed.median_ms());
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
    size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
    return values[std::min(index, values.size() - 1)];
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
peak_rss_mb()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double
roofline_ms(const hw::DlaSpec &spec, const ops::Workload &workload)
{
    double macs = static_cast<double>(workload.flops()) / 2.0;
    return macs / (spec.peak_gmacs() * 1e9) * 1e3;
}

KernelCheck
check_kernel(const rules::GeneratedSpace &space,
             const csp::Assignment &assignment, double reported_ms,
             double tolerance, hw::Measurer &measurer)
{
    KernelCheck out;
    std::string error;
    auto program = space.try_bind(assignment, &error);
    if (!program) {
        out.error = "does not bind: " + error;
        return out;
    }
    const hw::DlaSimulator &sim = measurer.simulator();
    std::string why = sim.check(*program);
    if (!why.empty()) {
        out.error = "simulator rejects it: " + why;
        return out;
    }
    out.simulated_ms = sim.latency_ms(*program);
    double floor_ms = roofline_ms(space.spec, space.workload);
    if (out.simulated_ms < floor_ms) {
        out.error = "latency " + std::to_string(out.simulated_ms) +
                    " ms beats the roofline bound " +
                    std::to_string(floor_ms) + " ms";
        return out;
    }
    if (reported_ms > 0.0 &&
        std::fabs(reported_ms / out.simulated_ms - 1.0) > tolerance) {
        out.error = "reported " + std::to_string(reported_ms) +
                    " ms, simulated " +
                    std::to_string(out.simulated_ms) + " ms";
        return out;
    }
    hw::MeasureResult measured = measurer.measure(*program);
    if (!measured.valid) {
        out.error = "re-measurement invalid: " + measured.error;
        return out;
    }
    out.remeasured_ms = measured.latency_ms;
    out.ok = true;
    return out;
}

std::string
assignment_json(const csp::Assignment &assignment)
{
    std::string out = "[";
    for (size_t i = 0; i < assignment.size(); ++i) {
        if (i)
            out += ',';
        out += std::to_string(assignment[i]);
    }
    out += ']';
    return out;
}

std::string
workload_json(const ops::Workload &workload)
{
    const char *op = "gemm";
    size_t arity = workload.params.size();
    switch (workload.kind) {
      case ops::OpKind::kGemm: op = "gemm"; break;
      case ops::OpKind::kBmm: op = "bmm"; break;
      case ops::OpKind::kC1d: op = "c1d"; break;
      // The wire shape omits C2D's trailing dilation (always 1).
      case ops::OpKind::kC2d: op = "c2d"; arity = 9; break;
      case ops::OpKind::kC3d: op = "c3d"; break;
      default: op = "?"; break;
    }
    std::string out = "\"op\":\"";
    out += op;
    out += "\",\"shape\":[";
    for (size_t i = 0; i < arity; ++i) {
        if (i)
            out += ',';
        out += std::to_string(workload.params[i]);
    }
    out += ']';
    return out;
}

std::string
json_field(std::string_view line, std::string_view key)
{
    std::string pattern(1, '"');
    pattern.append(key);
    pattern.append("\":");
    size_t pos = line.find(pattern);
    if (pos == std::string_view::npos)
        return "";
    pos += pattern.size();
    if (pos < line.size() && line[pos] == '"') {
        size_t end = line.find('"', pos + 1);
        if (end == std::string_view::npos)
            return "";
        return std::string(line.substr(pos + 1, end - pos - 1));
    }
    size_t end = line.find_first_of(",}]", pos);
    return std::string(line.substr(pos, end - pos));
}

std::string
check_graph_response(std::string_view line, const ops::Network &network,
                     const hw::DlaSpec &spec)
{
    if (line.find("\"error\":") != std::string_view::npos)
        return "graph request failed: " + std::string(line.substr(0, 200));
    std::set<std::string> distinct;
    int64_t instances = 0;
    std::string counts;
    for (const auto &layer : network.layers) {
        distinct.insert(serve::canonical_signature(layer.workload, spec));
        instances += layer.count;
        counts += (counts.empty() ? "" : ", ") + std::to_string(layer.count);
    }
    auto count_of = [&](std::string_view needle) {
        int64_t n = 0;
        for (size_t p = line.find(needle); p != std::string_view::npos;
             p = line.find(needle, p + needle.size()))
            ++n;
        return n;
    };
    std::string problems;
    auto expect = [&](bool ok, const std::string &what) {
        if (!ok)
            problems += (problems.empty() ? "" : "; ") + what;
    };
    expect(json_field(line, "converged") == "true", "not converged");
    expect(json_field(line, "coverage") == "1", "coverage below 1");
    expect(json_field(line, "layers") == std::to_string(distinct.size()),
           "distinct layers " + json_field(line, "layers"));
    expect(json_field(line, "instances") == std::to_string(instances),
           "instances " + json_field(line, "instances"));
    expect(json_field(line, "emitted") == std::to_string(distinct.size()),
           "emitted " + json_field(line, "emitted"));
    // The dispatch header rides inline with newlines escaped: one
    // prototype per distinct kernel, one kernel-returning case per
    // layer, and the per-layer instance counts in layer order.
    expect(count_of("inputs[], void *output);") ==
               static_cast<int64_t>(distinct.size()),
           "header prototypes");
    expect(count_of(": return &") ==
               static_cast<int64_t>(network.layers.size()),
           "header dispatch cases");
    expect(count_of("// unresolved") == 0, "unresolved layers in header");
    expect(line.find("counts[] = {" + counts + "}") !=
               std::string_view::npos,
           "header layer counts");
    return problems;
}

} // namespace pb
