/**
 * @file
 * serve-warm: a fresh server over a WAL store loaded with seeded
 * records answers a closed loop of pipelined requests: Zipf-skewed
 * exact keys, repeated near shapes (nearest tier), repeated far
 * shapes (miss, then negative cache) and a small share of graph
 * requests for a stored network. Tune-on-miss is off, so the tier
 * mix stays the same for the whole run.
 */
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>

#include "inputs.h"
#include "loadgen.h"
#include "serve/graph.h"
#include "serve/server.h"
#include "serve/store_wal.h"
#include "support/metrics.h"
#include "support/trace.h"
#include "workloads.h"

namespace pb {

namespace {

/**
 * One pipelined connection keeps the client, the event loop and one
 * worker busy: three threads. With two connections (five busy
 * threads), req/s varied by up to 30% between identical runs on a
 * 4-core VM shared with other tenants, because losing any core
 * stalled the pipeline. Eight requests in flight keep the worker fed
 * while a response travels back.
 */
constexpr int kDepth = 8;
constexpr double kWarmupSeconds = 0.3;
/** Segments of a run, each on a fresh server (see run_serve_warm). */
constexpr int kSegments = 6;
/**
 * Server start-ups timed per segment, the last of which serves it:
 * setup_s is the median of them all. One takes ~55 ms.
 */
constexpr int kSetupsPerSegment = 4;

/** One server instance over a copy of the staged store. */
struct WarmServer {
    std::unique_ptr<serve::DurableStore> store;
    std::unique_ptr<serve::KernelRegistry> registry;
    std::unique_ptr<serve::GraphTuneScheduler> scheduler;
    std::unique_ptr<serve::GraphService> graph;
    std::unique_ptr<serve::Server> server;
    double load_ms = 0.0;

    ~WarmServer()
    {
        if (server)
            server->stop();
        server.reset();
        graph.reset();
        scheduler.reset();
        registry.reset();
        if (store)
            store->close();
    }
};

/** Open the store, load the registry and start serving: set-up. */
std::unique_ptr<WarmServer>
start_server(const hw::DlaSpec &spec, const std::string &dir,
             std::string *error)
{
    auto env = std::make_unique<WarmServer>();
    serve::DurableStoreConfig store_config;
    store_config.dir = dir;
    env->store = std::make_unique<serve::DurableStore>(store_config);
    if (!env->store->open(error))
        return nullptr;
    env->registry = std::make_unique<serve::KernelRegistry>(spec);
    Clock::time_point t0 = Clock::now();
    env->registry->load_records(env->store->records());
    env->load_ms = seconds_since(t0) * 1e3;
    env->scheduler = std::make_unique<serve::GraphTuneScheduler>(nullptr);
    env->graph = std::make_unique<serve::GraphService>(*env->registry,
                                                       *env->scheduler);
    serve::ServerConfig config;
    config.workers = 2;
    config.graph = env->graph.get();
    env->server = std::make_unique<serve::Server>(*env->registry, nullptr,
                                                  config);
    if (!env->server->start(error))
        return nullptr;
    return env;
}

/** What the client saw. */
struct Tally {
    /** Request latency over the measured part. */
    LatencyHistogram lat;
    std::vector<double> graph_us;
    int64_t errors = 0;
    /** Responses per Query::Kind over the measured part. */
    int64_t by_kind[4] = {0, 0, 0, 0};
    /** Distinct (near query, served assignment) pairs to validate. */
    std::set<std::pair<uint32_t, std::string>> near_served;
    std::vector<std::string> problems;

    void
    problem(const std::string &what)
    {
        if (problems.size() < 10)
            problems.push_back(what);
    }
};

std::string_view
assignment_of(std::string_view line)
{
    constexpr std::string_view kKey = "\"assignment\":";
    size_t pos = line.find(kKey);
    if (pos == std::string_view::npos)
        return {};
    pos += kKey.size();
    size_t end = line.find(']', pos);
    return end == std::string_view::npos ? std::string_view{}
                                         : line.substr(pos, end - pos + 1);
}

using Histograms = std::map<std::string, heron::metrics::HistogramSnapshot>;

double
histogram_p50(const Histograms &histograms, const std::string &name)
{
    auto it = histograms.find(name);
    return it == histograms.end() ? 0.0 : it->second.percentile(50);
}

double
histogram_mean(const Histograms &histograms, const std::string &name)
{
    auto it = histograms.find(name);
    if (it == histograms.end() || it->second.count == 0)
        return 0.0;
    return it->second.sum / static_cast<double>(it->second.count);
}

/**
 * Generate the inputs and stage the store in a child process, so the
 * generator's memory (a solver and simulator per thread over ~2800
 * candidate shapes, and a probe registry holding every record) never
 * counts toward this process's peak_rss_mb. The child writes the
 * staged store to @p staged and the inputs to a file this process
 * reads back.
 */
bool
stage_inputs(const hw::DlaSpec &spec, const Options &options,
             const WarmConfig &config, const std::string &staged,
             WarmInputs *in, std::string *error)
{
    const std::string path = options.work_dir + "/inputs.txt";
    std::fflush(nullptr);
    pid_t pid = ::fork();
    if (pid < 0) {
        *error = "fork failed";
        return false;
    }
    if (pid == 0) {
        Clock::time_point t0 = Clock::now();
        WarmInputs generated = make_warm_inputs(spec, options.seed, config);
        std::fprintf(stderr,
                     "serve-warm: %zu records (%s), %zu queries, %lld "
                     "unsampled, %lld near rejected, generated in %.2f s\n",
                     generated.records.size(), generated.kind_split.c_str(),
                     generated.queries.size(),
                     static_cast<long long>(generated.unsampled),
                     static_cast<long long>(generated.near_rejected),
                     seconds_since(t0));
        // No fsync: input staging, not measured. Each set-up opens a
        // fresh copy, so every replay sees the same segments.
        serve::DurableStoreConfig store_config;
        store_config.dir = staged;
        store_config.fsync_data = false;
        serve::DurableStore store(store_config);
        std::string why;
        bool ok = store.open(&why);
        for (const auto &r : generated.records)
            ok = ok && store.append(r.record);
        store.close();
        ok = ok && save_warm_inputs(generated, path);
        std::fflush(nullptr);
        ::_exit(ok ? 0 : 1);
    }
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0) {
        if (errno != EINTR) {
            *error = "waitpid failed";
            return false;
        }
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        *error = "input staging failed";
        return false;
    }
    if (!load_warm_inputs(path, in)) {
        *error = "cannot read staged inputs";
        return false;
    }
    return true;
}

} // namespace

Result
run_serve_warm(const Options &options)
{
    Result res;
    const hw::DlaSpec spec = hw::DlaSpec::v100();

    WarmConfig config;
    config.threads = options.nproc;
    if (options.short_run) {
        config.records = 300;
        config.near_shapes = 8;
        config.far_shapes = 8;
        config.schedule_len = 4096;
    }
    namespace fs = std::filesystem;
    const std::string staged = options.work_dir + "/staged";
    WarmInputs in;
    std::string stage_error;
    if (!stage_inputs(spec, options, config, staged, &in, &stage_error)) {
        res.check(false, stage_error);
        return res;
    }
    res.check(in.invalid == 0, std::to_string(in.invalid) +
                                   " sampled program(s) did not bind or "
                                   "measure valid");
    res.check(in.network_stored, "a ResNet-50 layer got no record");
    // The generator ran on every CPU; what is measured runs on one.
    pin_to_one_cpu();
    res.check(static_cast<int>(in.records.size()) == config.records,
              "record set short: " + std::to_string(in.records.size()));

    std::vector<std::string> bodies;
    std::vector<std::string> expected;
    for (const auto &q : in.queries) {
        bodies.push_back(q.body);
        expected.push_back(q.kind == Query::Kind::kExact
                               ? assignment_json(in.records[q.record]
                                                     .record.assignment)
                               : "");
    }

    Tally t;
    bool measuring = false;
    auto on_response = [&](uint32_t q, std::string_view line, double us) {
        const Query &query = in.queries[q];
        if (line.find("\"error\":") != std::string_view::npos) {
            ++t.errors;
            t.problem(std::string(line.substr(0, 160)));
            return;
        }
        if (measuring) {
            t.lat.add(us);
            ++t.by_kind[static_cast<int>(query.kind)];
        }
        std::string tier = json_field(line, "tier");
        switch (query.kind) {
          case Query::Kind::kExact:
            if (tier != "exact" || assignment_of(line) != expected[q])
                t.problem("exact key answered " + tier +
                          " or with another assignment: " +
                          std::string(line.substr(0, 160)));
            break;
          case Query::Kind::kNear:
            if (tier == "exact")
                t.problem("near shape answered exact");
            if (tier == "nearest" && t.near_served.size() < 4096)
                t.near_served.emplace(q, assignment_of(line));
            break;
          case Query::Kind::kFar:
            if (tier != "miss" && tier != "negative")
                t.problem("far shape answered " + tier);
            break;
          case Query::Kind::kGraph: {
            std::string why = check_graph_response(line, in.graph, spec);
            if (!why.empty())
                t.problem("graph: " + why);
            if (measuring)
                t.graph_us.push_back(us);
            break;
          }
        }
    };

    LoadConfig load;
    load.depth = kDepth;
    auto run_for = [&](double seconds) {
        Clock::time_point t0 = Clock::now();
        LoadResult r = run_closed_loop(
            load, in.schedule, bodies,
            [&] { return seconds_since(t0) < seconds; }, on_response);
        res.attempted += r.sent;
        res.failed += r.sent - r.received;
        res.check(r.error.empty(), "client: " + r.error);
        return seconds_since(t0);
    };

    // The run is split into segments, each served by a fresh server
    // over a fresh copy of the staged store: set-up is timed in every
    // segment (see kSetupsPerSegment), and the server's threads start
    // afresh, so a run averages over where the scheduler places them.
    // A traced run traces every other segment.
    std::vector<double> setup_s;
    std::unique_ptr<WarmServer> env;
    const std::string dir = options.work_dir + "/store";
    auto timed_start = [&]() {
        env.reset();
        fs::remove_all(dir);
        fs::copy(staged, dir, fs::copy_options::recursive);
        std::string error;
        Clock::time_point t0 = Clock::now();
        env = start_server(spec, dir, &error);
        setup_s.push_back(seconds_since(t0));
        res.check(env != nullptr, "cannot start server: " + error);
    };

    double measured_s[2] = {0.0, 0.0};
    int64_t measured_requests[2] = {0, 0};
    serve::RegistryStats tiers;
    Histograms phases;
    const double segment_s = options.seconds / kSegments;
    for (int segment = 0; segment < kSegments; ++segment) {
        env.reset();
        res.speed.sample();
        for (int i = 0; i < kSetupsPerSegment; ++i)
            timed_start();
        if (!env)
            return res;
        res.check(env->registry->size() == in.records.size(),
                  "registry holds " + std::to_string(env->registry->size()) +
                      " of " + std::to_string(in.records.size()) +
                      " records");
        load.port = env->server->port();

        // Warm-up: the near shapes' spaces get cached and the far
        // shapes reach the negative cache before timing starts.
        run_for(options.short_run ? 0.1 : kWarmupSeconds);

        const bool traced = traced_round(options, segment);
        heron::metrics::Registry::global().reset();
        serve::RegistryStats before = env->registry->stats();
        const int64_t requests_before = t.lat.count();
        heron::trace::Tracer::global().set_enabled(traced);
        measuring = true;
        measured_s[traced] += run_for(segment_s);
        measuring = false;
        heron::trace::Tracer::global().set_enabled(false);
        measured_requests[traced] += t.lat.count() - requests_before;

        serve::RegistryStats after = env->registry->stats();
        tiers.exact_hits += after.exact_hits - before.exact_hits;
        tiers.nearest_hits += after.nearest_hits - before.nearest_hits;
        tiers.negative_hits += after.negative_hits - before.negative_hits;
        tiers.misses += after.misses - before.misses;
        tiers.fallback_transferred +=
            after.fallback_transferred - before.fallback_transferred;
        tiers.fallback_rejected +=
            after.fallback_rejected - before.fallback_rejected;
        for (const auto &[name, h] :
             heron::metrics::Registry::global().snapshot().histograms) {
            auto &sum = phases[name];
            if (sum.counts.empty()) {
                sum = h;
                continue;
            }
            for (size_t i = 0; i < sum.counts.size(); ++i)
                sum.counts[i] += h.counts[i];
            sum.count += h.count;
            sum.sum += h.sum;
        }
    }
    const double elapsed = measured_s[0] + measured_s[1];

    const LatencyHistogram &lat = t.lat;
    res.failed += t.errors;
    for (const auto &p : t.problems)
        res.check(false, p);
    res.check(!t.graph_us.empty(), "no graph request completed");

    // Every nearest-tier answer binds against a space the benchmark
    // generates for the query shape, and measures valid.
    hw::MeasureConfig remeasure_config;
    remeasure_config.seed = options.seed;
    hw::Measurer remeasurer(spec, remeasure_config);
    rules::SpaceGenerator generator(spec, rules::Options::heron());
    std::map<uint32_t, rules::GeneratedSpace> near_spaces;
    for (const auto &key : t.near_served) {
        auto it = near_spaces.find(key.first);
        if (it == near_spaces.end())
            it = near_spaces
                     .emplace(key.first, generator.generate(
                                             in.queries[key.first].workload))
                     .first;
        csp::Assignment a;
        for (const char *p = key.second.c_str(); *p;) {
            char *end = nullptr;
            long long v = std::strtoll(p + 1, &end, 10);
            if (end == p + 1)
                break;
            a.push_back(v);
            p = end;
            if (*p == ']')
                break;
        }
        KernelCheck k = check_kernel(it->second, a, 0.0, 0.0, remeasurer);
        res.check(k.ok, "nearest answer for " +
                            in.queries[key.first].workload.name + ": " +
                            k.error);
    }

    // The stored network's library: Σ count x re-measured latency.
    double model_ms = 0.0;
    std::vector<double> kernel_ms;
    for (const auto &layer : in.graph.layers) {
        const StoredRecord *stored = nullptr;
        for (const auto &r : in.records)
            if (r.workload.params == layer.workload.params &&
                r.workload.kind == layer.workload.kind)
                stored = &r;
        if (!stored) {
            res.check(false, "graph layer not in the record set");
            continue;
        }
        KernelCheck k = check_kernel(generator.generate(layer.workload),
                                     stored->record.assignment,
                                     stored->record.latency_ms,
                                     kLatencyTolerance, remeasurer);
        res.check(k.ok, "stored kernel " + layer.workload.name + ": " +
                            k.error);
        model_ms += layer.count * k.remeasured_ms;
        kernel_ms.push_back(k.remeasured_ms);
    }

    std::fprintf(stderr,
                 "serve-warm: %lld responses in %.2f s, %zu distinct near "
                 "answers checked\n",
                 static_cast<long long>(lat.count()), elapsed,
                 t.near_served.size());

    res.set("setup_s", median(setup_s));
    // Every run has the same segments, so the whole run's peak.
    res.set("peak_rss_mb", peak_rss_mb());
    res.set("model_ready_s", median(t.graph_us) / 1e6);
    res.set("model_latency_ms", model_ms);
    res.set("kernel_latency_us", geomean(kernel_ms) * 1e3);
    res.set("req_per_s", measured_requests[0] / measured_s[0]);
    res.set("lat_p50_us", lat.percentile(50));
    res.set("lat_p99_us", lat.percentile(99));

    if (!options.trace)
        return res;

    double phase_mean_sum = 0.0;
    for (const char *phase :
         {"parse", "queue", "handle", "serialize", "write"}) {
        std::string name = std::string("serve.phase.") + phase + "_us";
        res.set(std::string("serve.") + phase + "_us",
                histogram_p50(phases, name));
        phase_mean_sum += histogram_mean(phases, name);
    }
    // Means add up where p50s do not: the client's mean latency is the
    // server phases plus transport (kernel, loopback and client side).
    double client_mean = lat.mean();
    double transport = client_mean - phase_mean_sum;
    res.set("serve.transport_us", transport);
    res.check(transport >= -0.02 * client_mean,
              "server phases (" + std::to_string(phase_mean_sum) +
                  " us) exceed the client latency (" +
                  std::to_string(client_mean) + " us)");

    res.set("registry.exact_hits", static_cast<double>(tiers.exact_hits));
    res.set("registry.nearest_hits",
            static_cast<double>(tiers.nearest_hits));
    res.set("registry.negative_hits",
            static_cast<double>(tiers.negative_hits));
    res.set("registry.misses", static_cast<double>(tiers.misses));
    res.set("registry.transferred",
            static_cast<double>(tiers.fallback_transferred));
    res.set("registry.fallback_rejected",
            static_cast<double>(tiers.fallback_rejected));
    // Mean span durations over the traced segments (the graph latency
    // histogram tops out below a graph request's duration).
    auto totals = heron::trace::Tracer::global().totals();
    auto span_mean_s = [&](const char *label) {
        auto it = totals.find(label);
        return it == totals.end() || it->second.count == 0
                   ? 0.0
                   : it->second.total_seconds / it->second.count;
    };
    res.set("graph.request_us", span_mean_s("serve/graph") * 1e6);
    res.set("codegen.emit_ms", span_mean_s("serve/graph_emit") * 1e3);
    res.set("store.replay_ms", env->store->stats().last_replay_ms);
    res.set("registry.load_ms", env->load_ms);

    // Registry tiers in isolation: the same public lookup the server
    // calls, on the exact, near and far queries of the schedule.
    std::vector<double> tier_us[3];
    serve::LookupOptions lookup_options;
    lookup_options.dispatch_miss = false;
    for (size_t i = 0; i < in.schedule.size() && tier_us[0].size() < 4000;
         ++i) {
        const Query &q = in.queries[in.schedule[i]];
        if (q.kind == Query::Kind::kGraph)
            continue;
        const ops::Workload &w = q.kind == Query::Kind::kExact
                                     ? in.records[q.record].workload
                                     : q.workload;
        Clock::time_point t0 = Clock::now();
        serve::LookupResult r = env->registry->lookup(w, lookup_options);
        double us = seconds_since(t0) * 1e6;
        if (r.tier == serve::LookupTier::kExact)
            tier_us[0].push_back(us);
        else if (r.tier == serve::LookupTier::kNearest)
            tier_us[1].push_back(us);
        else if (r.tier == serve::LookupTier::kNegative)
            tier_us[2].push_back(us);
    }
    res.set("registry.exact_us", median(tier_us[0]));
    res.set("registry.nearest_us", median(tier_us[1]));

    // Share of the server's lookup and graph time each kind of request
    // takes: requests of that kind over the measured part times their
    // mean isolated cost (the graph span for graph requests). The mix
    // is assumed (see inputs.cpp), so these let a result be
    // re-weighted for another one.
    auto mean_of = [](const std::vector<double> &v) {
        double sum = 0.0;
        for (double x : v)
            sum += x;
        return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
    };
    const double kind_us[4] = {mean_of(tier_us[0]), mean_of(tier_us[1]),
                               mean_of(tier_us[2]),
                               span_mean_s("serve/graph") * 1e6};
    double kind_time[4];
    double all_time = 0.0;
    for (int k = 0; k < 4; ++k) {
        kind_time[k] = static_cast<double>(t.by_kind[k]) * kind_us[k];
        all_time += kind_time[k];
    }
    const char *kind_names[4] = {"exact", "nearest", "negative", "graph"};
    for (int k = 0; k < 4; ++k)
        res.set(std::string("tier_share.") + kind_names[k] + "_pct",
                all_time > 0 ? 100.0 * kind_time[k] / all_time : 0.0);
    if (measured_requests[1] > 0)
        res.set("trace.overhead_pct",
                ((measured_requests[0] / measured_s[0]) /
                     (measured_requests[1] / measured_s[1]) -
                 1.0) *
                    100.0);
    return res;
}

} // namespace pb
