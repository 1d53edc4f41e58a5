/**
 * @file
 * serve-cold-model: one ResNet-50 (batch 16) graph request against an
 * empty WAL store with tune-on-miss at a small per-layer budget. The
 * benchmark polls graph_status until the graph converges, then asks
 * for the graph again to get its emitted library; meanwhile one
 * client keeps looking up the model's layers. Background tunes, WAL
 * appends and registry inserts run beside those lookups. A round is
 * one model from an empty store; rounds repeat with identical inputs.
 */
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "inputs.h"
#include "loadgen.h"
#include "serve/graph.h"
#include "serve/server.h"
#include "serve/store_wal.h"
#include "serve/workload_key.h"
#include "spans.h"
#include "support/metrics.h"
#include "support/rng.h"
#include "support/trace.h"
#include "workloads.h"

namespace pb {

namespace {

/** Per-layer tune budget: two measurement rounds, so CGA runs. */
constexpr int kTrials = 24;
/**
 * Graphs a server tracks. The program's default (64) is raised only
 * because of this benchmark's own traffic: every graph request the
 * client repeats opens a tracked graph that nothing polls or closes,
 * about 800 a round, and the polled graph must not be evicted by
 * them. A deployment that polls its graphs to convergence keeps the
 * default.
 */
constexpr size_t kMaxGraphs = size_t{1} << 16;
/** graph_status poll interval: faster polls slow the lookups and tunes. */
constexpr double kPollMs = 50.0;
/** The lookup client's pause between graph requests. */
constexpr double kThinkMs = 10.0;
/** A model that has not converged by then fails the round. */
constexpr double kReadyTimeoutS = 150.0;

/** Store, registry, tune queue, graph service and server of a round. */
struct ColdServer {
    std::unique_ptr<serve::DurableStore> store;
    std::unique_ptr<serve::KernelRegistry> registry;
    std::unique_ptr<serve::TuneQueue> queue;
    std::unique_ptr<serve::GraphTuneScheduler> scheduler;
    std::unique_ptr<serve::GraphService> graph;
    std::unique_ptr<serve::Server> server;

    /** Stop serving and tuning, close the store (idempotent). */
    void
    shutdown()
    {
        if (server)
            server->stop();
        server.reset();
        if (queue)
            queue->stop();
        graph.reset();
        scheduler.reset();
        queue.reset();
        registry.reset();
        if (store)
            store->close();
        store.reset();
    }

    ~ColdServer() { shutdown(); }
};

std::unique_ptr<ColdServer>
start_server(const hw::DlaSpec &spec, const std::string &dir,
             const autotune::TuneConfig &tune, std::string *error)
{
    auto env = std::make_unique<ColdServer>();
    serve::DurableStoreConfig store_config;
    store_config.dir = dir;
    env->store = std::make_unique<serve::DurableStore>(store_config);
    if (!env->store->open(error))
        return nullptr;
    env->registry = std::make_unique<serve::KernelRegistry>(spec);
    env->registry->load_records(env->store->records());
    serve::TuneQueueConfig queue_config;
    queue_config.tune = tune;
    queue_config.store = env->store.get();
    env->queue = std::make_unique<serve::TuneQueue>(*env->registry,
                                                    queue_config);
    env->queue->start();
    serve::TuneQueue *queue = env->queue.get();
    env->registry->set_miss_handler(
        [queue](const ops::Workload &workload, const serve::WorkloadKey &) {
            return queue->enqueue(workload) ==
                   serve::EnqueueOutcome::kAccepted;
        });
    env->scheduler = std::make_unique<serve::GraphTuneScheduler>(queue);
    // Every graph request the client repeats is tracked too; the
    // polled graph must outlive them all (see kMaxGraphs).
    serve::GraphServiceConfig graph_config;
    graph_config.max_graphs = kMaxGraphs;
    env->graph = std::make_unique<serve::GraphService>(
        *env->registry, *env->scheduler, graph_config);
    serve::ServerConfig config;
    config.workers = 2;
    config.store = env->store.get();
    config.graph = env->graph.get();
    env->server = std::make_unique<serve::Server>(*env->registry,
                                                  env->queue.get(), config);
    if (!env->server->start(error))
        return nullptr;
    return env;
}

/** Distinct layers of @p network (first occurrence order). */
std::vector<ops::Workload>
distinct_layers(const ops::Network &network, const hw::DlaSpec &spec)
{
    std::set<std::string> seen;
    std::vector<ops::Workload> out;
    for (const auto &layer : network.layers)
        if (seen.insert(serve::canonical_signature(layer.workload, spec))
                .second)
            out.push_back(layer.workload);
    return out;
}

} // namespace

Result
run_serve_cold(const Options &options)
{
    Result res;
    pin_to_one_cpu();
    const hw::DlaSpec spec = hw::DlaSpec::v100();
    ops::Network network = cold_model_network();
    if (options.short_run)
        network.layers.resize(4);
    const std::vector<ops::Workload> layers = distinct_layers(network, spec);
    int64_t instances = 0;
    for (const auto &l : network.layers)
        instances += l.count;

    autotune::TuneConfig tune;
    tune.trials = kTrials;
    tune.seed = options.tune_seed;
    // The tune queue samples on its own thread, so the server loop,
    // its worker and the lookup client keep a core each on 4 cores.
    tune.sample_workers = 1;

    // The client asks for the whole model again and again: each graph
    // request looks up every layer in one batched pass and emits the
    // library as far as it is tuned. Its layer order is seeded.
    const std::string graph_body = graph_request_body(network);
    const std::string graph_line = "{\"id\":0," + graph_body;
    ops::Network client_network = network;
    heron::Rng rng(options.seed);
    rng.shuffle(client_network.layers);
    const std::vector<std::string> bodies = {
        graph_request_body(client_network)};
    const std::vector<uint32_t> schedule = {0};

    // The benchmark's own spaces for the checks (not timed).
    rules::SpaceGenerator generator(spec, rules::Options::heron());
    std::vector<rules::GeneratedSpace> spaces;
    for (const auto &w : layers)
        spaces.push_back(generator.generate(w));
    hw::MeasureConfig remeasure_config;
    remeasure_config.seed = options.seed;
    hw::Measurer remeasurer(spec, remeasure_config);

    std::vector<double> setup_s;
    std::vector<double> untraced_ready;
    std::vector<double> traced_ready;
    LatencyHistogram lat;
    double lookup_seconds = 0.0;
    int64_t lookups = 0;
    std::vector<csp::Assignment> first_served;
    double model_ms = 0.0;
    std::vector<double> kernel_ms;

    // Per-layer sums over traced rounds.
    int traced_rounds = 0;
    TunerLayers layers_sum;
    SolverCounts counts_sum;
    double queue_tune_s = 0.0;
    double idle_s = 0.0;
    double append_us_sum = 0.0;
    double emit_ms_sum = 0.0;
    double graph_us_sum = 0.0;
    int64_t appends = 0;
    int64_t hot_swaps = 0;
    int64_t polls_sum = 0;
    serve::RegistryStats tiers_sum;

    // Extra set-ups beside the one each round pays (see kSetupBatch).
    auto set_up_batch = [&]() {
        const std::string dir = options.work_dir + "/setup";
        for (int i = 0; i < kSetupBatch; ++i) {
            std::filesystem::remove_all(dir);
            Clock::time_point t0 = Clock::now();
            std::string error;
            auto env = start_server(spec, dir, tune, &error);
            setup_s.push_back(seconds_since(t0));
            res.check(env != nullptr, "cannot start server: " + error);
        }
        std::filesystem::remove_all(dir);
    };

    Clock::time_point start = Clock::now();
    for (int round = 0;; ++round) {
        bool need_more = round < 1 || (options.trace && round < 2);
        if (!need_more && seconds_since(start) >= options.seconds)
            break;
        // The last round's server and tune queue have shut down.
        res.speed.sample();
        set_up_batch();
        const bool traced = traced_round(options, round);
        const std::string dir =
            options.work_dir + "/store-" + std::to_string(round);
        std::filesystem::remove_all(dir);

        Clock::time_point t0 = Clock::now();
        std::string error;
        auto env = start_server(spec, dir, tune, &error);
        setup_s.push_back(seconds_since(t0));
        if (!env) {
            res.check(false, "cannot start server: " + error);
            return res;
        }
        begin_round_trace(traced);

        // Submit the graph; the scheduler enqueues its misses in
        // payoff order before the lookup client starts.
        LineClient control(env->server->port());
        Clock::time_point submit = Clock::now();
        std::string response = control.request(graph_line);
        res.attempted += 1;
        std::string graph_id = json_field(response, "graph");
        if (graph_id.empty()) {
            ++res.failed;
            res.check(false, "graph submit failed: " + response.substr(0, 200));
            return res;
        }

        std::atomic<bool> ready{false};
        int64_t errors = 0;
        int64_t round_lookups = 0;
        std::vector<std::string> problems;
        LoadConfig load;
        load.port = env->server->port();
        load.depth = 1;
        load.block = 1;
        load.think_ms = kThinkMs;
        LoadResult load_result;
        Clock::time_point lookups_start = Clock::now();
        std::thread client([&] {
            load_result = run_closed_loop(
                load, schedule, bodies, [&] { return !ready.load(); },
                [&](uint32_t, std::string_view line, double us) {
                    ++round_lookups;
                    lat.add(us);
                    if (line.find("\"error\":") != std::string_view::npos) {
                        ++errors;
                        if (problems.size() < 5)
                            problems.emplace_back(line.substr(0, 160));
                        return;
                    }
                    // A converged answer must carry the whole library.
                    if (json_field(line, "converged") == "true") {
                        std::string why =
                            check_graph_response(line, client_network, spec);
                        if (!why.empty() && problems.size() < 5)
                            problems.push_back("library: " + why);
                    }
                });
        });

        // Poll until converged, then fetch the emitted library.
        int64_t polls = 0;
        bool converged = false;
        const std::string status_line =
            "{\"id\":2,\"cmd\":\"graph_status\",\"graph\":" + graph_id + "}";
        while (seconds_since(submit) < kReadyTimeoutS) {
            response = control.request(status_line);
            ++polls;
            if (response.empty() ||
                response.find("\"error\":") != std::string::npos) {
                ++res.failed;
                res.check(false, "graph_status failed: " +
                                     response.substr(0, 200));
                break;
            }
            if (json_field(response, "converged") == "true") {
                converged = true;
                break;
            }
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(kPollMs));
        }
        std::string library = converged ? control.request(graph_line) : "";
        double ready_s = seconds_since(submit);
        ready = true;
        client.join();
        double round_lookup_s = seconds_since(lookups_start);
        res.attempted += polls + (converged ? 1 : 0);
        res.check(converged, "model did not converge in " +
                                 std::to_string(kReadyTimeoutS) + " s");
        if (converged) {
            std::string why = check_graph_response(library, network, spec);
            res.check(why.empty(), "emitted library: " + why);
        }
        res.attempted += load_result.sent;
        res.failed += errors + (load_result.sent - load_result.received);
        res.check(load_result.error.empty(), "client: " + load_result.error);
        for (const auto &p : problems)
            res.check(false, "lookup: " + p);
        (traced ? traced_ready : untraced_ready).push_back(ready_s);
        lookups += round_lookups;
        lookup_seconds += round_lookup_s;

        // Every distinct layer answers exact now; its kernel binds,
        // measures valid and matches what the lookups were served.
        std::vector<csp::Assignment> served(layers.size());
        for (size_t i = 0; i < layers.size(); ++i) {
            auto record =
                env->registry->peek(serve::make_key(layers[i], spec));
            if (!record) {
                res.check(false, layers[i].name + " has no exact record");
                continue;
            }
            served[i] = record->assignment;
            if (round == 0) {
                KernelCheck k =
                    check_kernel(spaces[i], record->assignment,
                                 record->latency_ms, kLatencyTolerance,
                                 remeasurer);
                res.check(k.ok, layers[i].name + ": " + k.error);
                kernel_ms.push_back(k.remeasured_ms);
                for (const auto &l : network.layers)
                    if (serve::canonical_signature(l.workload, spec) ==
                        serve::canonical_signature(layers[i], spec))
                        model_ms += l.count * k.remeasured_ms;
            }
        }
        if (round == 0)
            first_served = served;
        else
            res.check(served == first_served,
                      "round " + std::to_string(round) +
                          " did not reproduce round 0's kernels");

        heron::trace::Tracer::global().set_enabled(false);
        serve::RegistryStats tiers = env->registry->stats();
        serve::DurableStoreStats store_stats = env->store->stats();
        env->shutdown();

        // A fresh store over the same directory replays every kernel.
        {
            serve::DurableStoreConfig reopen_config;
            reopen_config.dir = dir;
            serve::DurableStore reopened(reopen_config);
            res.check(reopened.open(&error), "cannot reopen store: " + error);
            std::map<std::string, csp::Assignment> replayed;
            for (const auto &r : reopened.records())
                replayed[r.workload] = r.assignment;
            reopened.close();
            for (size_t i = 0; i < layers.size(); ++i) {
                auto it = replayed.find(
                    serve::canonical_signature(layers[i], spec));
                res.check(it != replayed.end() && it->second == served[i],
                          layers[i].name + " not replayed from the store");
            }
        }
        std::filesystem::remove_all(dir);
        if (round < kPeakRssRounds)
            res.set("peak_rss_mb", peak_rss_mb());
        if (!traced)
            continue;

        ++traced_rounds;
        res.check(heron::trace::Tracer::global().dropped_events() == 0,
                  "tracer dropped spans; per-layer split incomplete");
        TunerLayers l = tuner_layers(trace_events());
        layers_sum.crossover_solve_s += l.crossover_solve_s;
        layers_sum.crossover_self_s += l.crossover_self_s;
        layers_sum.sample_s += l.sample_s;
        layers_sum.fit_s += l.fit_s;
        layers_sum.predict_s += l.predict_s;
        layers_sum.generate_s += l.generate_s;
        layers_sum.measure_s += l.measure_s;
        layers_sum.tune_s += l.tune_s;
        SolverCounts c = solver_counts();
        counts_sum.solves += c.solves;
        counts_sum.backtracks += c.backtracks;
        counts_sum.propagations += c.propagations;
        counts_sum.budget_exhausted += c.budget_exhausted;
        counts_sum.invalid_measurements += c.invalid_measurements;
        tiers_sum.exact_hits += tiers.exact_hits;
        tiers_sum.nearest_hits += tiers.nearest_hits;
        tiers_sum.negative_hits += tiers.negative_hits;
        tiers_sum.misses += tiers.misses;
        tiers_sum.fallback_transferred += tiers.fallback_transferred;
        tiers_sum.fallback_rejected += tiers.fallback_rejected;
        hot_swaps += tiers.hot_swaps;
        appends += store_stats.appends;
        polls_sum += polls;

        auto totals = heron::trace::Tracer::global().totals();
        auto total = [&](const char *label) {
            auto it = totals.find(label);
            return it == totals.end() ? 0.0 : it->second.total_seconds;
        };
        // The queue tunes one layer at a time, so its spans never
        // overlap: tune time plus idle time is the model's wall time.
        double tune_s = total("serve/tune");
        res.check(tune_s <= ready_s * 1.02,
                  "tune spans (" + std::to_string(tune_s) +
                      " s) exceed the model's ready time (" +
                      std::to_string(ready_s) + " s)");
        res.check(l.unattributed() >= -0.01 * l.tune_s,
                  "tuner layers sum past the tune spans");
        queue_tune_s += tune_s;
        idle_s += ready_s - tune_s;
        // serve/tune minus its tuner/tune child: WAL append, registry
        // publish and tuner construction, per completed tune.
        if (store_stats.appends > 0)
            append_us_sum += (tune_s - l.tune_s) /
                             static_cast<double>(store_stats.appends) * 1e6;
        // Mean spans: the graph latency histogram tops out below a
        // graph request's duration.
        auto span_mean_s = [&](const char *label) {
            auto it = totals.find(label);
            return it == totals.end() || it->second.count == 0
                       ? 0.0
                       : it->second.total_seconds / it->second.count;
        };
        emit_ms_sum += span_mean_s("serve/graph_emit") * 1e3;
        graph_us_sum += span_mean_s("serve/graph") * 1e6;
    }

    res.set("setup_s", median(setup_s));
    res.set("model_ready_s", median(untraced_ready));
    res.set("model_latency_ms", model_ms);
    res.set("kernel_latency_us", geomean(kernel_ms) * 1e3);
    res.set("req_per_s", lookup_seconds > 0 ? lookups / lookup_seconds : 0.0);
    res.set("lat_p50_us", lat.percentile(50));
    res.set("lat_p99_us", lat.percentile(99));
    std::fprintf(stderr,
                 "serve-cold-model: %zu distinct layers, %lld instances, "
                 "ready in %.2f s (median of %zu), %lld lookups\n",
                 layers.size(), static_cast<long long>(instances),
                 median(untraced_ready), untraced_ready.size(),
                 static_cast<long long>(lookups));

    if (traced_rounds == 0)
        return res;
    double n = traced_rounds;
    res.set("csp.crossover_solve_s", layers_sum.crossover_solve_s / n);
    res.set("csp.sample_s", layers_sum.sample_s / n);
    res.set("search.crossover_self_s", layers_sum.crossover_self_s / n);
    res.set("model.fit_s", layers_sum.fit_s / n);
    res.set("model.predict_s", layers_sum.predict_s / n);
    res.set("rules.generate_ms", layers_sum.generate_s / n * 1e3);
    res.set("hw.measure_s", layers_sum.measure_s / n);
    res.set("autotune.unattributed_s", layers_sum.unattributed() / n);
    res.set("csp.solves", counts_sum.solves / n);
    double solves = std::max<int64_t>(1, counts_sum.solves);
    res.set("csp.backtracks_per_solve", counts_sum.backtracks / solves);
    res.set("csp.propagations_per_solve", counts_sum.propagations / solves);
    res.set("csp.budget_exhausted", counts_sum.budget_exhausted / n);
    res.set("hw.invalid_measurements", counts_sum.invalid_measurements / n);
    res.set("registry.exact_hits", tiers_sum.exact_hits / n);
    res.set("registry.nearest_hits", tiers_sum.nearest_hits / n);
    res.set("registry.negative_hits", tiers_sum.negative_hits / n);
    res.set("registry.misses", tiers_sum.misses / n);
    res.set("registry.transferred", tiers_sum.fallback_transferred / n);
    res.set("registry.fallback_rejected", tiers_sum.fallback_rejected / n);
    res.set("registry.hot_swaps", hot_swaps / n);
    res.set("store.appends", appends / n);
    res.set("store.append_us", append_us_sum / n);
    res.set("tune_queue.tune_s", queue_tune_s / n);
    res.set("tune_queue.idle_s", idle_s / n);
    res.set("graph.status_polls", polls_sum / n);
    res.set("graph.request_us", graph_us_sum / n);
    res.set("codegen.emit_ms", emit_ms_sum / n);
    res.set("trace.overhead_pct",
            (median(traced_ready) / median(untraced_ready) - 1.0) * 100.0);
    return res;
}

} // namespace pb
