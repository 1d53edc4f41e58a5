#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <set>
#include <thread>

#include "common.h"
#include "csp/solver.h"
#include "hw/measurer.h"
#include "rules/space_generator.h"
#include "serve/registry.h"
#include "serve/workload_key.h"
#include "support/metrics.h"
#include "support/rng.h"

namespace pb {

std::vector<ops::Workload>
tab10_workloads()
{
    return {
        ops::gemm(512, 1024, 1024),
        ops::bmm(192, 128, 128, 64),
        ops::c1d(16, 64, 256, 128, 3, 1, 1),
        ops::c2d(16, 64, 28, 28, 64, 3, 3, 1, 1),
        ops::c3d(4, 16, 16, 28, 28, 32, 3, 3, 3, 1, 1),
    };
}

std::string
op_short_name(const ops::Workload &workload)
{
    switch (workload.kind) {
      case ops::OpKind::kGemm: return "gemm";
      case ops::OpKind::kBmm: return "bmm";
      case ops::OpKind::kC1d: return "c1d";
      case ops::OpKind::kC2d: return "c2d";
      case ops::OpKind::kC3d: return "c3d";
      default: return "other";
    }
}

ops::Network
cold_model_network()
{
    return ops::resnet50(16);
}

namespace {

uint64_t
mix(uint64_t a, uint64_t b)
{
    uint64_t x = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
    x ^= x >> 31;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 29;
    return x;
}

/** Index of the batch-like, output and reduction dimensions. */
struct Dims {
    size_t batch;
    size_t out;
    size_t reduce;
};

bool
dims_of(const ops::Workload &w, Dims *dims)
{
    switch (w.kind) {
      case ops::OpKind::kGemm: *dims = {0, 1, 2}; return true;
      case ops::OpKind::kBmm: *dims = {0, 2, 3}; return true;
      case ops::OpKind::kC1d: *dims = {0, 3, 1}; return true;
      case ops::OpKind::kC2d: *dims = {0, 4, 1}; return true;
      case ops::OpKind::kC3d: *dims = {0, 5, 1}; return true;
      default: return false;
    }
}

/** Rebuild @p w with new parameters (keeps the op constructors' names). */
ops::Workload
with_params(const ops::Workload &w, const std::vector<int64_t> &p)
{
    switch (w.kind) {
      case ops::OpKind::kGemm: return ops::gemm(p[0], p[1], p[2], w.dtype);
      case ops::OpKind::kBmm:
        return ops::bmm(p[0], p[1], p[2], p[3], w.dtype);
      case ops::OpKind::kC1d:
        return ops::c1d(p[0], p[1], p[2], p[3], p[4], p[5], p[6], w.dtype);
      case ops::OpKind::kC2d:
        return ops::c2d(p[0], p[1], p[2], p[3], p[4], p[5], p[6], p[7],
                        p[8], w.dtype);
      default:
        return ops::c3d(p[0], p[1], p[2], p[3], p[4], p[5], p[6], p[7],
                        p[8], p[9], p[10], w.dtype);
    }
}

/**
 * Candidate shapes: every layer of the paper's four networks plus the
 * Table 10 operators, each varied in batch (1..64), output width and
 * reduction depth (x1/2, x1, x2).
 */
std::vector<ops::Workload>
candidate_shapes(const hw::DlaSpec &spec)
{
    std::vector<ops::Workload> bases = tab10_workloads();
    for (const auto &net : ops::all_networks(16))
        for (const auto &layer : net.layers)
            bases.push_back(layer.workload);

    std::set<std::string> seen;
    std::vector<ops::Workload> out;
    const int64_t batches[] = {1, 2, 4, 8, 16, 32, 64};
    const double scales[] = {0.5, 1.0, 2.0};
    for (const auto &base : bases) {
        Dims d{0, 0, 0};
        if (!dims_of(base, &d))
            continue;
        for (int64_t b : batches)
            for (double so : scales)
                for (double sr : scales) {
                    std::vector<int64_t> p = base.params;
                    p[d.batch] = b;
                    p[d.out] = std::max<int64_t>(
                        8, static_cast<int64_t>(p[d.out] * so));
                    p[d.reduce] = std::max<int64_t>(
                        8, static_cast<int64_t>(p[d.reduce] * sr));
                    ops::Workload w = with_params(base, p);
                    if (seen.insert(serve::canonical_signature(w, spec))
                            .second)
                        out.push_back(std::move(w));
                }
    }
    return out;
}

std::string
kind_split(const std::vector<StoredRecord> &records)
{
    std::map<std::string, int> counts;
    for (const auto &r : records)
        ++counts[op_short_name(r.workload)];
    std::string out;
    for (const auto &[name, n] : counts)
        out += (out.empty() ? "" : " ") + name + ":" + std::to_string(n);
    return out;
}

// The serve-warm request mix. No request log of a deployed kernel
// server exists to fit it to, so every value is an assumption; the
// README gives the reasons, and a traced run reports the share of
// server time each kind of request takes, so a result can be
// re-weighted for another mix.
//
// Exact keys take the rest (90.8%): a library serves mostly the
// shapes it was tuned for.
/** Near shapes: unseen shapes next to a stored one (a new batch). */
constexpr double kNearShare = 0.05;
/** Far shapes: nothing stored is close; answered miss, then negative. */
constexpr double kFarShare = 0.04;
/** Graph requests: a model load per ~500 single-layer lookups. */
constexpr double kGraphShare = 0.002;
/** Zipf exponent of exact-key popularity (YCSB's default is 0.99). */
constexpr double kZipfS = 1.0;

/** Transfer-solve backtracks a near shape may cost (see below). */
constexpr int64_t kNearMaxBacktracks = 100;

/** Sample seed of the stored network's records (the same every run). */
constexpr uint64_t kNetworkSeed = 0x5eed;

/** One line: kind, dtype, parameter count, parameters, then the name. */
std::string
workload_line(const ops::Workload &w)
{
    std::ostringstream out;
    out << static_cast<int>(w.kind) << ' ' << static_cast<int>(w.dtype)
        << ' ' << w.params.size();
    for (int64_t p : w.params)
        out << ' ' << p;
    out << ' ' << w.name;
    return out.str();
}

bool
parse_workload_line(const std::string &line, ops::Workload *w)
{
    std::istringstream in(line);
    int kind = 0;
    int dtype = 0;
    size_t n = 0;
    if (!(in >> kind >> dtype >> n) || n > 64)
        return false;
    w->kind = static_cast<ops::OpKind>(kind);
    w->dtype = static_cast<heron::ir::DataType>(dtype);
    w->params.resize(n);
    for (auto &p : w->params)
        if (!(in >> p))
            return false;
    in.get();
    std::getline(in, w->name);
    return true;
}

} // namespace

ops::Network
warm_network()
{
    // ResNet-50's 56x56 and 28x28 bottleneck layers, batch 16.
    ops::Network full = ops::resnet50(16);
    ops::Network net;
    net.name = "resnet50-stages-1-2";
    for (size_t i = 1; i <= 6 && i < full.layers.size(); ++i)
        net.layers.push_back(full.layers[i]);
    return net;
}

std::string
graph_request_body(const ops::Network &network)
{
    std::string body = "\"cmd\":\"graph\",\"name\":\"" + network.name +
                       "\",\"emit\":\"inline\",\"layers\":[";
    for (size_t i = 0; i < network.layers.size(); ++i) {
        body += (i ? ",{" : "{") + workload_json(network.layers[i].workload) +
                ",\"count\":" + std::to_string(network.layers[i].count) +
                "}";
    }
    return body + "]}";
}

WarmInputs
make_warm_inputs(const hw::DlaSpec &spec, uint64_t seed,
                 const WarmConfig &config)
{
    WarmInputs in;
    heron::Rng rng(mix(seed, 1));

    // ResNet-50's layers come first: their records are sampled with a
    // fixed seed, so the stored network of graph requests and the
    // donors of the near shapes are the same in every run. The seeded
    // pool follows, without those shapes.
    in.graph = warm_network();
    const ops::Network resnet = ops::resnet50(16);
    std::vector<ops::Workload> pool;
    std::set<std::string> fixed_keys;
    for (const auto &layer : resnet.layers) {
        pool.push_back(layer.workload);
        fixed_keys.insert(serve::canonical_signature(layer.workload, spec));
    }
    const size_t fixed = pool.size();
    {
        std::vector<ops::Workload> shuffled;
        for (auto &w : candidate_shapes(spec))
            if (!fixed_keys.count(serve::canonical_signature(w, spec)))
                shuffled.push_back(std::move(w));
        rng.shuffle(shuffled);
        for (auto &w : shuffled)
            pool.push_back(std::move(w));
    }

    // Sample + measure candidates in parallel; slot i depends only on
    // (seed, i), so the output is the same for any thread count. A
    // few spare candidates cover the ones the solver cannot sample.
    size_t want = static_cast<size_t>(config.records);
    size_t tries = std::min(pool.size(), want + want / 8 + 16);
    std::vector<std::optional<StoredRecord>> slots(tries);
    std::vector<int> invalid(tries, 0);
    hw::MeasureConfig measure;
    measure.seed = mix(seed, 2);
    auto work = [&](int t) {
        rules::SpaceGenerator generator(spec, rules::Options::heron());
        hw::Measurer measurer(spec, measure);
        for (size_t i = static_cast<size_t>(t); i < tries;
             i += static_cast<size_t>(config.threads)) {
            auto space = generator.generate(pool[i]);
            csp::RandSatSolver solver(space.csp);
            heron::Rng sample_rng(i < fixed ? mix(kNetworkSeed, i)
                                            : mix(seed, 1000 + i));
            auto assignment = solver.solve_one(sample_rng);
            if (!assignment)
                continue;
            auto program = space.try_bind(*assignment);
            if (!program) {
                invalid[i] = 1;
                continue;
            }
            auto m = measurer.measure_indexed(*program,
                                              static_cast<int64_t>(i));
            if (!m.valid) {
                invalid[i] = 1;
                continue;
            }
            StoredRecord r;
            r.workload = pool[i];
            r.record.workload = serve::canonical_signature(pool[i], spec);
            r.record.dla = spec.name;
            r.record.tuner = "perfbench-sampler";
            r.record.category = "serve";
            r.record.latency_ms = m.latency_ms;
            r.record.gflops = m.gflops;
            r.record.assignment = std::move(*assignment);
            slots[i] = std::move(r);
        }
    };
    std::vector<std::thread> threads;
    for (int t = 1; t < config.threads; ++t)
        threads.emplace_back(work, t);
    work(0);
    for (auto &th : threads)
        th.join();
    in.network_stored = true;
    for (size_t i = 0; i < fixed; ++i)
        in.network_stored = in.network_stored && slots[i].has_value();
    for (size_t i = 0; i < tries; ++i) {
        in.invalid += invalid[i];
        if (!slots[i]) {
            in.unsampled += invalid[i] ? 0 : 1;
            continue;
        }
        if (in.records.size() < want)
            in.records.push_back(std::move(*slots[i]));
    }
    in.kind_split = kind_split(in.records);

    std::vector<serve::WorkloadKey> stored_keys;
    std::set<std::string> stored;
    for (const auto &r : in.records) {
        stored_keys.push_back(serve::make_key(r.workload, spec));
        stored.insert(r.record.workload);
    }

    for (size_t i = 0; i < in.records.size(); ++i) {
        Query q;
        q.kind = Query::Kind::kExact;
        q.record = i;
        q.body = workload_json(in.records[i].workload) + "}";
        in.queries.push_back(std::move(q));
    }

    // Near shapes: a ResNet-50 layer with its batch a quarter larger
    // or smaller, so the nearest donor is that layer's fixed record.
    // Kept only when a private registry over the same records answers
    // them from the nearest tier at the first donor, with a cheap
    // transfer solve: one that cannot run into the transfer deadline,
    // so the tier each near shape answers from never depends on load.
    serve::KernelRegistry probe(spec);
    {
        std::vector<autotune::TuningRecord> records;
        for (const auto &r : in.records)
            records.push_back(r.record);
        probe.load_records(std::move(records));
    }
    std::vector<ops::Workload> near;
    for (size_t i = 0; i < fixed &&
                       static_cast<int>(near.size()) < config.near_shapes;
         ++i) {
        for (int sign : {1, -1}) {
            std::vector<int64_t> p = pool[i].params;
            p[0] += sign * std::max<int64_t>(1, p[0] / 4);
            ops::Workload w = with_params(pool[i], p);
            std::string sig = serve::canonical_signature(w, spec);
            if (stored.count(sig) ||
                static_cast<int>(near.size()) >= config.near_shapes)
                continue;
            serve::LookupOptions options;
            options.dispatch_miss = false;
            auto &counters = heron::metrics::Registry::global();
            auto count = [&](const char *name) {
                return counters.counter(name).value();
            };
            int64_t backtracks = count("csp.backtracks");
            int64_t aborts = count("csp.deadline_aborts");
            int64_t rejected = count("serve.fallback.rejected_bind");
            bool nearest =
                probe.lookup(w, options).tier == serve::LookupTier::kNearest;
            backtracks = count("csp.backtracks") - backtracks;
            aborts = count("csp.deadline_aborts") - aborts;
            rejected = count("serve.fallback.rejected_bind") - rejected;
            if (!nearest || aborts > 0 || rejected > 0 ||
                backtracks > kNearMaxBacktracks) {
                ++in.near_rejected;
                continue;
            }
            stored.insert(sig);
            near.push_back(std::move(w));
        }
    }

    // Far shapes: farther than the fallback radius from every stored
    // record of their kind, so they miss and then hit the negative
    // cache.
    const double radius = serve::RegistryConfig{}.max_fallback_distance;
    std::vector<ops::Workload> far;
    for (int attempt = 0;
         static_cast<int>(far.size()) < config.far_shapes && attempt < 1000;
         ++attempt) {
        const auto &base = in.records[rng.index(in.records.size())].workload;
        Dims d{0, 0, 0};
        dims_of(base, &d);
        std::vector<int64_t> p = base.params;
        p[d.batch] *= 128 + static_cast<int64_t>(rng.index(64));
        p[d.out] *= 16;
        ops::Workload w = with_params(base, p);
        serve::WorkloadKey key = serve::make_key(w, spec);
        bool is_far = true;
        for (const auto &k : stored_keys)
            if (serve::shape_distance(key, k) <= radius) {
                is_far = false;
                break;
            }
        if (!is_far || !stored.insert(key.canonical()).second)
            continue;
        far.push_back(std::move(w));
    }

    for (auto &w : near) {
        Query q;
        q.kind = Query::Kind::kNear;
        q.body = workload_json(w) + "}";
        q.workload = std::move(w);
        in.queries.push_back(std::move(q));
    }
    for (auto &w : far) {
        Query q;
        q.kind = Query::Kind::kFar;
        q.body = workload_json(w) + "}";
        q.workload = std::move(w);
        in.queries.push_back(std::move(q));
    }

    Query graph;
    graph.kind = Query::Kind::kGraph;
    graph.body = graph_request_body(in.graph);
    size_t graph_index = in.queries.size();
    in.queries.push_back(std::move(graph));

    // Zipf popularity over the records. Ranks go to op kinds in a
    // fixed weighted round-robin (kinds differ in response size), and
    // to records of a kind in a seeded order.
    std::vector<double> cdf(in.records.size());
    double total = 0.0;
    for (size_t r = 0; r < cdf.size(); ++r) {
        total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
        cdf[r] = total;
    }
    std::map<std::string, std::vector<size_t>> by_kind;
    for (size_t i = 0; i < in.records.size(); ++i)
        by_kind[op_short_name(in.records[i].workload)].push_back(i);
    for (auto &[kind, list] : by_kind)
        rng.shuffle(list);
    std::vector<size_t> rank_to_record;
    std::map<std::string, size_t> taken;
    while (rank_to_record.size() < in.records.size()) {
        const std::string *best = nullptr;
        double best_deficit = -1e300;
        double ranks = static_cast<double>(rank_to_record.size() + 1);
        for (const auto &[kind, list] : by_kind) {
            if (taken[kind] >= list.size())
                continue;
            double share = static_cast<double>(list.size()) /
                           static_cast<double>(in.records.size());
            double deficit = ranks * share - static_cast<double>(taken[kind]);
            if (deficit > best_deficit) {
                best_deficit = deficit;
                best = &kind;
            }
        }
        rank_to_record.push_back(by_kind[*best][taken[*best]++]);
    }

    // The schedule holds exact counts of every kind, in a seeded
    // order: near and far shapes take turns round-robin and graph
    // requests are spread evenly, so one schedule cycle costs the
    // same whatever the seed. Exact keys are Zipf draws.
    const size_t n = static_cast<size_t>(config.schedule_len);
    const size_t n_graph =
        std::max<size_t>(1, static_cast<size_t>(kGraphShare * n));
    const size_t n_far =
        far.empty() ? 0 : static_cast<size_t>(kFarShare * n);
    const size_t n_near =
        near.empty() ? 0 : static_cast<size_t>(kNearShare * n);
    const size_t near_begin = in.records.size();
    const size_t far_begin = near_begin + near.size();
    heron::Rng srng(mix(seed, 100));
    std::vector<uint32_t> &schedule = in.schedule;
    schedule.reserve(n);
    for (size_t i = 0; i < n_near; ++i)
        schedule.push_back(static_cast<uint32_t>(near_begin + i % near.size()));
    for (size_t i = 0; i < n_far; ++i)
        schedule.push_back(static_cast<uint32_t>(far_begin + i % far.size()));
    while (schedule.size() < n - n_graph) {
        double x = srng.uniform() * total;
        size_t rank = static_cast<size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), x) - cdf.begin());
        schedule.push_back(static_cast<uint32_t>(
            rank_to_record[std::min(rank, cdf.size() - 1)]));
    }
    srng.shuffle(schedule);
    for (size_t i = 0; i < n_graph; ++i)
        schedule.insert(schedule.begin() + static_cast<long>((i * n) / n_graph),
                        static_cast<uint32_t>(graph_index));
    return in;
}

bool
save_warm_inputs(const WarmInputs &in, const std::string &path)
{
    std::ofstream out(path);
    out << "perfbench-warm-inputs 1\n"
        << in.unsampled << ' ' << in.invalid << ' ' << in.near_rejected
        << ' ' << (in.network_stored ? 1 : 0) << '\n'
        << in.kind_split << '\n'
        << in.records.size() << '\n';
    for (const auto &r : in.records)
        out << workload_line(r.workload) << '\n'
            << r.record.to_json() << '\n';
    out << in.queries.size() << '\n';
    for (const auto &q : in.queries)
        out << static_cast<int>(q.kind) << ' ' << q.record << '\n'
            << workload_line(q.workload) << '\n'
            << q.body << '\n';
    out << in.schedule.size() << '\n';
    for (uint32_t i : in.schedule)
        out << i << '\n';
    out.flush();
    return static_cast<bool>(out);
}

bool
load_warm_inputs(const std::string &path, WarmInputs *in)
{
    std::ifstream file(path);
    std::string line;
    auto next = [&]() { return static_cast<bool>(std::getline(file, line)); };
    auto count = [&](size_t *n) {
        if (!next())
            return false;
        std::istringstream fields(line);
        return static_cast<bool>(fields >> *n);
    };
    if (!next() || line != "perfbench-warm-inputs 1" || !next())
        return false;
    {
        std::istringstream fields(line);
        int stored = 0;
        if (!(fields >> in->unsampled >> in->invalid >> in->near_rejected >>
              stored))
            return false;
        in->network_stored = stored != 0;
    }
    if (!next())
        return false;
    in->kind_split = line;
    size_t n = 0;
    if (!count(&n))
        return false;
    in->records.resize(n);
    for (auto &r : in->records) {
        if (!next() || !parse_workload_line(line, &r.workload) || !next())
            return false;
        auto record = autotune::TuningRecord::from_json(line);
        if (!record)
            return false;
        r.record = std::move(*record);
    }
    if (!count(&n))
        return false;
    in->queries.resize(n);
    for (auto &q : in->queries) {
        int kind = 0;
        if (!next())
            return false;
        std::istringstream fields(line);
        if (!(fields >> kind >> q.record) || kind < 0 || kind > 3 ||
            !next() || !parse_workload_line(line, &q.workload) || !next())
            return false;
        q.kind = static_cast<Query::Kind>(kind);
        q.body = line;
    }
    if (!count(&n))
        return false;
    in->schedule.resize(n);
    for (auto &i : in->schedule) {
        if (!next())
            return false;
        i = static_cast<uint32_t>(std::strtoul(line.c_str(), nullptr, 10));
        if (i >= in->queries.size())
            return false;
    }
    in->graph = warm_network();
    return true;
}

} // namespace pb
