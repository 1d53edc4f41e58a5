#include "spans.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string_view>

#include "support/metrics.h"
#include "support/trace.h"

namespace pb {

namespace {

/** Number after `"key":` inside [begin, end), or 0. */
double
number_after(const char *begin, const char *end, const char *key)
{
    size_t key_len = std::strlen(key);
    for (const char *p = begin; p + key_len < end; ++p) {
        if (std::memcmp(p, key, key_len) == 0)
            return std::strtod(p + key_len, nullptr);
    }
    return 0.0;
}

} // namespace

std::vector<SpanEvent>
trace_events()
{
    // The tracer exports its timeline only as Chrome trace-event
    // JSON; every complete event is one flat object of the form
    // {"name":"...","ph":"X",...,"tid":N,"ts":T,"dur":D,"args":{...}}.
    std::string json = heron::trace::Tracer::global().chrome_trace_json();
    std::vector<SpanEvent> events;
    const char *kName = "{\"name\":\"";
    size_t pos = 0;
    while ((pos = json.find(kName, pos)) != std::string::npos) {
        size_t name_begin = pos + std::strlen(kName);
        size_t name_end = json.find('"', name_begin);
        size_t object_end = json.find("}}", name_end);
        if (name_end == std::string::npos ||
            object_end == std::string::npos)
            break;
        const char *begin = json.data() + name_end;
        const char *end = json.data() + object_end;
        if (std::string_view(begin, end - begin).find("\"ph\":\"X\"") ==
            std::string_view::npos) {
            pos = object_end;
            continue;
        }
        SpanEvent ev;
        ev.name = json.substr(name_begin, name_end - name_begin);
        ev.tid = static_cast<int>(number_after(begin, end, "\"tid\":"));
        ev.ts_us = number_after(begin, end, "\"ts\":");
        ev.dur_us = number_after(begin, end, "\"dur\":");
        events.push_back(std::move(ev));
        pos = object_end;
    }
    return events;
}

TunerLayers
tuner_layers(const std::vector<SpanEvent> &events)
{
    // Parents that own csp/solve children on the tuning thread. The
    // crossover's serial solver and the sampling front-end never
    // nest in each other, so each solve belongs to at most one.
    struct Parent {
        double begin = 0.0;
        double end = 0.0;
        bool crossover = false;
    };
    std::map<int, std::vector<Parent>> parents;
    TunerLayers out;

    // Only spans inside a recorded tuner/tune count: a tune still
    // running when tracing stops has recorded its inner spans but not
    // its own.
    std::map<int, std::vector<std::pair<double, double>>> tunes;
    for (const SpanEvent &ev : events)
        if (ev.name == "tuner/tune") {
            out.tune_s += ev.dur_us / 1e6;
            tunes[ev.tid].emplace_back(ev.ts_us, ev.ts_us + ev.dur_us);
        }
    auto in_tune = [&](const SpanEvent &ev) {
        double mid = ev.ts_us + ev.dur_us / 2.0;
        auto it = tunes.find(ev.tid);
        if (it == tunes.end())
            return false;
        for (const auto &[begin, end] : it->second)
            if (begin <= mid && mid <= end)
                return true;
        return false;
    };

    double phase_model_us = 0.0;
    double crossover_us = 0.0;
    for (const SpanEvent &ev : events) {
        const std::string &n = ev.name;
        if (n == "tuner/tune" || !in_tune(ev))
            continue;
        if (n == "cga/crossover") {
            crossover_us += ev.dur_us;
            parents[ev.tid].push_back(
                {ev.ts_us, ev.ts_us + ev.dur_us, true});
        } else if (n == "csp/sample_batch") {
            out.sample_s += ev.dur_us / 1e6;
            parents[ev.tid].push_back(
                {ev.ts_us, ev.ts_us + ev.dur_us, false});
        } else if (n == "model/fit")
            out.fit_s += ev.dur_us / 1e6;
        else if (n == "phase/model")
            phase_model_us += ev.dur_us;
        else if (n == "space/generate")
            out.generate_s += ev.dur_us / 1e6;
        else if (n == "pool/measure_batch")
            out.measure_s += ev.dur_us / 1e6;
    }
    for (auto &[tid, list] : parents)
        std::sort(list.begin(), list.end(),
                  [](const Parent &a, const Parent &b) {
                      return a.begin < b.begin;
                  });

    // A solve belongs to the parent whose interval holds its
    // midpoint: exported timestamps carry six significant digits,
    // so edge comparisons would misplace short solves.
    double crossover_solve_us = 0.0;
    for (const SpanEvent &ev : events) {
        if (ev.name != "csp/solve")
            continue;
        auto it = parents.find(ev.tid);
        if (it == parents.end())
            continue;
        double mid = ev.ts_us + ev.dur_us / 2.0;
        const auto &list = it->second;
        auto after = std::upper_bound(
            list.begin(), list.end(), mid,
            [](double t, const Parent &p) { return t < p.begin; });
        if (after == list.begin())
            continue;
        const Parent &p = *(after - 1);
        if (mid <= p.end && p.crossover)
            crossover_solve_us += ev.dur_us;
    }
    out.crossover_solve_s = crossover_solve_us / 1e6;
    out.crossover_self_s = (crossover_us - crossover_solve_us) / 1e6;
    out.predict_s = phase_model_us / 1e6 - out.fit_s;
    return out;
}

SolverCounts
solver_counts()
{
    auto snap = heron::metrics::Registry::global().snapshot();
    auto count = [&](const char *name) -> int64_t {
        auto it = snap.counters.find(name);
        return it == snap.counters.end() ? 0 : it->second;
    };
    SolverCounts out;
    out.solves = count("csp.solve_calls");
    out.backtracks = count("csp.backtracks");
    out.propagations = count("csp.propagations");
    out.budget_exhausted = count("csp.budget_exhausted");
    out.invalid_measurements = count("measure.invalid");
    return out;
}

} // namespace pb
