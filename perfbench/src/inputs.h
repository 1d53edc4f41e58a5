/**
 * @file
 * Seeded input generator. Everything the program under test receives
 * is built here from the workload seed: the serve-warm record set and
 * query mix, the serve-cold-model layer list, and the Table 10
 * operators. The same seed always gives the same inputs.
 */
#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

#include <cstdint>
#include <string>
#include <vector>

#include "autotune/record.h"
#include "common.h"

namespace pb {

/** The five Table 10 operators (bench/tab10_fig14_compile_time.cpp). */
std::vector<ops::Workload> tab10_workloads();

/** Short operator name used in metric names ("gemm", "c3d", ...). */
std::string op_short_name(const ops::Workload &workload);

/** The serve-cold-model graph: ResNet-50 at batch 16, as layers. */
ops::Network cold_model_network();

/**
 * The stored network of serve-warm graph requests: six ResNet-50
 * bottleneck layers (batch 16) with their ResNet-50 counts.
 */
ops::Network warm_network();

/**
 * Sizing of the serve-warm inputs; --short shrinks it. The request
 * mix (tier shares, Zipf exponent) is fixed in inputs.cpp.
 */
struct WarmConfig {
    /** Stored records (distinct workloads). */
    int records = 2500;
    int near_shapes = 24;
    int far_shapes = 16;
    /** Requests in the schedule (cycled). */
    int schedule_len = 1 << 14;
    /** Generator threads (output does not depend on it). */
    int threads = 1;
};

/** One stored record: the workload and its sampled, measured kernel. */
struct StoredRecord {
    ops::Workload workload;
    autotune::TuningRecord record;
};

/** One request the load generator can send. */
struct Query {
    enum class Kind : uint8_t { kExact, kNear, kFar, kGraph };
    Kind kind = Kind::kExact;
    /** Request body after `{"id":N,` (closing brace included). */
    std::string body;
    /** Exact: index into WarmInputs::records. */
    size_t record = 0;
    /** Near/far: the queried workload. */
    ops::Workload workload;
};

struct WarmInputs {
    std::vector<StoredRecord> records;
    /** Query table: exact (one per record), near, far, then graph. */
    std::vector<Query> queries;
    /** The stored network of graph requests (all layers stored). */
    ops::Network graph;
    /** The client's request schedule (indices into queries). */
    std::vector<uint32_t> schedule;
    /** Candidates dropped because the solver found no sample. */
    int64_t unsampled = 0;
    /** Sampled programs the simulator rejected (expected 0). */
    int64_t invalid = 0;
    /** Near-shape candidates the registry did not answer nearest. */
    int64_t near_rejected = 0;
    /** Every ResNet-50 layer (fixed-seed records) got a record. */
    bool network_stored = false;
    /** Op-kind split of the stored records, "gemm:412 c2d:..." */
    std::string kind_split;
};

/**
 * Build the serve-warm inputs for @p seed. Every record is sampled
 * by csp::RandSatSolver from a freshly generated space and measured
 * by the hw simulator. The stored network's records come first and
 * are sampled with a fixed seed; near shapes are kept only when a private
 * registry over the same records answers them from the nearest tier.
 */
WarmInputs make_warm_inputs(const hw::DlaSpec &spec, uint64_t seed,
                            const WarmConfig &config);

/**
 * Write @p in to @p path as text (records as TuningRecord JSON lines),
 * so it can be generated in another process. False on an I/O error.
 */
bool save_warm_inputs(const WarmInputs &in, const std::string &path);

/** Read what save_warm_inputs wrote; false if it is malformed. */
bool load_warm_inputs(const std::string &path, WarmInputs *in);

/** Body of a graph request for @p network (explicit layer list). */
std::string graph_request_body(const ops::Network &network);

} // namespace pb

#endif // PERFBENCH_INPUTS_H
