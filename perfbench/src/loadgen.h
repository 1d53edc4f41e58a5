/**
 * @file
 * Closed-loop NDJSON load generator over loopback TCP. One connection,
 * driven by the calling thread, keeps up to `depth` pipelined requests
 * outstanding and sends the next only when a response line arrives,
 * timing each request from its write to its response line.
 */
#ifndef PERFBENCH_LOADGEN_H
#define PERFBENCH_LOADGEN_H

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace pb {

struct LoadConfig {
    uint16_t port = 0;
    /** Requests outstanding (1 = no pipelining). */
    int depth = 8;
    /**
     * Requests per block. The client checks keep_going only between
     * blocks, so every run sends whole blocks of its schedule.
     */
    int block = 256;
    /**
     * Pause after each response before the window is topped up, ms
     * (0 = none): a client that does other work between requests.
     */
    double think_ms = 0.0;
};

/**
 * Called for each response line: (query index, response line,
 * latency in microseconds).
 */
using ResponseFn =
    std::function<void(uint32_t, std::string_view, double)>;

struct LoadResult {
    int64_t sent = 0;
    int64_t received = 0;
    /** Transport-level fault (connect, unexpected close, bad id). */
    std::string error;
};

/**
 * Cycle through @p schedule on one connection until @p keep_going
 * returns false at a block boundary, then drain the outstanding
 * requests and close. Request i is `{"id":i,` + bodies[schedule[i]].
 */
LoadResult run_closed_loop(const LoadConfig &config,
                           const std::vector<uint32_t> &schedule,
                           const std::vector<std::string> &bodies,
                           const std::function<bool()> &keep_going,
                           const ResponseFn &on_response);

/**
 * One blocking request/response exchange on a fresh connection (for
 * control requests: graph submit, graph_status). Returns "" on a
 * transport fault.
 */
class LineClient
{
  public:
    explicit LineClient(uint16_t port);
    ~LineClient();

    LineClient(const LineClient &) = delete;
    LineClient &operator=(const LineClient &) = delete;

    bool connected() const { return fd_ >= 0; }

    /** Send @p line (newline appended) and wait for one response. */
    std::string request(const std::string &line);

  private:
    int fd_ = -1;
    std::string buffer_;
};

} // namespace pb

#endif // PERFBENCH_LOADGEN_H
