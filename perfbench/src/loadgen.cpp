#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

namespace pb {

namespace {

using Clock = std::chrono::steady_clock;

int
connect_loopback(uint16_t port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
}

bool
write_all(int fd, const std::string &data)
{
    size_t off = 0;
    while (off < data.size()) {
        ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                           MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        off += static_cast<size_t>(n);
    }
    return true;
}

/** Read more bytes into @p buffer; false on EOF or error. */
bool
read_more(int fd, std::string &buffer)
{
    char chunk[65536];
    for (;;) {
        ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        buffer.append(chunk, static_cast<size_t>(n));
        return true;
    }
}

/** The id a response echoes: every response starts {"id":N, */
int64_t
response_id(std::string_view line)
{
    constexpr std::string_view kPrefix = "{\"id\":";
    if (line.substr(0, kPrefix.size()) != kPrefix)
        return -1;
    return std::strtoll(line.data() + kPrefix.size(), nullptr, 10);
}

struct Pending {
    int64_t id = -1;
    uint32_t query = 0;
    Clock::time_point sent{};
};

} // namespace

LoadResult
run_closed_loop(const LoadConfig &config,
                const std::vector<uint32_t> &schedule,
                const std::vector<std::string> &bodies,
                const std::function<bool()> &keep_going,
                const ResponseFn &on_response)
{
    LoadResult result;
    int fd = connect_loopback(config.port);
    if (fd < 0) {
        result.error = "cannot connect";
        return result;
    }
    const int depth = std::max(1, config.depth);
    // Ids are consecutive and at most `depth` are outstanding, so a
    // ring of 4x depth never collides unless responses come back far
    // out of order (which the id check reports).
    std::vector<Pending> ring(static_cast<size_t>(depth) * 4);
    std::string buffer;
    std::string line;
    bool stopping = false;
    auto send_next = [&]() {
        uint32_t q =
            schedule[static_cast<size_t>(result.sent) % schedule.size()];
        line.assign("{\"id\":");
        line += std::to_string(result.sent);
        line += ',';
        line += bodies[q];
        line += '\n';
        Pending &slot = ring[static_cast<size_t>(result.sent) % ring.size()];
        slot.id = result.sent;
        slot.query = q;
        slot.sent = Clock::now();
        ++result.sent;
        return write_all(fd, line);
    };
    for (;;) {
        // Top the window up after every response.
        while (!stopping && result.sent - result.received < depth) {
            if (result.sent % config.block == 0 && !keep_going()) {
                stopping = true;
                break;
            }
            if (!send_next()) {
                result.error = "write failed";
                break;
            }
        }
        if (!result.error.empty() || result.sent == result.received)
            break;
        size_t newline;
        while ((newline = buffer.find('\n')) == std::string::npos) {
            if (!read_more(fd, buffer)) {
                result.error = "connection closed with requests outstanding";
                break;
            }
        }
        if (!result.error.empty())
            break;
        Clock::time_point now = Clock::now();
        std::string_view response(buffer.data(), newline);
        int64_t id = response_id(response);
        const Pending &slot =
            ring[static_cast<size_t>(id < 0 ? 0 : id) % ring.size()];
        if (id < 0 || slot.id != id) {
            result.error = "response with unknown id: " +
                           std::string(response.substr(0, 80));
            break;
        }
        double us =
            std::chrono::duration<double, std::micro>(now - slot.sent).count();
        on_response(slot.query, response, us);
        ++result.received;
        buffer.erase(0, newline + 1);
        if (config.think_ms > 0.0)
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(config.think_ms));
    }
    ::close(fd);
    return result;
}

LineClient::LineClient(uint16_t port) : fd_(connect_loopback(port)) {}

LineClient::~LineClient()
{
    if (fd_ >= 0)
        ::close(fd_);
}

std::string
LineClient::request(const std::string &line)
{
    if (fd_ < 0 || !write_all(fd_, line + "\n"))
        return "";
    size_t newline;
    while ((newline = buffer_.find('\n')) == std::string::npos)
        if (!read_more(fd_, buffer_))
            return "";
    std::string response = buffer_.substr(0, newline);
    buffer_.erase(0, newline + 1);
    return response;
}

} // namespace pb
