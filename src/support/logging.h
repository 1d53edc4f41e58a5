/**
 * @file
 * Logging and runtime-check utilities used across Heron.
 *
 * Follows the gem5 distinction between user-facing errors (fatal) and
 * internal invariant violations (panic / HERON_CHECK).
 */
#ifndef HERON_SUPPORT_LOGGING_H
#define HERON_SUPPORT_LOGGING_H

#include <cstdint>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>

namespace heron {

/** Severity of a log message. */
enum class LogLevel : int {
    /** Very chatty per-iteration detail (off even in debug runs). */
    kTrace = -1,
    kDebug = 0,
    kInfo = 1,
    kWarn = 2,
    kError = 3,
};

/**
 * Set the minimum severity that is printed. The default is kInfo,
 * overridable without recompiling via the HERON_LOG_LEVEL
 * environment variable ("trace", "debug", "info", "warn", "error",
 * or a numeric level), which is read once at first use; an explicit
 * set_log_level() call wins over the environment.
 */
void set_log_level(LogLevel level);

/** Current minimum printed severity. */
LogLevel log_level();

/**
 * Parse a HERON_LOG_LEVEL value ("trace".."error", case-insensitive,
 * or a number). nullopt on unrecognized input.
 */
std::optional<LogLevel> parse_log_level(const std::string &text);

/**
 * Redirect all log output (every level, one sink) to @p sink;
 * nullptr restores stderr. The sink must outlive logging activity.
 * Used by tests to capture output.
 */
void set_log_sink(std::ostream *sink);

namespace detail {

/**
 * One in-flight log statement; streams into an internal buffer and
 * flushes to stderr on destruction.
 */
class LogMessage
{
  public:
    LogMessage(LogLevel level, const char *file, int line);
    ~LogMessage();

    LogMessage(const LogMessage &) = delete;
    LogMessage &operator=(const LogMessage &) = delete;

    std::ostringstream &stream() { return stream_; }

  private:
    LogLevel level_;
    std::ostringstream stream_;
};

/**
 * Like LogMessage but aborts the process on destruction. Used by
 * HERON_CHECK and HERON_FATAL.
 */
class FatalMessage
{
  public:
    FatalMessage(const char *file, int line);
    [[noreturn]] ~FatalMessage();

    FatalMessage(const FatalMessage &) = delete;
    FatalMessage &operator=(const FatalMessage &) = delete;

    std::ostringstream &stream() { return stream_; }

  private:
    std::ostringstream stream_;
};

/** True if messages at @p level are currently printed. */
bool log_enabled(LogLevel level);

/**
 * Turns a finished stream expression into void, so the logging
 * macros can be conditional *expressions* (`cond ? (void)0 :
 * Voidify() & stream << ...`) rather than `if ... else` statements,
 * which raise -Wdangling-else as the body of an unbraced `if`. `&`
 * binds looser than `<<` and tighter than `?:`, so the whole
 * message is streamed first.
 */
struct Voidify {
    void operator&(std::ostream &) const {}
};

} // namespace detail

} // namespace heron

#define HERON_LOG(level)                                                    \
    !::heron::detail::log_enabled(::heron::LogLevel::level)                 \
        ? (void)0                                                           \
        : ::heron::detail::Voidify() &                                      \
              ::heron::detail::LogMessage(::heron::LogLevel::level,         \
                                          __FILE__, __LINE__)               \
                  .stream()

#define HERON_TRACE_MSG HERON_LOG(kTrace)
#define HERON_DEBUG HERON_LOG(kDebug)
#define HERON_INFO HERON_LOG(kInfo)
#define HERON_WARN HERON_LOG(kWarn)
#define HERON_ERROR HERON_LOG(kError)

/** Abort with a message; use for unrecoverable internal errors. */
#define HERON_FATAL                                                         \
    ::heron::detail::FatalMessage(__FILE__, __LINE__).stream()

/** Internal invariant check; aborts with the condition text on failure. */
#define HERON_CHECK(cond)                                                   \
    (cond) ? (void)0                                                        \
           : ::heron::detail::Voidify() &                                   \
                 ::heron::detail::FatalMessage(__FILE__, __LINE__).stream() \
                     << "Check failed: " #cond " "

#define HERON_CHECK_EQ(a, b) HERON_CHECK((a) == (b))
#define HERON_CHECK_NE(a, b) HERON_CHECK((a) != (b))
#define HERON_CHECK_LE(a, b) HERON_CHECK((a) <= (b))
#define HERON_CHECK_LT(a, b) HERON_CHECK((a) < (b))
#define HERON_CHECK_GE(a, b) HERON_CHECK((a) >= (b))
#define HERON_CHECK_GT(a, b) HERON_CHECK((a) > (b))

#endif // HERON_SUPPORT_LOGGING_H
