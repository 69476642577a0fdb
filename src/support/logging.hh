/**
 * @file
 * Error-reporting and status-message helpers.
 *
 * Follows the gem5 convention: panic() for internal invariant violations
 * (aborts), fatal() for user errors (clean exit), warn()/inform() for
 * status messages that never stop execution.
 */

#ifndef RIGOR_SUPPORT_LOGGING_HH
#define RIGOR_SUPPORT_LOGGING_HH

#include <cstdarg>
#include <functional>
#include <stdexcept>
#include <string>

namespace rigor {

/** Exception thrown by fatal() so user errors are testable. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

/** Exception thrown by panic() so invariant violations are testable. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg)
        : std::logic_error(msg)
    {}
};

/**
 * printf-style formatting into a std::string.
 *
 * @param fmt printf format string.
 * @return the formatted string.
 */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** vprintf-style counterpart of strprintf(). */
std::string vstrprintf(const char *fmt, va_list ap);

/**
 * Report an unrecoverable internal error (a bug in this library).
 * Throws PanicError; never returns normally.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report an unrecoverable user error (bad input, bad configuration).
 * Throws FatalError; never returns normally.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a warning to stderr; execution continues. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print an informational message to stderr; execution continues. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Globally silence warn()/inform() (used by tests and benches). */
void setQuiet(bool quiet);

/**
 * Thread-local quiet override: silences this thread's warn()/inform()
 * (and everything that checks quietEnabled()) without touching other
 * threads. The serve daemon uses it to honor one job's --quiet while
 * other jobs stream normally.
 * @return the previous thread-local value, for RAII restoration.
 */
bool setThreadQuiet(bool quiet);

/** Whether setQuiet(true) or this thread's override is in effect. */
bool quietEnabled();

/** Severity of a status message routed through the log sink. */
enum class LogLevel
{
    Warn,
    Info,
};

/** Short name of a level ("warn" / "info"). */
const char *logLevelName(LogLevel level);

/**
 * Destination of warn()/inform() messages. `msg` is the formatted
 * message without the level prefix or trailing newline.
 */
using LogSink = std::function<void(LogLevel level,
                                   const std::string &msg)>;

/**
 * Replace the log sink (default: "level: msg" lines on stderr).
 * Passing an empty function restores the default. Tests use this to
 * capture log output; the CLI uses it to mirror warnings into the
 * trace as instant events. setQuiet() is applied *before* the sink,
 * so a quiet process stays quiet whatever sink is installed.
 * @return the previously installed sink (empty if it was the
 *         default), so callers can chain or restore it.
 */
LogSink setLogSink(LogSink sink);

/**
 * Install a *thread-local* sink that takes precedence over the
 * process-global one on this thread. The serve daemon gives each job
 * thread one, so concurrent jobs' messages never interleave. Passing
 * an empty function removes the override. setQuiet() still applies
 * first.
 * @return the previously installed thread-local sink.
 */
LogSink setThreadLogSink(LogSink sink);

/**
 * Deliver an already-formatted message through the normal sink chain
 * (thread-local sink, then global sink, then stderr), respecting
 * setQuiet(). The serve client uses it to replay a daemon job's log
 * events locally.
 */
void emitLogMessage(LogLevel level, const std::string &msg);

} // namespace rigor

#endif // RIGOR_SUPPORT_LOGGING_HH
