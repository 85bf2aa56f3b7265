/**
 * @file
 * Error-reporting and assertion helpers, following the gem5 convention:
 * panic() for internal invariant violations (a bug in this library),
 * fatal() for user errors (bad configuration, malformed input), and
 * warn()/inform() for non-fatal diagnostics.
 *
 * Every fatal/panic path throws a structured error (common/error.h): a
 * MusstiFault (std::runtime_error) or MusstiPanic (std::logic_error)
 * carrying an ErrorCategory and a stable code string, so callers can
 * route on taxonomy instead of parsing what() strings.
 */
#ifndef MUSSTI_COMMON_LOGGING_H
#define MUSSTI_COMMON_LOGGING_H

#include <sstream>
#include <string>

#include "common/error.h"

namespace mussti {

/** Severity of a log message. */
enum class LogLevel { Inform, Warn, Fatal, Panic };

namespace detail {

/**
 * Emit a message (unless silenced or the category is a quiet control
 * outcome) and throw the structured error for it.
 */
[[noreturn]] void die(ErrorCategory category, const std::string &code,
                      const std::string &message);

/** Emit a non-fatal message to stderr. */
void report(LogLevel level, const std::string &message);

} // namespace detail

/**
 * Called when the simulation cannot continue due to a user error
 * (bad configuration, invalid arguments). Not a library bug.
 */
[[noreturn]] inline void
fatal(const std::string &message)
{
    detail::die(ErrorCategory::InvalidInput, "input.fatal", message);
}

/** fatal() with an explicit stable error code. */
[[noreturn]] inline void
fatalCoded(const std::string &code, const std::string &message)
{
    detail::die(ErrorCategory::InvalidInput, code, message);
}

/**
 * Called when something happens that should never happen regardless of
 * user input, i.e. an actual MUSS-TI bug.
 */
[[noreturn]] inline void
panic(const std::string &message)
{
    detail::die(ErrorCategory::Internal, "internal.panic", message);
}

/** panic() with an explicit stable error code. */
[[noreturn]] inline void
panicCoded(const std::string &code, const std::string &message)
{
    detail::die(ErrorCategory::Internal, code, message);
}

/**
 * Raise a structured error of any category. Timeout/Cancelled/Transient
 * are quiet (expected control-flow outcomes, no stderr echo); the other
 * categories echo like fatal()/panic().
 */
[[noreturn]] inline void
raiseError(ErrorCategory category, const std::string &code,
           const std::string &message)
{
    detail::die(category, code, message);
}

/** Non-fatal warning: something may be subtly wrong. */
inline void
warn(const std::string &message)
{
    detail::report(LogLevel::Warn, message);
}

/** Status message with no connotation of incorrect behaviour. */
inline void
inform(const std::string &message)
{
    detail::report(LogLevel::Inform, message);
}

/**
 * RAII guard silencing the stderr echo of fatal() (the exception still
 * propagates, with the diagnostic in what()). For probes that expect
 * and handle the user-error path — e.g. the device tuner testing
 * candidate feasibility — where hundreds of handled failures would
 * otherwise spam the console. The silence is process-wide (an atomic
 * depth, so guards are thread-safe and a probe fanned out to worker
 * threads is muted as a whole). panic() is never silenced: an internal
 * bug must always be heard. Nestable.
 *
 * Pass silence_warns = true to also mute warn() for the guard's
 * lifetime (same process-wide depth discipline): probe bursts that
 * tolerate the fatal path usually don't want its warn() chatter from
 * concurrent workers interleaved with their output either. Opt-in
 * because warns elsewhere are genuine diagnostics. inform() and
 * panic() are never muted.
 */
class ScopedFatalSilence
{
  public:
    explicit ScopedFatalSilence(bool silence_warns = false);
    ~ScopedFatalSilence();

    ScopedFatalSilence(const ScopedFatalSilence &) = delete;
    ScopedFatalSilence &operator=(const ScopedFatalSilence &) = delete;

  private:
    bool silenceWarns_;
};

/**
 * Run a command-line tool's body and turn an escaping error into an
 * exit status instead of std::terminate's abort: 2 for InvalidInput
 * (bad arguments or input — the CLI convention for usage errors), 1 for
 * anything else. fatal()/panic() have already printed the diagnostic;
 * quiet categories and foreign exceptions are printed here. Usage:
 * `int main(int argc, char **argv) { return runCliMain(run, argc, argv); }`.
 */
int runCliMain(int (*body)(int, char **), int argc, char **argv);

} // namespace mussti

/**
 * Internal invariant check. Active in all build types: the schedulers in
 * this library are cheap relative to the physics they model, and silent
 * invariant corruption would invalidate every reported metric.
 */
#define MUSSTI_ASSERT(cond, msg)                                            \
    do {                                                                    \
        if (!(cond)) {                                                      \
            std::ostringstream oss_;                                        \
            oss_ << __FILE__ << ":" << __LINE__ << ": assertion `" #cond    \
                 << "` failed: " << msg;                                    \
            ::mussti::panicCoded("internal.assert", oss_.str());            \
        }                                                                   \
    } while (0)

/** User-input validation; failure is the caller's fault, not a bug. */
#define MUSSTI_REQUIRE(cond, msg)                                           \
    do {                                                                    \
        if (!(cond)) {                                                      \
            std::ostringstream oss_;                                        \
            oss_ << "requirement `" #cond "` violated: " << msg;            \
            ::mussti::fatalCoded("input.require", oss_.str());              \
        }                                                                   \
    } while (0)

#endif // MUSSTI_COMMON_LOGGING_H
