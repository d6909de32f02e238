/**
 * @file
 * Error-reporting helpers in the gem5 spirit: panic() for internal
 * simulator bugs (aborts), fatal() for user/configuration errors
 * (clean exit), warn()/inform() for status messages.
 *
 * All four route through one mutex-guarded sink (stderr by default,
 * redirectable with setLogSink() for tests), each message written
 * with a single fprintf so concurrent pool workers never interleave
 * partial lines. warn()/inform() honor a severity threshold set with
 * setLogThreshold() or the RENO_LOG_LEVEL environment variable
 * (debug/info/warn/error/silent, or 0-4); panic()/fatal() always
 * print.
 */
#pragma once

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>

namespace reno
{

/** Message severities, least to most severe. */
enum class LogLevel {
    Debug = 0,
    Info = 1,
    Warn = 2,
    Error = 3,
    Silent = 4,
};

/** Print a formatted message and abort; use for simulator bugs. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a formatted message and exit(1); use for user errors. */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Parse @p text, the value of command-line flag @p flag, as a count:
 * decimal digits only -- no sign, whitespace or trailing characters
 * -- within [@p min, @p max]. fatal()s naming the flag on anything
 * else, overflow included, so a negative count can never wrap.
 */
std::uint64_t
parseCount(const char *flag, const std::string &text,
           std::uint64_t min = 1,
           std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/** Print a warning; simulation continues. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print an informational message. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Redirect warn()/inform() (and fatal()/panic()) to @p sink, not
 * owned; nullptr restores stderr. Returns the previous sink.
 */
std::FILE *setLogSink(std::FILE *sink);

/**
 * Suppress messages below @p level. Returns the previous threshold.
 * The initial threshold comes from RENO_LOG_LEVEL (name or 0-4;
 * unset or invalid = Info).
 */
LogLevel setLogThreshold(LogLevel level);

/** vsnprintf into a std::string. */
std::string vstrprintf(const char *fmt, va_list args);

/** snprintf into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace reno
