#include "common/log.hpp"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <vector>

namespace reno
{

namespace
{

std::mutex &
logMutex()
{
    static std::mutex mu;
    return mu;
}

std::FILE *g_sink = nullptr;  // nullptr = stderr

LogLevel
parseLevel(const char *s)
{
    if (!s || !*s)
        return LogLevel::Info;
    if (std::strcmp(s, "debug") == 0 || std::strcmp(s, "0") == 0)
        return LogLevel::Debug;
    if (std::strcmp(s, "info") == 0 || std::strcmp(s, "1") == 0)
        return LogLevel::Info;
    if (std::strcmp(s, "warn") == 0 || std::strcmp(s, "2") == 0)
        return LogLevel::Warn;
    if (std::strcmp(s, "error") == 0 || std::strcmp(s, "3") == 0)
        return LogLevel::Error;
    if (std::strcmp(s, "silent") == 0 || std::strcmp(s, "4") == 0)
        return LogLevel::Silent;
    std::fprintf(stderr, "warn: ignoring invalid RENO_LOG_LEVEL='%s'\n",
                 s);
    return LogLevel::Info;
}

LogLevel &
threshold()
{
    static LogLevel level = parseLevel(std::getenv("RENO_LOG_LEVEL"));
    return level;
}

/** One locked fprintf, so concurrent messages never interleave. */
void
emit(LogLevel level, const char *prefix, const char *fmt,
     va_list args)
{
    if (level < threshold())
        return;
    const std::string s = vstrprintf(fmt, args);
    std::lock_guard<std::mutex> lock(logMutex());
    std::FILE *sink = g_sink ? g_sink : stderr;
    std::fprintf(sink, "%s%s\n", prefix, s.c_str());
    std::fflush(sink);
}

} // namespace

std::string
vstrprintf(const char *fmt, va_list args)
{
    va_list copy;
    va_copy(copy, args);
    const int n = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    if (n <= 0)
        return {};
    std::vector<char> buf(static_cast<size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args);
    return std::string(buf.data(), static_cast<size_t>(n));
}

std::string
strprintf(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string s = vstrprintf(fmt, args);
    va_end(args);
    return s;
}

std::uint64_t
parseCount(const char *flag, const std::string &text, std::uint64_t min,
           std::uint64_t max)
{
    std::uint64_t n = 0;
    const char *first = text.data();
    const char *last = first + text.size();
    // from_chars on an unsigned type takes digits only: a '-', '+' or
    // leading space is no match, and overflow is result_out_of_range.
    const auto [end, ec] = std::from_chars(first, last, n);
    if (ec == std::errc() && end == last && n >= min && n <= max)
        return n;
    if (max != std::numeric_limits<std::uint64_t>::max())
        fatal("%s expects %llu..%llu, got '%s'", flag,
              static_cast<unsigned long long>(min),
              static_cast<unsigned long long>(max), text.c_str());
    fatal("%s expects a %s integer, got '%s'", flag,
          min == 0 ? "non-negative" : "positive", text.c_str());
}

std::FILE *
setLogSink(std::FILE *sink)
{
    std::lock_guard<std::mutex> lock(logMutex());
    std::FILE *prev = g_sink;
    g_sink = sink;
    return prev;
}

LogLevel
setLogThreshold(LogLevel level)
{
    const LogLevel prev = threshold();
    threshold() = level;
    return prev;
}

void
panic(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    // Silent above every threshold: a crash report must print.
    emit(LogLevel::Silent, "panic: ", fmt, args);
    va_end(args);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    emit(LogLevel::Silent, "fatal: ", fmt, args);
    va_end(args);
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    emit(LogLevel::Warn, "warn: ", fmt, args);
    va_end(args);
}

void
inform(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    emit(LogLevel::Info, "info: ", fmt, args);
    va_end(args);
}

} // namespace reno
