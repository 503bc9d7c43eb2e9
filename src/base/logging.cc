#include "base/logging.h"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <vector>

namespace mirage {

namespace {

constexpr LogLevel kMinLevel = LogLevel::Warn;
std::function<void()> g_panic_hook;
bool g_in_panic_hook = false;

std::string
vstrprintf(const char *fmt, va_list ap)
{
    va_list ap2;
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap2);
    va_end(ap2);
    if (n < 0)
        return "<format error>";
    std::vector<char> buf(static_cast<size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap);
    return std::string(buf.data(), static_cast<size_t>(n));
}

const char *
levelName(LogLevel l)
{
    switch (l) {
      case LogLevel::Debug: return "debug";
      case LogLevel::Info: return "info";
      case LogLevel::Warn: return "warn";
      case LogLevel::Error: return "error";
    }
    return "?";
}

} // namespace

void
logf(LogLevel level, const char *fmt, ...)
{
    if (level < kMinLevel)
        return;
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrprintf(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "[%s] %s\n", levelName(level), msg.c_str());
}

void
warn(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrprintf(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "[warn] %s\n", msg.c_str());
}

void
fatal(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrprintf(fmt, ap);
    va_end(ap);
    throw std::runtime_error(msg);
}

void
setPanicHook(std::function<void()> hook)
{
    g_panic_hook = std::move(hook);
}

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrprintf(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "[panic] %s\n", msg.c_str());
    if (g_panic_hook && !g_in_panic_hook) {
        g_in_panic_hook = true;
        g_panic_hook();
    }
    std::abort();
}

std::string
strprintf(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrprintf(fmt, ap);
    va_end(ap);
    return msg;
}

} // namespace mirage
