/**
 * @file
 * Status and error reporting in the gem5 style: panic() for internal
 * invariant violations, fatal() for unrecoverable user/configuration
 * errors, warn() for advisories.
 */

#ifndef MIRAGE_BASE_LOGGING_H
#define MIRAGE_BASE_LOGGING_H

#include <cstdarg>
#include <functional>
#include <string>

namespace mirage {

/** Severity of a log line. */
enum class LogLevel { Debug, Info, Warn, Error };

/** Emit one formatted line if @p level is Warn or above. */
void logf(LogLevel level, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

/** Something may be wrong but execution can continue. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));
/**
 * Unrecoverable condition caused by configuration or input: throws
 * std::runtime_error so library users can catch it at the appliance
 * boundary.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));
/** Internal invariant violated — a bug in this library. Aborts. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** printf-style formatting into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Install a hook that runs once, after the message prints but before
 * abort(), on the first panic (CHECK failures funnel through panic).
 * Used by the flight recorder to dump the trace tail on crash. Passing
 * an empty function clears it. Reentrant panics from inside the hook
 * skip straight to abort.
 */
void setPanicHook(std::function<void()> hook);

} // namespace mirage

/**
 * CHECK(cond) — assert an internal invariant in all build types. A
 * failure is a bug in this library: log file:line and abort (via
 * panic), never throw. Use fatal() for user/configuration errors.
 *
 * CHECK_EQ/NE/LT/LE/GT/GE evaluate both operands once and report
 * their values; operands must be integral (std::to_string).
 *
 * DCHECK* compile away under NDEBUG (the default RelWithDebInfo
 * build); use them on hot paths where the cost of the test matters.
 */
#define CHECK(cond)                                                     \
    do {                                                                \
        if (!(cond)) [[unlikely]]                                       \
            ::mirage::panic("CHECK failed: %s (%s:%d)", #cond,          \
                            __FILE__, __LINE__);                        \
    } while (0)

#define MIRAGE_CHECK_OP_(a, b, op)                                      \
    do {                                                                \
        auto mirage_check_a_ = (a);                                     \
        decltype(mirage_check_a_) mirage_check_b_ =                     \
            static_cast<decltype(mirage_check_a_)>(b);                  \
        if (!(mirage_check_a_ op mirage_check_b_)) [[unlikely]]         \
            ::mirage::panic(                                            \
                "CHECK failed: %s %s %s (%s vs %s) (%s:%d)", #a, #op,   \
                #b, std::to_string(mirage_check_a_).c_str(),            \
                std::to_string(mirage_check_b_).c_str(), __FILE__,      \
                __LINE__);                                              \
    } while (0)

#define CHECK_EQ(a, b) MIRAGE_CHECK_OP_(a, b, ==)
#define CHECK_NE(a, b) MIRAGE_CHECK_OP_(a, b, !=)
#define CHECK_LT(a, b) MIRAGE_CHECK_OP_(a, b, <)
#define CHECK_LE(a, b) MIRAGE_CHECK_OP_(a, b, <=)
#define CHECK_GT(a, b) MIRAGE_CHECK_OP_(a, b, >)
#define CHECK_GE(a, b) MIRAGE_CHECK_OP_(a, b, >=)

#ifdef NDEBUG
#define DCHECK(cond)                                                    \
    do {                                                                \
        (void)sizeof(!(cond));                                          \
    } while (0)
#define MIRAGE_DCHECK_OP_(a, b, op)                                     \
    do {                                                                \
        (void)sizeof(!((a)op(b)));                                      \
    } while (0)
#else
#define DCHECK(cond) CHECK(cond)
#define MIRAGE_DCHECK_OP_(a, b, op) MIRAGE_CHECK_OP_(a, b, op)
#endif

#define DCHECK_EQ(a, b) MIRAGE_DCHECK_OP_(a, b, ==)
#define DCHECK_NE(a, b) MIRAGE_DCHECK_OP_(a, b, !=)
#define DCHECK_LT(a, b) MIRAGE_DCHECK_OP_(a, b, <)
#define DCHECK_LE(a, b) MIRAGE_DCHECK_OP_(a, b, <=)
#define DCHECK_GT(a, b) MIRAGE_DCHECK_OP_(a, b, >)
#define DCHECK_GE(a, b) MIRAGE_DCHECK_OP_(a, b, >=)

#endif // MIRAGE_BASE_LOGGING_H
