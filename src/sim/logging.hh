/**
 * @file
 * Error/status reporting helpers in the style of gem5's base/logging.hh.
 *
 * panic()  — an internal invariant was violated; this is a simulator bug.
 * fatal()  — the simulation cannot continue due to user error (bad
 *            configuration, invalid arguments); exits cleanly.
 */

#ifndef CEREAL_SIM_LOGGING_HH
#define CEREAL_SIM_LOGGING_HH

#include <cstdarg>
#include <string>

namespace cereal {

/** Abort with a formatted message: reserved for simulator bugs. */
[[noreturn]] void panicImpl(const char *file, int line,
                            const char *fmt, ...);

/** Exit(1) with a formatted message: reserved for user errors. */
[[noreturn]] void fatalImpl(const char *file, int line,
                            const char *fmt, ...);

/** Format a printf-style message into a std::string. */
std::string vstrfmt(const char *fmt, va_list ap);

/** Format a printf-style message into a std::string. */
std::string strfmt(const char *fmt, ...);

} // namespace cereal

#define panic(...) ::cereal::panicImpl(__FILE__, __LINE__, __VA_ARGS__)
#define fatal(...) ::cereal::fatalImpl(__FILE__, __LINE__, __VA_ARGS__)

/** panic() unless @p cond holds. */
#define panic_if(cond, ...)                                                 \
    do {                                                                    \
        if (cond) {                                                         \
            panic(__VA_ARGS__);                                             \
        }                                                                   \
    } while (0)

/** fatal() if @p cond holds. */
#define fatal_if(cond, ...)                                                 \
    do {                                                                    \
        if (cond) {                                                         \
            fatal(__VA_ARGS__);                                             \
        }                                                                   \
    } while (0)

#endif // CEREAL_SIM_LOGGING_HH
