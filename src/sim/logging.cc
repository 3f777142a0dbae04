#include "sim/logging.hh"

#include <cstdio>
#include <cstdlib>
#include <vector>

namespace cereal {

std::string
vstrfmt(const char *fmt, va_list ap)
{
    va_list ap2;
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap);
    std::vector<char> buf(static_cast<size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap2);
    va_end(ap2);
    return std::string(buf.data(), static_cast<size_t>(n));
}

std::string
strfmt(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string s = vstrfmt(fmt, ap);
    va_end(ap);
    return s;
}

void
panicImpl(const char *file, int line, const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrfmt(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "panic: %s @ %s:%d\n", msg.c_str(), file, line);
    std::abort();
}

void
fatalImpl(const char *file, int line, const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrfmt(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "fatal: %s @ %s:%d\n", msg.c_str(), file, line);
    std::exit(1);
}

} // namespace cereal
