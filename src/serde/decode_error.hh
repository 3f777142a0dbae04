/**
 * @file
 * Typed, recoverable decode errors for the deserialization side.
 *
 * Every deserializer in this repo consumes bytes that, in the target
 * deployment, arrive off the wire — so malformed input is an expected
 * runtime condition, not a simulator bug. The decode contract is:
 *
 *  - decoders NEVER abort the process on malformed input; they throw a
 *    DecodeError carrying a status code and the stream offset at which
 *    the problem was detected;
 *  - Serializer::tryDeserialize() wraps that into a DecodeResult for
 *    callers that prefer a value channel over exceptions;
 *  - all allocations a decoder performs are bounded by a small constant
 *    multiple of the input length, so hostile streams cannot cause
 *    unbounded allocation;
 *  - panic()/fatal() remain reserved for *internal* invariants and
 *    configuration errors that no byte stream can trigger.
 *
 * The destination heap may hold a partially reconstructed graph after a
 * failed decode; callers discard the heap, never the process.
 */

#ifndef CEREAL_SERDE_DECODE_ERROR_HH
#define CEREAL_SERDE_DECODE_ERROR_HH

#include <cstdarg>
#include <cstddef>
#include <exception>
#include <optional>
#include <string>
#include <utility>

#include "sim/logging.hh"

namespace cereal {

/** Classification of a decode failure. */
enum class DecodeStatus : std::uint8_t
{
    /** Stream ended before a required field/section. */
    Truncated,
    /** Leading magic word does not identify this format. */
    BadMagic,
    /** Varint is overlong or overflows 64 bits. */
    BadVarint,
    /** Unknown record/type tag. */
    BadTag,
    /** Object handle / back-reference out of range. */
    BadHandle,
    /** Class id or class name unknown to the registry. */
    BadClass,
    /** A declared count/length cannot fit in the remaining bytes. */
    BadLength,
    /** Structurally inconsistent (section sizes, layout mismatch...). */
    Malformed,
};

/** Printable name of a DecodeStatus. */
inline const char *
decodeStatusName(DecodeStatus s)
{
    switch (s) {
      case DecodeStatus::Truncated: return "truncated";
      case DecodeStatus::BadMagic: return "bad-magic";
      case DecodeStatus::BadVarint: return "bad-varint";
      case DecodeStatus::BadTag: return "bad-tag";
      case DecodeStatus::BadHandle: return "bad-handle";
      case DecodeStatus::BadClass: return "bad-class";
      case DecodeStatus::BadLength: return "bad-length";
      case DecodeStatus::Malformed: return "malformed";
    }
    return "?";
}

/** Recoverable decode failure: status + stream offset + detail. */
class DecodeError : public std::exception
{
  public:
    DecodeError(DecodeStatus status, std::size_t offset,
                std::string message)
        : status_(status), offset_(offset), message_(std::move(message)),
          what_(strfmt("decode error (%s) at byte %zu: %s",
                       decodeStatusName(status), offset_,
                       message_.c_str()))
    {
    }

    DecodeStatus status() const { return status_; }

    /** Byte offset in the input at which the error was detected. */
    std::size_t offset() const { return offset_; }

    const std::string &message() const { return message_; }

    const char *what() const noexcept override { return what_.c_str(); }

  private:
    DecodeStatus status_;
    std::size_t offset_;
    std::string message_;
    std::string what_;
};

/** Throw a DecodeError with a printf-formatted message. */
[[noreturn]] inline void
throwDecode(DecodeStatus status, std::size_t offset, const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrfmt(fmt, ap);
    va_end(ap);
    throw DecodeError(status, offset, std::move(msg));
}

/** throwDecode() unless @p cond holds (decode-side bounds checks). */
#define decode_check(cond, status, offset, ...)                             \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::cereal::throwDecode((status), (offset), __VA_ARGS__);         \
        }                                                                   \
    } while (0)

/**
 * Value-or-error result of a decode attempt (expected-style).
 *
 * @tparam T decoded value type (must be movable)
 */
template <typename T>
class DecodeResult
{
  public:
    DecodeResult(T value) : value_(std::move(value)) {}
    DecodeResult(DecodeError error) : error_(std::move(error)) {}

    bool ok() const { return !error_.has_value(); }
    explicit operator bool() const { return ok(); }

    const T &
    value() const
    {
        panic_if(!ok(), "DecodeResult::value() on error result: %s",
                 error_->what());
        return *value_;
    }

    T &
    value()
    {
        panic_if(!ok(), "DecodeResult::value() on error result: %s",
                 error_->what());
        return *value_;
    }

    const DecodeError &
    error() const
    {
        panic_if(ok(), "DecodeResult::error() on success result");
        return *error_;
    }

  private:
    std::optional<T> value_;
    std::optional<DecodeError> error_;
};

} // namespace cereal

#endif // CEREAL_SERDE_DECODE_ERROR_HH
