#ifndef IMS_SUPPORT_ERROR_HPP
#define IMS_SUPPORT_ERROR_HPP

#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

namespace ims::support {

/**
 * Error raised for invalid user input (malformed IR text, inconsistent
 * machine descriptions, impossible scheduling requests).
 *
 * API-misuse conditions (violated preconditions inside the library) use
 * assertions / std::logic_error instead; Error is reserved for conditions a
 * correct program can hit with bad input, mirroring gem5's fatal()/panic()
 * distinction.
 */
class Error : public std::runtime_error
{
  public:
    explicit Error(const std::string& message) : std::runtime_error(message) {}
};

/**
 * An Error carrying a stable machine-readable failure code alongside the
 * human-readable message — the same code vocabulary the pipeliner's
 * Diagnostic.code and the fuzzing subsystem use ("sched.ii_exhausted",
 * "verify.<kind>", ...; see docs/FUZZING.md). Catch sites that surface
 * errors as structured diagnostics preserve the thrower's code instead of
 * synthesizing a generic "error.<phase>".
 */
class CodedError : public Error
{
  public:
    CodedError(std::string code, const std::string& message)
        : Error(message), code_(std::move(code))
    {
    }

    const std::string& code() const { return code_; }

  private:
    std::string code_;
};

/**
 * Throw ims::support::Error with `message` if `condition` fails.
 *
 * Checks sit on hot paths (every simulated register read and memory
 * access), so a passing check must cost only the test: the message is
 * either a literal or built by a callable that runs only on failure.
 *
 *     check(ii >= 1, "candidate II must be >= 1");
 *     check(it != end, [&] { return "unknown register '" + name + "'"; });
 */
inline void
check(bool condition, const char* message)
{
    if (!condition)
        throw Error(message);
}

/** Lazy form: `make_message()` is invoked only when `condition` fails. */
template <typename MakeMessage,
          typename = std::enable_if_t<
              std::is_invocable_r_v<std::string, MakeMessage&>>>
inline void
check(bool condition, MakeMessage&& make_message)
{
    if (!condition)
        throw Error(make_message());
}

/** An eagerly built message costs an allocation even when the check
 *  passes; pass a literal or a callable instead. */
void check(bool condition, const std::string& message) = delete;

} // namespace ims::support

#endif // IMS_SUPPORT_ERROR_HPP
