#pragma once
/// \file error.hpp
/// \brief Error type and checked-invariant macros used across ADePT.
///
/// ADePT reports user-facing failures (bad input files, infeasible plans)
/// via adept::Error and programming errors via ADEPT_ASSERT, whose
/// adept::Error also names the failed expression and its source location
/// so callers can still surface a diagnostic.

#include <stdexcept>
#include <string>

namespace adept {

/// Exception thrown for all recoverable ADePT failures (parse errors,
/// invalid hierarchies, infeasible planning inputs...).
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
/// Throws adept::Error carrying `message`, or `expr` when it is empty.
[[noreturn]] void fail_check(const char* expr, const std::string& message);
/// Throws adept::Error naming the expression, its source location and
/// `message`.
[[noreturn]] void fail_assert(const char* expr, const char* file, int line,
                              const std::string& message);
}  // namespace detail

}  // namespace adept

/// Validates a user-facing precondition; throws adept::Error on failure.
/// The error's text is `msg` (a std::string or convertible) alone — it
/// reaches clients verbatim, e.g. as a serve answer's "error" — or the
/// expression when `msg` is empty.
#define ADEPT_CHECK(expr, msg)                                              \
  do {                                                                      \
    if (!(expr)) {                                                          \
      ::adept::detail::fail_check(#expr, (msg));                            \
    }                                                                       \
  } while (false)

/// Internal invariant: a failure indicates a bug in ADePT rather than bad
/// input, so the thrown adept::Error also names the expression and its
/// source location ("check failed: <expr> at <file>:<line> — internal:
/// <msg>").
#define ADEPT_ASSERT(expr, msg)                                             \
  do {                                                                      \
    if (!(expr)) {                                                          \
      ::adept::detail::fail_assert(#expr, __FILE__, __LINE__, (msg));       \
    }                                                                       \
  } while (false)
