// Strict number parsing for command-line flags and environment knobs.
//
// A lenient strtoul reads `4x` as 4 and `abc` as 0, so a typo silently
// runs a different experiment.  These parsers accept only a whole value:
// empty, signed, trailing-garbage, non-finite or out-of-range text prints
// `<prog>: <what> expects ..., got '<text>'` and exits 2 (usage error).
// flag_value() is the one valued-flag reader every CLI shares.
#pragma once

#include <limits>

namespace eccsim {

/// Whole decimal integer in [0, max]; exits 2 on anything else.
unsigned long long parse_uint_max(const char* prog, const char* what,
                                  const char* text, unsigned long long max);

/// Whole decimal integer that fits T; exits 2 on anything else.
template <typename T>
T parse_uint(const char* prog, const char* what, const char* text) {
  return static_cast<T>(
      parse_uint_max(prog, what, text, std::numeric_limits<T>::max()));
}

/// Whole finite decimal number (strtod syntax, no leading whitespace);
/// exits 2 on anything else.
double parse_double(const char* prog, const char* what, const char* text);

/// The value of flag `name` at argv[i], spelled `name=value` or
/// `name value` (then `i` advances past the value); nullptr when argv[i]
/// is not `name`.  A bare `name` with nothing after it prints
/// `<prog>: <name> requires a value` and exits 2.
const char* flag_value(const char* prog, int argc, char** argv, int& i,
                       const char* name);

}  // namespace eccsim
