#include "common/parse.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace eccsim {

unsigned long long parse_uint_max(const char* prog, const char* what,
                                  const char* text, unsigned long long max) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(text[0])) || *end != '\0' ||
      errno == ERANGE || v > max) {
    std::fprintf(stderr, "%s: %s expects an integer in [0, %llu], got '%s'\n",
                 prog, what, max, text);
    std::exit(2);
  }
  return v;
}

double parse_double(const char* prog, const char* what, const char* text) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text, &end);
  if (text[0] == '\0' || std::isspace(static_cast<unsigned char>(text[0])) ||
      *end != '\0' || errno == ERANGE || !std::isfinite(v)) {
    std::fprintf(stderr, "%s: %s expects a number, got '%s'\n", prog, what,
                 text);
    std::exit(2);
  }
  return v;
}

const char* flag_value(const char* prog, int argc, char** argv, int& i,
                       const char* name) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(argv[i], name, n) == 0 && argv[i][n] == '=') {
    return argv[i] + n + 1;
  }
  if (std::strcmp(argv[i], name) != 0) return nullptr;
  if (i + 1 >= argc) {
    std::fprintf(stderr, "%s: %s requires a value\n", prog, name);
    std::exit(2);
  }
  return argv[++i];
}

}  // namespace eccsim
