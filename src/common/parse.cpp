#include "common/parse.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <stdexcept>

namespace ba {

std::uint64_t parse_unsigned(const std::string& v, const std::string& what,
                             std::uint64_t max) {
  // strtoull alone would accept a sign (wrapping "-5" to 2^64 - 5) and
  // leading whitespace, and saturate out-of-range values silently.
  const bool digits = !v.empty() && std::all_of(v.begin(), v.end(), [](char c) {
    return c >= '0' && c <= '9';
  });
  if (!digits)
    throw std::invalid_argument(
        what + ": expected an unsigned decimal integer, got '" + v + "'");
  errno = 0;
  const std::uint64_t out = std::strtoull(v.c_str(), nullptr, 10);
  if (errno == ERANGE || out > max)
    throw std::invalid_argument(what + ": " + v + " exceeds " +
                                std::to_string(max));
  return out;
}

}  // namespace ba
