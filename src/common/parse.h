// Strict decimal parsing for every count that enters the program from
// outside it: command-line flags, BA_THREADS, scenario spec values and
// sweep job lines.
//
// Input from outside the program is rejected with std::invalid_argument
// carrying only the message a user needs (no checked expression, no source
// location); BA_REQUIRE (common/check.h) stays for internal contracts.
// std::invalid_argument is a std::logic_error, like a contract failure.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

namespace ba {

/// Strict unsigned decimal parse: every character a digit (no sign, no
/// whitespace, not empty), and the value at most `max`. Throws
/// std::invalid_argument naming `what` otherwise.
std::uint64_t parse_unsigned(
    const std::string& v, const std::string& what,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

}  // namespace ba
