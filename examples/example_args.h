// Positional arguments of the example programs. Each one sets a spec key
// through ScenarioSpec::apply, the strict parser behind `ba_run --set`,
// so `64x` or `abc` is an error rather than a silent 64 or 0.
#pragma once

#include <cstdio>
#include <exception>
#include <initializer_list>
#include <stdexcept>

#include "sim/scenario.h"

namespace ba::examples {

/// Apply argv[1..] to `spec`, the i-th argument under keys[i - 1], and
/// return `body(spec)`, the example's exit status. A bad value, a surplus
/// argument, or a value the protocol rejects when it runs (`body`
/// throws) prints the error and the usage line (`argv[0] usage_args`)
/// and returns 2.
template <class Body>
int run_example(sim::ScenarioSpec spec, int argc, char** argv,
                std::initializer_list<const char*> keys,
                const char* usage_args, Body body) {
  try {
    if (static_cast<std::size_t>(argc - 1) > keys.size())
      throw std::invalid_argument("too many arguments");
    for (int i = 1; i < argc; ++i) spec.apply(keys.begin()[i - 1], argv[i]);
    return body(spec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\nusage: %s %s\n", e.what(), argv[0], usage_args);
    return 2;
  }
}

}  // namespace ba::examples
