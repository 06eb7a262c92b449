// The one child-process supervisor. Every tool that runs other binaries
// — ba_sweep's `ba_run --jobs-file` shards, launch_local's `ba_node`
// fleet — spawns, drains, times out and reaps its children through
// run_children, and finds those binaries through sibling_path.
#pragma once

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

namespace ba {

/// Most children one run_children call starts; the same cap as
/// Pool::kMaxThreads. A longer command list is refused before any fork.
inline constexpr std::size_t kMaxChildren = 256;

struct ChildCommand {
  std::vector<std::string> argv;  ///< argv[0] is the executable's path
  std::string input;              ///< the child's whole stdin
};

struct ChildResult {
  int exit_code = -1;      ///< 127 when exec failed; -1 on a signal
  bool timed_out = false;  ///< still running at the deadline: SIGKILLed
  std::string output;      ///< everything the child wrote to stdout
};

/// Run every command as a child process, all at once. A child reads its
/// `input` on stdin from an anonymous in-memory file (nothing touches
/// the filesystem), writes stdout into a pipe, and inherits stderr.
/// Every pipe is drained under one deadline, `timeout` from the call; a
/// child that has not both exited and closed its stdout by then is
/// SIGKILLed and reported as timed out. Every child is reaped before
/// return. Throws (BA_REQUIRE) on more than kMaxChildren commands, an
/// empty argv, or a failed pipe or fork, after killing and reaping the
/// children already started.
std::vector<ChildResult> run_children(const std::vector<ChildCommand>& commands,
                                      std::chrono::milliseconds timeout);

/// Path of the binary `name` in this executable's directory (resolved
/// through /proc/self/exe); `name` itself when that link cannot be read.
std::string sibling_path(const std::string& name);

}  // namespace ba
