// The child-process supervisor (common/subprocess.h): exit codes, the
// deadline, full drains of large outputs, stdin, exec failures and the
// child cap. Every child is a small system binary.
#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/subprocess.h"

namespace ba {
namespace {

using std::chrono::milliseconds;

ChildResult run_one(std::vector<std::string> argv, std::string input = "",
                    milliseconds timeout = milliseconds(20000)) {
  const std::vector<ChildResult> r =
      run_children({ChildCommand{std::move(argv), std::move(input)}}, timeout);
  EXPECT_EQ(r.size(), 1u);
  return r.at(0);
}

TEST(Subprocess, ReportsTheExitCode) {
  const ChildResult r = run_one({"/bin/sh", "-c", "echo hi; exit 3"});
  EXPECT_EQ(r.exit_code, 3);
  EXPECT_FALSE(r.timed_out);
  EXPECT_EQ(r.output, "hi\n");
}

TEST(Subprocess, KillsAndReapsAChildPastTheDeadline) {
  const auto start = std::chrono::steady_clock::now();
  const ChildResult r = run_one({"/bin/sleep", "30"}, "", milliseconds(200));
  const auto took = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(r.timed_out);
  EXPECT_EQ(r.exit_code, -1);  // SIGKILLed
  EXPECT_LT(took, milliseconds(200 + 2000));
}

TEST(Subprocess, DrainsOutputLargerThanAPipeBuffer) {
  // 2 MiB: a child writing this much blocks until the pipe is read.
  const ChildResult r =
      run_one({"/bin/sh", "-c", "head -c 2097152 /dev/zero"});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.output.size(), 2097152u);
}

TEST(Subprocess, FeedsInputOnStdin) {
  const ChildResult r = run_one({"/bin/cat"}, "line one\nline two\n");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.output, "line one\nline two\n");
}

TEST(Subprocess, ExecFailureExits127) {
  const ChildResult r = run_one({"/nonexistent/ba_no_such_binary"});
  EXPECT_EQ(r.exit_code, 127);
  EXPECT_FALSE(r.timed_out);
}

TEST(Subprocess, RunsChildrenSideBySideInCommandOrder) {
  std::vector<ChildCommand> cmds;
  for (int i = 0; i < 4; ++i)
    cmds.push_back({{"/bin/sh", "-c", "echo " + std::to_string(i)}, ""});
  const std::vector<ChildResult> r = run_children(cmds, milliseconds(20000));
  ASSERT_EQ(r.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(r[i].exit_code, 0);
    EXPECT_EQ(r[i].output, std::to_string(i) + "\n");
  }
}

TEST(Subprocess, RefusesMoreThanTheChildCapBeforeAnyFork) {
  // Every argv is empty, which spawning refuses before its fork: were the
  // cap broken, the call would still start no process, and the message
  // would name the empty argv instead of the cap.
  const std::vector<ChildCommand> cmds(kMaxChildren + 1);
  try {
    run_children(cmds, milliseconds(1000));
    ADD_FAILURE() << "257 commands were accepted";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("kMaxChildren"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(run_children({ChildCommand{}}, milliseconds(1000)),
               std::logic_error)
      << "an empty argv";
}

TEST(Subprocess, SiblingPathSharesThisBinarysDirectory) {
  const std::string self = sibling_path("subprocess_test");
  const std::string other = sibling_path("ba_run");
  ASSERT_GT(self.size(), std::string("/subprocess_test").size());
  EXPECT_EQ(self.substr(0, self.size() - std::string("subprocess_test").size()),
            other.substr(0, other.size() - std::string("ba_run").size()));
  EXPECT_EQ(self.front(), '/');
}

}  // namespace
}  // namespace ba
