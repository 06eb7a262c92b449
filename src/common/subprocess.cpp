#include "common/subprocess.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <csignal>
#include <utility>

#include "common/check.h"

namespace ba {

namespace {

using Clock = std::chrono::steady_clock;

/// An owned file descriptor, closed on reset and destruction.
struct Fd {
  int fd = -1;
  explicit Fd(int f = -1) : fd(f) {}
  Fd(Fd&& o) noexcept : fd(std::exchange(o.fd, -1)) {}
  Fd& operator=(Fd&&) = delete;
  ~Fd() { reset(); }
  void reset() {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
};

struct Child {
  pid_t pid;
  Fd out;     ///< read end of the stdout pipe; closed at EOF
  Fd exited;  ///< pidfd, readable once the child exits; closed then
};

/// Fork and exec one command: stdin from a memfd holding `input`, stdout
/// into a fresh nonblocking pipe. Every descriptor is close-on-exec, so
/// no child inherits a sibling's pipe.
Child spawn(const ChildCommand& cmd) {
  BA_REQUIRE(!cmd.argv.empty(), "run_children: empty argv");
  // Everything the child touches is built before fork: between fork and
  // exec it may only run async-signal-safe code.
  std::vector<char*> argv;
  for (const std::string& a : cmd.argv)
    argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  // pwrite leaves the file offset at 0, where the child starts reading.
  const Fd in(::memfd_create("child-stdin", MFD_CLOEXEC));
  BA_REQUIRE(in.fd >= 0 && ::pwrite(in.fd, cmd.input.data(),
                                    cmd.input.size(), 0) ==
                               static_cast<ssize_t>(cmd.input.size()),
             "run_children: cannot stage a child's stdin");
  int pfd[2];
  BA_REQUIRE(::pipe2(pfd, O_CLOEXEC) == 0, "run_children: pipe failed");
  Fd out(pfd[0]), write_end(pfd[1]);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::dup2(in.fd, STDIN_FILENO);
    ::dup2(write_end.fd, STDOUT_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  BA_REQUIRE(pid > 0, "run_children: fork failed");
  ::fcntl(out.fd, F_SETFL, ::fcntl(out.fd, F_GETFL) | O_NONBLOCK);
  // Without pidfds (Linux < 5.3) the child's exit shows as stdout's EOF.
  Fd exited(static_cast<int>(::syscall(SYS_pidfd_open, pid, 0)));
  return Child{pid, std::move(out), std::move(exited)};
}

/// Read every child's stdout until each child has exited and closed it,
/// or until the deadline.
void drain(std::vector<Child>& kids, std::vector<ChildResult>& results,
           Clock::time_point deadline) {
  std::vector<pollfd> fds;
  std::vector<std::pair<std::size_t, Fd*>> owners;
  for (;;) {
    fds.clear();
    owners.clear();
    for (std::size_t i = 0; i < kids.size(); ++i)
      for (Fd* f : {&kids[i].out, &kids[i].exited})
        if (f->fd >= 0) {
          fds.push_back(pollfd{f->fd, POLLIN, 0});
          owners.emplace_back(i, f);
        }
    const long long left =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                              Clock::now())
            .count();
    if (fds.empty() || left <= 0) return;
    const int rc = ::poll(fds.data(), fds.size(),
                          static_cast<int>(std::min<long long>(left, INT_MAX)));
    if (rc < 0 && errno != EINTR) return;  // reap() kills what is open
    for (std::size_t j = 0; j < fds.size(); ++j) {
      if (fds[j].revents == 0) continue;
      const auto [i, f] = owners[j];
      if (f == &kids[i].exited) {
        f->reset();
        continue;
      }
      char buf[65536];
      ssize_t got = 0;
      while ((got = ::read(f->fd, buf, sizeof buf)) > 0)
        results[i].output.append(buf, static_cast<std::size_t>(got));
      if (got == 0 || (errno != EAGAIN && errno != EINTR)) f->reset();
    }
  }
}

/// SIGKILL every child still running or holding its stdout open (it
/// missed the deadline), then wait for each.
void reap(std::vector<Child>& kids, std::vector<ChildResult>& results) {
  for (std::size_t i = 0; i < kids.size(); ++i) {
    Child& k = kids[i];
    if (k.out.fd >= 0 || k.exited.fd >= 0) {
      results[i].timed_out = true;
      ::kill(k.pid, SIGKILL);
    }
    k.out.reset();
    k.exited.reset();
    int status = 0;
    pid_t r = -1;
    while ((r = ::waitpid(k.pid, &status, 0)) < 0 && errno == EINTR) {
    }
    results[i].exit_code =
        r == k.pid && WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }
}

}  // namespace

std::vector<ChildResult> run_children(const std::vector<ChildCommand>& commands,
                                      std::chrono::milliseconds timeout) {
  BA_REQUIRE(commands.size() <= kMaxChildren,
             "run_children: more than kMaxChildren commands");
  const Clock::time_point deadline = Clock::now() + timeout;
  std::vector<ChildResult> results(commands.size());
  std::vector<Child> kids;
  kids.reserve(commands.size());
  try {
    for (const ChildCommand& cmd : commands) kids.push_back(spawn(cmd));
  } catch (...) {
    reap(kids, results);
    throw;
  }
  drain(kids, results, deadline);
  reap(kids, results);
  return results;
}

std::string sibling_path(const std::string& name) {
  char buf[PATH_MAX];
  const ssize_t len = ::readlink("/proc/self/exe", buf, sizeof buf);
  if (len <= 0) return name;
  const std::string self(buf, static_cast<std::size_t>(len));
  const std::size_t slash = self.rfind('/');
  return slash == std::string::npos ? name : self.substr(0, slash + 1) + name;
}

}  // namespace ba
