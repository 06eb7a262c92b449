#include "transport/launch.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "common/check.h"
#include "common/rng.h"
#include "sim/protocol.h"
#include "sim/sweep.h"
#include "transport/transport.h"

namespace ba::transport {

namespace {

using Clock = std::chrono::steady_clock;

int ms_until(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  return static_cast<int>(left.count());
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Parse ba_node's second stdout line ("transcript_digest=<hex16> ...").
bool parse_transcript_line(const std::string& line, std::uint64_t* digest) {
  static const char kKey[] = "transcript_digest=";
  if (line.compare(0, sizeof kKey - 1, kKey) != 0) return false;
  unsigned long long v = 0;
  if (std::sscanf(line.c_str() + sizeof kKey - 1, "%llx", &v) != 1)
    return false;
  *digest = v;
  return true;
}

/// Fill outcome.report / transcript_digest from a node's raw stdout:
/// one JSON report line plus one transcript_digest key=value line.
void parse_node_output(NodeOutcome& node) {
  bool have_report = false, have_digest = false;
  std::istringstream in(node.output);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '{') {
      try {
        node.report = sim::parse_report_json(line);
        have_report = true;
      } catch (const std::exception&) {
        // fall through: unparsable report leaves `parsed` false
      }
    } else {
      have_digest |= parse_transcript_line(line, &node.transcript_digest);
    }
  }
  node.parsed = have_report && have_digest;
}

struct FieldCheck {
  const char* name;
  std::uint64_t got, want;
};

/// Field-wise parity check of one node's report against the oracle.
void compare_node(const NodeOutcome& node, const sim::RunReport& oracle,
                  std::uint64_t oracle_transcript,
                  std::vector<std::string>& errors) {
  const std::string who = "node " + std::to_string(node.node_id) + ": ";
  if (node.timed_out) {
    errors.push_back(who + "killed at the launch deadline");
    return;
  }
  if (node.exit_code != 0) {
    errors.push_back(who + "exit code " + std::to_string(node.exit_code));
    return;
  }
  if (!node.parsed) {
    errors.push_back(who + "stdout is not a report + transcript line pair");
    return;
  }
  const sim::RunReport& r = node.report;
  const FieldCheck checks[] = {
      {"fingerprint", r.fingerprint, oracle.fingerprint},
      {"transcript_digest", node.transcript_digest, oracle_transcript},
      {"decided_bit", static_cast<std::uint64_t>(r.decided_bit),
       static_cast<std::uint64_t>(oracle.decided_bit)},
      {"validity", static_cast<std::uint64_t>(r.validity),
       static_cast<std::uint64_t>(oracle.validity)},
      {"all_good_agree", static_cast<std::uint64_t>(r.all_good_agree),
       static_cast<std::uint64_t>(oracle.all_good_agree)},
      {"rounds", r.rounds, oracle.rounds},
      {"corrupt_count", r.corrupt_count, oracle.corrupt_count},
      {"max_bits_good", r.max_bits_good, oracle.max_bits_good},
      {"total_bits_good", r.total_bits_good, oracle.total_bits_good},
      {"total_msgs_good", r.total_msgs_good, oracle.total_msgs_good},
  };
  for (const FieldCheck& c : checks)
    if (c.got != c.want)
      errors.push_back(who + c.name + " " + hex64(c.got) + " != oracle " +
                       hex64(c.want));
  if (r.agreement_fraction != oracle.agreement_fraction)
    errors.push_back(who + "agreement_fraction diverges from the oracle");
}

}  // namespace

std::uint64_t job_config_digest(const sim::ScenarioSpec& spec,
                                std::uint64_t seed_offset) {
  sim::ScenarioSpec tcp_spec = spec;
  tcp_spec.transport = sim::TransportKind::kTcp;
  const std::string line =
      sim::format_job_line(sim::SweepJob{tcp_spec, seed_offset});
  Fnv1a d;
  for (char c : line) d.mix(static_cast<unsigned char>(c));
  return d.h;
}

LaunchOutcome launch_local(const LaunchConfig& cfg) {
  BA_REQUIRE(!cfg.node_bin.empty(), "launch_local: node_bin is required");
  BA_REQUIRE(cfg.nodes >= 2, "launch_local: need at least 2 nodes");
  BA_REQUIRE(cfg.spec.n >= cfg.nodes,
             "launch_local: every node needs at least one processor "
             "(n >= nodes)");

  sim::ScenarioSpec tcp_spec = cfg.spec;
  tcp_spec.transport = sim::TransportKind::kTcp;

  LaunchOutcome out;
  out.job_line = sim::format_job_line(sim::SweepJob{tcp_spec, cfg.seed_offset});
  out.nodes.resize(cfg.nodes);

  // Port block when the caller didn't pin one: derived from the pid so
  // concurrent launches on one host don't collide, and kept below the
  // default Linux ephemeral range (32768-60999). Inside that range the
  // kernel may hand a node's port to a connecting socket — the fleet's
  // own connections, or earlier instances' ones still in TIME_WAIT —
  // and the node's bind fails with EADDRINUSE.
  std::uint16_t port_base = cfg.port_base;
  if (port_base == 0)
    port_base = static_cast<std::uint16_t>(
        20000 + (static_cast<std::uint32_t>(::getpid()) * 131u) % 12000u);

  // Argv strings are built before fork: the child may only run
  // async-signal-safe code between fork and exec.
  const std::string nodes_s = std::to_string(cfg.nodes);
  const std::string port_s = std::to_string(port_base);
  const std::string timeout_s = std::to_string(cfg.timeout_ms);

  struct Child {
    pid_t pid = -1;
    int fd = -1;  ///< read end of the stdout pipe; -1 once closed
  };
  std::vector<Child> kids(cfg.nodes);

  for (std::size_t i = 0; i < cfg.nodes; ++i) {
    out.nodes[i].node_id = static_cast<std::uint32_t>(i);
    int pfd[2];
    BA_REQUIRE(::pipe(pfd) == 0, "launch_local: pipe failed");
    const std::string id_s = std::to_string(i);
    std::vector<const char*> argvv = {
        cfg.node_bin.c_str(), "--id",       id_s.c_str(),
        "--nodes",            nodes_s.c_str(), "--port-base",
        port_s.c_str(),       "--job",      out.job_line.c_str(),
        "--timeout-ms",       timeout_s.c_str()};
    if (cfg.timing) argvv.push_back("--timing");
    argvv.push_back(nullptr);
    const pid_t pid = ::fork();
    BA_REQUIRE(pid >= 0, "launch_local: fork failed");
    if (pid == 0) {
      ::dup2(pfd[1], STDOUT_FILENO);
      ::close(pfd[0]);
      ::close(pfd[1]);
      ::execv(cfg.node_bin.c_str(), const_cast<char* const*>(argvv.data()));
      std::_Exit(127);
    }
    ::close(pfd[1]);
    const int fl = ::fcntl(pfd[0], F_GETFL, 0);
    ::fcntl(pfd[0], F_SETFL, fl | O_NONBLOCK);
    kids[i] = Child{pid, pfd[0]};
  }

  // Read every pipe to EOF under one fleet-wide deadline. Children write
  // well under a pipe buffer of output, so EOF tracks child exit.
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(cfg.timeout_ms);
  std::size_t open_fds = cfg.nodes;
  while (open_fds > 0) {
    const int left = ms_until(deadline);
    if (left <= 0) break;
    std::vector<pollfd> fds;
    std::vector<std::size_t> idx;
    for (std::size_t i = 0; i < cfg.nodes; ++i)
      if (kids[i].fd >= 0) {
        fds.push_back(pollfd{kids[i].fd, POLLIN, 0});
        idx.push_back(i);
      }
    const int rc = ::poll(fds.data(), fds.size(),
                          left < 200 ? left : 200);
    if (rc < 0) {
      if (errno == EINTR) continue;
      BA_REQUIRE(false, "launch_local: poll failed");
    }
    for (std::size_t j = 0; j < fds.size(); ++j) {
      if (fds[j].revents == 0) continue;
      const std::size_t i = idx[j];
      char buf[4096];
      for (;;) {
        const ssize_t got = ::read(kids[i].fd, buf, sizeof buf);
        if (got > 0) {
          out.nodes[i].output.append(buf, static_cast<std::size_t>(got));
        } else if (got == 0) {
          ::close(kids[i].fd);
          kids[i].fd = -1;
          --open_fds;
          break;
        } else {
          if (errno == EINTR) continue;
          break;  // EAGAIN: drained for now
        }
      }
    }
  }

  // Deadline hit with pipes still open: kill the stragglers. Their
  // partial output is kept for diagnostics.
  for (std::size_t i = 0; i < cfg.nodes; ++i)
    if (kids[i].fd >= 0) {
      out.nodes[i].timed_out = true;
      ::kill(kids[i].pid, SIGKILL);
      ::close(kids[i].fd);
      kids[i].fd = -1;
    }

  // Reap. After EOF (or SIGKILL) children exit promptly; the WNOHANG loop
  // with its own short deadline keeps a pathological child from hanging
  // the merge — it gets SIGKILLed and reaped for real.
  for (std::size_t i = 0; i < cfg.nodes; ++i) {
    const auto reap_deadline = Clock::now() + std::chrono::seconds(10);
    bool killed = false;
    int status = 0;
    for (;;) {
      const pid_t r = ::waitpid(kids[i].pid, &status, WNOHANG);
      if (r == kids[i].pid) {
        out.nodes[i].exit_code =
            WIFEXITED(status) ? WEXITSTATUS(status) : -1;
        break;
      }
      if (r < 0) break;  // already reaped / lost: exit_code stays -1
      if (Clock::now() >= reap_deadline && !killed) {
        ::kill(kids[i].pid, SIGKILL);
        out.nodes[i].timed_out = true;
        killed = true;
      }
      ::usleep(20000);
    }
    parse_node_output(out.nodes[i]);
  }

  // The differential oracle: the same (spec, seed) through the in-process
  // loopback backend. Transport extras are excluded from the fingerprint,
  // so backend choice cannot move any compared field.
  sim::ScenarioSpec loop_spec = cfg.spec;
  loop_spec.transport = sim::TransportKind::kLoopback;
  LoopbackTransport loopback;
  TranscriptCapture capture;
  {
    ScopedRunEnv env(RunEnv{&loopback, &capture});
    out.oracle = sim::run_scenario(loop_spec, cfg.seed_offset);
  }
  out.oracle_transcript = capture.combined();

  for (const NodeOutcome& node : out.nodes)
    compare_node(node, out.oracle, out.oracle_transcript, out.errors);
  if (!out.errors.empty())
    out.errors.push_back("replay: " + out.job_line);
  return out;
}

}  // namespace ba::transport
