// ba_node — one node of a distributed BA run: a real OS process that owns
// a contiguous block of processor ids and speaks the wire protocol
// (transport/wire.h) with its peers over TCP.
//
//   ba_node --id 0 --nodes 8 --port-base 21000 --scenario quickstart
//   ba_node --id 3 --nodes 8 --port-base 21000
//           --job 'seed_offset=0 name=quickstart ... scheduler_seed=0'
//   ba_node --id 1 --peers 10.0.0.1:9000,10.0.0.2:9000 --scenario quickstart
//
// Every node runs the full seeded protocol replay; what crosses the wire
// is only the envelopes whose sender this node owns and whose receiver it
// does not, and every received frame is verified against the replay's
// prediction before the protocol consumes it (transport/tcp.h — the
// simulator as inline differential oracle). Output: one RunReport JSON
// line, then one `transcript_digest=<hex16> ...` key=value line that
// ba_launch diffs against the in-process oracle.
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "common/parse.h"
#include "sim/protocol.h"
#include "sim/sweep.h"
#include "transport/launch.h"
#include "transport/tcp.h"
#include "transport/transport.h"

namespace {

constexpr std::uint64_t kMaxPort = 65535;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --id K (--nodes N --port-base P | --peers host:port,...)\n"
      "          (--scenario NAME [--set key=value ...] [--seed-offset S]\n"
      "           | --job 'seed_offset=K key=value ...')\n"
      "          [--timeout-ms T] [--timing] [--dump-proc P]\n",
      argv0);
  return 2;
}

/// "host:port" or bare "port" (localhost) -> PeerAddr.
ba::transport::PeerAddr parse_peer(const std::string& s) {
  ba::transport::PeerAddr addr;
  const std::size_t colon = s.rfind(':');
  const std::string port_s =
      colon == std::string::npos ? s : s.substr(colon + 1);
  if (colon != std::string::npos && colon > 0) addr.host = s.substr(0, colon);
  addr.port = static_cast<std::uint16_t>(
      ba::parse_unsigned(port_s, "--peers port", kMaxPort));
  return addr;
}

}  // namespace

int main(int argc, char** argv) {
  long id = -1, nodes = 0, port_base = 0, dump_proc = -1;
  long timeout_ms = 120000;
  std::uint64_t seed_offset = 0;
  bool timing = false;
  std::string scenario, job_line, peers_arg;
  std::vector<std::string> overrides;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    auto number = [&](std::uint64_t max) -> std::uint64_t {
      const char* v = next();
      try {
        return ba::parse_unsigned(v, arg, max);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        std::exit(usage(argv[0]));
      }
    };
    if (arg == "--id") id = static_cast<long>(number(kMaxPort));
    else if (arg == "--nodes") nodes = static_cast<long>(number(kMaxPort));
    else if (arg == "--port-base")
      port_base = static_cast<long>(number(kMaxPort));
    else if (arg == "--peers") peers_arg = next();
    else if (arg == "--scenario") scenario = next();
    else if (arg == "--set") overrides.emplace_back(next());
    else if (arg == "--seed-offset") seed_offset = number(UINT64_MAX);
    else if (arg == "--job") job_line = next();
    else if (arg == "--timeout-ms")
      timeout_ms = static_cast<long>(number(INT_MAX));
    else if (arg == "--timing") timing = true;
    else if (arg == "--dump-proc")
      dump_proc = static_cast<long>(number(UINT32_MAX));
    else return usage(argv[0]);
  }
  if (id < 0) return usage(argv[0]);
  if (job_line.empty() == scenario.empty()) return usage(argv[0]);

  std::vector<ba::transport::PeerAddr> peers;
  if (!peers_arg.empty()) {
    std::size_t start = 0;
    while (start <= peers_arg.size()) {
      std::size_t comma = peers_arg.find(',', start);
      if (comma == std::string::npos) comma = peers_arg.size();
      try {
        peers.push_back(parse_peer(peers_arg.substr(start, comma - start)));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return usage(argv[0]);
      }
      start = comma + 1;
    }
  } else {
    // Every peer port port_base + k must be a port.
    if (nodes < 2 || port_base <= 0 ||
        static_cast<std::uint64_t>(port_base + nodes - 1) > kMaxPort)
      return usage(argv[0]);
    for (long k = 0; k < nodes; ++k)
      peers.push_back(ba::transport::PeerAddr{
          "127.0.0.1", static_cast<std::uint16_t>(port_base + k)});
  }

  // The job to run: a job line, or a registered scenario with --set
  // overrides. A bad one is a usage error.
  ba::sim::ScenarioSpec spec;
  try {
    if (!job_line.empty()) {
      const ba::sim::SweepJob job = ba::sim::parse_job_line(job_line);
      spec = job.spec;
      seed_offset = job.seed_offset;
    } else {
      spec = ba::sim::resolve_scenario(scenario, overrides);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return usage(argv[0]);
  }

  try {
    ba::transport::TcpEndpointConfig tcfg;
    tcfg.node_id = static_cast<std::uint32_t>(id);
    tcfg.peers = peers;
    tcfg.n = spec.n;
    tcfg.config_digest = ba::transport::job_config_digest(spec, seed_offset);
    tcfg.timeout_ms = static_cast<int>(timeout_ms);
    ba::transport::TcpEndpoint endpoint(tcfg);
    endpoint.connect_all();

    ba::TranscriptCapture capture;
    if (dump_proc >= 0) {
      capture.dump = &std::cerr;
      capture.dump_proc = static_cast<ba::ProcId>(dump_proc);
    }
    ba::sim::RunReport report;
    {
      ba::ScopedRunEnv env(ba::RunEnv{&endpoint, &capture});
      report = ba::sim::run_scenario(spec, seed_offset);
    }

    ba::transport::ByeFrame bye;
    bye.decided = static_cast<std::uint32_t>(report.decided_bit);
    bye.fingerprint = report.fingerprint;
    bye.transcript_digest = capture.combined();
    endpoint.finish(bye);

    std::uint64_t delivered = 0;
    for (std::uint64_t c : capture.envelopes) delivered += c;
    const ba::TransportStats& st = endpoint.stats();

    report.write_json(std::cout, timing);
    std::cout << '\n';
    char line[256];
    std::snprintf(line, sizeof line,
                  "transcript_digest=%016llx node=%u owned=%u..%u "
                  "delivered=%llu frames_sent=%llu frames_recv=%llu "
                  "rounds=%llu",
                  static_cast<unsigned long long>(bye.transcript_digest),
                  tcfg.node_id,
                  static_cast<unsigned>(endpoint.owned_begin()),
                  static_cast<unsigned>(endpoint.owned_end()),
                  static_cast<unsigned long long>(delivered),
                  static_cast<unsigned long long>(st.frames_sent),
                  static_cast<unsigned long long>(st.frames_recv),
                  static_cast<unsigned long long>(capture.rounds));
    std::cout << line << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ba_node[%ld]: %s\n", id, e.what());
    return 1;
  }
}
