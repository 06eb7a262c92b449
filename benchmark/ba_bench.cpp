// ba_bench — runs the end-to-end and per-layer benchmark
// (benchmark/README.md). One invocation runs one workload in one fresh
// process and prints one JSON line, which benchmark/run.py aggregates.
//
//   ba_bench --workload everywhere_n128 --mode timed --seed 1 --seconds 4
//            --min 2 --proc 0 --procs 3
//   ba_bench --workload tcp_fleet4 --mode traced --seed 1 --seconds 12
//            --min 3 --trace-out .bench_out/trace_tcp_fleet4.json
//
// Every layer is measured from outside, through public entry points only:
// sim::run_scenario for in-process instances, transport::launch_local for
// the TCP fleet, and a probe Transport installed with ScopedRunEnv whose
// on_send counts envelopes and whose sync_round stamps each round barrier.
// The probe never touches staging, so a traced run must reproduce the
// untraced fingerprint; ba_bench checks that for every traced seed.
//
// timed mode: one cold instance, whose end measured from process start is
// the set-up sample, then a closed loop with one instance in flight over
// seed offsets 1000*S + i for i = proc, proc + procs, ... until --seconds
// have passed and at least --min instances ran.
// traced mode: one cold instance, then an untraced and a traced run of
// each seed i = 0, 1, ... until --seconds have passed and at least --min
// seeds ran. The per-layer numbers are medians over the traced runs; spans
// go to --trace-out in Chrome trace-event format.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/pool.h"
#include "sim/protocol.h"
#include "sim/report.h"
#include "sim/scenario.h"
#include "transport/launch.h"
#include "transport/transport.h"

namespace {

using ba::sim::json_double;
using ba::sim::ProtocolKind;
using ba::sim::RunReport;
using ba::sim::ScenarioSpec;
using Clock = std::chrono::steady_clock;

struct Workload {
  const char* name;
  const char* scenario;  ///< registry spec the workload resizes
  std::size_t n;
  std::size_t workers;   ///< pool width of every in-process run
  std::size_t nodes;     ///< 0 = in-process; otherwise ba_node processes
  bool scaling;          ///< traced pass adds the 1/2/4-worker step
};

// Why each workload exists, and why pools are pinned: benchmark/README.md.
constexpr Workload kWorkloads[] = {
    {"everywhere_n128", "quickstart", 128, 2, 0, true},
    {"aeba_n4096", "e3_aeba", 4096, 2, 0, false},
    {"a2e_flood_n2048", "e4_flooding", 2048, 2, 0, false},
    {"tcp_fleet4", "quickstart", 64, 1, 4, false},
};

constexpr std::uint64_t kWarmupOffset = 999;  ///< timed seeds stay below
constexpr int kLaunchTimeoutMs = 60000;
constexpr std::size_t kScalingWorkers[] = {1, 2, 4};

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

Clock::time_point shifted(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

/// The highest percentile with ten samples beyond it, p(1 - 10/N), whose
/// nearest rank is N - 10. Below 20 samples that falls under the median,
/// so the maximum stands in.
double tail(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v.size() < 20 ? v.back() : v[v.size() - 11];
}

double extra(const RunReport& r, const char* key) {
  for (const auto& [k, v] : r.extras)
    if (k == key) return v;
  return 0.0;
}

/// Share of good processors that end on the decided value. For
/// EverywhereBA that is after A2E (the report's agreement_fraction is the
/// tournament's); for the other kinds it is the report's own fraction.
double final_agreement(const RunReport& r) {
  if (r.protocol != ProtocolKind::kEverywhere) return r.agreement_fraction;
  const double good = static_cast<double>(r.n - r.corrupt_count);
  return good > 0 ? extra(r, "a2e_agree_count") / good : 0.0;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void complain(std::uint64_t off, const std::string& what) {
  std::fprintf(stderr, "ba_bench: seed_offset=%llu: %s\n",
               static_cast<unsigned long long>(off), what.c_str());
}

/// The invariants every instance must satisfy.
bool check_report(const RunReport& r, const ScenarioSpec& spec,
                  std::uint64_t off) {
  bool ok = true;
  auto fail = [&](const char* what) {
    complain(off, what);
    ok = false;
  };
  if (r.rounds == 0) fail("ran no rounds");
  if (r.max_bits_good == 0 || r.max_bits_good > r.total_bits_good)
    fail("max_bits_good is not in (0, total_bits_good]");
  if (r.corrupt_count > spec.n / spec.budget_div)
    fail("corruption budget exceeded");
  const double agree = final_agreement(r);
  if (!(agree >= 0.0 && agree <= 1.0))
    fail("agreement fraction outside [0, 1]");
  if (r.validity == 0) fail("validity violated");
  return ok;
}

/// Two runs of one seed (traced and untraced, or two worker counts) must
/// be the same run.
bool same_run(const RunReport& a, const RunReport& b, std::uint64_t off) {
  if (a.fingerprint == b.fingerprint && a.rounds == b.rounds &&
      a.max_bits_good == b.max_bits_good &&
      a.total_bits_good == b.total_bits_good &&
      a.total_msgs_good == b.total_msgs_good)
    return true;
  complain(off, "runs of one seed differ (fingerprint " +
                    hex64(a.fingerprint) + " vs " + hex64(b.fingerprint) +
                    ")");
  return false;
}

/// Benchmark-side Transport: counts envelopes per sender and stamps every
/// round barrier. It leaves staging untouched, so the run is unchanged.
class RoundProbe final : public ba::Transport {
 public:
  struct Round {
    Clock::time_point at;         ///< this round's barrier
    std::uint64_t envelopes = 0;  ///< envelopes staged during the round
  };

  const char* backend_name() const override { return "bench_probe"; }
  void on_attach(std::size_t n) override { sent_by_.assign(n, 0); }
  void on_send(const ba::Envelope& e) override {
    ++sent_by_[e.from];
    ++pending_;
  }
  void sync_round(std::uint64_t,
                  std::vector<std::vector<ba::Envelope>>&) override {
    rounds_.push_back(Round{Clock::now(), pending_});
    pending_ = 0;
  }
  const ba::TransportStats& stats() const override { return stats_; }

  const std::vector<Round>& rounds() const { return rounds_; }

  /// Envelopes sent by processors that are good at run end: the
  /// population the ledger's good-processor totals count.
  std::uint64_t good_envelopes(const std::vector<bool>& corrupt) const {
    std::uint64_t sum = 0;
    for (std::size_t p = 0; p < sent_by_.size(); ++p)
      if (!corrupt[p]) sum += sent_by_[p];
    return sum;
  }

 private:
  std::vector<std::uint64_t> sent_by_;
  std::vector<Round> rounds_;
  std::uint64_t pending_ = 0;
  ba::TransportStats stats_;
};

/// One instance: an in-process run, or a fleet launch with its oracle.
struct Outcome {
  Clock::time_point start, end;
  double s = 0.0;
  RunReport report;     ///< the in-process run, or the fleet's oracle
  double rss_mb = 0.0;  ///< fleet only: the largest node VmHWM
  bool ok = false;
  ba::transport::LaunchOutcome launch;  ///< fleet only
};

Outcome run_instance(const Workload& w, const ScenarioSpec& spec,
                     std::uint64_t off) {
  Outcome o;
  o.start = Clock::now();
  try {
    if (w.nodes == 0) {
      o.report = ba::sim::run_scenario(spec, off);
    } else {
      ba::transport::LaunchConfig cfg;
      cfg.node_bin = BA_NODE_BIN;
      cfg.nodes = w.nodes;
      cfg.spec = spec;
      cfg.seed_offset = off;
      cfg.timeout_ms = kLaunchTimeoutMs;
      cfg.timing = true;
      o.launch = ba::transport::launch_local(cfg);
      o.report = o.launch.oracle;
    }
    o.end = Clock::now();
    o.s = seconds_between(o.start, o.end);
    for (const auto& node : o.launch.nodes)
      o.rss_mb = std::max(
          o.rss_mb, static_cast<double>(node.report.peak_rss_kb) / 1024.0);
    for (const std::string& err : o.launch.errors) complain(off, err);
    o.ok = o.launch.parity() && check_report(o.report, spec, off);
  } catch (const std::exception& e) {
    o.end = Clock::now();
    complain(off, std::string("threw: ") + e.what());
  }
  return o;
}

/// A run with the probe attached.
struct Traced {
  std::uint64_t off = 0;
  Clock::time_point start, end;
  std::vector<RoundProbe::Round> rounds;
  std::uint64_t good_envelopes = 0;
  RunReport report;
};

Traced run_traced(const ScenarioSpec& spec, std::uint64_t off) {
  RoundProbe probe;
  Traced t;
  t.off = off;
  {
    ba::ScopedRunEnv env(ba::RunEnv{&probe, nullptr});
    t.start = Clock::now();
    t.report = ba::sim::run_scenario(spec, off);
    t.end = Clock::now();
  }
  t.rounds = probe.rounds();
  t.good_envelopes = probe.good_envelopes(t.report.detail->corrupt_mask);
  return t;
}

// ------------------------------------------------------------- spans --

struct Span {
  std::string name;
  Clock::time_point begin, end;
  int tid = 1;
  std::uint64_t instance = 0;  ///< seed offset, shared by one run's spans
};

void write_trace(const std::string& path, const std::vector<Span>& spans,
                 Clock::time_point origin) {
  std::ofstream out(path);
  auto us = [origin](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t k = 0; k < spans.size(); ++k) {
    const Span& s = spans[k];
    out << (k ? ",\n" : "\n") << "{\"name\":\"" << s.name
        << "\",\"cat\":\"ba_bench\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
        << ",\"ts\":" << json_double(us(s.begin))
        << ",\"dur\":" << json_double(us(s.end) - us(s.begin))
        << ",\"args\":{\"instance\":" << s.instance << "}}";
  }
  out << "\n]}\n";
  if (!out) std::fprintf(stderr, "ba_bench: cannot write %s\n", path.c_str());
}

// ------------------------------------------------------------ layers --

/// Per-run samples of each per-layer metric; the traced pass reports
/// their medians.
using Samples = std::map<std::string, std::vector<double>>;

/// Phase split of one traced run: EverywhereBA's tournament ends at the
/// barrier of round ae.rounds - 1, and everything after it is A2E.
struct Phases {
  Clock::time_point cut;
  double ae_s = 0.0, a2e_s = 0.0;
  std::uint64_t ae_rounds = 0, a2e_rounds = 0, loops = 0, undecided = 0;
};

Phases split_phases(const Traced& t) {
  Phases ph;
  ph.cut = t.start;
  const ba::sim::RunDetail& d = *t.report.detail;
  const ba::A2EResult* a2e = nullptr;
  if (d.everywhere) {
    a2e = &d.everywhere->a2e;
    ph.ae_rounds = d.everywhere->ae.rounds;
    if (ph.ae_rounds > 0 && ph.ae_rounds <= t.rounds.size())
      ph.cut = t.rounds[ph.ae_rounds - 1].at;
    ph.ae_s = seconds_between(t.start, ph.cut);
  } else if (d.a2e) {
    a2e = &*d.a2e;
  }
  if (a2e == nullptr) return ph;
  ph.a2e_s = seconds_between(ph.cut, t.end);
  ph.a2e_rounds = t.report.rounds - ph.ae_rounds;
  ph.loops = a2e->loops.size();
  for (std::size_t p = 0; p < a2e->decided.size(); ++p)
    if (!d.corrupt_mask[p] && !a2e->decided[p]) ++ph.undecided;
  return ph;
}

/// Core, AEBA, net and ledger samples of one traced run, plus its spans:
/// instance, then phase, then round intervals.
void add_traced(const Traced& t, Samples& s, std::vector<double>& round_s,
                std::vector<Span>& spans) {
  const Phases ph = split_phases(t);
  const RunReport& r = t.report;
  const bool aeba = r.protocol == ProtocolKind::kAeba;
  s["core.almost_everywhere.s"].push_back(ph.ae_s);
  s["core.almost_everywhere.rounds"].push_back(ph.ae_rounds);
  s["core.a2e.s"].push_back(ph.a2e_s);
  s["core.a2e.rounds"].push_back(ph.a2e_rounds);
  s["core.a2e.loops"].push_back(ph.loops);
  s["core.a2e.undecided"].push_back(ph.undecided);
  s["core.share_flow.open_tally_receivers"].push_back(
      extra(r, "open_tally_receivers"));
  s["core.share_flow.open_tally_dispatches"].push_back(
      extra(r, "open_tally_dispatches"));
  s["core.all_good_agree_rate"].push_back(final_agreement(r) >= 1.0 ? 1 : 0);
  s["aeba.rounds"].push_back(aeba ? r.rounds : 0);
  s["aeba.agreement_fraction"].push_back(aeba ? r.agreement_fraction : 0.0);

  auto span = [&](std::string name, Clock::time_point b, Clock::time_point e) {
    spans.push_back(Span{std::move(name), b, e, 1, t.off});
  };
  span("instance", t.start, t.end);
  if (r.protocol == ProtocolKind::kEverywhere)
    span("core.almost_everywhere", t.start, ph.cut);
  if (ph.loops > 0) span("core.a2e", ph.cut, t.end);
  if (aeba) span("aeba", t.start, t.end);

  double envelopes = 0, busiest = 0, empty = 0;
  Clock::time_point prev = t.start;
  for (std::size_t k = 0; k < t.rounds.size(); ++k) {
    const RoundProbe::Round& rd = t.rounds[k];
    envelopes += static_cast<double>(rd.envelopes);
    busiest = std::max(busiest, static_cast<double>(rd.envelopes));
    if (rd.envelopes == 0) ++empty;
    round_s.push_back(seconds_between(prev, rd.at));
    span("round " + std::to_string(k), prev, rd.at);
    prev = rd.at;
  }
  s["net.rounds"].push_back(static_cast<double>(t.rounds.size()));
  s["net.envelopes"].push_back(envelopes);
  s["net.envelopes_per_round_max"].push_back(busiest);
  s["net.empty_rounds"].push_back(empty);
  const double msgs = static_cast<double>(r.total_msgs_good);
  s["ledger.total_msgs_good"].push_back(msgs);
  s["ledger.accounting_only_share"].push_back(
      msgs > 0 ? 1.0 - static_cast<double>(t.good_envelopes) / msgs : 0.0);
}

/// Transport samples of one fleet launch; zeros for in-process runs, which
/// never reach src/transport.
void add_fleet(const Outcome& u, bool fleet, Samples& s,
               std::vector<Span>& spans) {
  double node_max = 0, node_min = 0, node_sum = 0, frames = 0, bytes = 0;
  double oracle_s = 0, overhead = 0, cpu_x = 0, per_bit = 0;
  if (fleet) {
    const std::uint64_t off = u.launch.oracle.seed_offset;
    spans.push_back(Span{"launch", u.start, u.end, 1, off});
    node_min = u.s;
    for (const auto& node : u.launch.nodes) {
      const double ns = node.report.wall_ms / 1000.0;
      node_max = std::max(node_max, ns);
      node_min = std::min(node_min, ns);
      node_sum += ns;
      frames += extra(node.report, "transport_frames_sent");
      bytes += extra(node.report, "transport_bytes_sent");
      // ba_node reports only its run's wall time; the span starts at the
      // launch because that is when the node process was forked.
      spans.push_back(Span{"node_" + std::to_string(node.node_id), u.start,
                           shifted(u.start, ns),
                           2 + static_cast<int>(node.node_id), off});
    }
    oracle_s = u.launch.oracle.wall_ms / 1000.0;
    // launch_local runs the oracle after the nodes have exited.
    spans.push_back(Span{"oracle", shifted(u.end, -oracle_s), u.end, 1, off});
    overhead = u.s - node_max - oracle_s;
    cpu_x = oracle_s > 0 ? node_sum / oracle_s : 0.0;
    const double bits = static_cast<double>(u.launch.oracle.total_bits_good);
    per_bit = bits > 0 ? bytes / bits : 0.0;
  }
  s["transport.node_s_max"].push_back(node_max);
  s["transport.node_s_min"].push_back(node_min);
  s["transport.oracle_s"].push_back(oracle_s);
  s["transport.launch_overhead_s"].push_back(overhead);
  s["transport.fleet_cpu_x"].push_back(cpu_x);
  s["transport.frames_sent"].push_back(frames);
  s["transport.bytes_sent"].push_back(bytes);
  s["transport.bytes_per_good_bit"].push_back(per_bit);
}

// ------------------------------------------------------------- modes --

struct Args {
  std::string workload, mode, trace_out;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::uint64_t min = 1;  ///< instances (timed) or seed pairs (traced)
  std::uint64_t proc = 0, procs = 1;
};

int run_timed(const Workload& w, const ScenarioSpec& spec, const Args& a,
              Clock::time_point process_start) {
  const std::uint64_t base = 1000 * a.seed;
  const Outcome warm = run_instance(w, spec, base + kWarmupOffset);
  const double setup_s = seconds_between(process_start, Clock::now());
  std::size_t attempted = 1, failed = warm.ok ? 0 : 1;
  std::vector<double> fleet_rss{warm.rss_mb};
  std::ostringstream inst;
  const auto t0 = Clock::now();
  for (std::uint64_t i = a.proc, k = 0;
       k < a.min || seconds_between(t0, Clock::now()) < a.seconds;
       i += a.procs, ++k) {
    const Outcome o = run_instance(w, spec, base + i);
    ++attempted;
    if (!o.ok) ++failed;
    fleet_rss.push_back(o.rss_mb);
    inst << (k ? "," : "") << "{\"i\":" << i << ",\"s\":" << json_double(o.s)
         << ",\"max_bits\":" << o.report.max_bits_good
         << ",\"total_bits\":" << o.report.total_bits_good
         << ",\"rounds\":" << o.report.rounds
         << ",\"agree\":" << json_double(final_agreement(o.report)) << "}";
  }
  const double rss_mb =
      w.nodes ? median(fleet_rss)
              : static_cast<double>(ba::sim::current_peak_rss_kb()) / 1024.0;
  std::cout << "{\"mode\":\"timed\",\"workload\":\"" << w.name
            << "\",\"setup_s\":" << json_double(setup_s) << ",\"warm_fp\":\""
            << hex64(warm.report.fingerprint)
            << "\",\"peak_rss_mb\":" << json_double(rss_mb)
            << ",\"attempted\":" << attempted << ",\"failed\":" << failed
            << ",\"instances\":[" << inst.str() << "]}" << std::endl;
  return 0;
}

int run_traced_pass(const Workload& w, const ScenarioSpec& spec,
                    const Args& a, Clock::time_point origin) {
  const std::uint64_t base = 1000 * a.seed;
  const Outcome warm = run_instance(w, spec, base + kWarmupOffset);
  std::size_t attempted = 1, failed = warm.ok ? 0 : 1;
  Samples samples;
  std::vector<double> round_s, traced_s, untraced_s;
  std::vector<Span> spans;
  RunReport first;  ///< seed 0's report: the worker-scaling reference

  const auto t0 = Clock::now();
  for (std::uint64_t i = 0;
       i < a.min || seconds_between(t0, Clock::now()) < a.seconds; ++i) {
    const std::uint64_t off = base + i;
    const Outcome u = run_instance(w, spec, off);
    attempted += 2;
    if (!u.ok) ++failed;
    try {
      // For the fleet the traced run is the in-process replay of the
      // launched job, checked against the launch's oracle.
      const Traced t = run_traced(spec, off);
      if (!same_run(u.report, t.report, off)) ++failed;
      add_traced(t, samples, round_s, spans);
      add_fleet(u, w.nodes > 0, samples, spans);
      traced_s.push_back(seconds_between(t.start, t.end));
      untraced_s.push_back(w.nodes ? u.report.wall_ms / 1000.0 : u.s);
      if (i == 0) first = t.report;
    } catch (const std::exception& e) {
      ++failed;
      complain(off, std::string("traced run threw: ") + e.what());
    }
  }

  std::map<std::string, double> out;
  for (const auto& [name, v] : samples) out[name] = median(v);
  const std::vector<double>& agreed = samples["core.all_good_agree_rate"];
  out["core.all_good_agree_rate"] =
      agreed.empty() ? 0.0
                     : std::accumulate(agreed.begin(), agreed.end(), 0.0) /
                           static_cast<double>(agreed.size());
  out["net.round_s_p50"] = median(round_s);
  out["net.round_s_tail"] = tail(round_s);
  out["net.round_samples"] = static_cast<double>(round_s.size());
  out["pool.workers"] = static_cast<double>(w.workers);
  out["trace.instances"] = static_cast<double>(traced_s.size());
  const double untraced = median(untraced_s);
  out["trace.overhead"] =
      untraced > 0 ? median(traced_s) / untraced - 1.0 : 0.0;

  // Worker scaling: seed 0 again at 1, 2 and 4 workers. Advisory numbers;
  // the fingerprints must not move.
  double wall[3] = {0, 0, 0};
  for (std::size_t k = 0; w.scaling && k < 3; ++k) {
    const std::size_t workers = kScalingWorkers[k];
    const auto s0 = Clock::now();
    const RunReport r =
        ba::sim::run_scenario(spec.with_workers(workers), base);
    const auto s1 = Clock::now();
    ++attempted;
    if (!same_run(first, r, base)) ++failed;
    wall[k] = seconds_between(s0, s1);
    spans.push_back(
        Span{"workers_" + std::to_string(workers), s0, s1, 1, base});
  }
  out["pool.speedup_w2"] = w.scaling ? wall[0] / wall[1] : 0.0;
  out["pool.speedup_w4"] = w.scaling ? wall[0] / wall[2] : 0.0;

  spans.insert(spans.begin(), Span{std::string("workload ") + w.name, origin,
                                   Clock::now(), 1, base});
  if (!a.trace_out.empty()) write_trace(a.trace_out, spans, origin);

  std::cout << "{\"mode\":\"traced\",\"workload\":\"" << w.name
            << "\",\"attempted\":" << attempted << ",\"failed\":" << failed
            << ",\"metrics\":{";
  bool comma = false;
  for (const auto& [name, v] : out) {
    std::cout << (comma ? "," : "") << '"' << name << "\":" << json_double(v);
    comma = true;
  }
  std::cout << "}}" << std::endl;
  return 0;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --mode timed|traced [--seed S]\n"
               "          [--seconds X] [--min N] [--proc K --procs P]"
               " [--trace-out FILE]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = Clock::now();
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const char* v = argv[++i];
    if (arg == "--workload") a.workload = v;
    else if (arg == "--mode") a.mode = v;
    else if (arg == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (arg == "--seconds") a.seconds = std::strtod(v, nullptr);
    else if (arg == "--min") a.min = std::strtoull(v, nullptr, 10);
    else if (arg == "--proc") a.proc = std::strtoull(v, nullptr, 10);
    else if (arg == "--procs") a.procs = std::strtoull(v, nullptr, 10);
    else if (arg == "--trace-out") a.trace_out = v;
    else return usage(argv[0]);
  }
  const Workload* w = nullptr;
  for (const Workload& k : kWorkloads)
    if (a.workload == k.name) w = &k;
  if (w == nullptr || (a.mode != "timed" && a.mode != "traced") ||
      a.procs == 0)
    return usage(argv[0]);

  try {
    // Pin the pool once, so run_scenario's per-run pin is a no-op and the
    // workers start (lazily) inside the cold instance only.
    ba::Pool::set_threads(w->workers);
    const ScenarioSpec spec = ba::sim::ScenarioRegistry::get(w->scenario)
                                  .with_n(w->n)
                                  .with_workers(w->workers);
    return a.mode == "timed" ? run_timed(*w, spec, a, process_start)
                             : run_traced_pass(*w, spec, a, process_start);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ba_bench: %s\n", e.what());
    return 1;
  }
}
