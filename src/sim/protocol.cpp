#include "sim/protocol.h"

#include <chrono>
#include <cmath>
#include <numeric>
#include <unordered_map>

#include "adversary/strategies.h"
#include "aeba/aeba_with_coins.h"
#include "baseline/benor_ba.h"
#include "baseline/processor_election.h"
#include "baseline/rabin_ba.h"
#include "common/pool.h"
#include "core/a2e.h"
#include "core/almost_everywhere.h"
#include "core/everywhere.h"
#include "core/global_coin.h"
#include "core/universe_reduction.h"
#include "graph/regular_graph.h"
#include "net/scheduler.h"
#include "transport/transport.h"

namespace ba::sim {

std::unique_ptr<Adversary> make_adversary(const ScenarioSpec& s,
                                          std::uint64_t off) {
  switch (s.adversary) {
    case AdversaryKind::kPassive:
      return std::make_unique<PassiveStaticAdversary>(std::vector<ProcId>{});
    case AdversaryKind::kStaticMalicious:
      return std::make_unique<StaticMaliciousAdversary>(s.corrupt_fraction,
                                                        s.adversary_seed + off);
    case AdversaryKind::kCrash:
      return std::make_unique<CrashAdversary>(s.corrupt_fraction,
                                              s.adversary_seed + off);
    case AdversaryKind::kAdaptiveTakeover:
      return std::make_unique<AdaptiveWinnerTakeover>(
          s.adversary_seed + off, s.takeover_share_holders);
    case AdversaryKind::kA2EFlooding:
      return std::make_unique<FloodingA2EAdversary>(
          s.corrupt_fraction, s.adversary_seed + off, s.flood_per_pair);
  }
  BA_REQUIRE(false, "unknown adversary kind");
  return nullptr;
}

std::vector<std::uint8_t> make_bit_inputs(const ScenarioSpec& s,
                                          std::uint64_t off) {
  std::vector<std::uint8_t> in(s.n);
  switch (s.inputs) {
    case InputPattern::kAlternating:
      for (std::size_t p = 0; p < s.n; ++p) in[p] = p % 2;
      break;
    case InputPattern::kUnanimous:
      for (auto& b : in) b = s.input_value;
      break;
    case InputPattern::kRandom: {
      Rng rng(s.input_seed + off);
      for (auto& b : in) b = rng.flip() ? 1 : 0;
      break;
    }
    case InputPattern::kBernoulli: {
      Rng rng(s.input_seed + off);
      for (auto& b : in) b = rng.bernoulli(s.input_fraction) ? 1 : 0;
      break;
    }
    case InputPattern::kSampledOnes: {
      Rng pick(s.input_seed + off);
      const auto count = static_cast<std::size_t>(
          s.input_fraction * static_cast<double>(s.n));
      for (auto p : pick.sample_without_replacement(s.n, count)) in[p] = 1;
      break;
    }
  }
  return in;
}

ProtocolParams tournament_params(const ScenarioSpec& s) {
  ProtocolParams p = ProtocolParams::laptop_scale(s.n);
  if (s.coin_words) p.coin_words = s.coin_words;
  if (s.q) p.tree.q = s.q;
  if (s.w) p.w = s.w;
  if (s.k1) p.tree.k1 = s.k1;
  if (s.d_up) p.tree.d_up = s.d_up;
  if (s.g_intra) p.g_intra = s.g_intra;
  if (s.lock_rule_off) {
    p.aeba.lock_threshold = 2.0;
    p.aeba.first_round_lock_threshold = 2.0;
  }
  return p;
}

void mix_run_ledger(RunDigest& d, const Network& net) {
  const BitLedger& ledger = net.ledger();
  for (ProcId p = 0; p < net.size(); ++p) {
    d.mix(ledger.bits_sent(p));
    d.mix(ledger.msgs_sent(p));
    d.mix(ledger.bits_received(p));
  }
  d.mix(net.round());
  d.mix(net.corrupt_count());
}

namespace {

/// Install the spec's delay scheduler on a freshly built network, before
/// any traffic is staged; the seed shifts with the trial offset like
/// every other randomness stream. Lockstep specs never allocate scheduler
/// state.
void apply_scheduler(Network& net, const ScenarioSpec& s, std::uint64_t off) {
  if (s.scheduler == SchedulerKind::kLockstep) return;
  SchedulerConfig cfg;
  cfg.mode = s.scheduler == SchedulerKind::kBoundedDelay
                 ? SchedulerMode::kBoundedDelay
                 : SchedulerMode::kReorderRush;
  cfg.delta_max = s.delta_max;
  cfg.seed = s.scheduler_seed + off;
  net.set_scheduler(cfg);
}

/// Full network configuration for one run: the spec's delay scheduler
/// plus whatever the ambient RunEnv injects (transport/transport.h) — a
/// transport backend and/or a transcript capture. The environment alone
/// picks the backend: ba_node installs its socket endpoint, ba_launch's
/// in-process oracle a LoopbackTransport, and a bare run has neither.
void configure_network(Network& net, const ScenarioSpec& s,
                       std::uint64_t off) {
  apply_scheduler(net, s, off);
  const RunEnv* env = current_run_env();
  if (env == nullptr) return;
  if (env->transport != nullptr) net.set_transport(env->transport);
  if (env->transcript != nullptr) net.set_transcript(env->transcript);
}

/// Ben-Or's per-phase grace window: wait out the scheduler's worst-case
/// delay so every vote still lands in its phase's tally (see
/// baseline/benor_ba.h). Lockstep runs keep the historical grace of 0.
std::size_t benor_grace(const ScenarioSpec& s) {
  return s.scheduler == SchedulerKind::kLockstep ? 0 : s.delta_max;
}

/// The ledger summary every run reports (good-processor cost).
void fill_ledger_totals(RunReport& r, const Network& net) {
  const BitLedger& ledger = net.ledger();
  const auto& mask = net.corrupt_mask();
  r.corrupt_count = net.corrupt_count();
  r.max_bits_good = ledger.max_bits_sent(mask, false);
  r.total_bits_good = ledger.total_bits_sent(mask, false);
  r.total_msgs_good = ledger.total_msgs_sent(mask, false);
  // Delay-scheduler diagnostics — only when a scheduler is installed, so
  // lockstep reports (and their committed golden JSON) are untouched.
  // Extras are never fingerprinted; the delay draws themselves already
  // shape the fingerprint through inbox contents and the ledger.
  if (const DelayScheduler* sched = net.scheduler()) {
    const SchedulerStats& st = sched->stats();
    r.extras.emplace_back("sched_msgs", static_cast<double>(st.scheduled));
    r.extras.emplace_back("sched_delayed", static_cast<double>(st.delayed));
    r.extras.emplace_back("sched_max_delay",
                          static_cast<double>(st.max_delay));
    r.extras.emplace_back("sched_in_flight_end",
                          static_cast<double>(sched->in_flight()));
  }
  // Transport accounting — only when a backend is attached, so reports
  // from plain in-process runs (and their committed golden JSON) are
  // untouched. Never fingerprinted: backend choice must not move the
  // parity digest.
  if (const Transport* t = net.transport()) {
    const TransportStats& ts = t->stats();
    r.extras.emplace_back("transport_frames_sent",
                          static_cast<double>(ts.frames_sent));
    r.extras.emplace_back("transport_frames_recv",
                          static_cast<double>(ts.frames_recv));
    r.extras.emplace_back("transport_bytes_sent",
                          static_cast<double>(ts.bytes_sent));
    r.extras.emplace_back("transport_bytes_recv",
                          static_cast<double>(ts.bytes_recv));
    r.extras.emplace_back("transport_envelopes_local",
                          static_cast<double>(ts.envelopes_local));
    r.extras.emplace_back("transport_rounds_synced",
                          static_cast<double>(ts.rounds_synced));
  }
}

/// One run in progress: what run_scenario built, and what a protocol-kind
/// function fills — its digest head in `d`, its report fields and extras
/// in `r`, its result in its `detail` member.
struct Run {
  const ScenarioSpec& s;
  std::uint64_t off;
  Network& net;
  Adversary& adversary;
  RunDigest d;
  RunReport r;
  RunDetail& detail;
};

/// Share-flow instrumentation of a tournament run: pooled sendOpen tally
/// fan-out, failed and damaged (Gao-decoded) sendDown words (extras only
/// — never fingerprinted, so the parity contract is untouched by the
/// worker count).
void add_share_flow_extras(RunReport& r, const AeResult& ae) {
  r.extras.emplace_back("open_tally_receivers",
                        static_cast<double>(ae.open_tally_receivers));
  r.extras.emplace_back("open_tally_dispatches",
                        static_cast<double>(ae.open_tally_dispatches));
  r.extras.emplace_back("open_fast_leaf_tallies",
                        static_cast<double>(ae.open_fast_leaf_tallies));
  r.extras.emplace_back("open_tally_workers",
                        static_cast<double>(Pool::num_threads()));
  r.extras.emplace_back("share_decode_failures",
                        static_cast<double>(ae.share_decode_failures));
  r.extras.emplace_back("share_damaged_words",
                        static_cast<double>(ae.share_damaged_words));
  r.extras.emplace_back("share_gao_words",
                        static_cast<double>(ae.share_gao_words));
  r.extras.emplace_back("share_plans_built",
                        static_cast<double>(ae.share_plans_built));
  r.extras.emplace_back("share_plan_reuses",
                        static_cast<double>(ae.share_plan_reuses));
}

/// Digest head and report fields of a BaselineResult: Ben-Or, Rabin and
/// the processor election's committee BA.
void report_baseline(Run& run, const BaselineResult& res) {
  run.d.mix(res.decided_bit ? 1 : 0);
  run.d.mix(res.all_good_agree ? 1 : 0);
  run.d.mix(res.validity ? 1 : 0);
  run.d.mix(res.rounds);
  run.d.mix_double(res.agreement_fraction);
  run.r.decided_bit = res.decided_bit ? 1 : 0;
  run.r.validity = res.validity ? 1 : 0;
  run.r.all_good_agree = res.all_good_agree ? 1 : 0;
  run.r.agreement_fraction = res.agreement_fraction;
  run.r.rounds = res.rounds;
}

// ------------------------------------------------- everywhere (Thm 1) --

void run_everywhere(Run& run) {
  const ScenarioSpec& s = run.s;
  EverywhereBA proto(tournament_params(s), A2EParams::laptop_scale(s.n),
                     s.protocol_seed + run.off);
  EverywhereResult res =
      proto.run(run.net, run.adversary, make_bit_inputs(s, run.off));

  RunDigest& d = run.d;
  d.mix(res.decided_bit ? 1 : 0);
  d.mix(res.all_good_agree ? 1 : 0);
  d.mix(res.validity ? 1 : 0);
  d.mix(res.rounds);
  d.mix_double(res.ae.agreement_fraction);
  for (auto bit : res.ae.decision) d.mix(bit);
  for (auto m : res.a2e.message) d.mix(m);

  RunReport& r = run.r;
  r.decided_bit = res.decided_bit ? 1 : 0;
  r.validity = res.validity ? 1 : 0;
  r.all_good_agree = res.all_good_agree ? 1 : 0;
  r.agreement_fraction = res.ae.agreement_fraction;
  r.rounds = res.rounds;
  r.extras.emplace_back("a2e_agree_count",
                        static_cast<double>(res.a2e.agree_count));
  r.extras.emplace_back("a2e_wrong_count",
                        static_cast<double>(res.a2e.wrong_count));
  // Margin diagnostics for the Algorithm 3 polling: how many good
  // processors never met the Lemma 7 threshold, how many loops ran, and
  // how strongly good processors agreed on the sequence words the loops
  // keyed their labels off (the per-loop response mean is proportional
  // to this agreement — when it sags toward the threshold, stragglers
  // appear; see A2EParams::laptop_scale).
  const auto& mask = run.net.corrupt_mask();
  std::size_t undecided = 0;
  for (ProcId p = 0; p < s.n; ++p)
    if (!mask[p] && !res.a2e.decided[p]) ++undecided;
  r.extras.emplace_back("a2e_undecided_count",
                        static_cast<double>(undecided));
  const std::size_t loops = res.a2e.loops.size();
  r.extras.emplace_back("a2e_loops", static_cast<double>(loops));
  if (!res.ae.seq_views.empty() && loops > 0) {
    double min_agree = 1.0, sum_agree = 0.0;
    for (std::size_t l = 0; l < loops; ++l) {
      const auto& views = res.ae.seq_views[l % res.ae.seq_views.size()];
      std::unordered_map<std::uint64_t, std::size_t> count;
      std::size_t good = 0, best = 0;
      for (ProcId p = 0; p < s.n; ++p) {
        if (mask[p]) continue;
        ++good;
        best = std::max(best, ++count[views[p]]);
      }
      const double agree =
          good > 0 ? static_cast<double>(best) / static_cast<double>(good)
                   : 0.0;
      min_agree = std::min(min_agree, agree);
      sum_agree += agree;
    }
    r.extras.emplace_back("seq_view_agree_min", min_agree);
    r.extras.emplace_back("seq_view_agree_mean",
                          sum_agree / static_cast<double>(loops));
  }
  add_share_flow_extras(r, res.ae);
  run.detail.everywhere = std::move(res);
}

// ------------------------------------- almost-everywhere (Thm 2, §3.5) --

void run_almost_everywhere(Run& run) {
  const ScenarioSpec& s = run.s;
  AlmostEverywhereBA proto(tournament_params(s), s.protocol_seed + run.off);
  AeResult res = proto.run(run.net, run.adversary,
                           make_bit_inputs(s, run.off), s.release_sequence);

  RunDigest& d = run.d;
  RunReport& r = run.r;
  if (s.release_sequence) {
    // The randomness-beacon digest: every released word view counts.
    SequenceQuality quality = assess_sequence(res, run.net.corrupt_mask());
    d.mix(quality.length);
    d.mix(quality.good_words);
    d.mix_double(quality.min_good_agreement);
    for (const auto& word_views : res.seq_views)
      for (auto v : word_views) d.mix(v);
    for (auto t : res.seq_truth) d.mix(t);
    r.extras.emplace_back("seq_length", static_cast<double>(quality.length));
    r.extras.emplace_back("seq_good_words",
                          static_cast<double>(quality.good_words));
    r.extras.emplace_back("seq_min_agreement", quality.min_good_agreement);
    r.extras.emplace_back("seq_bit_bias", quality.good_bit_bias);
    run.detail.sequence_quality = quality;
  } else {
    d.mix(res.decided_bit ? 1 : 0);
    d.mix(res.validity ? 1 : 0);
    d.mix(res.rounds);
    d.mix_double(res.agreement_fraction);
    for (auto bit : res.decision) d.mix(bit);
    // Per-level tournament stats (Lemma 6), then the mean election
    // agreement over levels.
    double agree = 0.0;
    for (const AeLevelStats& lvl : res.levels) {
      const std::string p = "level" + std::to_string(lvl.level) + "_";
      r.extras.emplace_back(p + "elections",
                            static_cast<double>(lvl.elections));
      r.extras.emplace_back(p + "winners",
                            static_cast<double>(lvl.winners_total));
      r.extras.emplace_back(p + "good_winners",
                            static_cast<double>(lvl.winners_good));
      r.extras.emplace_back(p + "election_agreement",
                            lvl.mean_bin_agreement);
      agree += lvl.mean_bin_agreement;
    }
    r.extras.emplace_back(
        "election_agreement",
        res.levels.empty() ? 1.0
                           : agree / static_cast<double>(res.levels.size()));
  }

  r.decided_bit = res.decided_bit ? 1 : 0;
  r.validity = res.validity ? 1 : 0;
  r.all_good_agree = res.agreement_fraction >= 1.0 ? 1 : 0;
  r.agreement_fraction = res.agreement_fraction;
  r.rounds = res.rounds;
  add_share_flow_extras(r, res);
  run.detail.ae = std::move(res);
}

// ------------------------------------------- standalone AEBA (Alg. 5) --

void run_standalone_aeba(Run& run) {
  const ScenarioSpec& s = run.s;
  const std::uint64_t off = run.off;
  Rng gr(s.graph_seed + off);
  const std::size_t degree =
      s.aeba_degree != 0
          ? s.aeba_degree
          : 2 * static_cast<std::size_t>(std::log2(static_cast<double>(s.n)));
  auto graph = RegularGraph::random(s.n, degree, gr);
  std::vector<ProcId> members(s.n);
  std::iota(members.begin(), members.end(), ProcId{0});
  AebaMachine machine(1, members, &graph, AebaParams{}, s.aeba_instances);
  run.adversary.on_start(run.net);  // run_aeba leaves corruption to the caller
  if (s.inputs == InputPattern::kUnanimous) {
    for (std::size_t p = 0; p < s.n; ++p)
      for (std::size_t i = 0; i < s.aeba_instances; ++i)
        machine.set_input(p, i, s.input_value != 0);
  } else {
    BA_REQUIRE(s.inputs == InputPattern::kRandom,
               "aeba supports unanimous or random inputs");
    Rng in(s.input_seed + off);
    for (std::size_t p = 0; p < s.n; ++p)
      for (std::size_t i = 0; i < s.aeba_instances; ++i)
        machine.set_input(p, i, in.flip());
  }

  AebaResult res;
  if (s.aeba_shared_coins) {
    SharedRandomCoins coins(Rng(s.coin_seed + off));
    res = run_aeba(run.net, run.adversary, machine, coins, s.aeba_rounds);
  } else {
    std::vector<bool> bad(s.aeba_rounds, false);
    Rng badr(s.bad_round_seed + off);
    for (std::size_t rd = 0; rd < s.aeba_rounds; ++rd)
      bad[rd] = badr.bernoulli(s.bad_coin_fraction);
    UnreliableCoins coins(Rng(s.coin_seed + off), bad);
    coins.attach_votes(&machine.packed_votes(), machine.num_instances());
    res = run_aeba(run.net, run.adversary, machine, coins, s.aeba_rounds);
  }

  RunDigest& d = run.d;
  for (std::size_t i = 0; i < res.decided.size(); ++i) {
    d.mix(res.decided[i] ? 1 : 0);
    d.mix_double(res.agreement[i]);
  }
  d.mix(res.rounds);
  for (auto w : machine.packed_votes()) d.mix(w);

  RunReport& r = run.r;
  r.decided_bit = res.decided.empty() ? -1 : (res.decided[0] ? 1 : 0);
  r.agreement_fraction = res.agreement.empty() ? 0.0 : res.agreement[0];
  r.rounds = res.rounds;
  r.extras.emplace_back("min_informed_fraction", res.min_informed_fraction);
  r.extras.emplace_back("mean_informed_fraction", res.mean_informed_fraction);
  // Unanimous inputs: was the input kept by >= 95% of good processors?
  if (s.inputs == InputPattern::kUnanimous)
    r.extras.emplace_back(
        "input_preserved",
        r.decided_bit == s.input_value && r.agreement_fraction >= 0.95 ? 1.0
                                                                       : 0.0);
  run.detail.aeba_votes = machine.packed_votes();
  run.detail.aeba = std::move(res);
}

// --------------------------------------------- quadratic baselines --

void run_benor(Run& run) {
  const ScenarioSpec& s = run.s;
  BaselineResult res = run_benor_ba(
      run.net, run.adversary, make_bit_inputs(s, run.off),
      s.protocol_seed + run.off, s.max_rounds, benor_grace(s));
  report_baseline(run, res);
  run.detail.baseline = res;
}

void run_rabin(Run& run) {
  const ScenarioSpec& s = run.s;
  SharedRandomCoins coins(Rng(s.coin_seed + run.off));
  BaselineResult res = run_rabin_ba(run.net, run.adversary,
                                    make_bit_inputs(s, run.off), coins,
                                    s.max_rounds);
  report_baseline(run, res);
  run.detail.baseline = res;
}

// ------------------------------------------- standalone A2E (Alg. 3) --

void run_standalone_a2e(Run& run) {
  const ScenarioSpec& s = run.s;
  const std::uint64_t off = run.off;
  run.adversary.on_start(run.net);  // historical wiring corrupts before setup
  std::vector<std::uint64_t> beliefs(s.n, 0);
  switch (s.inputs) {
    case InputPattern::kUnanimous:
      for (auto& b : beliefs) b = s.input_value;
      break;
    case InputPattern::kSampledOnes: {
      Rng pick(s.input_seed + off);
      const auto count = static_cast<std::size_t>(
          s.input_fraction * static_cast<double>(s.n));
      for (auto p : pick.sample_without_replacement(s.n, count))
        beliefs[p] = 1;
      break;
    }
    default:
      BA_REQUIRE(false, "a2e supports unanimous or sampled_ones inputs");
  }

  std::function<std::uint64_t(std::size_t, ProcId)> label_view;
  if (s.label_rule == LabelRule::kSplitmix) {
    const std::uint64_t base = s.label_seed + off;
    label_view = [base](std::size_t loop, ProcId) {
      std::uint64_t st = base + loop * 1000003ULL;
      return splitmix64(st);
    };
  } else {
    label_view = [](std::size_t loop, ProcId) {
      return loop * 2654435761u;
    };
  }

  A2EParams ap = A2EParams::laptop_scale(s.n);
  if (s.a2e_repeats) ap.repeats = s.a2e_repeats;
  AlmostToEverywhere a2e(ap, s.protocol_seed + off);
  A2EResult res =
      a2e.run(run.net, run.adversary, beliefs, s.truth_message, label_view);

  RunDigest& d = run.d;
  for (auto m : res.message) d.mix(m);
  for (bool b : res.decided) d.mix(b ? 1 : 0);
  d.mix(res.agree_count);
  d.mix(res.wrong_count);
  d.mix(res.rounds);

  RunReport& r = run.r;
  r.all_good_agree = res.all_good_agree ? 1 : 0;
  const double good = static_cast<double>(run.net.good_procs().size());
  r.agreement_fraction =
      good > 0 ? static_cast<double>(res.agree_count) / good : 0.0;
  r.rounds = res.rounds;
  r.extras.emplace_back("agree_count", static_cast<double>(res.agree_count));
  r.extras.emplace_back("wrong_count", static_cast<double>(res.wrong_count));
  r.extras.emplace_back(
      "wrong_fraction",
      good > 0 ? static_cast<double>(res.wrong_count) / good : 0.0);
  r.extras.emplace_back(
      "first_loop_success",
      !res.loops.empty() && res.loops.front().loop_success ? 1.0 : 0.0);
  std::size_t overloaded = 0;
  for (const auto& loop : res.loops)
    overloaded = std::max(overloaded, loop.overloaded_knowledgeable);
  r.extras.emplace_back("max_overloaded", static_cast<double>(overloaded));
  run.detail.a2e = std::move(res);
}

// ------------------------------------------- universe reduction (§1) --

void run_universe_reduction(Run& run) {
  const ScenarioSpec& s = run.s;
  UniverseReduction reduction(tournament_params(s), s.committee_size,
                              s.protocol_seed + run.off);
  UniverseResult res = reduction.run(run.net, run.adversary);

  RunDigest& d = run.d;
  for (auto p : res.committee) d.mix(p);
  d.mix_double(res.view_agreement);
  d.mix_double(res.good_fraction_at_sampling);
  d.mix(res.ae.decided_bit ? 1 : 0);
  d.mix(res.ae.rounds);

  RunReport& r = run.r;
  r.decided_bit = res.ae.decided_bit ? 1 : 0;
  r.validity = res.ae.validity ? 1 : 0;
  r.agreement_fraction = res.view_agreement;
  r.rounds = res.ae.rounds;
  r.extras.emplace_back("committee_good_fraction",
                        res.good_fraction_at_sampling);
  r.extras.emplace_back("population_good_fraction",
                        res.population_good_fraction);
  r.extras.emplace_back("ae_agreement_fraction", res.ae.agreement_fraction);
  run.detail.universe = std::move(res);
}

// -------------------------------- processor-election baseline (§1.3) --

void run_processor_election(Run& run) {
  const ScenarioSpec& s = run.s;
  ProtocolParams params = tournament_params(s);
  ProcessorElectionBA proto(params.tree, params.w, s.protocol_seed + run.off);
  ProcessorElectionResult res =
      proto.run(run.net, run.adversary, make_bit_inputs(s, run.off));

  for (auto p : res.committee) run.d.mix(p);
  run.d.mix(res.committee_corrupt);
  report_baseline(run, res.ba);
  RunReport& r = run.r;
  r.extras.emplace_back("committee_size",
                        static_cast<double>(res.committee.size()));
  r.extras.emplace_back("committee_corrupt",
                        static_cast<double>(res.committee_corrupt));
  r.extras.emplace_back(
      "committee_corrupt_fraction",
      res.committee.empty()
          ? 0.0
          : static_cast<double>(res.committee_corrupt) /
                static_cast<double>(res.committee.size()));
  run.detail.election = std::move(res);
}

/// Pins the pool for one run and restores the previous width on every
/// exit path (including protocol exceptions).
struct PoolPin {
  explicit PoolPin(std::size_t workers) : active(workers > 0) {
    if (active) {
      previous = Pool::num_threads();
      Pool::set_threads(workers);
    }
  }
  ~PoolPin() {
    if (active) Pool::set_threads(previous);
  }
  bool active;
  std::size_t previous = 0;
};

}  // namespace

RunReport run_scenario(const ScenarioSpec& spec, std::uint64_t seed_offset) {
  BA_REQUIRE(spec.budget_div > 0, "corruption budget divisor must be > 0");
  PoolPin pin(spec.workers);
  const auto t0 = std::chrono::steady_clock::now();
  Network net(spec.n, spec.n / spec.budget_div);
  configure_network(net, spec, seed_offset);
  const std::unique_ptr<Adversary> adversary =
      make_adversary(spec, seed_offset);
  auto detail = std::make_shared<RunDetail>();
  Run run{spec, seed_offset, net, *adversary, {}, {}, *detail};
  run.r.protocol = spec.protocol;
  run.r.n = spec.n;
  switch (spec.protocol) {
    case ProtocolKind::kEverywhere: run_everywhere(run); break;
    case ProtocolKind::kAlmostEverywhere: run_almost_everywhere(run); break;
    case ProtocolKind::kAeba: run_standalone_aeba(run); break;
    case ProtocolKind::kBenOr: run_benor(run); break;
    case ProtocolKind::kRabin: run_rabin(run); break;
    case ProtocolKind::kA2E: run_standalone_a2e(run); break;
    case ProtocolKind::kUniverseReduction: run_universe_reduction(run); break;
    case ProtocolKind::kProcessorElection: run_processor_election(run); break;
  }
  // The tail every run shares: the fingerprint closes over the full
  // per-processor ledger, then the ledger summary, then the detail.
  RunReport& report = run.r;
  mix_run_ledger(run.d, net);
  report.fingerprint = run.d.h;
  fill_ledger_totals(report, net);
  run.detail.corrupt_mask = net.corrupt_mask();
  report.detail = std::move(detail);
  const auto t1 = std::chrono::steady_clock::now();
  report.scenario = spec.name;
  report.seed_offset = seed_offset;
  report.workers = Pool::num_threads();
  report.wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  report.peak_rss_kb = current_peak_rss_kb();
  return std::move(report);
}

}  // namespace ba::sim
