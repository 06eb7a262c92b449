#include "sim/scenario.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "common/check.h"
#include "common/parse.h"
#include "common/pool.h"
#include "sim/report.h"

namespace ba::sim {

namespace {

struct EnumName {
  int value;
  const char* name;
};

constexpr EnumName kProtocolNames[] = {
    {static_cast<int>(ProtocolKind::kEverywhere), "everywhere"},
    {static_cast<int>(ProtocolKind::kAlmostEverywhere), "almost_everywhere"},
    {static_cast<int>(ProtocolKind::kAeba), "aeba"},
    {static_cast<int>(ProtocolKind::kBenOr), "benor"},
    {static_cast<int>(ProtocolKind::kRabin), "rabin"},
    {static_cast<int>(ProtocolKind::kA2E), "a2e"},
    {static_cast<int>(ProtocolKind::kUniverseReduction), "universe_reduction"},
    {static_cast<int>(ProtocolKind::kProcessorElection), "processor_election"},
};

constexpr EnumName kAdversaryNames[] = {
    {static_cast<int>(AdversaryKind::kPassive), "passive"},
    {static_cast<int>(AdversaryKind::kStaticMalicious), "static_malicious"},
    {static_cast<int>(AdversaryKind::kCrash), "crash"},
    {static_cast<int>(AdversaryKind::kAdaptiveTakeover), "adaptive_takeover"},
    {static_cast<int>(AdversaryKind::kA2EFlooding), "a2e_flooding"},
};

constexpr EnumName kInputNames[] = {
    {static_cast<int>(InputPattern::kAlternating), "alternating"},
    {static_cast<int>(InputPattern::kUnanimous), "unanimous"},
    {static_cast<int>(InputPattern::kRandom), "random"},
    {static_cast<int>(InputPattern::kBernoulli), "bernoulli"},
    {static_cast<int>(InputPattern::kSampledOnes), "sampled_ones"},
};

constexpr EnumName kLabelNames[] = {
    {static_cast<int>(LabelRule::kSplitmix), "splitmix"},
    {static_cast<int>(LabelRule::kLinear), "linear"},
};

constexpr EnumName kSchedulerNames[] = {
    {static_cast<int>(SchedulerKind::kLockstep), "lockstep"},
    {static_cast<int>(SchedulerKind::kBoundedDelay), "bounded_delay"},
    {static_cast<int>(SchedulerKind::kReorderRush), "reorder_rush"},
};

template <std::size_t N>
const char* enum_name(const EnumName (&table)[N], int value) {
  for (const auto& e : table)
    if (e.value == value) return e.name;
  BA_REQUIRE(false, "unknown enum value");
  return "";
}

template <std::size_t N>
int enum_value(const EnumName (&table)[N], const std::string& name) {
  for (const auto& e : table)
    if (name == e.name) return e.value;
  throw std::invalid_argument("unknown enum name in scenario spec: " + name);
}

std::uint64_t parse_u64(const std::string& v) {
  return parse_unsigned(v, "integer spec value");
}

std::size_t parse_size(const std::string& v) {
  return static_cast<std::size_t>(parse_u64(v));
}

double parse_double(const std::string& v) {
  char* end = nullptr;
  const double out = std::strtod(v.c_str(), &end);
  if (end == v.c_str() || *end != '\0')
    throw std::invalid_argument(
        "numeric spec values must be decimal numbers, got '" + v + "'");
  return out;
}

bool parse_bool(const std::string& v) {
  if (v != "0" && v != "1" && v != "true" && v != "false")
    throw std::invalid_argument(
        "boolean spec values must be 0/1/true/false, got '" + v + "'");
  return v == "1" || v == "true";
}

}  // namespace

const char* to_string(ProtocolKind k) {
  return enum_name(kProtocolNames, static_cast<int>(k));
}
const char* to_string(AdversaryKind k) {
  return enum_name(kAdversaryNames, static_cast<int>(k));
}
const char* to_string(InputPattern p) {
  return enum_name(kInputNames, static_cast<int>(p));
}
const char* to_string(LabelRule r) {
  return enum_name(kLabelNames, static_cast<int>(r));
}
const char* to_string(SchedulerKind k) {
  return enum_name(kSchedulerNames, static_cast<int>(k));
}

#define BA_SIM_WITH(method, type, field)            \
  ScenarioSpec ScenarioSpec::method(type v) const { \
    ScenarioSpec out = *this;                       \
    out.field = v;                                  \
    return out;                                     \
  }

BA_SIM_WITH(with_name, std::string, name)
BA_SIM_WITH(with_n, std::size_t, n)
BA_SIM_WITH(with_workers, std::size_t, workers)
BA_SIM_WITH(with_adversary, AdversaryKind, adversary)
BA_SIM_WITH(with_corrupt_fraction, double, corrupt_fraction)
BA_SIM_WITH(with_input_fraction, double, input_fraction)
BA_SIM_WITH(with_aeba_rounds, std::size_t, aeba_rounds)
BA_SIM_WITH(with_aeba_instances, std::size_t, aeba_instances)
BA_SIM_WITH(with_scheduler, SchedulerKind, scheduler)
BA_SIM_WITH(with_delta_max, std::size_t, delta_max)
BA_SIM_WITH(with_scheduler_seed, std::uint64_t, scheduler_seed)

#undef BA_SIM_WITH

std::vector<std::pair<std::string, std::string>> ScenarioSpec::to_kv() const {
  std::vector<std::pair<std::string, std::string>> kv;
  auto add = [&kv](const char* key, std::string value) {
    kv.emplace_back(key, std::move(value));
  };
  add("name", name);
  add("note", note);
  add("heavy", heavy ? "1" : "0");
  add("protocol", to_string(protocol));
  add("n", std::to_string(n));
  add("budget_div", std::to_string(budget_div));
  add("workers", std::to_string(workers));
  add("adversary", to_string(adversary));
  add("corrupt_fraction", json_double(corrupt_fraction));
  add("adversary_seed", std::to_string(adversary_seed));
  add("takeover_share_holders", takeover_share_holders ? "1" : "0");
  add("flood_per_pair", std::to_string(flood_per_pair));
  add("inputs", to_string(inputs));
  add("input_value", std::to_string(static_cast<unsigned>(input_value)));
  add("input_fraction", json_double(input_fraction));
  add("input_seed", std::to_string(input_seed));
  add("protocol_seed", std::to_string(protocol_seed));
  add("coin_words", std::to_string(coin_words));
  add("release_sequence", release_sequence ? "1" : "0");
  add("committee_size", std::to_string(committee_size));
  add("q", std::to_string(q));
  add("w", std::to_string(w));
  add("k1", std::to_string(k1));
  add("d_up", std::to_string(d_up));
  add("g_intra", std::to_string(g_intra));
  add("lock_rule_off", lock_rule_off ? "1" : "0");
  add("aeba_rounds", std::to_string(aeba_rounds));
  add("aeba_instances", std::to_string(aeba_instances));
  add("aeba_degree", std::to_string(aeba_degree));
  add("aeba_shared_coins", aeba_shared_coins ? "1" : "0");
  add("bad_coin_fraction", json_double(bad_coin_fraction));
  add("graph_seed", std::to_string(graph_seed));
  add("bad_round_seed", std::to_string(bad_round_seed));
  add("coin_seed", std::to_string(coin_seed));
  add("max_rounds", std::to_string(max_rounds));
  add("label_rule", to_string(label_rule));
  add("label_seed", std::to_string(label_seed));
  add("a2e_repeats", std::to_string(a2e_repeats));
  add("truth_message", std::to_string(truth_message));
  add("scheduler", to_string(scheduler));
  add("delta_max", std::to_string(delta_max));
  add("scheduler_seed", std::to_string(scheduler_seed));
  return kv;
}

void ScenarioSpec::apply(const std::string& key, const std::string& value) {
  if (key == "name") name = value;
  else if (key == "note") note = value;
  else if (key == "heavy") heavy = parse_bool(value);
  else if (key == "protocol")
    protocol = static_cast<ProtocolKind>(enum_value(kProtocolNames, value));
  else if (key == "n") n = parse_size(value);
  else if (key == "budget_div") budget_div = parse_size(value);
  else if (key == "workers")
    workers = parse_unsigned(value, "workers", Pool::kMaxThreads);
  else if (key == "adversary")
    adversary = static_cast<AdversaryKind>(enum_value(kAdversaryNames, value));
  else if (key == "corrupt_fraction") corrupt_fraction = parse_double(value);
  else if (key == "adversary_seed") adversary_seed = parse_u64(value);
  else if (key == "takeover_share_holders")
    takeover_share_holders = parse_bool(value);
  else if (key == "flood_per_pair") flood_per_pair = parse_size(value);
  else if (key == "inputs")
    inputs = static_cast<InputPattern>(enum_value(kInputNames, value));
  else if (key == "input_value") {
    const std::uint64_t bit = parse_u64(value);
    if (bit > 1) throw std::invalid_argument("input_value must be 0 or 1");
    input_value = static_cast<std::uint8_t>(bit);
  }
  else if (key == "input_fraction") input_fraction = parse_double(value);
  else if (key == "input_seed") input_seed = parse_u64(value);
  else if (key == "protocol_seed") protocol_seed = parse_u64(value);
  else if (key == "coin_words") coin_words = parse_size(value);
  else if (key == "release_sequence") release_sequence = parse_bool(value);
  else if (key == "committee_size") committee_size = parse_size(value);
  else if (key == "q") q = parse_size(value);
  else if (key == "w") w = parse_size(value);
  else if (key == "k1") k1 = parse_size(value);
  else if (key == "d_up") d_up = parse_size(value);
  else if (key == "g_intra") g_intra = parse_size(value);
  else if (key == "lock_rule_off") lock_rule_off = parse_bool(value);
  else if (key == "aeba_rounds") aeba_rounds = parse_size(value);
  else if (key == "aeba_instances") aeba_instances = parse_size(value);
  else if (key == "aeba_degree") aeba_degree = parse_size(value);
  else if (key == "aeba_shared_coins") aeba_shared_coins = parse_bool(value);
  else if (key == "bad_coin_fraction") bad_coin_fraction = parse_double(value);
  else if (key == "graph_seed") graph_seed = parse_u64(value);
  else if (key == "bad_round_seed") bad_round_seed = parse_u64(value);
  else if (key == "coin_seed") coin_seed = parse_u64(value);
  else if (key == "max_rounds") max_rounds = parse_size(value);
  else if (key == "label_rule")
    label_rule = static_cast<LabelRule>(enum_value(kLabelNames, value));
  else if (key == "label_seed") label_seed = parse_u64(value);
  else if (key == "a2e_repeats") a2e_repeats = parse_size(value);
  else if (key == "truth_message") truth_message = parse_u64(value);
  else if (key == "scheduler")
    scheduler = static_cast<SchedulerKind>(enum_value(kSchedulerNames, value));
  else if (key == "delta_max") delta_max = parse_size(value);
  else if (key == "scheduler_seed") scheduler_seed = parse_u64(value);
  else
    throw std::invalid_argument("unknown scenario spec key: " + key);
}

ScenarioSpec ScenarioSpec::from_kv(
    const std::vector<std::pair<std::string, std::string>>& kv) {
  ScenarioSpec spec;
  // Hard errors on duplicates (last-wins would make a sweep/fuzz artifact
  // ambiguous) and on unknown keys (apply throws) — a spec line either
  // reconstructs exactly one spec or refuses loudly.
  std::vector<std::string> seen;
  seen.reserve(kv.size());
  for (const auto& [key, value] : kv) {
    if (std::find(seen.begin(), seen.end(), key) != seen.end())
      throw std::invalid_argument("duplicate scenario spec key: " + key);
    seen.push_back(key);
    spec.apply(key, value);
  }
  return spec;
}

// --------------------------------------------------------------- registry --

namespace {

/// The example configurations, seed for seed as the historical binaries
/// wired them (examples/*.cpp) — their fixed-seed outputs are pinned by
/// golden tests and the parity suite.
void register_examples(std::vector<ScenarioSpec>& out) {
  {
    ScenarioSpec s;
    s.name = "quickstart";
    s.note = "everywhere BA, 10% malicious, split inputs (examples/)";
    s.protocol = ProtocolKind::kEverywhere;
    s.n = 128;
    s.adversary_seed = 42;
    s.inputs = InputPattern::kAlternating;
    s.protocol_seed = 7;
    out.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "randomness_beacon";
    s.note = "§3.5 coin sequence as a beacon service (examples/)";
    s.protocol = ProtocolKind::kAlmostEverywhere;
    s.n = 256;
    s.adversary_seed = 2024;
    s.coin_words = 4;
    s.inputs = InputPattern::kUnanimous;
    s.input_value = 0;
    s.protocol_seed = 77;
    out.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "committee_sampling";
    s.note = "universe reduction samples a 12-member committee (examples/)";
    s.protocol = ProtocolKind::kUniverseReduction;
    s.n = 256;
    s.adversary_seed = 99;
    s.coin_words = 4;
    s.committee_size = 12;
    s.protocol_seed = 7;
    out.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "replica_sync_commit";
    s.note = "replica-fleet commit decision, Bernoulli visibility "
             "(examples/replica_sync)";
    s.protocol = ProtocolKind::kEverywhere;
    s.n = 256;
    s.adversary_seed = 100;
    s.inputs = InputPattern::kBernoulli;
    s.input_fraction = 0.95;
    s.input_seed = 101;
    s.protocol_seed = 102;
    out.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "replica_sync_rabin";
    s.note = "the quadratic alternative for one commit decision "
             "(examples/replica_sync)";
    s.protocol = ProtocolKind::kRabin;
    s.n = 256;
    s.adversary_seed = 999;
    s.coin_seed = 1000;
    s.inputs = InputPattern::kUnanimous;
    s.max_rounds = 30;
    out.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "adaptive_attack_act1";
    s.note = "processor election vs static adversary (examples/)";
    s.protocol = ProtocolKind::kProcessorElection;
    s.n = 256;
    s.adversary_seed = 1;
    s.protocol_seed = 2;
    out.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "adaptive_attack_act2";
    s.note = "processor election vs ADAPTIVE takeover (examples/)";
    s.protocol = ProtocolKind::kProcessorElection;
    s.n = 256;
    s.adversary = AdversaryKind::kAdaptiveTakeover;
    s.adversary_seed = 3;
    s.takeover_share_holders = false;
    s.protocol_seed = 4;
    out.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "adaptive_attack_act3";
    s.note = "array election vs the same adaptive adversary (examples/)";
    s.protocol = ProtocolKind::kAlmostEverywhere;
    s.n = 256;
    s.adversary = AdversaryKind::kAdaptiveTakeover;
    s.adversary_seed = 5;
    s.takeover_share_holders = false;
    s.protocol_seed = 6;
    s.release_sequence = false;
    out.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "adaptive_attack_act4";
    s.note = "array election vs share-holder takeover (examples/)";
    s.protocol = ProtocolKind::kAlmostEverywhere;
    s.n = 256;
    s.adversary = AdversaryKind::kAdaptiveTakeover;
    s.adversary_seed = 7;
    s.takeover_share_holders = true;
    s.protocol_seed = 8;
    s.release_sequence = false;
    out.push_back(s);
  }
}

/// The E-series experiment configurations (the `ba_sweep --grid e<k>`
/// tables, sim/sweep.cpp). Grid rows sweep a dimension by overriding it
/// and shift all seeds per trial via run_scenario's seed_offset — the
/// historical `base + s`.
void register_experiments(std::vector<ScenarioSpec>& out) {
  {
    ScenarioSpec s;
    s.name = "e1_everywhere";
    s.note = "E1/Thm 1: everywhere BA cost + agreement point";
    s.protocol = ProtocolKind::kEverywhere;
    s.n = 256;
    s.adversary_seed = 1000;
    s.inputs = InputPattern::kRandom;
    s.input_seed = 40;
    s.protocol_seed = 7;
    out.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "e1_a2e_phase";
    s.note = "E1 phase split: Algorithm 3 standalone on a fresh ledger";
    s.protocol = ProtocolKind::kA2E;
    s.n = 256;
    s.adversary = AdversaryKind::kPassive;
    s.inputs = InputPattern::kUnanimous;
    s.protocol_seed = 99;
    s.label_rule = LabelRule::kLinear;
    out.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "e1_n16384";
    s.note = "ROADMAP multi-core sweep: the full pipeline at n = 16384";
    s.heavy = true;
    s.protocol = ProtocolKind::kEverywhere;
    s.n = 16384;
    s.adversary_seed = 1000;
    s.inputs = InputPattern::kRandom;
    s.input_seed = 40;
    s.protocol_seed = 7;
    out.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "e1_n65536";
    s.note =
        "huge-n proof point: full O~(sqrt n) pipeline at n = 65536 under "
        "the SIMD kernels and the pooled-arena memory diet";
    s.heavy = true;
    s.protocol = ProtocolKind::kEverywhere;
    s.n = 65536;
    s.adversary_seed = 1000;
    s.inputs = InputPattern::kRandom;
    s.input_seed = 40;
    s.protocol_seed = 7;
    out.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "e2_almost_everywhere";
    s.note = "E2/Thm 2: tournament-only agreement point";
    s.protocol = ProtocolKind::kAlmostEverywhere;
    s.n = 256;
    s.adversary_seed = 2000;
    s.inputs = InputPattern::kRandom;
    s.input_seed = 60;
    s.protocol_seed = 11;
    s.release_sequence = false;
    out.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "e3_aeba";
    s.note = "E3/Thm 5: standalone AEBA, split inputs, unreliable coins";
    s.protocol = ProtocolKind::kAeba;
    s.n = 400;
    s.budget_div = 2;
    s.corrupt_fraction = 0.2;
    s.adversary_seed = 400;
    s.inputs = InputPattern::kRandom;
    s.input_seed = 500;
    s.aeba_rounds = 24;
    s.bad_coin_fraction = 1.0 / 3.0;
    s.graph_seed = 300;
    s.bad_round_seed = 600;
    s.coin_seed = 700;
    out.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "e3_aeba_unanimous";
    s.note = "E3 validity run: unanimous inputs preserved under bad coins";
    s.protocol = ProtocolKind::kAeba;
    s.n = 400;
    s.budget_div = 2;
    s.corrupt_fraction = 0.2;
    s.adversary_seed = 410;
    s.inputs = InputPattern::kUnanimous;
    s.aeba_rounds = 24;
    s.bad_coin_fraction = 1.0 / 3.0;
    s.graph_seed = 310;
    s.bad_round_seed = 610;
    s.coin_seed = 710;
    out.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "e4_a2e";
    s.note = "E4/Lemmas 7-8: A2E vs flooding, sampled knowledgeable set";
    s.protocol = ProtocolKind::kA2E;
    s.n = 512;
    s.adversary = AdversaryKind::kA2EFlooding;
    s.corrupt_fraction = 0.2;
    s.adversary_seed = 800;
    s.inputs = InputPattern::kSampledOnes;
    s.input_fraction = 0.75;
    s.input_seed = 900;
    s.protocol_seed = 1000;
    s.label_seed = 1100;
    out.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "e4_flooding";
    s.note = "E4b/Lemma 9: overload under request flooding";
    s.protocol = ProtocolKind::kA2E;
    s.n = 512;
    s.adversary = AdversaryKind::kA2EFlooding;
    s.corrupt_fraction = 0.25;
    s.adversary_seed = 1200;
    s.inputs = InputPattern::kUnanimous;
    s.protocol_seed = 1300;
    s.label_seed = 1400;
    out.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "e4_cost";
    s.note = "E4c/Thm 4: A2E per-processor bits, passive control";
    s.protocol = ProtocolKind::kA2E;
    s.n = 256;
    s.adversary = AdversaryKind::kPassive;
    s.inputs = InputPattern::kUnanimous;
    s.protocol_seed = 1500;
    s.label_seed = 1600;
    s.a2e_repeats = 2;
    out.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "e6_survival";
    s.note = "E6/Lemma 6: per-level good winning-array survival";
    s.protocol = ProtocolKind::kAlmostEverywhere;
    s.n = 512;
    s.adversary_seed = 100;
    s.inputs = InputPattern::kRandom;
    s.input_seed = 700;
    s.protocol_seed = 500;
    s.release_sequence = false;
    out.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "e7_informed";
    s.note = "E7/Lemma 11: informed fraction on a k log n-regular graph";
    s.protocol = ProtocolKind::kAeba;
    s.n = 512;
    s.budget_div = 2;
    s.corrupt_fraction = 0.2;
    s.adversary_seed = 9001;
    s.inputs = InputPattern::kRandom;
    s.input_seed = 9002;
    s.aeba_rounds = 12;
    s.aeba_shared_coins = true;
    s.graph_seed = 9000;
    s.coin_seed = 9003;
    out.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "e9_rabin";
    s.note = "E9: Rabin all-to-all baseline cost point";
    s.protocol = ProtocolKind::kRabin;
    s.n = 256;
    s.adversary_seed = 2000;
    s.coin_seed = 2001;
    s.inputs = InputPattern::kRandom;
    s.input_seed = 2002;
    s.max_rounds = 30;
    out.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "e9_benor";
    s.note = "E9: Ben-Or local-coin baseline cost point";
    s.protocol = ProtocolKind::kBenOr;
    s.n = 256;
    s.budget_div = 6;
    s.adversary = AdversaryKind::kCrash;
    s.corrupt_fraction = 0.1;
    s.adversary_seed = 3000;
    s.inputs = InputPattern::kUnanimous;
    s.protocol_seed = 3001;
    s.max_rounds = 60;
    out.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "e9_benor_small";
    s.note = "E9 configuration at parity-test scale (crash minority)";
    s.protocol = ProtocolKind::kBenOr;
    s.n = 48;
    s.budget_div = 6;
    s.adversary = AdversaryKind::kCrash;
    s.corrupt_fraction = 0.1;
    s.adversary_seed = 13;
    s.inputs = InputPattern::kRandom;
    s.input_seed = 9;
    s.protocol_seed = 10;
    s.max_rounds = 200;
    out.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "e9_kingsaia";
    s.note = "E9: everywhere BA against the quadratic baselines";
    s.protocol = ProtocolKind::kEverywhere;
    s.n = 256;
    s.adversary_seed = 4000;
    s.protocol_seed = 4001;
    s.inputs = InputPattern::kRandom;
    s.input_seed = 4002;
    out.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "e10_proc_static";
    s.note = "E10/§1.3: processor election vs static adversary";
    s.protocol = ProtocolKind::kProcessorElection;
    s.n = 256;
    s.adversary_seed = 100;
    s.protocol_seed = 200;
    out.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "e10_proc_adaptive";
    s.note = "E10/§1.3: processor election vs winner takeover";
    s.protocol = ProtocolKind::kProcessorElection;
    s.n = 256;
    s.adversary = AdversaryKind::kAdaptiveTakeover;
    s.adversary_seed = 100;
    s.takeover_share_holders = false;
    s.protocol_seed = 200;
    out.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "e10_array_static";
    s.note = "E10/§1.3: array election vs static adversary";
    s.protocol = ProtocolKind::kAlmostEverywhere;
    s.n = 256;
    s.adversary_seed = 300;
    s.protocol_seed = 400;
    s.release_sequence = false;
    out.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "e10_array_adaptive";
    s.note = "E10/§1.3: array election vs winner takeover";
    s.protocol = ProtocolKind::kAlmostEverywhere;
    s.n = 256;
    s.adversary = AdversaryKind::kAdaptiveTakeover;
    s.adversary_seed = 300;
    s.takeover_share_holders = false;
    s.protocol_seed = 400;
    s.release_sequence = false;
    out.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "e11_coins";
    s.note = "E11/§3.5: released coin-sequence quality";
    s.protocol = ProtocolKind::kAlmostEverywhere;
    s.n = 256;
    s.adversary_seed = 500;
    s.coin_words = 4;
    s.inputs = InputPattern::kRandom;
    s.input_seed = 700;
    s.protocol_seed = 600;
    out.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "e12_ablation";
    s.note = "E12: the laptop-scale design-knob ablation base config";
    s.protocol = ProtocolKind::kAlmostEverywhere;
    s.n = 512;
    s.adversary_seed = 50;
    s.inputs = InputPattern::kRandom;
    s.input_seed = 250;
    s.protocol_seed = 150;
    s.release_sequence = false;
    out.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "e13_universe";
    s.note = "E13/§1: universe reduction, representative sampling";
    s.protocol = ProtocolKind::kUniverseReduction;
    s.n = 256;
    s.adversary_seed = 100;
    s.coin_words = 4;
    s.committee_size = 16;
    s.protocol_seed = 200;
    out.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "e13_universe_small";
    s.note = "E13 configuration at parity-test scale";
    s.protocol = ProtocolKind::kUniverseReduction;
    s.n = 64;
    s.corrupt_fraction = 0.15;
    s.adversary_seed = 21;
    s.coin_words = 3;
    s.committee_size = 8;
    s.protocol_seed = 31;
    out.push_back(s);
  }
}

/// Partial-synchrony configurations (net/scheduler.h): the same protocol
/// configs as above but under an adversarial delay scheduler. The
/// delta_max points are chosen from the committed degradation sweep
/// (docs/ARCHITECTURE.md): everywhere BA absorbs small delays (A2E
/// repairs the tournament damage), loses all-good agreement by
/// delta_max = 12 at n = 64, while Ben-Or — run with a matching grace
/// window — still decides unanimously, the classic asynchrony-tolerance
/// contrast the scheduler exists to exhibit.
void register_scheduler(std::vector<ScenarioSpec>& out) {
  // Derive from already-registered specs (the registry singleton is still
  // under construction here — ScenarioRegistry::get would recurse).
  auto base = [&out](const char* name) -> const ScenarioSpec& {
    for (const auto& s : out)
      if (s.name == name) return s;
    BA_REQUIRE(false, "scheduler scenarios derive from registered specs");
    return out.front();
  };
  const ScenarioSpec benor_base = base("e9_benor_small");
  const ScenarioSpec everywhere_base = base("quickstart").with_n(64);
  out.push_back(benor_base.with_name("benor_delay")
                    .with_scheduler(SchedulerKind::kBoundedDelay)
                    .with_delta_max(2)
                    .with_scheduler_seed(5));
  out.back().note =
      "Ben-Or under bounded delay (delta_max = 2, grace window): still "
      "decides unanimously";
  out.push_back(benor_base.with_name("benor_rush")
                    .with_scheduler(SchedulerKind::kReorderRush)
                    .with_delta_max(2)
                    .with_scheduler_seed(5));
  out.back().note = "Ben-Or vs delay + per-receiver arrival reordering";
  out.push_back(everywhere_base.with_name("everywhere_delay")
                    .with_scheduler(SchedulerKind::kBoundedDelay)
                    .with_delta_max(2)
                    .with_scheduler_seed(5));
  out.back().note =
      "everywhere BA absorbs a small bounded delay: tournament agreement "
      "sags, A2E repairs it";
  out.push_back(everywhere_base.with_name("everywhere_delay_break")
                    .with_scheduler(SchedulerKind::kBoundedDelay)
                    .with_delta_max(12)
                    .with_scheduler_seed(5));
  out.back().note =
      "the synchrony assumption matters: delta_max = 12 breaks all-good "
      "agreement at n = 64";
}

/// Adversary-matrix base cells (tests/adversary_matrix_test.cpp): the
/// test swaps the adversary kind and fraction per cell and shifts seeds
/// with the cell index.
void register_matrix(std::vector<ScenarioSpec>& out) {
  {
    ScenarioSpec s;
    s.name = "matrix_everywhere";
    s.note = "adversary matrix: everywhere BA, unanimous inputs";
    s.protocol = ProtocolKind::kEverywhere;
    s.n = 64;
    s.adversary_seed = 1000;
    s.protocol_seed = 70;
    out.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "matrix_everywhere_split";
    s.note = "adversary matrix: everywhere BA, split inputs";
    s.protocol = ProtocolKind::kEverywhere;
    s.n = 64;
    s.adversary_seed = 2000;
    s.inputs = InputPattern::kAlternating;
    // Calibrated so every matrix cell's probabilistic outcome clears its
    // assertion at this laptop scale under the forked-stream draw order
    // of sendOpen and sendDown failures (the theorem's constants want
    // much larger n).
    s.protocol_seed = 91;
    out.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "matrix_benor";
    s.note = "adversary matrix: Ben-Or baseline, unanimous inputs";
    s.protocol = ProtocolKind::kBenOr;
    s.n = 50;
    s.budget_div = 6;
    s.adversary_seed = 3000;
    s.protocol_seed = 7;
    s.max_rounds = 300;
    out.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "matrix_clamped";
    s.note = "adversary matrix: greedy strategies vs an n/8 budget";
    s.protocol = ProtocolKind::kEverywhere;
    s.n = 64;
    s.budget_div = 8;
    s.corrupt_fraction = 0.9;
    s.adversary_seed = 4000;
    s.flood_per_pair = 256;
    s.protocol_seed = 110;
    out.push_back(s);
  }
}

std::vector<ScenarioSpec> build_registry() {
  std::vector<ScenarioSpec> out;
  register_examples(out);
  register_experiments(out);
  register_scheduler(out);
  register_matrix(out);
  return out;
}

}  // namespace

const std::vector<ScenarioSpec>& ScenarioRegistry::all() {
  static const std::vector<ScenarioSpec> registry = build_registry();
  return registry;
}

const ScenarioSpec* ScenarioRegistry::find(const std::string& name) {
  for (const auto& spec : all())
    if (spec.name == name) return &spec;
  return nullptr;
}

const ScenarioSpec& ScenarioRegistry::get(const std::string& name) {
  const ScenarioSpec* spec = find(name);
  BA_REQUIRE(spec != nullptr, "unknown scenario name");
  return *spec;
}

std::vector<std::string> ScenarioRegistry::names(bool include_heavy) {
  std::vector<std::string> out;
  for (const auto& spec : all())
    if (include_heavy || !spec.heavy) out.push_back(spec.name);
  return out;
}

ScenarioSpec resolve_scenario(const std::string& name,
                              const std::vector<std::string>& overrides) {
  const ScenarioSpec* found = ScenarioRegistry::find(name);
  if (found == nullptr)
    throw std::invalid_argument("unknown scenario: " + name);
  ScenarioSpec spec = *found;
  for (const std::string& kv : overrides) {
    const std::size_t eq = kv.find('=');
    if (eq == std::string::npos)
      throw std::invalid_argument("--set expects key=value, got: " + kv);
    spec.apply(kv.substr(0, eq), kv.substr(eq + 1));
  }
  return spec;
}

}  // namespace ba::sim
