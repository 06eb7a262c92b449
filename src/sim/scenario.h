// The scenario layer: one declarative description of a protocol run.
//
// Every entry point in this repo — examples, experiment grids, parity
// and adversary-matrix tests, the `ba_run` CLI — drives a protocol through the
// same `ScenarioSpec -> RunReport` pipeline (sim/protocol.h). A spec names
// everything a run needs: network size and corruption budget, adversary
// strategy and its seed, input pattern, protocol kind and its knobs, and
// the seeds of every randomness stream the historical wiring drew from.
// Specs are value types with a fluent `with_*` builder, a stable
// key=value serialization (`to_kv` / `from_kv`, used by `ba_run --set`
// overrides and the round-trip tests), and a registry of named
// configurations (`ScenarioRegistry`) covering the examples and the
// E-series experiment configs.
//
// Determinism contract: `run_scenario(spec, seed_offset)` is a pure
// function of (spec, seed_offset, pool worker count) — and byte-identical
// across worker counts (tests/parallel_parity_test.cpp). A sweep over
// seeds is a sweep over `seed_offset`, which shifts every seed field in
// the spec uniformly — exactly the `base + s` idiom the benches always
// used.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace ba::sim {

/// Which protocol family the run drives (sim/protocol.h adapts each over
/// the existing runner).
enum class ProtocolKind {
  kEverywhere,          ///< Algorithm 4 / Theorem 1 (EverywhereBA)
  kAlmostEverywhere,    ///< Algorithm 2 + §3.5 (AlmostEverywhereBA)
  kAeba,                ///< Algorithm 5 standalone (run_aeba)
  kBenOr,               ///< local-coin quadratic baseline (run_benor_ba)
  kRabin,               ///< shared-coin quadratic baseline (run_rabin_ba)
  kA2E,                 ///< Algorithm 3 standalone (AlmostToEverywhere)
  kUniverseReduction,   ///< §1 companion claim (UniverseReduction)
  kProcessorElection,   ///< KSSV'06-style baseline (ProcessorElectionBA)
};

/// Adversary strategy (adversary/strategies.h), constructed fresh per run.
enum class AdversaryKind {
  kPassive,            ///< PassiveStaticAdversary({}) — corrupts nobody
  kStaticMalicious,    ///< StaticMaliciousAdversary(fraction, seed)
  kCrash,              ///< CrashAdversary(fraction, seed)
  kAdaptiveTakeover,   ///< AdaptiveWinnerTakeover(seed, share_holders)
  kA2EFlooding,        ///< FloodingA2EAdversary(fraction, seed, flood)
};

/// How the per-processor protocol inputs are generated.
enum class InputPattern {
  kAlternating,  ///< inputs[p] = p % 2
  kUnanimous,    ///< inputs[p] = input_value
  kRandom,       ///< Rng(input_seed).flip() per bit
  kBernoulli,    ///< Rng(input_seed).bernoulli(input_fraction) per bit
  kSampledOnes,  ///< input_fraction * n distinct procs get 1, rest 0
                 ///< (sample_without_replacement with Rng(input_seed))
};

/// Shape of the A2E per-loop global-label view function.
enum class LabelRule {
  kSplitmix,  ///< splitmix64(label_seed + loop * 1000003)
  kLinear,    ///< loop * 2654435761 (the E1 phase-split wiring)
};

/// Network timing model (net/scheduler.h): lockstep synchrony, or an
/// adversarial delay scheduler seeded by scheduler_seed.
enum class SchedulerKind {
  kLockstep,      ///< synchronous rounds (the paper's model; no overhead)
  kBoundedDelay,  ///< per-message delivery delay in [0, delta_max]
  kReorderRush,   ///< bounded delay + per-receiver arrival reordering
};

const char* to_string(ProtocolKind k);
const char* to_string(AdversaryKind k);
const char* to_string(InputPattern p);
const char* to_string(LabelRule r);
const char* to_string(SchedulerKind k);

struct ScenarioSpec {
  std::string name;  ///< registry key; also the report's scenario field
  std::string note;  ///< one-line description for `ba_run --list`
  bool heavy = false;  ///< excluded from smoke sweeps (`--list` default)

  ProtocolKind protocol = ProtocolKind::kEverywhere;
  std::size_t n = 128;          ///< processors
  std::size_t budget_div = 3;   ///< corruption budget = n / budget_div
  std::size_t workers = 0;      ///< pool workers (0 = ambient), <= kMaxThreads

  // ---- adversary ----
  AdversaryKind adversary = AdversaryKind::kStaticMalicious;
  double corrupt_fraction = 0.10;
  std::uint64_t adversary_seed = 0;
  bool takeover_share_holders = true;  ///< AdaptiveWinnerTakeover knob
  std::size_t flood_per_pair = 64;     ///< FloodingA2EAdversary knob

  // ---- inputs ----
  InputPattern inputs = InputPattern::kUnanimous;
  std::uint8_t input_value = 1;  ///< kUnanimous bit / a2e belief word
  double input_fraction = 0.5;   ///< kBernoulli p / kSampledOnes fraction
  std::uint64_t input_seed = 0;

  std::uint64_t protocol_seed = 0;

  // ---- tournament family (everywhere / ae / universe / election) ----
  // 0 keeps the ProtocolParams::laptop_scale default for that knob.
  std::size_t coin_words = 0;  ///< §3.5 sequence words per root candidate
  bool release_sequence = true;  ///< open the §3.5 sequence (ae runs)
  std::size_t committee_size = 12;  ///< universe reduction target size
  std::size_t q = 0, w = 0, k1 = 0, d_up = 0, g_intra = 0;  ///< E12 knobs
  bool lock_rule_off = false;  ///< paper-literal Rabin rule (E12e)

  // ---- standalone AEBA ----
  std::size_t aeba_rounds = 16;
  std::size_t aeba_instances = 1;
  std::size_t aeba_degree = 0;  ///< 0 = 2 * floor(log2(n)) (the E3 graph)
  bool aeba_shared_coins = false;  ///< SharedRandomCoins vs UnreliableCoins
  double bad_coin_fraction = 0.0;  ///< adversarial round rate (unreliable)
  std::uint64_t graph_seed = 0;
  std::uint64_t bad_round_seed = 0;
  std::uint64_t coin_seed = 0;  ///< also Rabin's shared-coin seed

  // ---- Ben-Or / Rabin ----
  std::size_t max_rounds = 200;

  // ---- standalone A2E ----
  LabelRule label_rule = LabelRule::kSplitmix;
  std::uint64_t label_seed = 0;
  std::size_t a2e_repeats = 0;  ///< 0 = A2EParams::laptop_scale default
  std::uint64_t truth_message = 1;

  // ---- network scheduler (partial synchrony; net/scheduler.h) ----
  // delta_max=0 under bounded_delay is byte-identical to lockstep (the
  // parity suite pins it); Ben-Or runs get a per-phase grace window of
  // delta_max extra rounds so its asynchrony tolerance actually shows.
  SchedulerKind scheduler = SchedulerKind::kLockstep;
  std::size_t delta_max = 0;  ///< max per-message delivery delay (rounds)
  std::uint64_t scheduler_seed = 0;

  // ---- fluent builder (value-returning: spec.with_n(64).with_... ) ----
  // Setters exist for the fields code sets in C++; apply() sets any
  // field by key.
  ScenarioSpec with_name(std::string v) const;
  ScenarioSpec with_n(std::size_t v) const;
  ScenarioSpec with_workers(std::size_t v) const;
  ScenarioSpec with_adversary(AdversaryKind v) const;
  ScenarioSpec with_corrupt_fraction(double v) const;
  ScenarioSpec with_input_fraction(double v) const;
  ScenarioSpec with_aeba_rounds(std::size_t v) const;
  ScenarioSpec with_aeba_instances(std::size_t v) const;
  ScenarioSpec with_scheduler(SchedulerKind v) const;
  ScenarioSpec with_delta_max(std::size_t v) const;
  ScenarioSpec with_scheduler_seed(std::uint64_t v) const;

  // ---- serialization ----
  /// Every field as "key=value", one pair per field, in declaration
  /// order. `from_kv(to_kv())` reconstructs an identical spec.
  std::vector<std::pair<std::string, std::string>> to_kv() const;
  static ScenarioSpec from_kv(
      const std::vector<std::pair<std::string, std::string>>& kv);

  /// Apply one "key=value" override (the `ba_run --set` grammar). Throws
  /// BA_REQUIRE on unknown keys or unparsable values.
  void apply(const std::string& key, const std::string& value);

  bool operator==(const ScenarioSpec& other) const {
    return to_kv() == other.to_kv();
  }
  bool operator!=(const ScenarioSpec& other) const {
    return !(*this == other);
  }
};

/// Named scenario configurations: the 5 examples plus the E-series
/// experiment configs, exactly as the historical binaries wired them.
class ScenarioRegistry {
 public:
  /// All registered specs, in registration order.
  static const std::vector<ScenarioSpec>& all();

  /// Spec by name; throws BA_REQUIRE when unknown.
  static const ScenarioSpec& get(const std::string& name);

  /// nullptr when unknown.
  static const ScenarioSpec* find(const std::string& name);

  /// Registered names, heavy configs excluded unless `include_heavy`.
  static std::vector<std::string> names(bool include_heavy = false);
};

/// The registered scenario `name` with each "key=value" override applied
/// in order: the one lookup behind every tool's `--scenario` and `--set`.
/// Throws BA_REQUIRE on an unknown name, an override without '=', or a
/// value apply() rejects.
ScenarioSpec resolve_scenario(const std::string& name,
                              const std::vector<std::string>& overrides);

}  // namespace ba::sim
