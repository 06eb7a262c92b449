// RunReport — the unified, machine-readable outcome of one scenario run.
//
// Every run (sim/protocol.h, run_scenario) fills the same header fields:
// decision, validity, agreement, rounds, the good-processor ledger
// totals, wall time, worker count, and a 64-bit run fingerprint that
// digests *everything observable* from the run (result structure plus the
// full per-processor ledger — the parity suite's byte-identity contract
// is "fingerprint invariant under the pool worker count"). Protocol-
// specific metrics ride in `extras` (ordered key/value pairs) and the
// full result structs in `detail` for consumers that need more than the
// summary (examples printing word views, benches aggregating per-level
// stats).
//
// JSON emission is stable: fixed key order, shortest-round-trip doubles,
// no locale dependence — `write_json(os, /*include_timing=*/false)` is
// byte-stable at a fixed seed and is what the golden-file tests pin.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "baseline/processor_election.h"
#include "common/rng.h"
#include "core/a2e.h"
#include "core/everywhere.h"
#include "core/global_coin.h"
#include "core/universe_reduction.h"
#include "sim/scenario.h"

namespace ba::sim {

/// Full result structures of a run, for consumers that outgrow the
/// summary. Exactly one protocol-specific member is engaged, matching the
/// spec's ProtocolKind (universe runs also carry their fuelling AeResult
/// inside UniverseResult).
struct RunDetail {
  std::vector<bool> corrupt_mask;  ///< ground truth at run end

  std::optional<EverywhereResult> everywhere;
  std::optional<AeResult> ae;
  std::optional<SequenceQuality> sequence_quality;  ///< released ae runs
  std::optional<AebaResult> aeba;
  std::vector<std::uint64_t> aeba_votes;  ///< final packed machine votes
  std::optional<BaselineResult> baseline;  ///< benor / rabin
  std::optional<A2EResult> a2e;
  std::optional<UniverseResult> universe;
  std::optional<ProcessorElectionResult> election;
};

struct RunReport {
  std::string scenario;
  ProtocolKind protocol = ProtocolKind::kEverywhere;
  std::size_t n = 0;
  std::uint64_t seed_offset = 0;
  std::size_t workers = 1;          ///< pool workers during the run
  std::size_t corrupt_count = 0;    ///< corruptions spent by run end

  // Tri-state ints: -1 = not meaningful for this protocol kind.
  int decided_bit = -1;
  int validity = -1;
  int all_good_agree = -1;
  double agreement_fraction = 0.0;
  std::uint64_t rounds = 0;

  // Good-processor ledger totals (the paper's cost measure).
  std::uint64_t max_bits_good = 0;
  std::uint64_t total_bits_good = 0;
  std::uint64_t total_msgs_good = 0;

  /// Digest of the complete observable run state (result fields in a
  /// protocol-specific documented order, then the per-processor ledger).
  /// Byte-identical across pool worker counts at a fixed (spec, offset).
  std::uint64_t fingerprint = 0;

  /// Protocol-specific metrics, in a fixed per-protocol order.
  std::vector<std::pair<std::string, double>> extras;

  double wall_ms = 0.0;

  /// Process-lifetime peak resident set (VmHWM) sampled at run end, in
  /// KiB; 0 where the platform offers no cheap probe. Machine-dependent
  /// like wall_ms, so it rides under the same include_timing gate.
  std::uint64_t peak_rss_kb = 0;

  std::shared_ptr<const RunDetail> detail;

  /// One stable JSON object (single line, fixed key order). With
  /// `include_timing` false the wall_ms and peak_rss_kb fields are
  /// omitted and the output is byte-stable at a fixed seed (the
  /// golden-test form).
  void write_json(std::ostream& os, bool include_timing = true) const;
};

/// The process's peak resident set so far in KiB (Linux VmHWM via
/// /proc/self/status); 0 on platforms without the probe.
std::uint64_t current_peak_rss_kb();

/// Fingerprint accumulator: FNV-1a over 64-bit words plus a bit-exact
/// double mixer (doubles enter via their IEEE-754 bit pattern).
struct RunDigest : Fnv1a {
  void mix_double(double v);
};

/// Shortest decimal string that parses back to exactly `d` (JSON-safe,
/// locale-independent) — shared by report emission and spec serialization.
std::string json_double(double d);

}  // namespace ba::sim
