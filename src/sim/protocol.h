// One run skeleton drives every protocol family: `run_scenario(spec)`.
//
// run_scenario builds the Network (the spec's delay scheduler plus the
// ambient RunEnv's transport and transcript) and the adversary once, hands
// them to one plain function per ProtocolKind, then finishes every run the
// same way: ledger digest, fingerprint, ledger totals, detail, and the
// scenario name, wall time and pool worker count. A kind function keeps
// the historical entry-point wiring for its kind — input generation and
// every Rng seed in the order the examples/benches/tests always drew them
// — so a fixed (spec, seed_offset) produces byte-identical decisions,
// agreement stats, and per-processor ledgers to the pre-scenario-layer
// binaries. It fills only its own digest head, report fields, extras and
// RunDetail member.
//
// Fingerprint contract: every run digests its complete observable result
// (protocol-specific fields in a fixed order, then the full per-processor
// ledger via `mix_run_ledger`). The parity suite holds this fingerprint
// byte-identical across 1/2/8 pool workers.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/params.h"
#include "net/adversary.h"
#include "sim/report.h"
#include "sim/scenario.h"

namespace ba::sim {

/// Run one scenario end to end: spec -> report. When
/// spec.workers > 0 the pool is pinned to that count for the run and
/// restored to the environment default after.
RunReport run_scenario(const ScenarioSpec& spec, std::uint64_t seed_offset = 0);

// ---- building blocks of the kind functions (exposed for tests) ----

/// Adversary strategy instance per the spec (seed shifted by `off`).
std::unique_ptr<Adversary> make_adversary(const ScenarioSpec& spec,
                                          std::uint64_t off);

/// Per-processor input bits per the spec's InputPattern.
std::vector<std::uint8_t> make_bit_inputs(const ScenarioSpec& spec,
                                          std::uint64_t off);

/// laptop_scale(n) with the spec's tournament knob overrides applied.
ProtocolParams tournament_params(const ScenarioSpec& spec);

/// Digest the complete per-processor ledger plus round and corruption
/// counters — the tail of every run fingerprint.
void mix_run_ledger(RunDigest& d, const Network& net);

}  // namespace ba::sim
