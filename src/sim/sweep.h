// The sweep layer: scenario grids, the NDJSON report stream, the
// protocol-level perf ledger, and the ScenarioSpec fuzzer.
//
// `ba_run` executes one scenario; the paper's headline claim is a *curve*
// — Õ(√n) bits per processor as n grows — and the follow-up literature
// (Dufoulon–Pandurangan 2025, Cohen–Keidar–Spiegelman 2022; PAPERS.md) is
// evaluated as bit-complexity and round curves over n. This module turns
// the scenario layer into curve machinery:
//
//  * SweepJob + the key=value job line — ONE replayable artifact format
//    shared by grid shard job lists, `ba_run --jobs-file`, fuzz failure
//    artifacts and `ba_sweep --replay`. A job line is the spec's full
//    `to_kv()` plus the run's `seed_offset`, percent-escaped so the
//    free-text fields survive the space-separated grammar byte-exactly.
//  * expand_grid / default_grid — (scenario × n × workers × seed-range)
//    axes expanded into the deterministic job list behind the committed
//    BENCH_protocol.json (the "default" grid: 200+ jobs, everywhere-BA
//    n-curve 16..256 plus every protocol family and scheduler mode).
//  * named_grids / print_grid_tables — `ba_sweep --grid NAME`: the
//    default ledger grid plus the E-series table grids e1…e13, each a
//    list of declarative tables (rows = axes, columns = report fields
//    reduced over seeds, optional log-log fits) regenerating one of
//    King–Saia's theorems or lemmas.
//  * parse_report_json — a strict reader for RunReport::write_json's
//    NDJSON schema. Parse → re-emit is byte-identical (the golden-file
//    round-trip test pins it), which is what lets the aggregator consume
//    shard outputs without a JSON dependency.
//  * aggregate_reports / write_ledger_json — per-(scenario, n) medians,
//    agreement/validity rates over seeds, and the least-squares fitted
//    exponent of max-bits vs n for the everywhere-BA family. The raw
//    log-log exponent at laptop scale is dominated by the Õ's hidden
//    polylog factors, so the ledger records both the raw slope and the
//    slope after dividing out log2(n)^3 — the latter is the √n claim with
//    Õ taken literally and must stay under kLog3ExponentCeiling.
//  * random_spec / check_job / run_fuzz — the spec fuzzer: thousands of
//    random valid ScenarioSpecs driven through to_kv/from_kv/apply and
//    run_scenario, asserting the cross-cutting invariants (byte-identical
//    round-trip, budget-ledger compliance, validity under unanimity with
//    zero corruptions, agreement consistent with the per-processor detail
//    block, fingerprint reproducibility). Every failure carries its job
//    line, so `ba_sweep --replay '<line>'` reproduces it exactly.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/report.h"
#include "sim/scenario.h"

namespace ba::sim {

// --------------------------------------------------- job line artifact --

/// One grid/fuzz job: a fully-resolved spec plus the run's seed offset.
struct SweepJob {
  ScenarioSpec spec;
  std::uint64_t seed_offset = 0;
};

/// "seed_offset=K key=value key=value ..." — the spec's full to_kv() in
/// declaration order. Values are percent-escaped ('%', space, tab, CR,
/// LF) so free-text fields round-trip through the space-separated
/// grammar. parse(format(job)) is byte-identical.
std::string format_job_line(const SweepJob& job);

/// Inverse of format_job_line. Accepts the pairs in any order but rejects
/// (BA_REQUIRE) duplicated keys, unknown keys, bad escapes and malformed
/// tokens — a fuzz artifact must be unambiguous.
SweepJob parse_job_line(const std::string& line);

// -------------------------------------------------------------- grids --

/// One grid axis: a registry scenario crossed with n-overrides, worker
/// counts and a seed range (run_scenario's seed_offset, the historical
/// `base + s` sweep). `overrides` are spec.apply key=value pairs applied
/// first — including "name=..." to relabel the aggregation group.
struct GridAxis {
  std::string scenario;
  std::vector<std::pair<std::string, std::string>> overrides;
  std::vector<std::size_t> n_values;  ///< empty = keep the spec's n
  std::vector<std::size_t> workers;   ///< empty = {0} (ambient pool)
  std::size_t seeds = 1;              ///< seed offsets 0..seeds-1
};

/// Expand axes into the job list, in deterministic (axis, n, workers,
/// seed) order.
std::vector<SweepJob> expand_grid(const std::vector<GridAxis>& axes);

/// The committed "default" grid behind BENCH_protocol.json: the
/// everywhere-BA n-curve (16..256, the exponent-fit family) plus every
/// protocol family and scheduler mode at laptop scale, 200+ jobs.
std::vector<GridAxis> default_grid();

// -------------------------------------------------------- named grids --

/// How a table column folds one row's per-seed values into its cell.
enum class Reduce { kMean, kMin, kMax, kSum };

/// One printed column. `field` is, in lookup order, a spec key (the
/// row's label: its override as written, else the to_kv value), a
/// deterministic numeric RunReport field or an extras key, reduced over
/// the row's seeds; with `per` set the cell is reduce(field) /
/// reduce(per). Mean and ratio cells print as doubles, integral
/// min/max/sum cells as integers.
struct GridColumn {
  std::string header;
  std::string field;
  Reduce reduce = Reduce::kMean;
  std::string per = {};
};

/// One printed table. Each row axis prints one line per n value. `fits`
/// names columns fitted as y ~ n^b per scenario over the rows' n (least
/// squares in log-log space), printed in column order as a second table
/// captioned `fit_caption`.
struct GridTable {
  std::string caption;
  std::vector<GridAxis> rows;
  std::vector<GridColumn> columns;
  std::vector<std::string> fits = {};
  std::string fit_caption = {};
};

/// A grid `ba_sweep --grid NAME` runs: bare axes aggregated into
/// BENCH_protocol.json ("default"), or tables whose rows are the axes
/// (the E-series e1…e13, one per paper claim).
struct NamedGrid {
  std::string name;
  std::string claim;  ///< the paper claim the grid regenerates
  std::vector<GridAxis> axes;
  std::vector<GridTable> tables;
};

/// Every named grid: "default", then e1…e13.
const std::vector<NamedGrid>& named_grids();

/// nullptr when unknown.
const NamedGrid* find_grid(const std::string& name);

/// The grid's job list: its axes, then every table row, expanded in
/// order with repeated job lines dropped (tables sharing a row run it
/// once). Throws BA_REQUIRE on an unknown scenario or override key, a
/// table without rows or columns, or a fit naming no column.
std::vector<SweepJob> grid_jobs(const NamedGrid& grid);

/// Print a table grid's tables (ba::Table) from the reports of
/// grid_jobs(grid), in job order. Throws BA_REQUIRE when a column
/// resolves to nothing for some row, such as a missing extra or a
/// tri-state field at -1 (not meaningful for the protocol kind).
void print_grid_tables(std::ostream& os, const NamedGrid& grid,
                       const std::vector<RunReport>& reports);

/// Least-squares slope of y on x; needs two distinct x. Exponent fits
/// pass log-log points.
double least_squares_slope(const std::vector<double>& x,
                           const std::vector<double>& y);

// ----------------------------------------------------- NDJSON reading --

/// Strict parser for one RunReport::write_json line (either the timed or
/// the --no-timing form; `*had_timing` reports which). The schema is
/// validated field by field in emission order, so re-emitting the parsed
/// report reproduces the input byte for byte. Throws BA_REQUIRE on any
/// deviation. The returned report carries no detail block.
RunReport parse_report_json(const std::string& line,
                            bool* had_timing = nullptr);

// -------------------------------------------------------- aggregation --

/// Per-(scenario, n) aggregate over the seed sweep. Rates are over the
/// runs where the tri-state field was meaningful (!= -1); -1 when no run
/// reported the field (e.g. all_good_agree for standalone AEBA).
struct ScenarioAggregate {
  std::string scenario;
  std::string protocol;
  std::size_t n = 0;
  std::size_t runs = 0;
  double agreement_rate = -1.0;  ///< all_good_agree over meaningful runs
  double validity_rate = -1.0;   ///< validity over meaningful runs
  double mean_agreement_fraction = 0.0;
  std::uint64_t median_max_bits_good = 0;
  std::uint64_t max_max_bits_good = 0;
  std::uint64_t median_total_bits_good = 0;
  double mean_rounds = 0.0;
  std::uint64_t max_rounds = 0;
  double wall_ms = 0.0;  ///< summed over the group's runs
};

/// Least-squares fit of log(median max_bits_good) vs log(n) over the
/// fitted family's (n, median) points.
struct ExponentFit {
  std::string family;  ///< scenario name whose n-sweep was fitted
  std::vector<std::pair<std::size_t, std::uint64_t>> points;
  double exponent = 0.0;       ///< raw log-log slope
  double log3_exponent = 0.0;  ///< slope of log(median / log2(n)^3)
  double r2 = 0.0;             ///< of the raw fit
};

/// The Õ(√n) gate: max bits per processor divided by log2(n)^3 must grow
/// no faster than n^(0.5 + slack). The raw slope at laptop scale (n ≤
/// 256) is ≈ 0.9 — the polylog factors dominate there, which is exactly
/// why the gate divides them out before comparing against 1/2.
inline constexpr double kLog3ExponentCeiling = 0.6;

struct ProtocolLedger {
  std::string grid;  ///< grid name the jobs came from ("default", "fuzz")
  std::size_t jobs = 0;
  double wall_ms_total = 0.0;
  std::vector<ScenarioAggregate> scenarios;  ///< sorted by (scenario, n)
  std::optional<ExponentFit> fit;
};

/// Group reports by (scenario, n), compute the aggregates, and fit the
/// everywhere-protocol scenario with the most distinct n values (3+
/// required for a fit).
ProtocolLedger aggregate_reports(const std::vector<RunReport>& reports);

/// BENCH_protocol.json, pretty-printed with a stable key order. All
/// fields except wall_ms* are deterministic functions of the job list —
/// the CI gate diffs them exactly.
void write_ledger_json(std::ostream& os, const ProtocolLedger& ledger);

// -------------------------------------------------------------- fuzzer --

/// A random valid ScenarioSpec drawn from the full dimension space:
/// every protocol kind, adversary kind/fraction, input pattern (within
/// each kind's supported set), scheduler mode/delta_max, and
/// the tournament/AEBA/A2E knobs, with n kept at fuzz scale (tournament
/// kinds need n >= 4q = 16).
ScenarioSpec random_spec(Rng& rng);

struct FuzzFailure {
  std::string invariant;  ///< which invariant broke
  std::string message;    ///< what was observed
  std::string artifact;   ///< replayable job line (ba_sweep --replay)
};

/// Run one job through every invariant: kv round-trip, two full runs
/// (fingerprint + byte-identical no-timing JSON), budget ledger, validity
/// under unanimity with zero corruptions, and per-kind agreement
/// consistency against the detail block. The first run's timed report is
/// streamed to `ndjson` when non-null. Returns the violated invariants
/// (empty = pass); a throwing run is itself a failure.
std::vector<FuzzFailure> check_job(const SweepJob& job, std::ostream* ndjson);

struct FuzzSummary {
  std::size_t specs = 0;
  std::size_t failed_specs = 0;
  std::vector<FuzzFailure> failures;
};

/// Generate `count` random specs from Rng(seed) (one forked stream per
/// spec, so any prefix of the sweep is reproducible) and check_job each.
/// Failures are echoed to `err` with their replay artifact as they occur.
FuzzSummary run_fuzz(std::uint64_t seed, std::size_t count,
                     std::ostream* ndjson, std::ostream& err);

}  // namespace ba::sim
