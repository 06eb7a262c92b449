#include "sim/sweep.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "common/check.h"
#include "common/parse.h"
#include "common/table.h"
#include "sim/protocol.h"

namespace ba::sim {

// --------------------------------------------------- job line artifact --

namespace {

bool needs_escape(char c) {
  return c == '%' || c == ' ' || c == '\t' || c == '\r' || c == '\n';
}

std::string escape_value(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    if (needs_escape(c)) {
      char buf[4];
      std::snprintf(buf, sizeof buf, "%%%02X",
                    static_cast<unsigned char>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string unescape_value(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (v[i] != '%') {
      out += v[i];
      continue;
    }
    if (i + 2 >= v.size() || !std::isxdigit(v[i + 1]) ||
        !std::isxdigit(v[i + 2]))
      throw std::invalid_argument("job line: bad %XX escape in value");
    out += static_cast<char>(
        std::strtoul(v.substr(i + 1, 2).c_str(), nullptr, 16));
    i += 2;
  }
  return out;
}

}  // namespace

std::string format_job_line(const SweepJob& job) {
  std::string line = "seed_offset=" + std::to_string(job.seed_offset);
  for (const auto& [key, value] : job.spec.to_kv()) {
    line += ' ';
    line += key;
    line += '=';
    line += escape_value(value);
  }
  return line;
}

SweepJob parse_job_line(const std::string& line) {
  SweepJob job;
  bool saw_offset = false;
  std::vector<std::pair<std::string, std::string>> kv;
  std::size_t pos = 0;
  while (pos < line.size()) {
    std::size_t end = line.find(' ', pos);
    if (end == std::string::npos) end = line.size();
    if (end > pos) {
      const std::string token = line.substr(pos, end - pos);
      const std::size_t eq = token.find('=');
      if (eq == std::string::npos || eq == 0)
        throw std::invalid_argument("job line: token is not key=value: " +
                                    token);
      std::string key = token.substr(0, eq);
      std::string value = unescape_value(token.substr(eq + 1));
      if (key == "seed_offset") {
        if (saw_offset)
          throw std::invalid_argument("job line: duplicate seed_offset");
        saw_offset = true;
        job.seed_offset = parse_unsigned(value, "job line: seed_offset");
      } else {
        kv.emplace_back(std::move(key), std::move(value));
      }
    }
    pos = end + 1;
  }
  job.spec = ScenarioSpec::from_kv(kv);  // rejects duplicate/unknown keys
  return job;
}

// -------------------------------------------------------------- grids --

std::vector<SweepJob> expand_grid(const std::vector<GridAxis>& axes) {
  std::vector<SweepJob> jobs;
  for (const GridAxis& axis : axes) {
    ScenarioSpec base = ScenarioRegistry::get(axis.scenario);
    for (const auto& [key, value] : axis.overrides) base.apply(key, value);
    const std::vector<std::size_t> ns =
        axis.n_values.empty() ? std::vector<std::size_t>{base.n}
                              : axis.n_values;
    const std::vector<std::size_t> workers =
        axis.workers.empty() ? std::vector<std::size_t>{0} : axis.workers;
    for (std::size_t n : ns)
      for (std::size_t w : workers)
        for (std::size_t s = 0; s < axis.seeds; ++s)
          jobs.push_back(
              SweepJob{base.with_n(n).with_workers(w), s});
  }
  return jobs;
}

std::vector<GridAxis> default_grid() {
  std::vector<GridAxis> g;
  // The exponent-fit family: everywhere BA (the full Thm 1 pipeline) over
  // a decade and a half of n. The aggregator fits max-bits-per-processor
  // vs n on this scenario's medians; the 384/512 points anchor the tail
  // where the polylog factors stop dominating the √n term.
  g.push_back({"quickstart", {},
               {16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512}, {}, 6});
  // Worker axis: parity pins byte-identical reports across pool widths;
  // relabeled so the duplicate metrics do not fold into the fit family.
  g.push_back({"quickstart", {{"name", "quickstart_workers"}}, {64}, {1, 2},
               3});
  // Baselines and the remaining protocol families, pulled to laptop n.
  g.push_back({"e9_benor_small", {}, {}, {}, 24});
  g.push_back({"matrix_benor", {}, {}, {}, 12});
  g.push_back({"e9_benor", {}, {64}, {}, 8});
  g.push_back({"e9_rabin", {}, {64}, {}, 8});
  g.push_back({"e3_aeba", {}, {64}, {}, 8});
  g.push_back({"e7_informed", {}, {64}, {}, 8});
  g.push_back({"e1_a2e_phase", {}, {64}, {}, 8});
  g.push_back({"e4_cost", {}, {64}, {}, 8});
  g.push_back({"e2_almost_everywhere", {}, {64}, {}, 8});
  g.push_back({"e11_coins", {}, {64}, {}, 6});
  g.push_back({"e13_universe_small", {}, {}, {}, 6});
  g.push_back({"e10_proc_static", {}, {64}, {}, 8});
  // Partial synchrony rides the same cloud: both scheduler modes, the
  // Ben-Or grace-window contrast, and the delta_max = 12 breaking point.
  g.push_back({"benor_delay", {}, {}, {}, 12});
  g.push_back({"benor_rush", {}, {}, {}, 12});
  g.push_back({"everywhere_delay", {}, {}, {}, 6});
  g.push_back({"everywhere_delay_break", {}, {}, {}, 6});
  return g;
}

// -------------------------------------------------------- named grids --

namespace {

using Overrides = std::vector<std::pair<std::string, std::string>>;

/// One row per value of `key`, every other knob as in `scenario` plus
/// `fixed`.
std::vector<GridAxis> rows_over(const std::string& scenario,
                                const std::string& key,
                                const std::vector<std::string>& values,
                                std::size_t seeds,
                                const Overrides& fixed = {}) {
  std::vector<GridAxis> rows;
  for (const std::string& v : values) {
    Overrides o = fixed;
    o.emplace_back(key, v);
    rows.push_back({scenario, std::move(o), {}, {}, seeds});
  }
  return rows;
}

// Each E-series grid regenerates one claim of King–Saia (arXiv
// 1002.4561) at the sizes and seed counts its table was always run at.
// Paper bounds are stated in the captions, not recomputed as columns.

NamedGrid grid_e1() {
  const std::vector<std::size_t> ns = {64, 256, 512, 1024};
  return {"e1", "Theorem 1: everywhere BA, polylog rounds, O~(sqrt n) bits",
          {},
          {{"E1 / Theorem 1 — everywhere BA: agreement w.h.p., polylog "
            "rounds, O~(n^1/2) bits per processor (10% malicious — the tree "
            "phase's supported regime at laptop-scale share parameters, "
            "src/core/params.cpp)",
            {{"e1_everywhere", {}, ns, {}, 2}},
            {{"n", "n"}, {"agree_rate", "all_good_agree"},
             {"validity", "validity"}, {"rounds", "rounds"},
             {"max_bits/proc", "max_bits_good"}},
            {"rounds", "max_bits/proc"},
            "E1 — fitted scaling exponents (y ~ n^b); paper: rounds ~0 "
            "(polylog, Theorem 1), total bits/proc O~(n^{4/delta}) from the "
            "tournament (Theorem 2), whose constants dominate at small n"},
           {"E1b / Theorem 4 — the A2E phase alone: Algorithm 3 on a fresh "
            "ledger (input and truth bit 1; bit 0 costs the same bits)",
            {{"e1_a2e_phase", {{"input_value", "1"}, {"truth_message", "1"}},
              ns, {}, 2}},
            {{"n", "n"}, {"a2e_bits/proc", "max_bits_good"}},
            {"a2e_bits/proc"},
            "E1b — fitted exponent (y ~ n^b); paper: 0.5 (Theorem 4: "
            "O~(sqrt n))"}}};
}

NamedGrid grid_e2() {
  return {"e2", "Theorem 2: almost-everywhere BA via the tournament",
          {},
          {{"E2 / Theorem 2 — almost-everywhere BA via the tournament (10% "
            "malicious): all but a 1/log n fraction of good processors "
            "agree, in O(log^{4+delta} n / log log n) rounds",
            {{"e2_almost_everywhere", {}, {64, 256, 512}, {}, 3}},
            {{"n", "n"}, {"agree_frac", "agreement_fraction"},
             {"validity", "validity"}, {"rounds", "rounds"},
             {"max_bits/proc", "max_bits_good"},
             {"mean_election_agree", "election_agreement"}},
            {"rounds", "max_bits/proc"},
            "E2 — fitted scaling exponents (y ~ n^b); paper: rounds ~0 "
            "(polylog), bits/proc O~(n^{4/delta}), sublinear for delta > 4"}}};
}

NamedGrid grid_e3() {
  const std::vector<std::string> corrupt = {"0.0",  "0.05", "0.10", "0.15",
                                            "0.20", "0.25", "0.30"};
  const std::vector<std::string> bad = {"0.0", "0.2", "0.3333333333333333",
                                        "0.5", "0.7", "0.9"};
  const GridColumn agree{"agreement", "agreement_fraction"};
  const GridColumn valid{"validity", "input_preserved"};
  const GridColumn c{"corrupt", "corrupt_fraction"};
  const GridColumn b{"bad_coin_frac", "bad_coin_fraction"};
  const std::string all_but =
      "; Theorem 5: all but C2 n / log n good processors commit to the "
      "same vote";
  return {
      "e3", "Theorems 3 and 5: AEBA with unreliable global coins", {},
      {{"E3a / Theorem 5 — AEBA agreement vs corruption fraction, split "
        "inputs (n=400, random 2 log n-regular graph, 1/3 of coins "
        "adversarial)" + all_but,
        rows_over("e3_aeba", "corrupt_fraction", corrupt, 4),
        {c, agree, {"min_informed", "min_informed_fraction"}}},
       {"E3a validity — unanimous input preserved (decided bit = input, "
        ">= 95% agreeing) vs corruption fraction",
        rows_over("e3_aeba_unanimous", "corrupt_fraction", corrupt, 4),
        {c, valid}},
       {"E3b / Theorem 3 — AEBA agreement vs fraction of adversarial coin "
        "rounds, split inputs (20% corruption; the theorem needs only t "
        "honest rounds)",
        rows_over("e3_aeba", "bad_coin_fraction", bad, 4), {b, agree}},
       {"E3b validity — unanimous input preserved vs fraction of "
        "adversarial coin rounds",
        rows_over("e3_aeba_unanimous", "bad_coin_fraction", bad, 4),
        {b, valid}},
       {"E3c / Theorem 5 — AEBA agreement vs n (20% corruption, 1/3 bad "
        "coins)" + all_but,
        {{"e3_aeba", {}, {128, 256, 512, 1024}, {}, 4}},
        {{"n", "n"}, agree}}}};
}

NamedGrid grid_e4() {
  return {
      "e4", "Theorem 4, Lemmas 7-9: almost-everywhere to everywhere (A2E)",
      {},
      {{"E4a / Lemmas 7-8 — A2E vs knowledgeable fraction, n=512 (20% "
        "corrupt responders answer wrongly): loop success and wrong "
        "decisions; Lemma 7: a loop succeeds w.p. >= 1 - 4/(eps log n) - "
        "1/n^c",
        rows_over("e4_a2e", "input_fraction",
                  {"0.55", "0.65", "0.75", "0.85", "0.95"}, 3),
        {{"knowledgeable", "input_fraction"},
         {"first_loop_success", "first_loop_success"},
         {"final_agree_frac", "agreement_fraction"},
         {"wrong_frac", "wrong_fraction"}}},
       {"E4b / Lemma 9 — knowledgeable processors overloaded per loop "
        "under request flooding, n=512 (bound: at most (eps/4) n, w.p. "
        ">= 1 - 4/(eps log n))",
        rows_over("e4_flooding", "flood_per_pair", {"0", "64", "256", "1024"},
                  3),
        {{"flood_per_pair", "flood_per_pair"},
         {"max_overloaded", "max_overloaded", Reduce::kMax}}},
       {"E4c / Theorem 4 — A2E per-processor bits ~ O~(sqrt n)",
        {{"e4_cost", {}, {256, 1024, 4096}, {}, 1}},
        {{"n", "n"}, {"max_bits/proc", "max_bits_good"}},
        {"max_bits/proc"},
        "E4c — fitted exponent (y ~ n^b); paper: 0.5 + o(1) (Theorem 4)"}}};
}

NamedGrid grid_e6() {
  NamedGrid g{"e6", "Lemma 6, Figure 1: good winning arrays per level", {},
              {}};
  // Levels 2 and 3 are every election level of the n = 512 tree.
  for (const std::string level : {"2", "3"}) {
    const std::string p = "level" + level + "_";
    g.tables.push_back(
        {"E6 / Lemma 6 — winning arrays at level " + level +
             ", n=512, summed over 3 seeds; paper: at least a 2/3 - "
             "7l/log n fraction of winning arrays are good on every level l",
         rows_over("e6_survival", "corrupt_fraction",
                   {"0.0", "0.05", "0.10", "0.15"}, 3),
         {{"corrupt", "corrupt_fraction"},
          {"elections", p + "elections", Reduce::kSum},
          {"winners", p + "winners", Reduce::kSum},
          {"good_winners", p + "good_winners", Reduce::kSum},
          {"good_frac", p + "good_winners", Reduce::kSum, p + "winners"},
          {"election_agreement", p + "election_agreement"}}});
  }
  return g;
}

NamedGrid grid_e7() {
  return {
      "e7", "Lemma 11: almost all good processors are informed each round",
      {},
      {{"E7a / Lemma 11 — informed fraction vs graph degree k log2 n (k = "
        "0.5, 1, 2, 3, 4), n=512, 20% malicious; paper: all but C2 n / "
        "log n good processors informed",
        rows_over("e7_informed", "aeba_degree", {"4", "9", "18", "27", "36"},
                  3),
        {{"degree", "aeba_degree"},
         {"mean_informed", "mean_informed_fraction"},
         {"min_informed", "min_informed_fraction", Reduce::kMin}}},
       {"E7b / Lemma 11 — mean informed fraction vs n (degree 2 log2 n, 20% "
        "malicious): the deficit tracks C2/log n",
        {{"e7_informed", {}, {128, 512, 2048}, {}, 3}},
        {{"n", "n"}, {"mean_informed", "mean_informed_fraction"}}}}};
}

NamedGrid grid_e9() {
  const std::vector<std::size_t> ns = {64, 256, 512, 1024};
  return {"e9", "§1: quadratic all-to-all baselines vs o(n^2) total bits",
          {},
          {{"E9 — total bits, same simulator: quadratic baselines vs "
            "King-Saia (10% malicious; Ben-Or vs 10% crash, its classic "
            "t<n/5 regime)",
            {{"e9_rabin", {}, ns, {}, 1},
             {"e9_benor", {}, ns, {}, 1},
             {"e9_kingsaia", {}, ns, {}, 1}},
            {{"scenario", "name"}, {"n", "n"},
             {"total_bits", "total_bits_good"},
             {"max_bits/proc", "max_bits_good"}},
            {"total_bits"},
            "E9 — fitted total-bit exponents (total ~ n^b); paper: 2.0 for "
            "the all-to-all baselines (the O(n^2) barrier), 1.5 for "
            "King-Saia (n x O~(sqrt n)), whose laptop constants are large"}}};
}

NamedGrid grid_e10() {
  const std::string tail =
      ", n=256 — the same adaptive winner takeover against electing "
      "processors (KSSV'06-style baseline) and electing secret-shared "
      "arrays (this paper)";
  const std::vector<GridColumn> cols = {{"scenario", "name"},
                                        {"agree_frac", "agreement_fraction"},
                                        {"validity_rate", "validity"}};
  std::vector<GridColumn> proc_cols = cols;
  proc_cols.push_back({"committee_corrupt_frac", "committee_corrupt_fraction"});
  return {"e10", "§1.3: adaptive takeover breaks processor election only",
          {},
          {{"E10a / §1.3 — processor election" + tail,
            {{"e10_proc_static", {}, {}, {}, 4},
             {"e10_proc_adaptive", {}, {}, {}, 4}},
            proc_cols},
           {"E10b / §1.3 — array election" + tail,
            {{"e10_array_static", {}, {}, {}, 4},
             {"e10_array_adaptive", {}, {}, {}, 4}},
            cols}}};
}

NamedGrid grid_e11() {
  return {"e11", "§3.5: the global coin subsequence",
          {},
          {{"E11 / §3.5 — global coin subsequence quality (10% malicious); "
            "paper: a 2/3 + eps - 5/log log n fraction of the words are "
            "random and known to a 1 - 1/log n fraction of good processors",
            {{"e11_coins", {}, {256, 512}, {}, 3}},
            {{"n", "n"}, {"seq_len", "seq_length", Reduce::kMax},
             {"good_frac", "seq_good_words", Reduce::kMean, "seq_length"},
             {"min_agreement", "seq_min_agreement"},
             {"bit_bias", "seq_bit_bias"}}}}};
}

NamedGrid grid_e12() {
  const GridColumn agree{"agree", "agreement_fraction"};
  const GridColumn valid{"valid", "validity"};
  const GridColumn bits{"max_bits/proc", "max_bits_good"};
  const GridColumn rounds{"rounds", "rounds"};
  auto table = [](std::string caption, const std::string& key,
                  const std::vector<std::string>& values,
                  std::vector<GridColumn> cols) {
    cols.insert(cols.begin(), GridColumn{key, key});
    return GridTable{std::move(caption),
                     rows_over("e12_ablation", key, values, 2), cols};
  };
  return {
      "e12", "design ablations: q, w, d_up, vote degree, lock rule, corruption",
      {},
      {table("E12a — branching factor q (tree depth vs election width), "
             "n=512",
             "q", {"4", "8", "16"}, {agree, valid, bits, rounds}),
       table("E12b — winners per election w (candidate pool size)", "w",
             {"1", "2", "3"}, {agree, valid, bits, rounds}),
       table("E12c — uplink degree d_up: share blowup (cost) vs "
             "Berlekamp-Welch margin (robustness). t = d/4, corrects "
             "(d - d/4 - 1)/2",
             "d_up", {"6", "9", "12", "15"}, {agree, valid, bits}),
       table("E12d — intra-node vote-graph out-degree (Lemma 11's k)",
             "g_intra", {"4", "8", "12", "16"}, {agree, valid, bits}),
       table("E12e — Rabin decide/lock rule: on (default, 0.85/0.75) vs "
             "paper-literal commit-at-end (lock_rule_off)",
             "lock_rule_off", {"false", "true"}, {agree, valid}),
       table("E12f — corruption tolerance at laptop-scale parameters (the "
             "binomial tail of corrupt holders per dealing, "
             "src/core/params.cpp)",
             "corrupt_fraction",
             {"0.05", "0.10", "0.15", "0.20", "0.25", "0.30"},
             {agree, valid})}};
}

NamedGrid grid_e13() {
  const GridColumn committee_good{"committee_good_frac",
                                  "committee_good_fraction"};
  const GridColumn population_good{"population_good_frac",
                                   "population_good_fraction"};
  return {
      "e13", "§1: O~(sqrt n) universe reduction to a representative committee",
      {},
      {{"E13a / §1 — universe reduction: committee good-fraction vs "
        "population (representative sampling), n=256",
        rows_over("e13_universe", "corrupt_fraction", {"0.0", "0.05", "0.10"},
                  3),
        {{"corrupt", "corrupt_fraction"}, {"committee", "committee_size"},
         committee_good, population_good,
         {"view_agreement", "agreement_fraction"}}},
       {"E13b — committee size sweep (10% malicious): sampling stays "
        "representative as the committee grows",
        rows_over("e13_universe", "committee_size", {"4", "8", "16", "32"}, 3,
                  {{"adversary_seed", "300"},
                   {"protocol_seed", "400"},
                   {"coin_words", "8"}}),
        {{"committee_size", "committee_size"}, committee_good,
         population_good}}}};
}

/// The row's label for a spec key: its override as written, else the
/// spec's to_kv value.
std::optional<std::string> label_value(const GridAxis& row,
                                       const ScenarioSpec& spec,
                                       const std::string& key) {
  for (auto it = row.overrides.rbegin(); it != row.overrides.rend(); ++it)
    if (it->first == key) return it->second;
  for (const auto& [k, v] : spec.to_kv())
    if (k == key) return v;
  return std::nullopt;
}

/// A label prints as an integer or a double when it parses as one.
Cell label_cell(const std::string& v) {
  char* end = nullptr;
  const long long i = std::strtoll(v.c_str(), &end, 10);
  if (!v.empty() && *end == '\0') return static_cast<std::int64_t>(i);
  const double d = std::strtod(v.c_str(), &end);
  if (!v.empty() && *end == '\0') return d;
  return v;
}

Cell number_cell(const GridColumn& c, double v) {
  if (c.reduce != Reduce::kMean && c.per.empty() && v == std::floor(v) &&
      std::fabs(v) < 1e15)
    return static_cast<std::int64_t>(v);
  return v;
}

double reduce(Reduce how, const std::vector<double>& v) {
  if (how == Reduce::kMin) return *std::min_element(v.begin(), v.end());
  if (how == Reduce::kMax) return *std::max_element(v.begin(), v.end());
  double sum = 0.0;
  for (double x : v) sum += x;
  return how == Reduce::kSum ? sum : sum / static_cast<double>(v.size());
}

/// A deterministic numeric RunReport field or an extras key; nullopt for
/// unknown names and for tri-state fields at -1.
std::optional<double> report_value(const RunReport& r,
                                   const std::string& field) {
  auto tri = [](int v) -> std::optional<double> {
    if (v < 0) return std::nullopt;
    return static_cast<double>(v);
  };
  if (field == "corrupt_count") return static_cast<double>(r.corrupt_count);
  if (field == "decided_bit") return tri(r.decided_bit);
  if (field == "validity") return tri(r.validity);
  if (field == "all_good_agree") return tri(r.all_good_agree);
  if (field == "agreement_fraction") return r.agreement_fraction;
  if (field == "rounds") return static_cast<double>(r.rounds);
  if (field == "max_bits_good") return static_cast<double>(r.max_bits_good);
  if (field == "total_bits_good")
    return static_cast<double>(r.total_bits_good);
  if (field == "total_msgs_good")
    return static_cast<double>(r.total_msgs_good);
  for (const auto& [key, value] : r.extras)
    if (key == field) return value;
  return std::nullopt;
}

}  // namespace

const std::vector<NamedGrid>& named_grids() {
  static const std::vector<NamedGrid> grids = {
      {"default",
       "the BENCH_protocol.json ledger: the everywhere-BA n-curve and every "
       "protocol family",
       default_grid(),
       {}},
      grid_e1(), grid_e2(), grid_e3(), grid_e4(), grid_e6(), grid_e7(),
      grid_e9(), grid_e10(), grid_e11(), grid_e12(), grid_e13()};
  return grids;
}

const NamedGrid* find_grid(const std::string& name) {
  for (const NamedGrid& g : named_grids())
    if (g.name == name) return &g;
  return nullptr;
}

std::vector<SweepJob> grid_jobs(const NamedGrid& grid) {
  std::vector<GridAxis> axes = grid.axes;
  for (const GridTable& t : grid.tables) {
    BA_REQUIRE(!t.rows.empty() && !t.columns.empty(),
               "grid " + grid.name + ": table without rows or columns: " +
                   t.caption);
    for (const std::string& fit : t.fits) {
      bool found = false;
      for (const GridColumn& c : t.columns) found = found || c.header == fit;
      BA_REQUIRE(found, "grid " + grid.name + ": fit names no column: " + fit);
    }
    axes.insert(axes.end(), t.rows.begin(), t.rows.end());
  }
  std::vector<SweepJob> jobs;
  std::set<std::string> seen;
  for (SweepJob& job : expand_grid(axes))
    if (seen.insert(format_job_line(job)).second)
      jobs.push_back(std::move(job));
  return jobs;
}

void print_grid_tables(std::ostream& os, const NamedGrid& grid,
                       const std::vector<RunReport>& reports) {
  const std::vector<SweepJob> jobs = grid_jobs(grid);
  BA_REQUIRE(jobs.size() == reports.size(),
             "grid " + grid.name + ": one report per job required");
  std::map<std::string, const RunReport*> by_line;
  for (std::size_t i = 0; i < jobs.size(); ++i)
    by_line[format_job_line(jobs[i])] = &reports[i];

  for (const GridTable& t : grid.tables) {
    Table table(t.caption);
    std::vector<std::string> header;
    for (const GridColumn& c : t.columns) header.push_back(c.header);
    table.header(header);
    // Per printed line: its scenario, then log n and the log of every
    // fitted cell.
    std::vector<std::pair<std::string, std::vector<double>>> points;
    for (const GridAxis& row : t.rows) {
      const std::vector<SweepJob> row_jobs = expand_grid({row});
      for (std::size_t first = 0; first < row_jobs.size();
           first += row.seeds) {
        const SweepJob& job = row_jobs[first];
        auto reduced = [&](const GridColumn& c, const std::string& field) {
          std::vector<double> v;
          for (std::size_t s = first; s < first + row.seeds; ++s) {
            const RunReport& r = *by_line.at(format_job_line(row_jobs[s]));
            const std::optional<double> x = report_value(r, field);
            BA_REQUIRE(x.has_value(), "grid " + grid.name + ": column " +
                                          c.header + " reads no field '" +
                                          field + "' of " + r.scenario);
            v.push_back(*x);
          }
          return reduce(c.reduce, v);
        };
        std::vector<Cell> cells;
        cells.reserve(t.columns.size());
        std::vector<double> fitted = {
            std::log(static_cast<double>(job.spec.n))};
        for (const GridColumn& c : t.columns) {
          if (const auto label = label_value(row, job.spec, c.field)) {
            cells.push_back(label_cell(*label));
            continue;
          }
          double v = reduced(c, c.field);
          if (!c.per.empty()) v /= reduced(c, c.per);
          cells.push_back(number_cell(c, v));
          if (std::count(t.fits.begin(), t.fits.end(), c.header))
            fitted.push_back(std::log(v));
        }
        table.row(std::move(cells));
        points.emplace_back(job.spec.name, std::move(fitted));
      }
    }
    table.print(os);
    if (t.fits.empty()) continue;

    // Fitted columns in column order, one fit per scenario and column.
    Table fit(t.fit_caption);
    fit.header({"scenario", "series", "measured_b"});
    std::set<std::string> done;
    for (const auto& [scenario, unused] : points) {
      if (!done.insert(scenario).second) continue;
      std::size_t f = 0;
      for (const GridColumn& c : t.columns) {
        if (!std::count(t.fits.begin(), t.fits.end(), c.header)) continue;
        std::vector<double> x, y;
        for (const auto& [s, p] : points)
          if (s == scenario) {
            x.push_back(p[0]);
            y.push_back(p[f + 1]);
          }
        fit.row({scenario, c.header, least_squares_slope(x, y)});
        ++f;
      }
    }
    fit.print(os);
  }
}

// ----------------------------------------------------- NDJSON reading --

namespace {

/// Sequential cursor over one write_json line. The schema is fixed, so
/// the parser simply expects each literal in emission order — any
/// deviation is a loud error, and a successful parse re-emits byte for
/// byte.
class JsonCursor {
 public:
  explicit JsonCursor(const std::string& s) : s_(s) {}

  void expect(const char* lit) {
    const std::size_t len = std::strlen(lit);
    BA_REQUIRE(s_.compare(pos_, len, lit) == 0,
               std::string("report JSON: expected '") + lit +
                   "' at offset " + std::to_string(pos_));
    pos_ += len;
  }

  bool peek(const char* lit) const {
    return s_.compare(pos_, std::strlen(lit), lit) == 0;
  }

  std::string string_value() {
    expect("\"");
    std::string out;
    while (true) {
      BA_REQUIRE(pos_ < s_.size(), "report JSON: unterminated string");
      const char c = s_[pos_];
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c == '\\') {
        BA_REQUIRE(pos_ + 1 < s_.size(), "report JSON: dangling escape");
        const char e = s_[pos_ + 1];
        if (e == '"' || e == '\\') {
          out += e;
          pos_ += 2;
        } else if (e == 'u') {
          BA_REQUIRE(pos_ + 5 < s_.size(),
                     "report JSON: truncated \\u escape");
          const std::string hex = s_.substr(pos_ + 2, 4);
          char* end = nullptr;
          const unsigned long v = std::strtoul(hex.c_str(), &end, 16);
          BA_REQUIRE(end == hex.c_str() + 4 && v < 0x80,
                     "report JSON: unsupported \\u escape");
          out += static_cast<char>(v);
          pos_ += 6;
        } else {
          BA_REQUIRE(false, "report JSON: unknown escape");
        }
      } else {
        out += c;
        ++pos_;
      }
    }
  }

  std::uint64_t u64_value() {
    BA_REQUIRE(pos_ < s_.size() && std::isdigit(s_[pos_]),
               "report JSON: expected unsigned integer at offset " +
                   std::to_string(pos_));
    char* end = nullptr;
    const std::uint64_t v = std::strtoull(s_.c_str() + pos_, &end, 10);
    pos_ = static_cast<std::size_t>(end - s_.c_str());
    return v;
  }

  int int_value() {
    const bool neg = pos_ < s_.size() && s_[pos_] == '-';
    if (neg) ++pos_;
    const std::uint64_t mag = u64_value();
    BA_REQUIRE(mag <= 1u << 30, "report JSON: integer out of range");
    return neg ? -static_cast<int>(mag) : static_cast<int>(mag);
  }

  double double_value() {
    char* end = nullptr;
    const double v = std::strtod(s_.c_str() + pos_, &end);
    BA_REQUIRE(end != s_.c_str() + pos_,
               "report JSON: expected number at offset " +
                   std::to_string(pos_));
    pos_ = static_cast<std::size_t>(end - s_.c_str());
    return v;
  }

  bool done() const { return pos_ == s_.size(); }

 private:
  const std::string& s_;
  std::size_t pos_ = 0;
};

ProtocolKind protocol_kind_from_name(const std::string& name) {
  static constexpr ProtocolKind kKinds[] = {
      ProtocolKind::kEverywhere,        ProtocolKind::kAlmostEverywhere,
      ProtocolKind::kAeba,              ProtocolKind::kBenOr,
      ProtocolKind::kRabin,             ProtocolKind::kA2E,
      ProtocolKind::kUniverseReduction, ProtocolKind::kProcessorElection,
  };
  for (ProtocolKind k : kKinds)
    if (name == to_string(k)) return k;
  BA_REQUIRE(false, "report JSON: unknown protocol name: " + name);
  return ProtocolKind::kEverywhere;
}

}  // namespace

RunReport parse_report_json(const std::string& line, bool* had_timing) {
  RunReport r;
  JsonCursor c(line);
  c.expect("{\"scenario\":");
  r.scenario = c.string_value();
  c.expect(",\"protocol\":");
  r.protocol = protocol_kind_from_name(c.string_value());
  c.expect(",\"n\":");
  r.n = static_cast<std::size_t>(c.u64_value());
  c.expect(",\"seed_offset\":");
  r.seed_offset = c.u64_value();
  c.expect(",\"workers\":");
  r.workers = static_cast<std::size_t>(c.u64_value());
  c.expect(",\"corrupt_count\":");
  r.corrupt_count = static_cast<std::size_t>(c.u64_value());
  c.expect(",\"decided_bit\":");
  r.decided_bit = c.int_value();
  c.expect(",\"validity\":");
  r.validity = c.int_value();
  c.expect(",\"all_good_agree\":");
  r.all_good_agree = c.int_value();
  c.expect(",\"agreement_fraction\":");
  r.agreement_fraction = c.double_value();
  c.expect(",\"rounds\":");
  r.rounds = c.u64_value();
  c.expect(",\"max_bits_good\":");
  r.max_bits_good = c.u64_value();
  c.expect(",\"total_bits_good\":");
  r.total_bits_good = c.u64_value();
  c.expect(",\"total_msgs_good\":");
  r.total_msgs_good = c.u64_value();
  c.expect(",\"fingerprint\":");
  {
    const std::string fp = c.string_value();
    BA_REQUIRE(fp.size() == 16 &&
                   fp.find_first_not_of("0123456789abcdef") ==
                       std::string::npos,
               "report JSON: fingerprint must be 16 lowercase hex digits");
    r.fingerprint = std::strtoull(fp.c_str(), nullptr, 16);
  }
  c.expect(",\"extras\":{");
  if (!c.peek("}")) {
    while (true) {
      std::string key = c.string_value();
      c.expect(":");
      const double value = c.double_value();
      r.extras.emplace_back(std::move(key), value);
      if (c.peek(",")) {
        c.expect(",");
        continue;
      }
      break;
    }
  }
  c.expect("}");
  const bool timing = c.peek(",\"wall_ms\":");
  if (had_timing != nullptr) *had_timing = timing;
  if (timing) {
    c.expect(",\"wall_ms\":");
    r.wall_ms = c.double_value();
    c.expect(",\"peak_rss_kb\":");
    r.peak_rss_kb = c.u64_value();
  }
  c.expect("}");
  BA_REQUIRE(c.done(), "report JSON: trailing bytes after object");
  return r;
}

// -------------------------------------------------------- aggregation --

namespace {

std::uint64_t median_u64(std::vector<std::uint64_t>& v) {
  BA_REQUIRE(!v.empty(), "median of an empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  // Even sample: lower-median — keeps the statistic an integer a run
  // actually produced (exact across platforms, unlike an averaged .5).
  return v.size() % 2 == 1 ? v[mid] : v[mid - 1];
}

struct FitInput {
  std::vector<double> x, y;
};

double r2_of(const std::vector<double>& x, const std::vector<double>& y) {
  const double n = static_cast<double>(x.size());
  double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    syy += y[i] * y[i];
    sxy += x[i] * y[i];
  }
  const double cov = sxy - sx * sy / n;
  const double vx = sxx - sx * sx / n;
  const double vy = syy - sy * sy / n;
  return vy > 0 && vx > 0 ? (cov * cov) / (vx * vy) : 1.0;
}

}  // namespace

double least_squares_slope(const std::vector<double>& x,
                           const std::vector<double>& y) {
  BA_REQUIRE(x.size() == y.size(), "paired samples required");
  const double n = static_cast<double>(x.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
  }
  const double var = sxx - sx * sx / n;
  BA_REQUIRE(var > 0, "exponent fit needs at least two distinct n");
  return (sxy - sx * sy / n) / var;
}

ProtocolLedger aggregate_reports(const std::vector<RunReport>& reports) {
  ProtocolLedger ledger;
  ledger.jobs = reports.size();

  // Group by (scenario, n), keeping first-seen order until the final
  // deterministic sort.
  struct Group {
    std::string scenario;
    std::string protocol;
    std::size_t n = 0;
    std::vector<const RunReport*> runs;
  };
  std::vector<Group> groups;
  for (const RunReport& r : reports) {
    ledger.wall_ms_total += r.wall_ms;
    Group* g = nullptr;
    for (Group& cand : groups)
      if (cand.scenario == r.scenario && cand.n == r.n) {
        g = &cand;
        break;
      }
    if (g == nullptr) {
      groups.push_back(Group{r.scenario, to_string(r.protocol), r.n, {}});
      g = &groups.back();
    }
    BA_REQUIRE(g->protocol == to_string(r.protocol),
               "aggregate: one (scenario, n) group mixes protocols");
    g->runs.push_back(&r);
  }
  std::sort(groups.begin(), groups.end(), [](const Group& a, const Group& b) {
    return a.scenario != b.scenario ? a.scenario < b.scenario : a.n < b.n;
  });

  for (const Group& g : groups) {
    ScenarioAggregate agg;
    agg.scenario = g.scenario;
    agg.protocol = g.protocol;
    agg.n = g.n;
    agg.runs = g.runs.size();
    std::size_t agree_meaningful = 0, agree_yes = 0;
    std::size_t validity_meaningful = 0, validity_yes = 0;
    std::vector<std::uint64_t> max_bits, total_bits;
    double frac_sum = 0.0, rounds_sum = 0.0;
    for (const RunReport* r : g.runs) {
      if (r->all_good_agree != -1) {
        ++agree_meaningful;
        agree_yes += r->all_good_agree != 0 ? 1 : 0;
      }
      if (r->validity != -1) {
        ++validity_meaningful;
        validity_yes += r->validity != 0 ? 1 : 0;
      }
      frac_sum += r->agreement_fraction;
      rounds_sum += static_cast<double>(r->rounds);
      max_bits.push_back(r->max_bits_good);
      total_bits.push_back(r->total_bits_good);
      agg.max_max_bits_good = std::max(agg.max_max_bits_good,
                                       r->max_bits_good);
      agg.max_rounds = std::max(agg.max_rounds, r->rounds);
      agg.wall_ms += r->wall_ms;
    }
    if (agree_meaningful > 0)
      agg.agreement_rate = static_cast<double>(agree_yes) /
                           static_cast<double>(agree_meaningful);
    if (validity_meaningful > 0)
      agg.validity_rate = static_cast<double>(validity_yes) /
                          static_cast<double>(validity_meaningful);
    agg.mean_agreement_fraction =
        frac_sum / static_cast<double>(g.runs.size());
    agg.mean_rounds = rounds_sum / static_cast<double>(g.runs.size());
    agg.median_max_bits_good = median_u64(max_bits);
    agg.median_total_bits_good = median_u64(total_bits);
    ledger.scenarios.push_back(std::move(agg));
  }

  // Fit family: the everywhere-protocol scenario with the most distinct
  // n values (ties broken by name, so the choice is deterministic).
  std::string family;
  std::size_t family_points = 0;
  for (const ScenarioAggregate& a : ledger.scenarios) {
    if (a.protocol != to_string(ProtocolKind::kEverywhere)) continue;
    std::size_t points = 0;
    for (const ScenarioAggregate& b : ledger.scenarios)
      if (b.scenario == a.scenario) ++points;
    if (points > family_points ||
        (points == family_points && a.scenario < family)) {
      family = a.scenario;
      family_points = points;
    }
  }
  if (family_points >= 3) {
    ExponentFit fit;
    fit.family = family;
    FitInput raw, log3;
    for (const ScenarioAggregate& a : ledger.scenarios) {
      if (a.scenario != family) continue;
      fit.points.emplace_back(a.n, a.median_max_bits_good);
      const double x = std::log(static_cast<double>(a.n));
      const double y =
          std::log(static_cast<double>(a.median_max_bits_good));
      raw.x.push_back(x);
      raw.y.push_back(y);
      log3.x.push_back(x);
      // log(bits / log2(n)^3): Õ(√n) with the Õ taken literally.
      log3.y.push_back(y - 3.0 * std::log(x / std::log(2.0)));
    }
    fit.exponent = least_squares_slope(raw.x, raw.y);
    fit.log3_exponent = least_squares_slope(log3.x, log3.y);
    fit.r2 = r2_of(raw.x, raw.y);
    ledger.fit = std::move(fit);
  }
  return ledger;
}

void write_ledger_json(std::ostream& os, const ProtocolLedger& ledger) {
  os << "{\n";
  os << "  \"schema\": \"ba.bench_protocol.v1\",\n";
  os << "  \"grid\": \"" << ledger.grid << "\",\n";
  os << "  \"jobs\": " << ledger.jobs << ",\n";
  os << "  \"wall_ms_total\": " << json_double(ledger.wall_ms_total)
     << ",\n";
  if (ledger.fit.has_value()) {
    const ExponentFit& fit = *ledger.fit;
    os << "  \"fit\": {\n";
    os << "    \"family\": \"" << fit.family << "\",\n";
    os << "    \"metric\": \"median max_bits_good vs n\",\n";
    os << "    \"exponent\": " << json_double(fit.exponent) << ",\n";
    os << "    \"log3_exponent\": " << json_double(fit.log3_exponent)
       << ",\n";
    os << "    \"log3_ceiling\": " << json_double(kLog3ExponentCeiling)
       << ",\n";
    os << "    \"r2\": " << json_double(fit.r2) << ",\n";
    os << "    \"points\": [";
    for (std::size_t i = 0; i < fit.points.size(); ++i) {
      if (i) os << ", ";
      os << "{\"n\": " << fit.points[i].first
         << ", \"median_max_bits_good\": " << fit.points[i].second << "}";
    }
    os << "]\n  },\n";
  } else {
    os << "  \"fit\": null,\n";
  }
  os << "  \"scenarios\": [\n";
  for (std::size_t i = 0; i < ledger.scenarios.size(); ++i) {
    const ScenarioAggregate& a = ledger.scenarios[i];
    os << "    {\"scenario\": \"" << a.scenario << "\", \"protocol\": \""
       << a.protocol << "\", \"n\": " << a.n << ", \"runs\": " << a.runs
       << ", \"agreement_rate\": " << json_double(a.agreement_rate)
       << ", \"validity_rate\": " << json_double(a.validity_rate)
       << ", \"mean_agreement_fraction\": "
       << json_double(a.mean_agreement_fraction)
       << ", \"median_max_bits_good\": " << a.median_max_bits_good
       << ", \"max_max_bits_good\": " << a.max_max_bits_good
       << ", \"median_total_bits_good\": " << a.median_total_bits_good
       << ", \"mean_rounds\": " << json_double(a.mean_rounds)
       << ", \"max_rounds\": " << a.max_rounds
       << ", \"wall_ms\": " << json_double(a.wall_ms) << "}"
       << (i + 1 < ledger.scenarios.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

// -------------------------------------------------------------- fuzzer --

namespace {

template <typename T, std::size_t N>
T pick(Rng& rng, const T (&options)[N]) {
  return options[rng.below(N)];
}

bool is_tournament_kind(ProtocolKind k) {
  return k == ProtocolKind::kEverywhere ||
         k == ProtocolKind::kAlmostEverywhere ||
         k == ProtocolKind::kUniverseReduction ||
         k == ProtocolKind::kProcessorElection;
}

}  // namespace

ScenarioSpec random_spec(Rng& rng) {
  ScenarioSpec s;
  s.name = "fuzz";
  s.note.clear();

  static constexpr ProtocolKind kKinds[] = {
      ProtocolKind::kEverywhere,        ProtocolKind::kAlmostEverywhere,
      ProtocolKind::kAeba,              ProtocolKind::kBenOr,
      ProtocolKind::kRabin,             ProtocolKind::kA2E,
      ProtocolKind::kUniverseReduction, ProtocolKind::kProcessorElection,
  };
  s.protocol = pick(rng, kKinds);
  const bool tournament = is_tournament_kind(s.protocol);

  // n: the tournament tree needs n >= 4q (16 with the laptop default
  // q = 4). Even values keep every kind's graph/committee construction
  // trivially satisfiable. Tournament kinds stay small — they dominate
  // the fuzz wall clock (two full runs per spec).
  if (tournament) {
    static constexpr std::size_t kNs[] = {16, 20, 24, 32, 40, 48};
    s.n = pick(rng, kNs);
  } else {
    static constexpr std::size_t kNs[] = {8, 12, 16, 24, 32, 48, 64, 96};
    s.n = pick(rng, kNs);
  }
  static constexpr std::size_t kDivs[] = {2, 3, 4, 6, 8};
  s.budget_div = pick(rng, kDivs);
  s.workers = rng.below(10) == 0 ? 1 + rng.below(2) : 0;

  static constexpr AdversaryKind kAdversaries[] = {
      AdversaryKind::kPassive,         AdversaryKind::kStaticMalicious,
      AdversaryKind::kCrash,           AdversaryKind::kAdaptiveTakeover,
      AdversaryKind::kA2EFlooding,
  };
  s.adversary = pick(rng, kAdversaries);
  static constexpr double kFractions[] = {0.0, 0.05, 0.1, 0.2, 0.3};
  s.corrupt_fraction = pick(rng, kFractions);
  s.adversary_seed = rng.below(1u << 20);
  s.takeover_share_holders = rng.flip();
  s.flood_per_pair = 8 + rng.below(57);

  if (s.protocol == ProtocolKind::kAeba) {
    s.inputs = rng.flip() ? InputPattern::kUnanimous : InputPattern::kRandom;
  } else if (s.protocol == ProtocolKind::kA2E) {
    s.inputs =
        rng.flip() ? InputPattern::kUnanimous : InputPattern::kSampledOnes;
  } else {
    static constexpr InputPattern kPatterns[] = {
        InputPattern::kAlternating, InputPattern::kUnanimous,
        InputPattern::kRandom,      InputPattern::kBernoulli,
        InputPattern::kSampledOnes,
    };
    s.inputs = pick(rng, kPatterns);
  }
  s.input_value = static_cast<std::uint8_t>(rng.below(2));
  s.input_fraction = 0.1 * static_cast<double>(1 + rng.below(9));
  s.input_seed = rng.below(1u << 20);
  s.protocol_seed = rng.below(1u << 20);

  if (tournament) {
    s.coin_words = rng.below(4);  // 0 keeps the laptop default
    if (rng.below(3) == 0) {
      // One E12-style knob tweak per third of the tournament specs.
      switch (rng.below(6)) {
        case 0: s.q = s.n >= 32 && rng.flip() ? 8 : 4; break;
        case 1: s.w = 2 + rng.below(2); break;
        case 2: {
          static constexpr std::size_t kK1[] = {2, 4, 8};
          s.k1 = pick(rng, kK1);
          break;
        }
        case 3: s.d_up = 2 + rng.below(2); break;
        case 4: {
          static constexpr std::size_t kG[] = {4, 8, 12};
          s.g_intra = pick(rng, kG);
          break;
        }
        default: s.lock_rule_off = true; break;
      }
    }
  }
  if (s.protocol == ProtocolKind::kAlmostEverywhere)
    s.release_sequence = rng.flip();
  if (s.protocol == ProtocolKind::kUniverseReduction) {
    s.committee_size = 4 + rng.below(5);
    if (s.coin_words != 0 && s.coin_words < 3) s.coin_words = 3;
  }
  if (s.protocol == ProtocolKind::kAeba) {
    s.aeba_rounds = 4 + rng.below(21);
    s.aeba_instances = 1 + rng.below(3);
    s.aeba_degree = rng.flip() ? 0 : 4 + rng.below(5);
    s.aeba_shared_coins = rng.flip();
    static constexpr double kBad[] = {0.0, 0.2, 1.0 / 3.0};
    s.bad_coin_fraction = pick(rng, kBad);
    s.graph_seed = rng.below(1u << 20);
    s.bad_round_seed = rng.below(1u << 20);
  }
  s.coin_seed = rng.below(1u << 20);  // AEBA shared coins and Rabin
  if (s.protocol == ProtocolKind::kBenOr ||
      s.protocol == ProtocolKind::kRabin)
    s.max_rounds = 20 + rng.below(181);
  if (s.protocol == ProtocolKind::kA2E) {
    s.label_rule = rng.flip() ? LabelRule::kSplitmix : LabelRule::kLinear;
    s.label_seed = rng.below(1u << 20);
    s.a2e_repeats = rng.below(3);
    s.truth_message = rng.flip() ? 1 : 1 + rng.below(1u << 16);
  }

  const std::uint64_t sched = rng.below(10);
  if (sched >= 5) {
    s.scheduler = sched < 8 ? SchedulerKind::kBoundedDelay
                            : SchedulerKind::kReorderRush;
    s.delta_max = rng.below(5);
    s.scheduler_seed = rng.below(1u << 20);
  }
  return s;
}

namespace {

std::string json_line_of(const RunReport& r) {
  std::ostringstream os;
  r.write_json(os, /*include_timing=*/false);
  return os.str();
}

std::size_t good_count(const RunReport& r) {
  return r.n - r.corrupt_count;
}

/// Is `fraction` expressible as a/good for an integer a in [0, good]?
/// Every reported agreement fraction is such a ratio; the check pins the
/// report to the detail-block arithmetic without re-deriving `a`.
bool fraction_over(double fraction, std::size_t good) {
  if (good == 0) return fraction == 1.0 || fraction == 0.0;
  const double scaled = fraction * static_cast<double>(good);
  const auto a = static_cast<long long>(std::llround(scaled));
  if (a < 0 || static_cast<std::size_t>(a) > good) return false;
  return static_cast<double>(a) / static_cast<double>(good) == fraction;
}

/// Recompute a root-committee agreement fraction from the per-processor
/// decision vector: majority bit over good processors, then the fraction
/// agreeing with it — the exact arithmetic of
/// AebaMachine::agreement_fraction, so the comparison is bit-exact.
struct Recomputed {
  bool majority = false;
  double fraction = 1.0;
};

Recomputed recompute_agreement(const std::vector<std::uint8_t>& decision,
                               const std::vector<bool>& corrupt) {
  std::size_t good = 0, ones = 0;
  for (std::size_t p = 0; p < decision.size(); ++p) {
    if (corrupt[p]) continue;
    ++good;
    ones += decision[p] != 0 ? 1 : 0;
  }
  Recomputed out;
  out.majority = 2 * ones >= good;
  std::size_t agree = 0;
  for (std::size_t p = 0; p < decision.size(); ++p) {
    if (corrupt[p]) continue;
    agree += (decision[p] != 0) == out.majority ? 1 : 0;
  }
  out.fraction = good == 0 ? 1.0
                           : static_cast<double>(agree) /
                                 static_cast<double>(good);
  return out;
}

/// AE-family validity: the decided bit matches some good processor's
/// input (core/almost_everywhere.cpp's exact rule).
bool ae_validity(const std::vector<std::uint8_t>& inputs,
                 const std::vector<bool>& corrupt, bool decided) {
  for (std::size_t p = 0; p < inputs.size(); ++p)
    if (!corrupt[p] && (inputs[p] != 0) == decided) return true;
  return false;
}

}  // namespace

std::vector<FuzzFailure> check_job(const SweepJob& job, std::ostream* ndjson) {
  std::vector<FuzzFailure> fails;
  const std::string artifact = format_job_line(job);
  auto fail = [&fails, &artifact](const char* invariant, std::string msg) {
    fails.push_back(FuzzFailure{invariant, std::move(msg), artifact});
  };

  // --- invariant: the spec round-trips byte-identically ---------------
  try {
    if (ScenarioSpec::from_kv(job.spec.to_kv()) != job.spec)
      fail("kv_round_trip", "from_kv(to_kv()) reconstructs a different spec");
    const SweepJob parsed = parse_job_line(artifact);
    if (parsed.seed_offset != job.seed_offset || parsed.spec != job.spec ||
        format_job_line(parsed) != artifact)
      fail("kv_round_trip", "job line does not round-trip byte-identically");
  } catch (const std::exception& e) {
    fail("kv_round_trip", e.what());
  }

  // --- the run itself (twice, for the reproducibility invariant) ------
  RunReport r1, r2;
  try {
    r1 = run_scenario(job.spec, job.seed_offset);
    r2 = run_scenario(job.spec, job.seed_offset);
  } catch (const std::exception& e) {
    fail("run_throws", e.what());
    return fails;
  }
  if (ndjson != nullptr) {
    r1.write_json(*ndjson, /*include_timing=*/true);
    *ndjson << '\n';
  }

  // --- invariant: fingerprints are reproducible at a fixed seed -------
  if (r1.fingerprint != r2.fingerprint)
    fail("reproducibility", "fingerprints differ across identical runs");
  if (json_line_of(r1) != json_line_of(r2))
    fail("reproducibility", "no-timing JSON differs across identical runs");

  // --- invariant: the budget ledger is never violated -----------------
  const std::size_t budget = job.spec.n / job.spec.budget_div;
  if (r1.corrupt_count > budget)
    fail("budget", "corrupt_count " + std::to_string(r1.corrupt_count) +
                       " exceeds budget " + std::to_string(budget));
  BA_ENSURE(r1.detail != nullptr, "run_scenario reports carry detail");
  const std::vector<bool>& mask = r1.detail->corrupt_mask;
  if (mask.size() != job.spec.n) {
    fail("budget", "corrupt mask size != n");
    return fails;
  }
  std::size_t mask_count = 0;
  for (bool b : mask) mask_count += b ? 1 : 0;
  if (mask_count != r1.corrupt_count)
    fail("budget", "corrupt mask popcount != corrupt_count");
  if (job.spec.adversary == AdversaryKind::kPassive && r1.corrupt_count != 0)
    fail("budget", "passive adversary corrupted processors");

  // --- invariant: validity under unanimity with zero corruptions ------
  // The paper's validity property: if every (good) processor starts with
  // the same bit and nobody is corrupted, the protocol decides that bit.
  // Scoped to the kinds whose spec inputs are per-processor bits
  // (standalone A2E seeds beliefs, universe reduction takes no inputs)
  // and to the paper's synchronous model: a delay scheduler can starve a
  // tally entirely, and an empty tally defaults to majority 1 — a
  // legitimate decision flip the partial-synchrony suite studies, not an
  // invariant violation.
  if (job.spec.inputs == InputPattern::kUnanimous &&
      r1.corrupt_count == 0 &&
      job.spec.scheduler == SchedulerKind::kLockstep &&
      job.spec.protocol != ProtocolKind::kA2E &&
      job.spec.protocol != ProtocolKind::kUniverseReduction) {
    const int want = job.spec.input_value != 0 ? 1 : 0;
    if (r1.decided_bit != want)
      fail("validity", "unanimous input " + std::to_string(want) +
                           " but decided " +
                           std::to_string(r1.decided_bit));
    if (r1.validity != -1 && r1.validity != 1)
      fail("validity", "validity flag is 0 under unanimity with zero "
                       "corruptions");
    if (job.spec.protocol == ProtocolKind::kAeba &&
        r1.agreement_fraction != 1.0)
      fail("validity", "AEBA agreement fraction < 1 under unanimity with "
                       "zero corruptions");
  }

  // --- invariant: agreement is consistent with the detail block -------
  const std::size_t good = good_count(r1);
  switch (job.spec.protocol) {
    case ProtocolKind::kEverywhere: {
      const auto& d = r1.detail->everywhere;
      if (!d.has_value()) {
        fail("agreement", "everywhere detail missing");
        break;
      }
      const Recomputed re = recompute_agreement(d->ae.decision, mask);
      if (re.fraction != r1.agreement_fraction)
        fail("agreement", "phase-1 agreement fraction does not match the "
                          "decision vector");
      if ((d->ae.decided_bit ? 1 : 0) != (re.majority ? 1 : 0))
        fail("agreement", "phase-1 decided bit is not the good majority");
      if ((r1.all_good_agree != 0) != (d->a2e.wrong_count == 0))
        fail("agreement", "all_good_agree inconsistent with A2E wrong "
                          "count");
      std::size_t agree = 0;
      for (std::size_t p = 0; p < d->a2e.message.size(); ++p)
        if (!mask[p] &&
            d->a2e.message[p] == static_cast<std::uint64_t>(
                                     d->decided_bit ? 1 : 0))
          ++agree;
      if (agree != d->a2e.agree_count)
        fail("agreement", "A2E agree_count does not match the message "
                          "vector");
      if (d->a2e.agree_count + d->a2e.wrong_count != good)
        fail("agreement", "A2E agree + wrong counts do not cover the good "
                          "set");
      if (r1.validity !=
          (ae_validity(make_bit_inputs(job.spec, job.seed_offset), mask,
                       d->ae.decided_bit)
               ? 1
               : 0))
        fail("agreement", "validity flag does not match the input vector");
      break;
    }
    case ProtocolKind::kAlmostEverywhere: {
      const auto& d = r1.detail->ae;
      if (!d.has_value()) {
        fail("agreement", "ae detail missing");
        break;
      }
      const Recomputed re = recompute_agreement(d->decision, mask);
      if (re.fraction != r1.agreement_fraction)
        fail("agreement", "agreement fraction does not match the decision "
                          "vector");
      if ((d->decided_bit ? 1 : 0) != (re.majority ? 1 : 0))
        fail("agreement", "decided bit is not the good majority");
      if ((r1.all_good_agree != 0) != (r1.agreement_fraction >= 1.0))
        fail("agreement", "all_good_agree inconsistent with the fraction");
      if (r1.validity !=
          (ae_validity(make_bit_inputs(job.spec, job.seed_offset), mask,
                       d->decided_bit)
               ? 1
               : 0))
        fail("agreement", "validity flag does not match the input vector");
      break;
    }
    case ProtocolKind::kBenOr:
    case ProtocolKind::kRabin:
    case ProtocolKind::kProcessorElection: {
      const BaselineResult* b = nullptr;
      if (r1.detail->baseline.has_value()) b = &*r1.detail->baseline;
      if (r1.detail->election.has_value()) b = &r1.detail->election->ba;
      if (b == nullptr) {
        fail("agreement", "baseline detail missing");
        break;
      }
      if ((r1.all_good_agree != 0) != (r1.agreement_fraction == 1.0))
        fail("agreement", "all_good_agree inconsistent with the fraction");
      if (!fraction_over(r1.agreement_fraction, good))
        fail("agreement", "agreement fraction is not a good-count ratio");
      if (b->agreement_fraction != r1.agreement_fraction)
        fail("agreement", "report fraction differs from the detail block");
      break;
    }
    case ProtocolKind::kA2E: {
      const auto& d = r1.detail->a2e;
      if (!d.has_value()) {
        fail("agreement", "a2e detail missing");
        break;
      }
      std::size_t agree = 0, wrong = 0;
      for (std::size_t p = 0; p < d->message.size(); ++p) {
        if (mask[p]) continue;
        if (d->message[p] == job.spec.truth_message)
          ++agree;
        else
          ++wrong;
      }
      if (agree != d->agree_count || wrong != d->wrong_count)
        fail("agreement", "A2E agree/wrong counts do not match the message "
                          "vector");
      if ((r1.all_good_agree != 0) != (d->wrong_count == 0))
        fail("agreement", "all_good_agree inconsistent with wrong_count");
      const double expect =
          good > 0 ? static_cast<double>(d->agree_count) /
                         static_cast<double>(good)
                   : 0.0;
      if (r1.agreement_fraction != expect)
        fail("agreement", "agreement fraction is not agree_count / good");
      break;
    }
    case ProtocolKind::kAeba: {
      const auto& d = r1.detail->aeba;
      if (!d.has_value()) {
        fail("agreement", "aeba detail missing");
        break;
      }
      if (d->decided.size() != job.spec.aeba_instances ||
          d->agreement.size() != job.spec.aeba_instances) {
        fail("agreement", "AEBA per-instance vectors have the wrong size");
        break;
      }
      if (r1.decided_bit != (d->decided[0] ? 1 : 0) ||
          r1.agreement_fraction != d->agreement[0])
        fail("agreement", "report does not mirror AEBA instance 0");
      for (double a : d->agreement)
        if (!(a >= 0.0 && a <= 1.0) || !fraction_over(a, good))
          fail("agreement", "AEBA agreement fraction is not a good-count "
                            "ratio");
      break;
    }
    case ProtocolKind::kUniverseReduction: {
      const auto& d = r1.detail->universe;
      if (!d.has_value()) {
        fail("agreement", "universe detail missing");
        break;
      }
      if (r1.agreement_fraction != d->view_agreement)
        fail("agreement", "report does not mirror the view agreement");
      if (d->committee.size() != job.spec.committee_size)
        fail("agreement", "committee size differs from the spec");
      for (ProcId p : d->committee)
        if (p >= job.spec.n)
          fail("agreement", "committee member out of range");
      break;
    }
  }
  return fails;
}

FuzzSummary run_fuzz(std::uint64_t seed, std::size_t count,
                     std::ostream* ndjson, std::ostream& err) {
  FuzzSummary summary;
  const Rng master(seed);
  for (std::size_t i = 0; i < count; ++i) {
    Rng stream = master.fork(i);
    SweepJob job;
    job.spec = random_spec(stream);
    job.spec.name =
        "fuzz_" + std::to_string(seed) + "_" + std::to_string(i);
    const std::vector<FuzzFailure> fails = check_job(job, ndjson);
    ++summary.specs;
    if (!fails.empty()) {
      ++summary.failed_specs;
      for (const FuzzFailure& f : fails) {
        err << "FUZZ-FAIL[" << f.invariant << "] " << f.message << "\n"
            << "  replay: " << f.artifact << "\n";
        summary.failures.push_back(f);
      }
    }
  }
  return summary;
}

}  // namespace ba::sim
