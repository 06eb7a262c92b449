// µ — google-benchmark microbenchmarks for the hot substrate paths:
// field arithmetic, Shamir deal/reconstruct, Berlekamp–Welch decode,
// sampler construction, network round throughput, one AEBA round.
//
// After the google-benchmark suite, main() runs a before/after comparison
// harness against the seed implementations preserved in legacy_baseline.h
// and writes the results to BENCH_micro.json (override the path with
// BA_BENCH_JSON; set BA_BENCH_SMOKE=1 for a fast CI pass). Skip the
// google-benchmark suite with --benchmark_filter=SKIP_ALL to get only the
// JSON comparison.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include <thread>

#include "adversary/strategies.h"
#include "aeba/aeba_with_coins.h"
#include "common/arena.h"
#include "common/plurality.h"
#include "common/pool.h"
#include "core/share_flow.h"
#include "crypto/berlekamp_welch.h"
#include "crypto/gao.h"
#include "crypto/scheme_cache.h"
#include "common/simd.h"
#include "crypto/shamir.h"
#include "net/network.h"
#include "net/scheduler.h"
#include "sampler/sampler.h"

#include "legacy_baseline.h"

namespace ba {
namespace {

void BM_FieldMul(benchmark::State& state) {
  Rng rng(1);
  Fp a(rng.next()), b(rng.next());
  for (auto _ : state) {
    a = a * b + Fp(1);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_FieldMul);

void BM_FieldInverse(benchmark::State& state) {
  Rng rng(2);
  Fp a(rng.next() | 1);
  for (auto _ : state) {
    a = a.inverse() + Fp(1);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_FieldInverse);

void BM_ShamirDeal(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  ShamirScheme scheme(n, n / 4);
  std::vector<Fp> secret(16);
  for (auto& w : secret) w = Fp(rng.next());
  for (auto _ : state) {
    auto shares = scheme.deal(secret, rng);
    benchmark::DoNotOptimize(shares);
  }
  state.SetItemsProcessed(state.iterations() * n * 16);
}
BENCHMARK(BM_ShamirDeal)->Arg(8)->Arg(12)->Arg(32);

void BM_ShamirReconstruct(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  ShamirScheme scheme(n, n / 4);
  std::vector<Fp> secret(16);
  for (auto& w : secret) w = Fp(rng.next());
  auto shares = scheme.deal(secret, rng);
  for (auto _ : state) {
    auto rec = scheme.reconstruct(shares);
    benchmark::DoNotOptimize(rec);
  }
}
BENCHMARK(BM_ShamirReconstruct)->Arg(8)->Arg(12)->Arg(32)->Arg(48);

void BM_BatchInverse(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(40);
  std::vector<Fp> base(n);
  for (auto& x : base) x = Fp(rng.next() | 1);
  std::vector<Fp> v;
  for (auto _ : state) {
    v = base;
    batch_inverse(v);
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BatchInverse)->Arg(33)->Arg(256);

void BM_PayloadChurn(benchmark::State& state) {
  // The per-message cost of a 1-word payload: construct, move through an
  // envelope vector, destroy. Small-buffer payloads never hit the heap.
  constexpr std::size_t kBatch = 1024;
  std::vector<Envelope> envs;
  envs.reserve(kBatch);
  for (auto _ : state) {
    for (std::size_t i = 0; i < kBatch; ++i) {
      Envelope e;
      e.from = static_cast<ProcId>(i);
      e.payload = make_value_payload(1, i, 61);
      envs.push_back(std::move(e));
    }
    benchmark::DoNotOptimize(envs.data());
    envs.clear();
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_PayloadChurn);

void BM_BerlekampWelchClean(benchmark::State& state) {
  Rng rng(5);
  ShamirScheme scheme(12, 3);
  auto shares = scheme.deal({Fp(rng.next())}, rng);
  for (auto _ : state) {
    auto rec = robust_reconstruct(shares, 3);
    benchmark::DoNotOptimize(rec);
  }
}
BENCHMARK(BM_BerlekampWelchClean);

void BM_BerlekampWelchTwoErrors(benchmark::State& state) {
  Rng rng(6);
  ShamirScheme scheme(12, 3);
  auto shares = scheme.deal({Fp(rng.next())}, rng);
  shares[1].ys[0] = Fp(123);
  shares[5].ys[0] = Fp(456);
  for (auto _ : state) {
    auto rec = robust_reconstruct(shares, 3);
    benchmark::DoNotOptimize(rec);
  }
}
BENCHMARK(BM_BerlekampWelchTwoErrors);

void BM_SamplerBuild(benchmark::State& state) {
  const auto r = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Rng rng(7);
    Sampler s(r, r / 2, 12, /*distinct=*/true, rng);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_SamplerBuild)->Arg(256)->Arg(4096);

void BM_NetworkRound(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Network net(n, n / 3);
  for (auto _ : state) {
    for (ProcId p = 0; p < n; ++p)
      net.send(p, (p + 1) % static_cast<ProcId>(n),
               make_value_payload(1, p, 1));
    net.advance_round();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_NetworkRound)->Arg(1024)->Arg(4096);

void BM_AebaRound(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Network net(n, n / 3);
  Rng gr(8);
  auto graph = RegularGraph::random(n, 12, gr);
  std::vector<ProcId> members(n);
  for (std::size_t i = 0; i < n; ++i) members[i] = static_cast<ProcId>(i);
  AebaMachine machine(1, members, &graph, AebaParams{}, 48);
  SharedRandomCoins coins(Rng(9));
  std::uint64_t round = 0;
  for (auto _ : state) {
    machine.send_votes(net);
    net.advance_round();
    machine.tally_votes(net, coins, round++);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_AebaRound)->Arg(256)->Arg(1024);

}  // namespace

// ------------------------------------------------------------------------
// Before/after comparison harness: times the seed implementations from
// legacy_baseline.h against the current library on identical inputs and
// records both in BENCH_micro.json. This is the perf ledger the ROADMAP's
// "as fast as the hardware allows" goal is tracked with.
namespace bench_micro {
namespace {

struct Comparison {
  std::string name;
  std::string params;
  double legacy_ns = 0;
  double current_ns = 0;
  /// Machine-topology-dependent comparison (serial engine vs worker
  /// pool): recorded for the ledger, never gated by CI — the flag is
  /// written into BENCH_micro.json and read back by the bench-diff step.
  bool advisory = false;
  double speedup() const { return legacy_ns / current_ns; }
};

bool smoke_mode() {
  const char* v = std::getenv("BA_BENCH_SMOKE");
  return v != nullptr && v[0] == '1';
}

template <typename F>
double time_ns_per_op(F&& fn) {
  using clock = std::chrono::steady_clock;
  const double min_seconds = smoke_mode() ? 0.02 : 0.25;
  fn();  // warmup
  std::size_t done = 0;
  std::size_t batch = 1;
  const auto t0 = clock::now();
  double elapsed = 0;
  for (;;) {
    for (std::size_t i = 0; i < batch; ++i) fn();
    done += batch;
    elapsed = std::chrono::duration<double>(clock::now() - t0).count();
    if (elapsed >= min_seconds) break;
    batch = done;  // geometric growth
  }
  return elapsed * 1e9 / static_cast<double>(done);
}

Comparison compare_shamir_reconstruct() {
  // Acceptance target: >= 3x on vector reconstruction, words >= 64,
  // m = shares_needed >= 33.
  constexpr std::size_t kShares = 48, kThreshold = 32, kWords = 64;
  Rng rng(1001);
  ShamirScheme scheme(kShares, kThreshold);
  std::vector<Fp> secret(kWords);
  for (auto& w : secret) w = Fp(rng.next());
  const auto shares = scheme.deal(secret, rng);
  // Sanity: both paths must reconstruct the same value.
  BA_REQUIRE(scheme.reconstruct(shares) ==
                 legacy::shamir_reconstruct(shares, scheme.shares_needed()),
             "legacy and current reconstruction disagree");
  Comparison c;
  c.name = "shamir_vector_reconstruct";
  c.params = "shares=48 threshold=32 m=33 words=64";
  c.legacy_ns = time_ns_per_op([&] {
    auto rec = legacy::shamir_reconstruct(shares, scheme.shares_needed());
    benchmark::DoNotOptimize(rec);
  });
  c.current_ns = time_ns_per_op([&] {
    auto rec = scheme.reconstruct(shares);
    benchmark::DoNotOptimize(rec);
  });
  return c;
}

Comparison compare_shamir_deal() {
  // Acceptance target: >= 2x on dealing at n=4096-scale uplink parameters
  // (d = 48 holders, t = d/4 per share_threshold_div, words = 64). The
  // seed Horner-evaluated every word at every point with the scheme
  // rebuilt per dealing; the cached path is one blocked Vandermonde
  // product per dealing.
  constexpr std::size_t kShares = 48, kThreshold = 12, kWords = 64;
  Rng rng(2001);
  std::vector<Fp> secret(kWords);
  for (auto& w : secret) w = Fp(rng.next());
  SchemeCache cache;
  const CachedScheme& scheme = cache.scheme(kShares, kThreshold);
  // Sanity: identical Rng state must produce identical shares.
  {
    Rng a(7), b(7);
    auto l = legacy::shamir_deal(secret, kShares, kThreshold, a);
    auto c = scheme.deal(secret, b);
    for (std::size_t i = 0; i < kShares; ++i)
      BA_REQUIRE(l[i].ys == c[i].ys, "legacy and cached dealing disagree");
  }
  Comparison c;
  c.name = "shamir_vector_deal";
  c.params = "shares=48 threshold=12 words=64";
  {
    Rng r(8);
    c.legacy_ns = time_ns_per_op([&] {
      auto shares = legacy::shamir_deal(secret, kShares, kThreshold, r);
      benchmark::DoNotOptimize(shares);
    });
  }
  {
    Rng r(8);
    std::vector<VectorShare> out;
    c.current_ns = time_ns_per_op([&] {
      scheme.deal_into(secret, r, out);
      benchmark::DoNotOptimize(out);
    });
  }
  return c;
}

Comparison compare_damaged_word_decode() {
  // Acceptance target: >= 2x on beyond-fast-path decoding. 5 of 48 shares
  // fully corrupted (budget is (48 - 13) / 2 = 17): every word takes the
  // damaged path. Seed: fresh Berlekamp–Welch system build + Gaussian
  // solve per word. Current: shared-point-set Gao context, O(m^2) per
  // word, cached across calls by the SchemeCache.
  constexpr std::size_t kShares = 48, kThreshold = 12, kWords = 64;
  Rng rng(3001);
  ShamirScheme scheme(kShares, kThreshold);
  std::vector<Fp> secret(kWords);
  for (auto& w : secret) w = Fp(rng.next());
  auto shares = scheme.deal(secret, rng);
  auto bad = rng.sample_without_replacement(kShares, 5);
  for (auto b : bad)
    for (auto& y : shares[b].ys) y = Fp(rng.next());
  SchemeCache cache;
  std::vector<Fp> xs(kShares);
  for (std::size_t i = 0; i < kShares; ++i) xs[i] = Fp(shares[i].x);
  // Sanity: both decoders must recover the dealt secret.
  BA_REQUIRE(legacy::robust_reconstruct_damaged(shares, kThreshold) ==
                 std::optional<std::vector<Fp>>(secret),
             "legacy damaged decode failed");
  BA_REQUIRE(cache.robust(xs, kThreshold).reconstruct(shares) ==
                 std::optional<std::vector<Fp>>(secret),
             "current damaged decode failed");
  Comparison c;
  c.name = "damaged_word_decode";
  c.params = "shares=48 threshold=12 words=64 corrupt_shares=5";
  c.legacy_ns = time_ns_per_op([&] {
    auto rec = legacy::robust_reconstruct_damaged(shares, kThreshold);
    benchmark::DoNotOptimize(rec);
  });
  c.current_ns = time_ns_per_op([&] {
    auto rec = cache.robust(xs, kThreshold).reconstruct(shares);
    benchmark::DoNotOptimize(rec);
  });
  return c;
}

Comparison compare_damaged_word_decode_m12() {
  // The protocol's damaged-word shape: a sendDown recombination group of
  // 12 shares at t = 3 (budget 4) carrying one word, 4 shares lying.
  // Seed: fresh Berlekamp–Welch solve. Current: the cached decoder with a
  // warm per-worker scratch, exactly as ShareFlow calls it.
  constexpr std::size_t kShares = 12, kThreshold = 3;
  Rng rng(3002);
  ShamirScheme scheme(kShares, kThreshold);
  const std::vector<Fp> secret{Fp(rng.next())};
  auto shares = scheme.deal(secret, rng);
  for (auto b : rng.sample_without_replacement(kShares, 4))
    shares[b].ys[0] = Fp(rng.next());
  SchemeCache cache;
  std::vector<Fp> xs(kShares);
  std::vector<FpSpan> spans(kShares);
  for (std::size_t i = 0; i < kShares; ++i) {
    xs[i] = Fp(shares[i].x);
    spans[i] = FpSpan{shares[i].ys.data(), 1};
  }
  RobustDecoder::Scratch scratch;
  Fp out;
  // Sanity: both decoders must recover the dealt secret.
  BA_REQUIRE(legacy::robust_reconstruct_damaged(shares, kThreshold) ==
                 std::optional<std::vector<Fp>>(secret),
             "legacy damaged decode failed");
  BA_REQUIRE(cache.robust(xs, kThreshold)
                     .reconstruct_into(spans.data(), kShares, 1, &out,
                                       scratch) &&
                 out == secret[0],
             "current damaged decode failed");
  Comparison c;
  c.name = "damaged_word_decode_m12";
  c.params = "shares=12 threshold=3 words=1 corrupt_shares=4";
  c.legacy_ns = time_ns_per_op([&] {
    auto rec = legacy::robust_reconstruct_damaged(shares, kThreshold);
    benchmark::DoNotOptimize(rec);
  });
  c.current_ns = time_ns_per_op([&] {
    const bool ok = cache.robust(xs, kThreshold)
                        .reconstruct_into(spans.data(), kShares, 1, &out,
                                          scratch);
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(out);
  });
  return c;
}

Comparison compare_tagged_inbox_scan() {
  // Acceptance target: >= 2x on per-tag tally loops at n = 4096. Four
  // protocol tags multiplexed over one round (the tournament's steady
  // state); the tally walks one tag's envelopes per receiver. Seed:
  // whole-inbox filter scan. Current: per-(receiver, tag) span index
  // built during delivery.
  constexpr std::size_t kN = 4096, kFanout = 8, kTags = 4;
  Network net(kN, kN / 3);
  legacy::Network lnet(kN, kN / 3);
  for (std::size_t p = 0; p < kN; ++p) {
    for (std::size_t j = 0; j < kFanout; ++j) {
      const auto to =
          static_cast<std::uint32_t>((p * 2654435761u + 977u * j) % kN);
      for (std::uint32_t tg = 0; tg < kTags; ++tg) {
        net.send(static_cast<ProcId>(p), to,
                 make_value_payload(100 + tg, p + tg, kWordBits));
        lnet.send(static_cast<std::uint32_t>(p), to,
                  legacy::make_value_payload(100 + tg, p + tg, kWordBits));
      }
    }
  }
  net.advance_round();
  lnet.advance_round();
  const auto legacy_tally = [&] {
    std::uint64_t acc = 0;
    for (std::uint32_t p = 0; p < kN; ++p)
      for (const auto& env : lnet.inbox(p))
        if (env.payload.tag == 102) acc += env.payload.words[0];
    return acc;
  };
  const auto current_tally = [&] {
    std::uint64_t acc = 0;
    for (ProcId p = 0; p < kN; ++p)
      for (const auto& env : net.inbox(p, 102)) acc += env.payload.words[0];
    return acc;
  };
  BA_REQUIRE(legacy_tally() == current_tally(),
             "legacy and tagged tallies disagree");
  Comparison c;
  c.name = "tagged_inbox_scan";
  c.params = "n=4096 fanout=8 tags=4";
  c.legacy_ns = time_ns_per_op([&] {
    auto acc = legacy_tally();
    benchmark::DoNotOptimize(acc);
  });
  c.current_ns = time_ns_per_op([&] {
    auto acc = current_tally();
    benchmark::DoNotOptimize(acc);
  });
  return c;
}

Comparison compare_network_round() {
  // Acceptance target: >= 2x on per-round delivery at n = 4096. Senders
  // fire in a scrambled order (as they do once the rushing adversary
  // interleaves), so inboxes do not arrive pre-sorted.
  constexpr std::size_t kN = 4096, kFanout = 4;
  constexpr std::size_t kStride = 1597;  // coprime to 4096
  Network net(kN, kN / 3);
  legacy::Network lnet(kN, kN / 3);
  const auto run_round = [&](auto& n2, auto make_payload) {
    for (std::size_t i = 0; i < kN; ++i) {
      const auto p = static_cast<std::uint32_t>((i * kStride) % kN);
      for (std::size_t j = 0; j < kFanout; ++j) {
        const auto to =
            static_cast<std::uint32_t>((p * 2654435761u + 977u * j) % kN);
        n2.send(p, to, make_payload(1, p, 1));
      }
    }
    n2.advance_round();
  };
  Comparison c;
  c.name = "network_round_delivery";
  c.params = "n=4096 fanout=4 scrambled_senders";
  c.legacy_ns = time_ns_per_op(
      [&] { run_round(lnet, legacy::make_value_payload); });
  c.current_ns = time_ns_per_op([&] { run_round(net, make_value_payload); });
  return c;
}

Comparison compare_scheduler_overhead() {
  // The cost of the partial-synchrony machinery itself: the same
  // scrambled round as network_round_delivery, lockstep ("legacy") vs a
  // bounded-delay scheduler at delta_max = 0 ("current") — every draw is
  // below(1) == 0, the merge is an identity, and delivery is
  // byte-identical (pinned by the parity suite), so the ratio isolates
  // the pure per-envelope overhead of the delay draw plus the
  // per-receiver merge check. Advisory: a model-fidelity price tag, not
  // an optimization target.
  constexpr std::size_t kN = 4096, kFanout = 4;
  constexpr std::size_t kStride = 1597;  // coprime to 4096
  Network lockstep(kN, kN / 3);
  Network delayed(kN, kN / 3);
  SchedulerConfig cfg;
  cfg.mode = SchedulerMode::kBoundedDelay;
  cfg.delta_max = 0;
  cfg.seed = 42;
  delayed.set_scheduler(cfg);
  const auto run_round = [&](Network& n2) {
    for (std::size_t i = 0; i < kN; ++i) {
      const auto p = static_cast<std::uint32_t>((i * kStride) % kN);
      for (std::size_t j = 0; j < kFanout; ++j) {
        const auto to =
            static_cast<std::uint32_t>((p * 2654435761u + 977u * j) % kN);
        n2.send(p, to, make_value_payload(1, p, 1));
      }
    }
    n2.advance_round();
  };
  Comparison c;
  c.name = "scheduler_overhead";
  c.params = "n=4096 fanout=4 bounded_delay delta_max=0 vs lockstep";
  c.advisory = true;
  c.legacy_ns = time_ns_per_op([&] { run_round(lockstep); });
  c.current_ns = time_ns_per_op([&] { run_round(delayed); });
  return c;
}

Comparison compare_parallel_round_engine() {
  // The parallel round engine (common/pool.h) on its protocol-shaped
  // workload: one n = 4096 vote round — send_votes (serial by design:
  // sends stage into per-receiver buckets), advance_round (parallel
  // per-receiver delivery), tally_majority (parallel per-member tally,
  // 64 instances). "legacy" pins the pool to one worker (the engine's
  // serial mode, byte-identical by the parity suite); "current" runs
  // min(8, hardware) workers. On a single-core host both sides execute
  // serially and the ratio sits at ~1.0 — the speedup claim is for 4+
  // core machines (CI runners); the parity tests are what make the two
  // sides comparable at all.
  constexpr std::size_t kN = 4096;
  Network net(kN, kN / 3);
  Rng gr(4001);
  auto graph = RegularGraph::random(kN, 12, gr);
  std::vector<ProcId> members(kN);
  for (std::size_t i = 0; i < kN; ++i) members[i] = static_cast<ProcId>(i);
  AebaMachine machine(1, members, &graph, AebaParams{}, 64);
  Rng in(4002);
  for (std::size_t p = 0; p < kN; ++p)
    for (std::size_t i = 0; i < 64; ++i) machine.set_input(p, i, in.flip());
  const auto round = [&] {
    machine.send_votes(net);
    net.advance_round();
    machine.tally_majority(net);
  };
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t workers =
      hw < 2 ? 1 : std::min<std::size_t>(8, hw);
  Comparison c;
  c.name = "parallel_round_engine";
  c.advisory = true;
  char params[128];
  std::snprintf(params, sizeof(params),
                "n=4096 instances=64 workers=%zu host_cores=%u",
                workers, hw);
  c.params = params;
  Pool::set_threads(1);
  c.legacy_ns = time_ns_per_op(round);
  Pool::set_threads(workers);
  c.current_ns = time_ns_per_op(round);
  Pool::set_threads(0);
  return c;
}

Comparison compare_share_fanout_arena() {
  // sendDown's dominant replication: handing one decoded dealing group
  // to every child of its node. Seed/PR-3 shape ("legacy"): a
  // std::vector<Fp> per record, deep-copied per child. Current: records
  // carry FpSpans into a per-flow WordArena and children receive a batch
  // id — replication copies pointers. Group/word/children sizes match a
  // mid-tree exposure batch at n = 4096 scale.
  constexpr std::size_t kGroups = 64, kWords = 64, kChildren = 8;
  Rng rng(5001);
  std::vector<std::uint64_t> values(kGroups * kWords);
  for (auto& v : values) v = rng.next() & Fp::kP;

  struct LegacyRec {
    std::uint64_t chain = 0;
    std::uint32_t holder_pos = 0;
    std::vector<Fp> ys;
  };
  struct SpanRec {
    std::uint64_t chain = 0;
    std::uint32_t holder_pos = 0;
    FpSpan ys;
  };

  Comparison c;
  c.name = "share_fanout_arena";
  c.params = "groups=64 words=64 children=8";
  {
    std::vector<std::pair<std::size_t, std::vector<LegacyRec>>> next;
    c.legacy_ns = time_ns_per_op([&] {
      std::vector<LegacyRec> decoded;
      decoded.reserve(kGroups);
      for (std::size_t g = 0; g < kGroups; ++g) {
        LegacyRec rec;
        rec.chain = g;
        rec.holder_pos = static_cast<std::uint32_t>(g);
        rec.ys.resize(kWords);
        for (std::size_t w = 0; w < kWords; ++w)
          rec.ys[w] = Fp(values[g * kWords + w]);
        decoded.push_back(std::move(rec));
      }
      next.clear();
      for (std::size_t child = 0; child < kChildren; ++child)
        next.emplace_back(child, decoded);  // deep copy per child
      benchmark::DoNotOptimize(next.data());
    });
  }
  {
    WordArena arena;
    std::vector<std::vector<SpanRec>> batches;
    std::vector<std::pair<std::size_t, std::uint32_t>> next;
    c.current_ns = time_ns_per_op([&] {
      arena.reset();
      batches.clear();
      std::vector<SpanRec> decoded;
      decoded.reserve(kGroups);
      for (std::size_t g = 0; g < kGroups; ++g) {
        SpanRec rec;
        rec.chain = g;
        rec.holder_pos = static_cast<std::uint32_t>(g);
        Fp* out = arena.alloc(kWords);
        for (std::size_t w = 0; w < kWords; ++w)
          out[w] = Fp(values[g * kWords + w]);
        rec.ys = FpSpan{out, kWords};
        decoded.push_back(rec);
      }
      batches.push_back(std::move(decoded));
      next.clear();
      for (std::size_t child = 0; child < kChildren; ++child)
        next.emplace_back(child, 0u);  // span batch shared by every child
      benchmark::DoNotOptimize(next.data());
      benchmark::DoNotOptimize(batches.data());
    });
  }
  return c;
}

Comparison compare_share_flow_parallel() {
  // The parallel share pipeline on its protocol-shaped workload: one
  // sendDown exposure batch at n = 4096 (deal to a leaf, iterate shares
  // to the tree root, then expose a 4-word range to every leaf member of
  // the subtree — the decode fan-out PR 4 parallelized). "legacy" pins
  // the pool to one worker (the engine's serial mode, byte-identical by
  // the parity suite); "current" runs min(8, hardware) workers. On a
  // single-core host both sides execute serially (~1.0x) — the entry is
  // advisory, recorded for the multi-core sweep.
  constexpr std::size_t kN = 4096;
  auto params = ProtocolParams::laptop_scale(kN);
  Rng rng(6001);
  Rng tree_rng = rng.fork(1);
  TournamentTree tree(params.tree, tree_rng);
  Network net(kN, kN / 3);
  StaticMaliciousAdversary adversary(0.05, 6002);
  adversary.on_start(net);
  ShareFlow flow(params, tree, net, rng.fork(2));
  const std::size_t words = 16;
  std::vector<Fp> secret(words);
  for (auto& w : secret) w = Fp(rng.next());
  ArrayState a;
  a.id = 7;
  a.recs = flow.deal_to_leaf(7, 7, secret);
  a.level = 1;
  a.node_idx = 7;
  while (a.level < tree.num_levels())
    flow.send_secret_up(a, 0, [](std::size_t) { return true; });

  const auto exposure = [&] {
    LeafViews lv = flow.send_down(a, 4, 5);
    benchmark::DoNotOptimize(lv);
  };
  exposure();  // prime the arena slabs and decoder cache for both sides
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t workers = hw < 2 ? 1 : std::min<std::size_t>(8, hw);
  Comparison c;
  c.name = "share_flow_parallel";
  c.advisory = true;
  char params_buf[128];
  std::snprintf(params_buf, sizeof(params_buf),
                "n=4096 words=1 workers=%zu host_cores=%u", workers, hw);
  c.params = params_buf;
  Pool::set_threads(1);
  c.legacy_ns = time_ns_per_op(exposure);
  Pool::set_threads(workers);
  c.current_ns = time_ns_per_op(exposure);
  Pool::set_threads(0);
  return c;
}

Comparison compare_send_open_tally() {
  // The streaming-sendOpen tally, serial vs serial — an algorithmic
  // entry, not a fan-out one. "legacy" re-creates the seed's per-word
  // leaf walk: for every receiver and every word it re-walks the
  // ell-linked leaves and their member lists, re-checking sender conduct
  // and recounting the leaf plurality from scratch (garbage words come
  // from a local stand-in stream; the seed interleaved them with the
  // global rng, which is exactly what kept the stage serial), charging
  // the ledger per surviving (sender, receiver) pair like the protocol
  // does. "current" is ShareFlow::send_open on the same exposure: one
  // structural pass bins the (receiver -> senders) slices, and the
  // per-word loop runs over contiguous pre-bound slices. Advisory: the
  // ratio is structural-rescan-vs-binned bookkeeping around an identical
  // tally kernel, not a headline protocol speedup.
  constexpr std::size_t kN = 4096;
  auto params = ProtocolParams::laptop_scale(kN);
  Rng rng(7001);
  Rng tree_rng = rng.fork(1);
  TournamentTree tree(params.tree, tree_rng);
  Network net(kN, kN / 3);
  StaticMaliciousAdversary adversary(0.05, 7002);
  adversary.on_start(net);
  ShareFlow flow(params, tree, net, rng.fork(2));
  const std::size_t words = 16;
  std::vector<Fp> secret(words);
  for (auto& w : secret) w = Fp(rng.next());
  ArrayState a;
  a.id = 7;
  a.recs = flow.deal_to_leaf(7, 7, secret);
  a.level = 1;
  a.node_idx = 7;
  while (a.level < tree.num_levels())
    flow.send_secret_up(a, 0, [](std::size_t) { return true; });
  const LeafViews lv = flow.send_down(a, 4, 12);

  const TreeNode& node = tree.node(a.level, a.node_idx);
  // Seed-style plurality: every candidate rescans the whole value list
  // (the O(k^2) nested recount the binned tally replaced; first
  // occurrence wins ties, like PluralityCounter).
  std::vector<std::uint64_t> vals;
  const auto seed_winner = [&vals] {
    std::uint64_t best = 0;
    std::size_t best_count = 0;
    for (std::size_t i = 0; i < vals.size(); ++i) {
      std::size_t count = 0;
      for (std::size_t j = 0; j < vals.size(); ++j)
        count += vals[j] == vals[i] ? 1 : 0;
      if (count > best_count) {
        best_count = count;
        best = vals[i];
      }
    }
    return best;
  };
  PluralityCounter node_tally;
  Rng garbage(7003);
  const auto legacy_walk = [&] {
    MemberViews mv(node.members.size(), lv.nwords());
    for (std::size_t pos = 0; pos < node.members.size(); ++pos) {
      for (std::uint32_t leaf_abs : node.ell[pos]) {
        const TreeNode& leaf = tree.node(1, leaf_abs);
        for (const ProcId s : leaf.members)
          net.charge_batch(s, node.members[pos],
                           lv.nwords() * kWordBits);
      }
      for (std::size_t w = 0; w < lv.nwords(); ++w) {
        node_tally.clear();
        for (std::uint32_t leaf_abs : node.ell[pos]) {
          const TreeNode& leaf = tree.node(1, leaf_abs);
          const std::size_t rel = leaf_abs - lv.leaf_begin();
          vals.clear();
          for (std::size_t i = 0; i < leaf.members.size(); ++i) {
            const ProcId s = leaf.members[i];
            vals.push_back(net.is_corrupt(s) ? garbage.next()
                                             : lv.at(rel, i, w).value());
          }
          node_tally.add(seed_winner());
        }
        mv.set(pos, w, Fp(node_tally.winner()));
      }
    }
    benchmark::DoNotOptimize(mv);
  };
  const auto current_open = [&] {
    MemberViews mv = flow.send_open(a.level, a.node_idx, lv);
    benchmark::DoNotOptimize(mv);
  };
  Comparison c;
  c.name = "send_open_tally";
  c.advisory = true;
  char params_buf[128];
  std::snprintf(params_buf, sizeof(params_buf),
                "n=4096 words=8 receivers=%zu links=%zu",
                node.members.size(),
                node.ell.empty() ? std::size_t{0} : node.ell[0].size());
  c.params = params_buf;
  c.legacy_ns = time_ns_per_op(legacy_walk);
  c.current_ns = time_ns_per_op(current_open);
  return c;
}

Comparison compare_expose_open_parallel() {
  // The full batched exposure — sendDown plus the streaming sendOpen
  // this PR moved onto the pool — at 1 worker vs min(8, hardware).
  // Unlike the older pool-vs-serial entries this one is written even on
  // a single-core host (where it degenerates to ~1.0x serial-vs-serial):
  // it is advisory either way, and keeping the row in the ledger gives
  // multi-core regenerations a fixed name to diff against.
  constexpr std::size_t kN = 4096;
  auto params = ProtocolParams::laptop_scale(kN);
  Rng rng(7101);
  Rng tree_rng = rng.fork(1);
  TournamentTree tree(params.tree, tree_rng);
  Network net(kN, kN / 3);
  StaticMaliciousAdversary adversary(0.05, 7102);
  adversary.on_start(net);
  ShareFlow flow(params, tree, net, rng.fork(2));
  const std::size_t words = 16;
  std::vector<Fp> secret(words);
  for (auto& w : secret) w = Fp(rng.next());
  ArrayState a;
  a.id = 9;
  a.recs = flow.deal_to_leaf(9, 9, secret);
  a.level = 1;
  a.node_idx = 9;
  while (a.level < tree.num_levels())
    flow.send_secret_up(a, 0, [](std::size_t) { return true; });
  const std::vector<ShareFlow::ExposeJob> jobs = {{&a, 4, 8}, {&a, 8, 12}};
  const auto exposure = [&] {
    std::vector<ShareFlow::Exposure> ex = flow.expose_batch(jobs);
    benchmark::DoNotOptimize(ex);
  };
  exposure();  // prime the arena slabs and decoder cache for both sides
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t workers = hw < 2 ? 1 : std::min<std::size_t>(8, hw);
  Comparison c;
  c.name = "expose_open_parallel";
  c.advisory = true;
  char params_buf[128];
  std::snprintf(params_buf, sizeof(params_buf),
                "n=4096 jobs=2 words=4 workers=%zu host_cores=%u", workers,
                hw);
  c.params = params_buf;
  Pool::set_threads(1);
  c.legacy_ns = time_ns_per_op(exposure);
  Pool::set_threads(workers);
  c.current_ns = time_ns_per_op(exposure);
  Pool::set_threads(0);
  return c;
}

// ---------------------------------------------------------------------
// Scalar-vs-SIMD kernel comparisons (common/simd.h). "legacy" is the
// always-compiled simd::scalar:: reference (the seed's deferred-128-bit
// scheme); "current" is the dispatched backend. On a BA_SIMD=OFF build
// the two are the same function and the ratio is 1.0 by construction —
// the committed ledger is produced on a BA_SIMD=ON build, and the params
// string records the backend so a scalar regeneration is recognizable.

std::vector<Fp> random_words(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Fp> v(n);
  for (auto& w : v) w = Fp(rng.next());
  return v;
}

Comparison compare_simd_dealing_matmul() {
  // The cached Vandermonde dealing shape: four share rows sharing one
  // coefficient column (scheme_cache.cpp's dot4 blocking), n = 64 words.
  constexpr std::size_t kWords = 64;
  const auto a = random_words(kWords, 7001);
  const auto b0 = random_words(kWords, 7002);
  const auto b1 = random_words(kWords, 7003);
  const auto b2 = random_words(kWords, 7004);
  const auto b3 = random_words(kWords, 7005);
  const std::uint64_t init[4] = {1, 2, 3, 4};
  std::uint64_t ref[4], cur[4];
  simd::scalar::dot4_mod_p(a.data(), b0.data(), b1.data(), b2.data(),
                           b3.data(), kWords, init, ref);
  simd::dot4_mod_p(a.data(), b0.data(), b1.data(), b2.data(), b3.data(),
                   kWords, init, cur);
  for (int k = 0; k < 4; ++k)
    BA_REQUIRE(ref[k] == cur[k], "scalar and SIMD dot4 disagree");
  Comparison c;
  c.name = "simd_dealing_matmul";
  char params[96];
  std::snprintf(params, sizeof(params), "dot4 words=64 backend=%s",
                simd::backend());
  c.params = params;
  std::uint64_t out[4];
  c.legacy_ns = time_ns_per_op([&] {
    simd::scalar::dot4_mod_p(a.data(), b0.data(), b1.data(), b2.data(),
                             b3.data(), kWords, init, out);
    benchmark::DoNotOptimize(out);
  });
  c.current_ns = time_ns_per_op([&] {
    simd::dot4_mod_p(a.data(), b0.data(), b1.data(), b2.data(), b3.data(),
                     kWords, init, out);
    benchmark::DoNotOptimize(out);
  });
  return c;
}

Comparison compare_simd_barycentric_dot() {
  // The barycentric row-evaluation shape (field.cpp eval_row): one long
  // weight-times-value dot per evaluation point.
  constexpr std::size_t kN = 256;
  const auto a = random_words(kN, 7101);
  const auto b = random_words(kN, 7102);
  BA_REQUIRE(simd::scalar::dot_mod_p(a.data(), b.data(), kN, 5) ==
                 simd::dot_mod_p(a.data(), b.data(), kN, 5),
             "scalar and SIMD dot disagree");
  Comparison c;
  c.name = "simd_barycentric_dot";
  char params[96];
  std::snprintf(params, sizeof(params), "dot n=256 backend=%s",
                simd::backend());
  c.params = params;
  c.legacy_ns = time_ns_per_op([&] {
    auto r = simd::scalar::dot_mod_p(a.data(), b.data(), kN, 5);
    benchmark::DoNotOptimize(r);
  });
  c.current_ns = time_ns_per_op([&] {
    auto r = simd::dot_mod_p(a.data(), b.data(), kN, 5);
    benchmark::DoNotOptimize(r);
  });
  return c;
}

Comparison compare_simd_gao_euclid() {
  // The Gao decoder's elementwise shapes chained as the Euclid iteration
  // does: one fnma polynomial update plus one lane-parallel Horner
  // verification step over m = 48 coefficients/points.
  constexpr std::size_t kM = 48;
  const auto in = random_words(kM, 7201);
  const auto xs = random_words(kM, 7202);
  const auto base = random_words(kM, 7203);
  const Fp cf(123456789);
  auto run = [&](auto&& fnma, auto&& horner, std::vector<Fp>& buf) {
    buf = base;
    fnma(buf.data(), in.data(), cf, kM);
    horner(buf.data(), xs.data(), cf, kM);
  };
  std::vector<Fp> ref, cur;
  run(simd::scalar::fnma_mod_p, simd::scalar::horner_step_mod_p, ref);
  run([](Fp* o, const Fp* i, Fp c2, std::size_t n) {
        simd::fnma_mod_p(o, i, c2, n);
      },
      [](Fp* a2, const Fp* x, Fp c2, std::size_t n) {
        simd::horner_step_mod_p(a2, x, c2, n);
      },
      cur);
  BA_REQUIRE(ref == cur, "scalar and SIMD Euclid shapes disagree");
  Comparison c;
  c.name = "simd_gao_euclid";
  char params[96];
  std::snprintf(params, sizeof(params), "fnma+horner m=48 backend=%s",
                simd::backend());
  c.params = params;
  std::vector<Fp> buf;
  c.legacy_ns = time_ns_per_op([&] {
    run(simd::scalar::fnma_mod_p, simd::scalar::horner_step_mod_p, buf);
    benchmark::DoNotOptimize(buf.data());
  });
  c.current_ns = time_ns_per_op([&] {
    run([](Fp* o, const Fp* i, Fp c2, std::size_t n) {
          simd::fnma_mod_p(o, i, c2, n);
        },
        [](Fp* a2, const Fp* x, Fp c2, std::size_t n) {
          simd::horner_step_mod_p(a2, x, c2, n);
        },
        buf);
    benchmark::DoNotOptimize(buf.data());
  });
  return c;
}

Comparison compare_payload_churn() {
  // Construct + move + destroy 1-word payloads, the dominant message
  // shape. The seed heap-allocated a std::vector per payload.
  constexpr std::size_t kBatch = 4096;
  Comparison c;
  c.name = "payload_churn";
  c.params = "batch=4096 words=1";
  {
    std::vector<legacy::Envelope> envs;
    envs.reserve(kBatch);
    c.legacy_ns = time_ns_per_op([&] {
      for (std::size_t i = 0; i < kBatch; ++i) {
        legacy::Envelope e;
        e.from = static_cast<std::uint32_t>(i);
        e.payload = legacy::make_value_payload(1, i, 61);
        envs.push_back(std::move(e));
      }
      benchmark::DoNotOptimize(envs.data());
      envs.clear();
    });
  }
  {
    std::vector<Envelope> envs;
    envs.reserve(kBatch);
    c.current_ns = time_ns_per_op([&] {
      for (std::size_t i = 0; i < kBatch; ++i) {
        Envelope e;
        e.from = static_cast<ProcId>(i);
        e.payload = make_value_payload(1, i, 61);
        envs.push_back(std::move(e));
      }
      benchmark::DoNotOptimize(envs.data());
      envs.clear();
    });
  }
  return c;
}

}  // namespace

/// Copy heavy-run records (ba_run --json NDJSON, e.g. the e1_n65536
/// proof run) into the ledger's "heavy_runs" section. The bench binary
/// cannot afford to execute them itself, so regeneration is two steps:
/// `ba_run --scenario e1_n65536 --json > heavy.jsonl`, then
/// `BA_BENCH_HEAVY_JSON=heavy.jsonl ./bench_micro`. Lines pass through
/// verbatim — ba_run's output is already one stable JSON object per line.
std::vector<std::string> read_heavy_runs() {
  std::vector<std::string> lines;
  const char* path = std::getenv("BA_BENCH_HEAVY_JSON");
  if (path == nullptr) return lines;
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read BA_BENCH_HEAVY_JSON=%s\n", path);
    return lines;
  }
  std::string line;
  while (std::getline(in, line))
    if (!line.empty() && line.front() == '{') lines.push_back(line);
  return lines;
}

int write_comparison_json() {
  // Pin the pool to one worker so the pre-existing comparisons keep
  // measuring algorithmic wins against their committed single-threaded
  // baselines; only the pool-engine comparisons (which manage the worker
  // count themselves, and run last) measure fan-out.
  Pool::set_threads(1);
  std::vector<Comparison> comps;
  comps.push_back(compare_shamir_reconstruct());
  comps.push_back(compare_shamir_deal());
  comps.push_back(compare_damaged_word_decode());
  comps.push_back(compare_damaged_word_decode_m12());
  comps.push_back(compare_network_round());
  comps.push_back(compare_payload_churn());
  comps.push_back(compare_tagged_inbox_scan());
  comps.push_back(compare_share_fanout_arena());
  comps.push_back(compare_send_open_tally());
  comps.push_back(compare_simd_dealing_matmul());
  comps.push_back(compare_simd_barycentric_dot());
  comps.push_back(compare_simd_gao_euclid());
  const unsigned host_cores = std::thread::hardware_concurrency();
  if (host_cores >= 2) {
    // Serial-engine-vs-pool comparisons are meaningless on a single-core
    // host (~1.0x by construction): skip writing them entirely so the CI
    // ledger diff never inherits a ~1x baseline from a 1-core machine.
    comps.push_back(compare_parallel_round_engine());
    comps.push_back(compare_share_flow_parallel());
  } else {
    std::printf(
        "host_cores=%u < 2: skipping parallel_round_engine / "
        "share_flow_parallel (pool-vs-serial ratio is meaningless)\n",
        host_cores);
  }
  // Written on every host (advisory): the single-core degenerate case is
  // an honest ~1.0x row, not a misleading committed baseline.
  comps.push_back(compare_expose_open_parallel());
  comps.push_back(compare_scheduler_overhead());
  Pool::set_threads(0);  // restore the environment default
  const auto heavy = read_heavy_runs();

  const char* path_env = std::getenv("BA_BENCH_JSON");
  const std::string path = path_env != nullptr ? path_env : "BENCH_micro.json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 1;
  }
  out << "{\n  \"schema\": \"ba.bench_micro.v1\",\n"
      << "  \"smoke\": " << (smoke_mode() ? "true" : "false") << ",\n"
      << "  \"host_cores\": " << host_cores << ",\n"
      << "  \"simd_backend\": \"" << simd::backend() << "\",\n"
      << "  \"comparisons\": [\n";
  for (std::size_t i = 0; i < comps.size(); ++i) {
    const auto& c = comps[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    {\"name\": \"%s\", \"params\": \"%s\", "
                  "\"unit\": \"ns/op\", \"legacy\": %.1f, "
                  "\"current\": %.1f, \"speedup\": %.2f%s}%s\n",
                  c.name.c_str(), c.params.c_str(), c.legacy_ns, c.current_ns,
                  c.speedup(), c.advisory ? ", \"advisory\": true" : "",
                  i + 1 < comps.size() ? "," : "");
    out << buf;
  }
  out << "  ],\n  \"heavy_runs\": [\n";
  for (std::size_t i = 0; i < heavy.size(); ++i)
    out << "    " << heavy[i] << (i + 1 < heavy.size() ? "," : "") << "\n";
  out << "  ]\n}\n";
  out.close();
  for (const auto& c : comps) {
    std::printf("%-28s legacy %12.1f ns/op  current %12.1f ns/op  %6.2fx\n",
                c.name.c_str(), c.legacy_ns, c.current_ns, c.speedup());
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace bench_micro
}  // namespace ba

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return ba::bench_micro::write_comparison_json();
}
