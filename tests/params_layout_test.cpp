// Tests for ProtocolParams presets and the ArrayLayout word map — the
// block offsets every phase of Algorithm 2 depends on.
#include <gtest/gtest.h>

#include "core/params.h"

namespace ba {
namespace {

struct Built {
  ProtocolParams params;
  TournamentTree tree;
  ArrayLayout layout;

  explicit Built(std::size_t n, std::size_t q = 0)
      : params([&] {
          auto p = ProtocolParams::laptop_scale(n);
          if (q != 0) p.tree.q = q;
          return p;
        }()),
        tree([&] {
          Rng rng(7);
          return TournamentTree(params.tree, rng);
        }()),
        layout(params, tree) {}
};

TEST(Params, LaptopScalePresets) {
  auto p64 = ProtocolParams::laptop_scale(64);
  EXPECT_EQ(p64.tree.q, 4u);
  auto p512 = ProtocolParams::laptop_scale(512);
  EXPECT_EQ(p512.tree.q, 8u);
  EXPECT_GE(p512.g_intra, 18u);  // 2 log2 n
  EXPECT_EQ(p512.tree.n, 512u);
}

TEST(Params, PrivacyThresholdFloor) {
  ProtocolParams p;
  p.share_threshold_div = 4;
  EXPECT_EQ(p.privacy_threshold(12), 3u);
  EXPECT_EQ(p.privacy_threshold(8), 2u);
  EXPECT_EQ(p.privacy_threshold(3), 1u);  // never zero
  EXPECT_EQ(p.privacy_threshold(2), 1u);
}

TEST(Layout, BlocksAreContiguousAndOrdered) {
  Built b(512);
  const auto& lay = b.layout;
  const std::size_t L = lay.num_levels();
  ASSERT_GE(L, 3u);
  std::size_t expected = 0;
  for (std::size_t lvl = 2; lvl + 1 <= L; ++lvl) {
    EXPECT_EQ(lay.block_offset(lvl), expected);
    EXPECT_EQ(lay.bin_word(lvl), expected);
    EXPECT_EQ(lay.coin_word(lvl, 0), expected + 1);
    expected += 1 + lay.r_at(lvl);
  }
  EXPECT_EQ(lay.root_block_offset(), expected);
  expected += ArrayLayout::kRootWords;
  EXPECT_EQ(lay.seq_block_offset(), expected);
  expected += b.params.coin_words;
  EXPECT_EQ(lay.total_words(), expected);
}

TEST(Layout, OffsetAfterLevelChainsToNextBlock) {
  Built b(512);
  const auto& lay = b.layout;
  for (std::size_t lvl = 2; lvl + 1 <= lay.num_levels(); ++lvl) {
    if (lvl + 2 <= lay.num_levels()) {
      EXPECT_EQ(lay.offset_after_level(lvl), lay.block_offset(lvl + 1));
    } else {
      EXPECT_EQ(lay.offset_after_level(lvl), lay.root_block_offset());
    }
  }
}

TEST(Layout, RootCandidatesMatchTreeShape) {
  Built b(512);
  const auto& root = b.tree.node(b.tree.num_levels(), 0);
  EXPECT_EQ(b.layout.r_root(), root.children.size() * b.params.w);
  EXPECT_EQ(b.layout.root_rounds(),
            ArrayLayout::kRootWords * b.layout.r_root());
}

TEST(Layout, SequenceLengthFollowsCoinWords) {
  Built b(256);
  EXPECT_EQ(b.layout.seq_words(),
            b.params.coin_words * b.layout.r_root());
}

TEST(Layout, LevelTwoHasQCandidates) {
  Built b(512);
  EXPECT_EQ(b.layout.r_at(2), b.params.tree.q);
  if (b.layout.num_levels() >= 4) {
    EXPECT_EQ(b.layout.r_at(3), b.params.tree.q * b.params.w);
  }
}

TEST(Layout, RejectsFlatTrees) {
  // A 2-level "tree" (leaves + root) cannot host elections.
  TreeParams tp;
  tp.n = 64;
  tp.q = 4;
  tp.k1 = 8;
  tp.d_up = 12;
  tp.d_link = 4;
  Rng rng(9);
  // n >= 4q is enforced by the tree itself.
  tp.n = 15;
  EXPECT_THROW(TournamentTree(tp, rng), std::logic_error);
}

class LayoutSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LayoutSizes, InvariantsHoldAcrossSizes) {
  const std::size_t n = GetParam();
  Built b(n);
  const auto& lay = b.layout;
  EXPECT_GE(lay.num_levels(), 3u);
  EXPECT_GE(lay.r_root(), 4u * b.params.w)
      << "root must absorb at least 4 children (coin rounds)";
  EXPECT_LT(lay.total_words(), 200u) << "arrays stay polylog-sized";
  // Every word belongs to exactly one block: offsets strictly increase.
  std::size_t prev = 0;
  for (std::size_t lvl = 2; lvl + 1 <= lay.num_levels(); ++lvl) {
    EXPECT_GE(lay.block_offset(lvl), prev);
    prev = lay.block_offset(lvl) + 1 + lay.r_at(lvl);
  }
  EXPECT_LE(prev, lay.root_block_offset());
}

INSTANTIATE_TEST_SUITE_P(Sizes, LayoutSizes,
                         ::testing::Values(64, 100, 128, 256, 384, 512,
                                           1000, 1024, 2048));

}  // namespace
}  // namespace ba
