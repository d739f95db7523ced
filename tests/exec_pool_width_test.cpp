// The rsd::lj force loop and nn::Conv3d::forward run on an exec::Pool with
// a chunking fixed by their input, so pools of any width must produce the
// same bits. The exec label puts both loops in the TSan slice.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "exec/pool.hpp"
#include "lj/system.hpp"
#include "nn/layers.hpp"

namespace rsd {
namespace {

/// Widths compared against a pool of width 1.
constexpr int kWidths[] = {2, 4};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

struct LjResult {
  double potential = 0.0;
  std::int64_t pairs = 0;
  std::vector<lj::Vec3> forces;
};

LjResult run_lj(exec::Pool& pool) {
  lj::System sys{5, {}, pool};  // 500 atoms: eight force chunks
  sys.run(3, pool);
  return {sys.potential_energy(), sys.last_pair_count(),
          {sys.forces().begin(), sys.forces().end()}};
}

TEST(PoolWidth, LjPotentialPairsAndForcesAreBitIdentical) {
  exec::Pool serial{1};
  const LjResult ref = run_lj(serial);
  ASSERT_GT(ref.pairs, 0);
  for (const int width : kWidths) {
    exec::Pool pool{width};
    const LjResult got = run_lj(pool);
    EXPECT_EQ(bits(got.potential), bits(ref.potential)) << "width " << width;
    EXPECT_EQ(got.pairs, ref.pairs) << "width " << width;
    ASSERT_EQ(got.forces.size(), ref.forces.size());
    for (std::size_t i = 0; i < ref.forces.size(); ++i) {
      const lj::Vec3 g = got.forces[i];
      const lj::Vec3 r = ref.forces[i];
      EXPECT_TRUE(bits(g.x) == bits(r.x) && bits(g.y) == bits(r.y) && bits(g.z) == bits(r.z))
          << "width " << width << ", atom " << i;
    }
  }
}

TEST(PoolWidth, ConvForwardIsBitIdentical) {
  Rng rng{7};
  nn::Conv3d conv{3, 4, 3, 1, rng};
  nn::Tensor input{{2, 3, 6, 6, 6}};  // eight (batch, out-channel) planes
  for (auto& v : input.data()) v = rng.normal(0.0, 1.0);

  exec::Pool serial{1};
  const nn::Tensor ref = conv.forward(input, serial);
  for (const int width : kWidths) {
    exec::Pool pool{width};
    const nn::Tensor got = conv.forward(input, pool);
    ASSERT_EQ(got.shape(), ref.shape());
    for (std::int64_t i = 0; i < ref.size(); ++i) {
      const auto k = static_cast<std::size_t>(i);
      EXPECT_EQ(bits(got[k]), bits(ref[k])) << "width " << width << ", element " << i;
    }
  }
}

}  // namespace
}  // namespace rsd
