// Bit-identity pins for the SIMD kernel backend layer (tensor/simd.h).
//
// Every backend must produce bit-identical output to the scalar reference
// on every input — that is the contract that lets runtime dispatch (and
// MUFFIN_SIMD forcing) be invisible to all numeric results in the repo.
// The suite compares the scalar and AVX2 kernel tables directly in one
// process across awkward shapes (1x1, remainder lanes, depth 0, large),
// and checks the dispatched public entry points against the scalar table
// so the suite pins whichever backend MUFFIN_SIMD selected for this run
// (CI executes it under both MUFFIN_SIMD=off and MUFFIN_SIMD=avx2).
#include "tensor/simd.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "tensor/ops.h"

namespace muffin::tensor {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed,
                     double zero_fraction = 0.0) {
  SplitRng rng(seed);
  Matrix m(rows, cols);
  for (double& v : m.flat()) {
    v = rng.normal(0.0, 1.0);
    if (zero_fraction > 0.0 && rng.bernoulli(zero_fraction)) v = 0.0;
  }
  return m;
}

Vector random_vector(std::size_t size, std::uint64_t seed) {
  SplitRng rng(seed);
  Vector v(size);
  for (double& x : v) x = rng.normal(0.0, 1.0);
  return v;
}

bool bitwise_equal(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Shapes chosen to hit every kernel path: single element, lane
/// remainders around the 4- and 8-wide vectors, odd row counts (the
/// 2-row tile remainder), zero depth (accumulator-free output) and a
/// shape big enough to cross tile boundaries.
struct Shape {
  std::size_t n, m, depth;
};
const Shape kShapes[] = {
    {1, 1, 1},   {1, 1, 0},   {2, 4, 3},   {3, 5, 7},    {1, 8, 16},
    {7, 9, 11},  {2, 7, 0},   {5, 3, 1},   {8, 6, 2},    {64, 33, 17},
    {65, 8, 24}, {31, 12, 5}, {2, 16, 64}, {128, 18, 16},
};

/// Every vector backend usable on this host (compiled in + CPUID).
std::vector<const detail::KernelTable*> usable_vector_backends() {
  std::vector<const detail::KernelTable*> backends;
  if (detail::avx2_kernels() != nullptr && detail::cpu_supports_avx2_fma()) {
    backends.push_back(detail::avx2_kernels());
  }
  if (detail::avx512_kernels() != nullptr &&
      detail::cpu_supports_avx512f()) {
    backends.push_back(detail::avx512_kernels());
  }
  return backends;
}

class SimdBackends : public ::testing::Test {
 protected:
  void SetUp() override {
    backends_ = usable_vector_backends();
    if (backends_.empty()) {
      GTEST_SKIP() << "no vector backend usable on this host";
    }
  }
  std::vector<const detail::KernelTable*> backends_;
};

TEST_F(SimdBackends, GemmTransposedBBitIdentical) {
  const detail::KernelTable& scalar = detail::scalar_kernels();
  for (const detail::KernelTable* backend : backends_) {
    std::uint64_t seed = 100;
    for (const Shape& shape : kShapes) {
      const Matrix a = random_matrix(shape.n, shape.depth, seed++);
      const Matrix b = random_matrix(shape.m, shape.depth, seed++);
      const Vector bias = random_vector(shape.m, seed++);
      for (const bool with_bias : {false, true}) {
        Matrix out_scalar(shape.n, shape.m, -1.0);
        Matrix out_vector(shape.n, shape.m, -2.0);
        const double* bias_ptr = with_bias ? bias.data() : nullptr;
        scalar.gemm_tb(a.flat().data(), a.stride(), b.flat().data(),
                       b.stride(), bias_ptr, out_scalar.flat().data(),
                       out_scalar.stride(), shape.n, shape.m, shape.depth);
        backend->gemm_tb(a.flat().data(), a.stride(), b.flat().data(),
                         b.stride(), bias_ptr, out_vector.flat().data(),
                         out_vector.stride(), shape.n, shape.m, shape.depth);
        EXPECT_TRUE(bitwise_equal(out_scalar.flat(), out_vector.flat()))
            << backend->name << " n=" << shape.n << " m=" << shape.m
            << " depth=" << shape.depth << " bias=" << with_bias;
      }
    }
  }
}

TEST_F(SimdBackends, MatmulBitIdentical) {
  const detail::KernelTable& scalar = detail::scalar_kernels();
  for (const detail::KernelTable* backend : backends_) {
    std::uint64_t seed = 500;
    for (const Shape& shape : kShapes) {
      // Sparse A exercises the a(i,k) == 0.0 skip on every backend.
      const Matrix a = random_matrix(shape.n, shape.depth, seed++, 0.3);
      const Matrix b = random_matrix(shape.depth, shape.m, seed++);
      Matrix out_scalar(shape.n, shape.m);  // kernels accumulate into zeros
      Matrix out_vector(shape.n, shape.m);
      scalar.matmul(a.flat().data(), a.stride(), b.flat().data(), b.stride(),
                    out_scalar.flat().data(), out_scalar.stride(), shape.n,
                    shape.depth, shape.m);
      backend->matmul(a.flat().data(), a.stride(), b.flat().data(),
                      b.stride(), out_vector.flat().data(),
                      out_vector.stride(), shape.n, shape.depth, shape.m);
      EXPECT_TRUE(bitwise_equal(out_scalar.flat(), out_vector.flat()))
          << backend->name << " n=" << shape.n << " m=" << shape.m
          << " depth=" << shape.depth;
    }
  }
}

TEST_F(SimdBackends, MatmulZeroSkipSemanticsMatchOnNonFiniteB) {
  // The zero-skip is bit-visible when B holds non-finite values
  // (0 * inf = nan would otherwise poison the sum); every backend must
  // skip identically.
  Matrix a = {{0.0, 1.0}, {2.0, 0.0}};
  Matrix b = {{std::numeric_limits<double>::infinity(), 1.0},
              {2.0, std::numeric_limits<double>::quiet_NaN()}};
  Matrix out_scalar(2, 2);
  detail::scalar_kernels().matmul(a.flat().data(), a.stride(),
                                  b.flat().data(), b.stride(),
                                  out_scalar.flat().data(),
                                  out_scalar.stride(), 2, 2, 2);
  for (const detail::KernelTable* backend : backends_) {
    Matrix out_vector(2, 2);
    backend->matmul(a.flat().data(), a.stride(), b.flat().data(), b.stride(),
                    out_vector.flat().data(), out_vector.stride(), 2, 2, 2);
    EXPECT_TRUE(bitwise_equal(out_scalar.flat(), out_vector.flat()))
        << backend->name;
    EXPECT_TRUE(std::isnan(out_vector(0, 1)));  // 1 * nan flows through
    EXPECT_DOUBLE_EQ(out_vector(1, 1), 2.0);    // 0-skip avoided 0 * nan
  }
}

TEST_F(SimdBackends, MatmulAccumulatesBitIdenticallyAtEveryWidth) {
  // Widths 1..32 cover every tail of the register path (m <=
  // kMatmulRegisterWidth) and the column-tiled path past it. Columns
  // k % 5 == 2 of A are zero and face inf/NaN rows of B, so only the
  // zero-skip keeps C finite; random zeros elsewhere face finite B, where
  // skipping is visible only on C's -0.0 entries. C starts non-zero
  // because the kernel accumulates into it.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::size_t n = 5;
  const detail::KernelTable& scalar = detail::scalar_kernels();
  for (const detail::KernelTable* backend : backends_) {
    std::uint64_t seed = 1500;
    for (const std::size_t depth :
         {std::size_t{1}, std::size_t{7}, std::size_t{128}}) {
      for (std::size_t m = 1; m <= 32; ++m) {
        Matrix a = random_matrix(n, depth, seed++, 0.3);
        Matrix b = random_matrix(depth, m, seed++);
        Matrix c = random_matrix(n, m, seed++);
        for (std::size_t k = 2; k < depth; k += 5) {
          for (std::size_t i = 0; i < n; ++i) a(i, k) = 0.0;
          for (std::size_t j = 0; j < m; ++j) {
            b(k, j) = j % 3 == 0 ? inf : (j % 3 == 1 ? -inf : nan);
          }
        }
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t j = 0; j < m; ++j) {
            if ((i + j) % 4 == 0) c(i, j) = -0.0;
          }
        }
        Matrix out_scalar = c;
        Matrix out_vector = c;
        scalar.matmul(a.flat().data(), a.stride(), b.flat().data(),
                      b.stride(), out_scalar.flat().data(),
                      out_scalar.stride(), n, depth, m);
        backend->matmul(a.flat().data(), a.stride(), b.flat().data(),
                        b.stride(), out_vector.flat().data(),
                        out_vector.stride(), n, depth, m);
        EXPECT_TRUE(bitwise_equal(out_scalar.flat(), out_vector.flat()))
            << backend->name << " m=" << m << " depth=" << depth;
        for (const double v : out_vector.flat()) {
          ASSERT_TRUE(std::isfinite(v))
              << backend->name << " m=" << m << " depth=" << depth;
        }
      }
    }
  }
}

TEST_F(SimdBackends, SoftmaxBitIdentical) {
  for (const detail::KernelTable* backend : backends_) {
    for (const std::size_t n :
         {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4},
          std::size_t{5}, std::size_t{7}, std::size_t{8}, std::size_t{9},
          std::size_t{17}, std::size_t{64}}) {
      const Vector logits = random_vector(n, 900 + n);
      for (const double temperature : {1.0, 0.25, 2.5}) {
        Vector out_scalar(n, -1.0);
        Vector out_vector(n, -2.0);
        detail::scalar_kernels().softmax(logits.data(), n, temperature,
                                         out_scalar.data());
        backend->softmax(logits.data(), n, temperature, out_vector.data());
        EXPECT_TRUE(bitwise_equal(out_scalar, out_vector))
            << backend->name << " n=" << n << " t=" << temperature;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Dispatch rules and dispatched public entry points.

TEST(SimdDispatch, ResolveBackendRules) {
  using detail::resolve_backend;
  for (const char* off : {"off", "scalar", "0"}) {
    EXPECT_EQ(resolve_backend(off, true, true), SimdBackend::Scalar) << off;
    EXPECT_EQ(resolve_backend(off, false, false), SimdBackend::Scalar) << off;
  }
  // Forcing one tier picks it when usable and degrades gracefully (never
  // an illegal-instruction crash) otherwise.
  EXPECT_EQ(resolve_backend("avx2", true, true), SimdBackend::Avx2);
  EXPECT_EQ(resolve_backend("avx2", false, true), SimdBackend::Scalar);
  EXPECT_EQ(resolve_backend("avx512", true, true), SimdBackend::Avx512);
  EXPECT_EQ(resolve_backend("avx512", true, false), SimdBackend::Avx2);
  EXPECT_EQ(resolve_backend("avx512", false, false), SimdBackend::Scalar);
  for (const char* on : {"on", "1"}) {
    EXPECT_EQ(resolve_backend(on, true, true), SimdBackend::Avx512) << on;
    EXPECT_EQ(resolve_backend(on, true, false), SimdBackend::Avx2) << on;
    EXPECT_EQ(resolve_backend(on, false, false), SimdBackend::Scalar) << on;
  }
  for (const char* automatic : {"", "auto", "garbage"}) {
    EXPECT_EQ(resolve_backend(automatic, true, true), SimdBackend::Avx512)
        << automatic;
    EXPECT_EQ(resolve_backend(automatic, true, false), SimdBackend::Avx2)
        << automatic;
    EXPECT_EQ(resolve_backend(automatic, false, false), SimdBackend::Scalar)
        << automatic;
  }
}

TEST(SimdDispatch, ActiveBackendHonorsEnvironment) {
  // CI runs this binary under MUFFIN_SIMD=off and forced vector values;
  // the resolved backend must match what the environment demands.
  const bool avx2_usable = detail::avx2_kernels() != nullptr &&
                           detail::cpu_supports_avx2_fma();
  const bool avx512_usable = detail::avx512_kernels() != nullptr &&
                             detail::cpu_supports_avx512f();
  const char* env = std::getenv("MUFFIN_SIMD");
  const std::string value = env == nullptr ? "" : env;
  if (value == "off" || value == "scalar" || value == "0") {
    EXPECT_EQ(active_simd_backend(), SimdBackend::Scalar);
    EXPECT_EQ(simd_backend_name(), "scalar");
  } else if (value == "avx2" && avx2_usable) {
    EXPECT_EQ(active_simd_backend(), SimdBackend::Avx2);
    EXPECT_EQ(simd_backend_name(), "avx2");
  } else if (value == "avx512" && avx512_usable) {
    EXPECT_EQ(active_simd_backend(), SimdBackend::Avx512);
    EXPECT_EQ(simd_backend_name(), "avx512");
  } else if (value.empty() || value == "auto" || value == "on" ||
             value == "1") {
    EXPECT_EQ(active_simd_backend(),
              detail::resolve_backend("auto", avx2_usable, avx512_usable));
  }
}

TEST(SimdDispatch, PublicKernelsMatchScalarReferenceBitwise) {
  // Whatever backend dispatch picked (including the row-parallel split in
  // the wrappers), the public entry points must equal a serial scalar run.
  const Matrix a = random_matrix(97, 23, 41);
  const Matrix w = random_matrix(13, 23, 43);
  const Vector bias = random_vector(13, 47);

  Matrix expected(97, 13);
  detail::scalar_kernels().gemm_tb(a.flat().data(), a.stride(),
                                   w.flat().data(), w.stride(), bias.data(),
                                   expected.flat().data(), expected.stride(),
                                   97, 13, 23);
  Matrix actual;
  matmul_transposed_b_bias_into(a, w, bias, actual);
  EXPECT_TRUE(bitwise_equal(expected.flat(), actual.flat()));

  Matrix no_bias_expected(97, 13);
  detail::scalar_kernels().gemm_tb(
      a.flat().data(), a.stride(), w.flat().data(), w.stride(), nullptr,
      no_bias_expected.flat().data(), no_bias_expected.stride(), 97, 13, 23);
  Matrix no_bias_actual;
  matmul_transposed_b_into(a, w, no_bias_actual);
  EXPECT_TRUE(bitwise_equal(no_bias_expected.flat(), no_bias_actual.flat()));

  const Matrix b = random_matrix(23, 31, 53, 0.25);
  const Matrix a_sparse = random_matrix(64, 23, 59, 0.25);
  Matrix matmul_expected(64, 31);
  detail::scalar_kernels().matmul(
      a_sparse.flat().data(), a_sparse.stride(), b.flat().data(), b.stride(),
      matmul_expected.flat().data(), matmul_expected.stride(), 64, 23, 31);
  Matrix matmul_actual;
  matmul_into(a_sparse, b, matmul_actual);
  EXPECT_TRUE(bitwise_equal(matmul_expected.flat(), matmul_actual.flat()));

  const Vector logits = random_vector(19, 61);
  Vector softmax_expected(19);
  detail::scalar_kernels().softmax(logits.data(), 19, 1.0,
                                   softmax_expected.data());
  Vector softmax_actual(19);
  softmax_into(logits, softmax_actual);
  EXPECT_TRUE(bitwise_equal(softmax_expected, softmax_actual));
}

// --- planar kernels (calibrated batch scoring) --------------------------

std::vector<std::uint64_t> planar_states(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint64_t> states(n);
  for (std::size_t i = 0; i < n; ++i) {
    states[i] = fork_seed(seed, 0x9e3779b97f4a7c15ULL * (i + 1));
  }
  return states;
}

TEST_F(SimdBackends, NormalPlanarBitIdenticalAcrossBackends) {
  const detail::KernelTable& scalar = detail::scalar_kernels();
  for (const std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{8},
                              std::size_t{17}, std::size_t{255}}) {
    std::vector<std::uint64_t> ref_states = planar_states(n, 42);
    std::vector<double> reference(n);
    scalar.normal_planar(ref_states.data(), reference.data(), n);
    for (const detail::KernelTable* backend : backends_) {
      std::vector<std::uint64_t> states = planar_states(n, 42);
      std::vector<double> out(n);
      backend->normal_planar(states.data(), out.data(), n);
      EXPECT_TRUE(bitwise_equal(out, reference))
          << backend->name << " n=" << n;
      EXPECT_EQ(states, ref_states) << backend->name << " n=" << n;
    }
  }
}

TEST(PlanarKernels, NormalPlanarMatchesCounterRngLanes) {
  // Each lane is an independent CounterRng stream: the planar sweep must
  // reproduce the scalar draw (one splitmix64 step + normal_quantile) and
  // advance each state exactly one draw.
  const std::size_t n = 64;
  std::vector<std::uint64_t> states = planar_states(n, 7);
  const std::vector<std::uint64_t> seeds = states;
  std::vector<double> out(n);
  normal_planar_into(std::span<std::uint64_t>(states),
                     std::span<double>(out));
  for (std::size_t i = 0; i < n; ++i) {
    CounterRng rng(seeds[i]);
    EXPECT_EQ(out[i], rng.normal()) << "lane " << i;
    EXPECT_EQ(states[i], rng.state()) << "lane " << i;
  }
  // A second sweep continues the streams (draw 2 of each lane).
  normal_planar_into(std::span<std::uint64_t>(states),
                     std::span<double>(out));
  for (std::size_t i = 0; i < n; ++i) {
    CounterRng rng(seeds[i]);
    (void)rng.normal();
    EXPECT_EQ(out[i], rng.normal()) << "lane " << i;
  }
}

TEST_F(SimdBackends, SoftmaxPlanarBitIdenticalAcrossBackends) {
  const detail::KernelTable& scalar = detail::scalar_kernels();
  for (const auto& [classes, n] :
       {std::pair<std::size_t, std::size_t>{2, 1},
        {2, 17},
        {8, 3},
        {8, 64},
        {5, 31}}) {
    const Matrix seed_planes = random_matrix(classes, n, 91);
    const std::size_t ldo = classes + 2;  // exercise a padded output
    std::vector<double> reference(n * ldo, -1.0);
    {
      Matrix planes = seed_planes;  // the kernel destroys its input
      scalar.softmax_planar(planes.flat().data(), n, classes, n,
                            reference.data(), ldo);
    }
    for (const detail::KernelTable* backend : backends_) {
      Matrix planes = seed_planes;
      std::vector<double> out(n * ldo, -1.0);
      backend->softmax_planar(planes.flat().data(), n, classes, n,
                              out.data(), ldo);
      EXPECT_TRUE(bitwise_equal(out, reference))
          << backend->name << " classes=" << classes << " n=" << n;
    }
    // Rows are simplex points; the padding beyond `classes` is untouched.
    for (std::size_t i = 0; i < n; ++i) {
      double total = 0.0;
      for (std::size_t c = 0; c < classes; ++c) {
        const double v = reference[i * ldo + c];
        EXPECT_GT(v, 0.0);
        total += v;
      }
      EXPECT_NEAR(total, 1.0, 1e-12);
      for (std::size_t c = classes; c < ldo; ++c) {
        EXPECT_EQ(reference[i * ldo + c], -1.0);
      }
    }
  }
}

TEST(PlanarKernels, SoftmaxPlanarLanesArePartitionIndependent) {
  // Lane i depends only on column i of the planes: computing any sub-range
  // of lanes in a compact buffer reproduces the whole-batch lanes bitwise
  // (the property that makes the calibrated kernel's row split exact).
  const std::size_t classes = 6, n = 29;
  const Matrix seed_planes = random_matrix(classes, n, 13);
  std::vector<double> whole(n * classes);
  {
    Matrix planes = seed_planes;
    softmax_planar_into(planes.flat(), n, classes, n, whole.data(), classes);
  }
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}}) {
    for (std::size_t i0 = 0; i0 < n; i0 += chunk) {
      const std::size_t width = std::min(chunk, n - i0);
      Matrix compact(classes, width);
      for (std::size_t c = 0; c < classes; ++c) {
        for (std::size_t i = 0; i < width; ++i) {
          compact(c, i) = seed_planes(c, i0 + i);
        }
      }
      std::vector<double> out(width * classes);
      softmax_planar_into(compact.flat(), width, classes, width, out.data(),
                          classes);
      for (std::size_t k = 0; k < out.size(); ++k) {
        EXPECT_EQ(out[k], whole[i0 * classes + k])
            << "chunk " << chunk << " offset " << i0;
      }
    }
  }
}

TEST(PlanarKernels, WrappersValidateArguments) {
  std::vector<std::uint64_t> states(4);
  std::vector<double> out(3);
  EXPECT_THROW(normal_planar_into(std::span<std::uint64_t>(states),
                                  std::span<double>(out)),
               Error);
  std::vector<double> planes(8);
  EXPECT_THROW(
      softmax_planar_into(std::span<double>(planes), 4, 0, 4, out.data(), 1),
      Error);
  EXPECT_THROW(
      softmax_planar_into(std::span<double>(planes), 2, 2, 4, out.data(), 2),
      Error);  // plane_stride < n
  EXPECT_THROW(
      softmax_planar_into(std::span<double>(planes), 4, 2, 4, out.data(), 1),
      Error);  // ldo < classes
}

TEST(SimdDispatch, PlanarKernelTableComplete) {
  // Every compiled-in backend table lists both planar kernels.
  EXPECT_NE(detail::scalar_kernels().normal_planar, nullptr);
  EXPECT_NE(detail::scalar_kernels().softmax_planar, nullptr);
  for (const detail::KernelTable* backend : usable_vector_backends()) {
    EXPECT_NE(backend->normal_planar, nullptr) << backend->name;
    EXPECT_NE(backend->softmax_planar, nullptr) << backend->name;
  }
  EXPECT_NE(detail::active_kernels().normal_planar, nullptr);
  EXPECT_NE(detail::active_kernels().softmax_planar, nullptr);
}

TEST(SimdDispatch, MatrixStorageIsCacheLineAligned) {
  for (const std::size_t rows : {1u, 3u, 17u}) {
    Matrix m(rows, rows + 1, 1.0);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.flat().data()) %
                  kBufferAlignment,
              0u);
    EXPECT_EQ(m.stride(), m.cols());
  }
}

}  // namespace
}  // namespace muffin::tensor
