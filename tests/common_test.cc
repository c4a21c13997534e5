// Unit tests for hongtu/common: Status/Result, logging, RNG, parallel
// helpers, and formatting.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <vector>

#include "hongtu/common/format.h"
#include "hongtu/common/logging.h"
#include "hongtu/common/parallel.h"
#include "hongtu/common/random.h"
#include "hongtu/common/status.h"

namespace hongtu {
namespace {

TEST(Status, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
  EXPECT_TRUE(st.message().empty());
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status st = Status::OutOfMemory("device 2 full");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsOutOfMemory());
  EXPECT_EQ(st.code(), StatusCode::kOutOfMemory);
  EXPECT_EQ(st.message(), "device 2 full");
  EXPECT_EQ(st.ToString(), "OutOfMemory: device 2 full");
}

TEST(Status, AllConstructorsProduceMatchingCodes) {
  EXPECT_EQ(Status::Invalid("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::NotImplemented("x").code(), StatusCode::kNotImplemented);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
}

TEST(Status, CopySharesState) {
  Status a = Status::Invalid("boom");
  Status b = a;
  EXPECT_EQ(b.message(), "boom");
  EXPECT_TRUE(a == b);
}

TEST(Status, CodeNamesAreStable) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kOutOfMemory), "OutOfMemory");
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::Invalid("negative");
  return Status::OK();
}

Status UseReturnIfError(int x) {
  HT_RETURN_IF_ERROR(FailIfNegative(x));
  return Status::OK();
}

TEST(StatusMacros, ReturnIfErrorPropagates) {
  EXPECT_TRUE(UseReturnIfError(1).ok());
  EXPECT_TRUE(UseReturnIfError(-1).IsInvalid());
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::Invalid("odd");
  return x / 2;
}

Status UseAssignOrReturn(int x, int* out) {
  HT_ASSIGN_OR_RETURN(*out, Half(x));
  return Status::OK();
}

TEST(StatusMacros, AssignOrReturn) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(10, &out).ok());
  EXPECT_EQ(out, 5);
  EXPECT_TRUE(UseAssignOrReturn(3, &out).IsInvalid());
}

TEST(ResultT, HoldsValue) {
  Result<std::string> r(std::string("hello"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), "hello");
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultT, HoldsError) {
  Result<std::string> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(ResultT, MoveValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  auto p = r.MoveValueUnsafe();
  EXPECT_EQ(*p, 7);
}

TEST(Logging, LevelFilterRoundTrips) {
  const LogLevel prev = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  HT_LOG(INFO) << "should be suppressed";
  SetLogLevel(prev);
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next64(), b.Next64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next64() == b.Next64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextIntInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.NextInt(17), 17u);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, GaussianMomentsRoughlyStandard) {
  Rng r(11);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = r.NextGaussian();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.1);
}

TEST(Parallel, ForCoversAllIndices) {
  std::vector<std::atomic<int>> hits(5000);
  ParallelFor(0, 5000, [&](int64_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, ChunkedCoversAllIndicesOnce) {
  std::vector<std::atomic<int>> hits(5000);
  ParallelForChunked(0, 5000, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, EmptyRangeIsNoop) {
  bool called = false;
  ParallelForChunked(5, 5, [&](int64_t, int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(Parallel, SmallRangeRunsSerially) {
  std::vector<int> hits(10, 0);
  ParallelFor(0, 10, [&](int64_t i) { hits[i]++; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(Parallel, NestedHelpersVisitEveryIndexOnce) {
  // Called from inside an enclosing parallel region, the helpers get a
  // smaller team than NumThreads() asks for (a single thread when nested
  // parallelism is off); every index must still be visited exactly once.
  const int saved_threads = NumThreads();
  SetNumThreads(4);
  constexpr int64_t kN = 5000;
  std::vector<int64_t> prefix(kN + 1, 0);
  for (int64_t i = 0; i < kN; ++i) prefix[i + 1] = prefix[i] + 1 + i % 7;
  for (const int team : {1, 2, 4}) {
    // visits[outer thread][helper][index]
    std::vector<std::vector<std::vector<int>>> visits(
        static_cast<size_t>(team),
        std::vector<std::vector<int>>(2, std::vector<int>(kN, 0)));
#pragma omp parallel num_threads(team)
    {
      auto& mine = visits[static_cast<size_t>(omp_get_thread_num())];
      ParallelForChunked(0, kN, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) ++mine[0][static_cast<size_t>(i)];
      });
      ParallelForBalanced(kN, prefix.data(), /*serial_below_weight=*/0,
                          [&](int64_t lo, int64_t hi) {
                            for (int64_t i = lo; i < hi; ++i) {
                              ++mine[1][static_cast<size_t>(i)];
                            }
                          });
    }
    for (int t = 0; t < team; ++t) {
      for (int h = 0; h < 2; ++h) {
        for (int64_t i = 0; i < kN; ++i) {
          ASSERT_EQ(visits[static_cast<size_t>(t)][static_cast<size_t>(h)]
                          [static_cast<size_t>(i)],
                    1)
              << "team " << team << " outer thread " << t
              << (h == 0 ? " chunked" : " balanced") << " index " << i;
        }
      }
    }
  }
  SetNumThreads(saved_threads);
}

TEST(Format, Bytes) {
  EXPECT_EQ(FormatBytes(512), "512.0B");
  EXPECT_EQ(FormatBytes(1536), "1.5KB");
  EXPECT_EQ(FormatBytes(12.0 * (1ll << 30)), "12.0GB");
}

TEST(Format, Count) {
  EXPECT_EQ(FormatCount(950), "950");
  EXPECT_EQ(FormatCount(1234567), "1.23M");
  EXPECT_EQ(FormatCount(2.5e9), "2.50B");
}

TEST(Format, Seconds) {
  EXPECT_EQ(FormatSeconds(0.123), "123.0ms");
  EXPECT_EQ(FormatSeconds(0.0005), "500us");
  EXPECT_EQ(FormatSeconds(4.5), "4.50s");
  EXPECT_EQ(FormatSeconds(125), "2m05s");
}

TEST(Format, FixedPoint) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(10.0, 0), "10");
}

}  // namespace
}  // namespace hongtu
