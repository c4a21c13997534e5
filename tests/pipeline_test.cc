// Pipeline-model tests. Two layers of coverage: the analytic model (the
// in-order recurrence and the platform's overlap charge with its clamps),
// and the end-to-end pin that an epoch charged with an in-flight window
// >= 2 matches window 1 (no overlap) bitwise on loss/accuracy/parameters
// for every layer type, dedup level, and chunk count, including the
// single-chunk degenerate case, while its modeled time hides communication
// behind compute.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <tuple>
#include <vector>

#include "hongtu/engine/hongtu_engine.h"

namespace hongtu {
namespace {

constexpr int64_t kBig = 1ll << 40;

// ---- Overlap metering ------------------------------------------------------

TEST(PipelineModel, ModelPipelineSecondsIsTheInOrderRecurrence) {
  // Unequal stage costs per batch: {load, compute, store} seconds.
  const std::vector<std::array<double, 3>> items = {
      {1.0, 1.0, 5.0}, {1.0, 5.0, 1.0}, {1.0, 1.0, 1.0}};
  // Window 2, by hand:
  //   b0: load [0,1)  compute [1,2)  store [2,7)    retires at 7
  //   b1: load [1,2)  compute [2,7)  store [7,8)    retires at 8
  //   b2: its slot frees when b0 retires -> load [7,8)  compute [8,9)
  //       store [9,10)
  EXPECT_DOUBLE_EQ(ModelPipelineSeconds(items, 2), 10.0);
  // Window 3 lifts the bound: b2 loads at [2,3), computes at [7,8) after
  // b1, stores at [8,9).
  EXPECT_DOUBLE_EQ(ModelPipelineSeconds(items, 3), 9.0);
  // Window 1 serializes everything: the busy sum.
  EXPECT_DOUBLE_EQ(ModelPipelineSeconds(items, 1), 17.0);
  EXPECT_DOUBLE_EQ(ModelPipelineSeconds({}, 2), 0.0);
}

TEST(SimPlatform, OverlapRegionChargesCriticalPath) {
  InterconnectParams p;
  p.t_hd = 100.0;
  p.gpu_flops = 10.0;
  p.gpu_mem_bw = 1e12;
  p.xfer_latency_s = 0.0;
  p.kernel_launch_s = 0.0;
  SimPlatform plat(1, 1 << 20, p);
  plat.AddH2D(0, 100);  // 1 s load stage
  plat.Synchronize();
  plat.AddGpuCompute(0, 20.0, 0.0);  // 2 s compute stage
  plat.Synchronize();
  // The two stages overlap; the 2 s compute is the floor no schedule hides.
  plat.RecordOverlap(/*busy=*/3.0, /*floor=*/2.0, /*modeled=*/0.0);
  // Busy components are preserved; the 1 s hidden behind the slower stage
  // moves into `overlapped`, so total() is the 2 s critical path.
  EXPECT_DOUBLE_EQ(plat.time().h2d, 1.0);
  EXPECT_DOUBLE_EQ(plat.time().gpu, 2.0);
  EXPECT_DOUBLE_EQ(plat.time().overlapped, 1.0);
  EXPECT_DOUBLE_EQ(plat.time().busy(), 3.0);
  EXPECT_DOUBLE_EQ(plat.time().total(), 2.0);
}

TEST(SimPlatform, RecordOverlapClampsBetweenFloorAndBusy) {
  SimPlatform plat(1, 1 << 20);
  // A modeled wall between floor and busy is charged as is.
  plat.RecordOverlap(10.0, 4.0, 6.0);
  EXPECT_DOUBLE_EQ(plat.time().overlapped, 4.0);
  // Above the busy sum: no model may be slower than zero overlap.
  plat.RecordOverlap(10.0, 4.0, 12.0);
  EXPECT_DOUBLE_EQ(plat.time().overlapped, 4.0);
  // Below the floor: no model may hide the floor's own busy time.
  plat.RecordOverlap(10.0, 4.0, 1.0);
  EXPECT_DOUBLE_EQ(plat.time().overlapped, 10.0);
}

TEST(SimPlatform, SerialPhasesHaveNoOverlap) {
  SimPlatform plat(2, 1 << 20);
  plat.AddH2D(0, 1 << 20);
  plat.Synchronize();
  plat.AddGpuCompute(1, 1e9, 1e6);
  plat.Synchronize();
  EXPECT_DOUBLE_EQ(plat.time().overlapped, 0.0);
  EXPECT_DOUBLE_EQ(plat.time().total(), plat.time().busy());
}

// ---- Pipelined vs serial epoch equivalence ---------------------------------

Dataset SmallDataset(const char* name = "reddit", double scale = 0.15) {
  auto r = LoadDatasetScaled(name, scale);
  EXPECT_TRUE(r.ok());
  return r.MoveValueUnsafe();
}

/// depth 0 = window 1, no overlap; depth >= 2 = the pipeline model with
/// that in-flight window.
HongTuOptions BaseOptions(DedupLevel level, int chunks, int depth) {
  HongTuOptions o;
  o.num_devices = 4;
  o.device_capacity_bytes = kBig;
  o.chunks_per_partition = chunks;
  o.dedup = level;
  o.max_inflight = std::max(1, depth);
  return o;
}

class PipelineEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<GnnKind, DedupLevel, int>> {};

TEST_P(PipelineEquivalenceTest, PipelinedMatchesSerial) {
  const auto& [kind, level, chunks] = GetParam();
  Dataset ds = SmallDataset();
  ModelConfig cfg =
      ModelConfig::Make(kind, ds.feature_dim(), 16, ds.num_classes, 2, 99);

  auto serial =
      HongTuEngine::Create(&ds, cfg, BaseOptions(level, chunks, /*depth=*/0));
  auto piped =
      HongTuEngine::Create(&ds, cfg, BaseOptions(level, chunks, /*depth=*/2));
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(piped.ok()) << piped.status().ToString();
  auto& se = *serial.ValueOrDie();
  auto& pe = *piped.ValueOrDie();

  for (int epoch = 0; epoch < 2; ++epoch) {
    auto a = se.TrainEpoch();
    auto b = pe.TrainEpoch();
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    // Window 1 models no overlap at all.
    EXPECT_EQ(a.ValueOrDie().time.overlapped, 0.0) << "epoch " << epoch;
    // The window only changes the modeled schedule and the reservations;
    // the chunk loop is the same serial path, so the match is bitwise.
    EXPECT_EQ(a.ValueOrDie().loss, b.ValueOrDie().loss) << "epoch " << epoch;
    EXPECT_EQ(a.ValueOrDie().train_accuracy, b.ValueOrDie().train_accuracy)
        << "epoch " << epoch;
    // A clean run must not have fallen back to serial batches — that would
    // make this equivalence vacuous.
    EXPECT_EQ(b.ValueOrDie().recovery.total(), 0)
        << b.ValueOrDie().recovery.ToString();
  }
  auto aa = se.EvaluateAccuracy(SplitRole::kVal);
  auto bb = pe.EvaluateAccuracy(SplitRole::kVal);
  ASSERT_TRUE(aa.ok() && bb.ok());
  EXPECT_EQ(aa.ValueOrDie(), bb.ValueOrDie());

  auto pa = se.model()->AllParams();
  auto pb = pe.model()->AllParams();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(Tensor::MaxAbsDiff(*pa[i], *pb[i]), 0.0f) << "param " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsLevelsChunks, PipelineEquivalenceTest,
    ::testing::Combine(::testing::Values(GnnKind::kGcn, GnnKind::kSage,
                                         GnnKind::kGin, GnnKind::kGat,
                                         GnnKind::kGgnn),
                       ::testing::Values(DedupLevel::kNone, DedupLevel::kP2P,
                                         DedupLevel::kP2PReuse),
                       ::testing::Values(1, 3, 8)));

TEST(HongTuPipeline, DeeperPipelineStillMatches) {
  Dataset ds = SmallDataset();
  ModelConfig cfg = ModelConfig::Make(GnnKind::kGcn, ds.feature_dim(), 16,
                                      ds.num_classes, 2, 5);
  auto serial = HongTuEngine::Create(
      &ds, cfg, BaseOptions(DedupLevel::kP2PReuse, 6, /*depth=*/0));
  auto piped = HongTuEngine::Create(
      &ds, cfg, BaseOptions(DedupLevel::kP2PReuse, 6, /*depth=*/4));
  ASSERT_TRUE(serial.ok() && piped.ok());
  auto a = serial.ValueOrDie()->TrainEpoch();
  auto b = piped.ValueOrDie()->TrainEpoch();
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NEAR(a.ValueOrDie().loss, b.ValueOrDie().loss, 1e-4);
}

TEST(HongTuPipeline, ReportsOverlapAndBeatsSerialSimTime) {
  // With several chunks in flight the pipeline model hides communication
  // behind compute, so simulated epoch time drops below window 1's and the
  // hidden seconds show up in the overlapped meter.
  Dataset ds = SmallDataset("it-2004", 0.2);
  ModelConfig cfg = ModelConfig::Make(GnnKind::kGcn, ds.feature_dim(), 32,
                                      ds.num_classes, 2, 11);
  auto serial = HongTuEngine::Create(
      &ds, cfg, BaseOptions(DedupLevel::kP2PReuse, 8, /*depth=*/0));
  auto piped = HongTuEngine::Create(
      &ds, cfg, BaseOptions(DedupLevel::kP2PReuse, 8, /*depth=*/3));
  ASSERT_TRUE(serial.ok() && piped.ok());
  auto a = serial.ValueOrDie()->TrainEpoch();
  auto b = piped.ValueOrDie()->TrainEpoch();
  ASSERT_TRUE(a.ok() && b.ok());
  const EpochStats& sa = a.ValueOrDie();
  const EpochStats& sb = b.ValueOrDie();
  EXPECT_DOUBLE_EQ(sa.time.overlapped, 0.0);
  EXPECT_GT(sb.time.overlapped, 0.0);
  EXPECT_LT(sb.time.total(), sb.time.busy());
  EXPECT_LT(sb.SimSeconds(), sa.SimSeconds());
  // Busy seconds (the Fig. 9 stacks) stay comparable across windows.
  EXPECT_NEAR(sa.time.busy(), sb.time.busy(), 0.15 * sa.time.busy());
}

TEST(HongTuPipeline, PipelineCostsDeviceMemory) {
  // Extra in-flight chunk buffers must be visible to the memory model.
  Dataset ds = SmallDataset();
  ModelConfig cfg = ModelConfig::Make(GnnKind::kGcn, ds.feature_dim(), 16,
                                      ds.num_classes, 2, 7);
  auto serial = HongTuEngine::Create(
      &ds, cfg, BaseOptions(DedupLevel::kP2PReuse, 4, /*depth=*/0));
  auto piped = HongTuEngine::Create(
      &ds, cfg, BaseOptions(DedupLevel::kP2PReuse, 4, /*depth=*/3));
  ASSERT_TRUE(serial.ok() && piped.ok());
  auto a = serial.ValueOrDie()->TrainEpoch();
  auto b = piped.ValueOrDie()->TrainEpoch();
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_GT(b.ValueOrDie().peak_device_bytes,
            a.ValueOrDie().peak_device_bytes);
}

TEST(HongTuPipeline, FallsBackToSerialWhenPipelineDoesNotFit) {
  // Same capacity regime as engine_test's FitsWhereInMemoryOoms: the
  // pipelined working set may not fit tight devices, but the epoch must
  // still complete via the per-layer serial fallback rather than OOM.
  Dataset ds = SmallDataset("it-2004", 0.2);
  ModelConfig cfg = ModelConfig::Make(GnnKind::kGcn, ds.feature_dim(), 32,
                                      ds.num_classes, 3, 1);
  HongTuOptions o = BaseOptions(DedupLevel::kP2PReuse, 16, /*depth=*/4);
  o.device_capacity_bytes = 6ll << 20;
  auto e = HongTuEngine::Create(&ds, cfg, o);
  ASSERT_TRUE(e.ok());
  auto r = e.ValueOrDie()->TrainEpoch();
  EXPECT_TRUE(r.ok()) << r.status().ToString();
}

TEST(CommExecutor, ForwardLoadSlotRejectsBadSlot) {
  Dataset ds = SmallDataset();
  auto tl = BuildTwoLevelPartition(ds.graph, 2, 2, {});
  ASSERT_TRUE(tl.ok());
  auto plan = BuildDedupPlan(tl.ValueOrDie(), DedupLevel::kP2PReuse);
  ASSERT_TRUE(plan.ok());
  CommExecutor exec(&tl.ValueOrDie(), &plan.ValueOrDie(), nullptr);
  ASSERT_TRUE(exec.BeginLayer(8, 2).ok());
  Tensor host(ds.graph.num_vertices(), 8);
  EXPECT_TRUE(exec.ForwardLoadSlot(0, 2, host).IsInvalid());
  EXPECT_TRUE(exec.ForwardLoadSlot(0, -1, host).IsInvalid());
  EXPECT_TRUE(exec.ForwardLoadSlot(0, 1, host).ok());
}

}  // namespace
}  // namespace hongtu
