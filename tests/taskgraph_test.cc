// Task-graph model tests. Two layers of coverage: the analytic schedules
// themselves (the task graph's deterministic list schedule and the
// pipeline recurrence, both checked against hand-computed values), and the
// end-to-end pin that an epoch charged under the task-graph model
// (executor = taskgraph) matches the serial executor bitwise on
// loss/accuracy/parameters for every layer type, dedup level, and chunk
// count.

#include <gtest/gtest.h>

#include <array>
#include <tuple>
#include <vector>

#include "hongtu/common/fault.h"
#include "hongtu/common/taskgraph.h"
#include "hongtu/engine/hongtu_engine.h"

namespace hongtu {
namespace {

constexpr int64_t kBig = 1ll << 40;

// ---- Analytic schedules -----------------------------------------------------

TEST(TaskGraphRuntime, ScheduleSecondsIsDeterministicListSchedule) {
  TaskGraph tg;
  const auto pool = tg.AddTokenPool(1);
  // Two token-serialized 1 s loads on resource 0, overlapped with one 2 s
  // compute on resource 1. Load B cannot start until load A's releaser
  // (the compute) retires.
  TaskGraph::NodeOptions la;
  la.acquires = pool;
  la.sim_resource = 0;
  const auto load_a = tg.AddNode(la);
  TaskGraph::NodeOptions co;
  co.sim_resource = 1;
  co.releases_token_of = load_a;
  const auto comp = tg.AddNode(co);
  tg.AddEdge(load_a, comp);
  TaskGraph::NodeOptions lb;
  lb.acquires = pool;
  lb.sim_resource = 0;
  tg.AddNode(lb);
  const std::vector<double> busy = {1.0, 2.0, 1.0};
  // load_a: [0,1). comp: [1,3) releasing the token at 3. load_b: [3,4).
  const double t = tg.ScheduleSeconds(busy);
  EXPECT_DOUBLE_EQ(t, 4.0);
  // Pure function of graph + durations: identical on re-evaluation.
  EXPECT_DOUBLE_EQ(tg.ScheduleSeconds(busy), t);
  // Without the token bottleneck both loads would pipeline on resource 0:
  // the model is genuinely sensitive to pool capacity.
  TaskGraph tg2;
  const auto pool2 = tg2.AddTokenPool(2);
  TaskGraph::NodeOptions la2 = la;
  la2.acquires = pool2;
  const auto a2 = tg2.AddNode(la2);
  TaskGraph::NodeOptions co2 = co;
  co2.releases_token_of = a2;
  const auto c2 = tg2.AddNode(co2);
  tg2.AddEdge(a2, c2);
  TaskGraph::NodeOptions lb2 = lb;
  lb2.acquires = pool2;
  tg2.AddNode(lb2);
  EXPECT_DOUBLE_EQ(tg2.ScheduleSeconds(busy), 3.0);
}

TEST(TaskGraphRuntime, ModelPipelineSecondsIsTheInOrderRecurrence) {
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

// ---- Task-graph vs serial epoch equivalence --------------------------------

Dataset SmallDataset(const char* name = "reddit", double scale = 0.15) {
  auto r = LoadDatasetScaled(name, scale);
  EXPECT_TRUE(r.ok());
  return r.MoveValueUnsafe();
}

HongTuOptions BaseOptions(DedupLevel level, int chunks, ExecutorKind ex,
                          int inflight = 3) {
  HongTuOptions o;
  o.num_devices = 4;
  o.device_capacity_bytes = kBig;
  o.chunks_per_partition = chunks;
  o.dedup = level;
  o.executor = ex;
  o.max_inflight = inflight;
  return o;
}

class TaskGraphEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<GnnKind, DedupLevel, int>> {};

TEST_P(TaskGraphEquivalenceTest, TaskGraphMatchesSerial) {
  const auto& [kind, level, chunks] = GetParam();
  Dataset ds = SmallDataset();
  ModelConfig cfg =
      ModelConfig::Make(kind, ds.feature_dim(), 16, ds.num_classes, 2, 99);

  auto serial = HongTuEngine::Create(
      &ds, cfg, BaseOptions(level, chunks, ExecutorKind::kSerial));
  auto tasked = HongTuEngine::Create(
      &ds, cfg, BaseOptions(level, chunks, ExecutorKind::kTaskGraph));
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(tasked.ok()) << tasked.status().ToString();
  auto& se = *serial.ValueOrDie();
  auto& te = *tasked.ValueOrDie();

  for (int epoch = 0; epoch < 2; ++epoch) {
    auto a = se.TrainEpoch();
    auto b = te.TrainEpoch();
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    // The graph's comp/store chains pin every fp32 accumulation to the
    // serial visitation order, so the match is bitwise, not approximate.
    EXPECT_EQ(a.ValueOrDie().loss, b.ValueOrDie().loss) << "epoch " << epoch;
    EXPECT_EQ(a.ValueOrDie().train_accuracy, b.ValueOrDie().train_accuracy)
        << "epoch " << epoch;
    // A clean run must not have fallen back to the serial replay — that
    // would make this equivalence vacuous.
    EXPECT_EQ(b.ValueOrDie().recovery.total(), 0)
        << b.ValueOrDie().recovery.ToString();
  }
  auto pa = se.model()->AllParams();
  auto pb = te.model()->AllParams();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(Tensor::MaxAbsDiff(*pa[i], *pb[i]), 0.0f) << "param " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsLevelsChunks, TaskGraphEquivalenceTest,
    ::testing::Combine(::testing::Values(GnnKind::kGcn, GnnKind::kSage,
                                         GnnKind::kGin, GnnKind::kGat,
                                         GnnKind::kGgnn),
                       ::testing::Values(DedupLevel::kNone, DedupLevel::kP2P,
                                         DedupLevel::kP2PReuse),
                       ::testing::Values(1, 3, 8)));

TEST(HongTuTaskGraph, ReportsOverlapAndBeatsSerialSimTime) {
  Dataset ds = SmallDataset("it-2004", 0.2);
  ModelConfig cfg = ModelConfig::Make(GnnKind::kGcn, ds.feature_dim(), 32,
                                      ds.num_classes, 2, 11);
  auto serial = HongTuEngine::Create(
      &ds, cfg, BaseOptions(DedupLevel::kP2PReuse, 8, ExecutorKind::kSerial));
  auto tasked = HongTuEngine::Create(
      &ds, cfg,
      BaseOptions(DedupLevel::kP2PReuse, 8, ExecutorKind::kTaskGraph));
  ASSERT_TRUE(serial.ok() && tasked.ok());
  auto a = serial.ValueOrDie()->TrainEpoch();
  auto b = tasked.ValueOrDie()->TrainEpoch();
  ASSERT_TRUE(a.ok() && b.ok());
  const EpochStats& sa = a.ValueOrDie();
  const EpochStats& sb = b.ValueOrDie();
  EXPECT_DOUBLE_EQ(sa.time.overlapped, 0.0);
  EXPECT_GT(sb.time.overlapped, 0.0);
  EXPECT_LT(sb.time.total(), sb.time.busy());
  EXPECT_LT(sb.SimSeconds(), sa.SimSeconds());
  // Busy seconds (the Fig. 9 stacks) stay comparable across executors.
  EXPECT_NEAR(sa.time.busy(), sb.time.busy(), 0.15 * sa.time.busy());
}

TEST(HongTuTaskGraph, BeatsOrTiesThePipelineAtEqualWindow) {
  // With the same in-flight window the dataflow graph's cross-layer edges
  // release work the pipeline's per-layer barrier serializes, so its
  // modeled epoch time is no worse (small tolerance for schedule rounding).
  Dataset ds = SmallDataset("it-2004", 0.2);
  ModelConfig cfg = ModelConfig::Make(GnnKind::kGcn, ds.feature_dim(), 32,
                                      ds.num_classes, 3, 11);
  auto piped = HongTuEngine::Create(
      &ds, cfg,
      BaseOptions(DedupLevel::kP2PReuse, 8, ExecutorKind::kPipeline, 3));
  auto tasked = HongTuEngine::Create(
      &ds, cfg,
      BaseOptions(DedupLevel::kP2PReuse, 8, ExecutorKind::kTaskGraph, 3));
  ASSERT_TRUE(piped.ok() && tasked.ok());
  auto a = piped.ValueOrDie()->TrainEpoch();
  auto b = tasked.ValueOrDie()->TrainEpoch();
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_LE(b.ValueOrDie().SimSeconds(),
            1.02 * a.ValueOrDie().SimSeconds());
}

TEST(HongTuTaskGraph, TaskGraphCostsDeviceMemory) {
  // Extra in-flight buffer slots must be visible to the memory model: the
  // token-pool capacity is exactly the num_slots BeginLayerCtx charged.
  Dataset ds = SmallDataset();
  ModelConfig cfg = ModelConfig::Make(GnnKind::kGcn, ds.feature_dim(), 16,
                                      ds.num_classes, 2, 7);
  auto serial = HongTuEngine::Create(
      &ds, cfg, BaseOptions(DedupLevel::kP2PReuse, 4, ExecutorKind::kSerial));
  auto tasked = HongTuEngine::Create(
      &ds, cfg,
      BaseOptions(DedupLevel::kP2PReuse, 4, ExecutorKind::kTaskGraph));
  ASSERT_TRUE(serial.ok() && tasked.ok());
  auto a = serial.ValueOrDie()->TrainEpoch();
  auto b = tasked.ValueOrDie()->TrainEpoch();
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_GT(b.ValueOrDie().peak_device_bytes,
            a.ValueOrDie().peak_device_bytes);
}

TEST(HongTuTaskGraph, FallsBackToSerialWhenGraphDoesNotFit) {
  // Tight devices: the pass-wide slot reservation may not fit, but the
  // epoch must still complete via the serial fallback rather than OOM.
  Dataset ds = SmallDataset("it-2004", 0.2);
  ModelConfig cfg = ModelConfig::Make(GnnKind::kGcn, ds.feature_dim(), 32,
                                      ds.num_classes, 3, 1);
  HongTuOptions o =
      BaseOptions(DedupLevel::kP2PReuse, 16, ExecutorKind::kTaskGraph, 4);
  o.device_capacity_bytes = 6ll << 20;
  auto e = HongTuEngine::Create(&ds, cfg, o);
  ASSERT_TRUE(e.ok());
  auto r = e.ValueOrDie()->TrainEpoch();
  EXPECT_TRUE(r.ok()) << r.status().ToString();
}

TEST(HongTuTaskGraph, StragglerFaultDegradesWithCleanNumerics) {
  // A transient fault at the `pipeline.stage` site (poked before every
  // (layer, batch, stage)) is retried in place — the stage has not run
  // yet — and the losses stay bitwise equal to a clean run.
  Dataset ds = SmallDataset();
  ModelConfig cfg = ModelConfig::Make(GnnKind::kGcn, ds.feature_dim(), 16,
                                      ds.num_classes, 2, 321);
  const HongTuOptions o =
      BaseOptions(DedupLevel::kP2PReuse, 4, ExecutorKind::kTaskGraph);

  std::vector<double> clean;
  {
    auto e = HongTuEngine::Create(&ds, cfg, o);
    ASSERT_TRUE(e.ok());
    for (int k = 0; k < 3; ++k) {
      auto r = e.ValueOrDie()->TrainEpoch();
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      clean.push_back(r.ValueOrDie().loss);
    }
  }

  fault::SiteSpec spec;
  spec.kind = fault::Kind::kTransient;
  spec.prob = 1.0;
  spec.seed = 3;
  spec.max_count = 2;
  ASSERT_TRUE(fault::Arm(fault::Site::kPipelineStage, spec).ok());
  fault::RecoveryCounters recovery;
  std::vector<double> faulted;
  {
    auto e = HongTuEngine::Create(&ds, cfg, o);
    ASSERT_TRUE(e.ok());
    for (int k = 0; k < 3; ++k) {
      auto r = e.ValueOrDie()->TrainEpoch();
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      faulted.push_back(r.ValueOrDie().loss);
      for (int i = 0; i < fault::kNumDegradeEvents; ++i) {
        recovery.counts[i] += r.ValueOrDie().recovery.counts[i];
      }
    }
  }
  fault::DisarmAll();

  ASSERT_EQ(clean.size(), faulted.size());
  for (size_t k = 0; k < clean.size(); ++k) {
    EXPECT_EQ(clean[k], faulted[k]) << "epoch " << k;
  }
  EXPECT_GT(recovery[fault::DegradeEvent::kTransientRetry], 0)
      << recovery.ToString();
}

}  // namespace
}  // namespace hongtu
