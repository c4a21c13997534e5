// Engine tests. The centerpiece is the equivalence suite: HongTuEngine
// (partitioned, offloaded, deduplicated, recompute/cache-hybrid) must match
// the dense single-shot InMemoryEngine reference to float tolerance — the
// paper's claim that its training semantics are unchanged (§7.1, Fig. 8).

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "hongtu/common/crc32c.h"
#include "hongtu/common/parallel.h"
#include "hongtu/engine/cpu_cluster_engine.h"
#include "hongtu/engine/hongtu_engine.h"
#include "hongtu/engine/inmemory_engine.h"
#include "hongtu/engine/minibatch_engine.h"
#include "hongtu/engine/trainer.h"
#include "hongtu/kernels/backend.h"

namespace hongtu {
namespace {

constexpr int64_t kBig = 1ll << 40;

Dataset SmallDataset(const char* name = "reddit", double scale = 0.2) {
  auto r = LoadDatasetScaled(name, scale);
  EXPECT_TRUE(r.ok());
  return r.MoveValueUnsafe();
}

class EquivalenceTest
    : public ::testing::TestWithParam<std::tuple<GnnKind, DedupLevel, int>> {};

TEST_P(EquivalenceTest, HongTuMatchesDenseReference) {
  const auto& [kind, level, chunks] = GetParam();
  Dataset ds = SmallDataset();
  ModelConfig cfg =
      ModelConfig::Make(kind, ds.feature_dim(), 16, ds.num_classes, 2, 777);

  InMemoryOptions imo;
  imo.num_devices = 1;
  imo.device_capacity_bytes = kBig;
  auto refr = InMemoryEngine::Create(&ds, cfg, imo);
  ASSERT_TRUE(refr.ok()) << refr.status().ToString();
  auto& ref = *refr.ValueOrDie();

  HongTuOptions hto;
  hto.num_devices = 4;
  hto.device_capacity_bytes = kBig;
  hto.chunks_per_partition = chunks;
  hto.dedup = level;
  // This suite asserts the paper's unchanged-training-semantics claim, so
  // it pins the bit-exact wire even when HONGTU_COMM_PRECISION moves the
  // default (the CI bf16 leg); Bf16TrainingDrift below bounds the 16-bit
  // wire against fp32 explicitly.
  hto.comm_precision = kernels::CommPrecision::kFp32;
  auto htr = HongTuEngine::Create(&ds, cfg, hto);
  ASSERT_TRUE(htr.ok()) << htr.status().ToString();
  auto& ht = *htr.ValueOrDie();

  for (int epoch = 0; epoch < 3; ++epoch) {
    auto a = ref.TrainEpoch();
    auto b = ht.TrainEpoch();
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_NEAR(a.ValueOrDie().loss, b.ValueOrDie().loss,
                2e-3 * std::max(1.0, a.ValueOrDie().loss))
        << "epoch " << epoch;
  }
  // Parameters stay in lockstep as well.
  auto pa = ref.model()->AllParams();
  auto pb = ht.model()->AllParams();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_LT(Tensor::MaxAbsDiff(*pa[i], *pb[i]), 5e-2) << "param " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsLevelsChunks, EquivalenceTest,
    ::testing::Combine(::testing::Values(GnnKind::kGcn, GnnKind::kSage,
                                         GnnKind::kGin, GnnKind::kGat,
                                         GnnKind::kGgnn),
                       ::testing::Values(DedupLevel::kNone,
                                         DedupLevel::kP2PReuse),
                       ::testing::Values(1, 3)));

class Bf16DriftTest
    : public ::testing::TestWithParam<std::tuple<GnnKind, DedupLevel>> {};

TEST_P(Bf16DriftTest, TrainingLossStaysWithinTolerance) {
  // The mixed-precision wire quantizes every transferred row once per
  // crossing while all accumulation stays fp32, so end-to-end training-loss
  // drift vs the fp32 wire must stay within a few percent — for every layer
  // kind and dedup level (each level routes rows through different
  // load/reuse/flush paths).
  const auto& [kind, level] = GetParam();
  Dataset ds = SmallDataset();
  ModelConfig cfg =
      ModelConfig::Make(kind, ds.feature_dim(), 16, ds.num_classes, 2, 555);
  const auto run = [&](kernels::CommPrecision wire) {
    HongTuOptions o;
    o.num_devices = 4;
    o.chunks_per_partition = 3;
    o.device_capacity_bytes = kBig;
    o.dedup = level;
    o.comm_precision = wire;
    auto e = HongTuEngine::Create(&ds, cfg, o);
    EXPECT_TRUE(e.ok()) << e.status().ToString();
    std::vector<double> losses;
    for (int epoch = 0; epoch < 3; ++epoch) {
      auto r = e.ValueOrDie()->TrainEpoch();
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      losses.push_back(r.ValueOrDie().loss);
    }
    return losses;
  };
  const std::vector<double> fp32 = run(kernels::CommPrecision::kFp32);
  const std::vector<double> bf16 = run(kernels::CommPrecision::kBf16);
  ASSERT_EQ(fp32.size(), bf16.size());
  for (size_t e = 0; e < fp32.size(); ++e) {
    EXPECT_NEAR(bf16[e], fp32[e], 0.05 * std::max(1.0, fp32[e]))
        << GnnKindName(kind) << " epoch " << e;
  }
  // Training still makes progress under the compressed wire.
  EXPECT_LT(bf16.back(), bf16.front());
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndLevels, Bf16DriftTest,
    ::testing::Combine(::testing::Values(GnnKind::kGcn, GnnKind::kSage,
                                         GnnKind::kGin, GnnKind::kGat,
                                         GnnKind::kGgnn),
                       ::testing::Values(DedupLevel::kNone, DedupLevel::kP2P,
                                         DedupLevel::kP2PReuse)));

TEST(HongTuEngine, Fp16WireTrainsAndHalvesCommBytes) {
  // fp16's narrower range must still train on normalized features, and the
  // platform's byte meters must show the halved wire for both precisions.
  Dataset ds = SmallDataset();
  ModelConfig cfg = ModelConfig::Make(GnnKind::kGcn, ds.feature_dim(), 16,
                                      ds.num_classes, 2, 556);
  const auto run = [&](kernels::CommPrecision wire) {
    HongTuOptions o;
    o.num_devices = 4;
    o.chunks_per_partition = 3;
    o.device_capacity_bytes = kBig;
    o.comm_precision = wire;
    // Window 1: epoch time is the sum of busy seconds, so the halved wire
    // must show up as a strict total-time drop (under overlap a fully
    // hidden comm lane could mask it).
    o.max_inflight = 1;
    auto e = HongTuEngine::Create(&ds, cfg, o);
    EXPECT_TRUE(e.ok());
    auto r = e.ValueOrDie()->TrainEpoch();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ValueOrDie();
  };
  const EpochStats f32 = run(kernels::CommPrecision::kFp32);
  const EpochStats f16 = run(kernels::CommPrecision::kFp16);
  const EpochStats b16 = run(kernels::CommPrecision::kBf16);
  EXPECT_NEAR(f16.loss, f32.loss, 0.05 * std::max(1.0, f32.loss));
  // Every comm stream moves vertex rows at the 2-byte wire: the h2d + ru
  // byte meters must drop by exactly 2x, and d2d likewise.
  EXPECT_EQ(f16.bytes.h2d * 2, f32.bytes.h2d);
  EXPECT_EQ(f16.bytes.ru * 2, f32.bytes.ru);
  EXPECT_EQ(f16.bytes.d2d, b16.bytes.d2d);
  EXPECT_GT(f32.bytes.d2d, f16.bytes.d2d);
  // Cheaper wire bytes must show up as sim-time savings on the h2d lane.
  EXPECT_LT(f16.SimSeconds(), f32.SimSeconds());
}

TEST(HongTuEngine, HybridCacheOffMatchesOn) {
  // Pure recomputation (Fig. 4b) and the hybrid (Fig. 4c) must agree. On a
  // heavily-replicated graph (alpha >> 2) the hybrid also transfers less:
  // caching costs 2|V| rows of host traffic (write + read) versus the
  // recompute path's alpha|V| neighbor reload (§4.2).
  Dataset ds = SmallDataset("friendster", 0.1);
  ModelConfig cfg =
      ModelConfig::Make(GnnKind::kGcn, ds.feature_dim(), 16, ds.num_classes,
                        2, 31);
  HongTuOptions a;
  a.num_devices = 4;
  a.chunks_per_partition = 8;
  a.device_capacity_bytes = kBig;
  a.hybrid_cache = true;
  HongTuOptions b = a;
  b.hybrid_cache = false;
  auto ea = HongTuEngine::Create(&ds, cfg, a);
  auto eb = HongTuEngine::Create(&ds, cfg, b);
  ASSERT_TRUE(ea.ok() && eb.ok());
  for (int epoch = 0; epoch < 2; ++epoch) {
    auto ra = ea.ValueOrDie()->TrainEpoch();
    auto rb = eb.ValueOrDie()->TrainEpoch();
    ASSERT_TRUE(ra.ok() && rb.ok());
    EXPECT_NEAR(ra.ValueOrDie().loss, rb.ValueOrDie().loss, 1e-3);
  }
  // The O(alpha|V|) -> O(|V|) traffic claim of §4.2 is stated against plain
  // per-chunk loading, so compare the two policies with dedup disabled:
  // caching (2|V| rows) must beat the recompute reload (alpha|V| rows).
  HongTuOptions a2 = a;
  a2.dedup = DedupLevel::kNone;
  HongTuOptions b2 = b;
  b2.dedup = DedupLevel::kNone;
  auto ea2 = HongTuEngine::Create(&ds, cfg, a2);
  auto eb2 = HongTuEngine::Create(&ds, cfg, b2);
  ASSERT_TRUE(ea2.ok() && eb2.ok());
  auto ra = ea2.ValueOrDie()->TrainEpoch();
  auto rb = eb2.ValueOrDie()->TrainEpoch();
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_LT(ra.ValueOrDie().bytes.h2d, rb.ValueOrDie().bytes.h2d);
}

TEST(HongTuEngine, EdgeSchedulesAreMeteredAndOptional) {
  Dataset ds = SmallDataset("friendster", 0.1);
  ModelConfig cfg =
      ModelConfig::Make(GnnKind::kGcn, ds.feature_dim(), 16, ds.num_classes,
                        2, 31);
  HongTuOptions on;
  on.num_devices = 2;
  on.chunks_per_partition = 4;
  on.device_capacity_bytes = kBig;
  HongTuOptions off = on;
  off.edge_schedules = false;
  auto eon = HongTuEngine::Create(&ds, cfg, on);
  auto eoff = HongTuEngine::Create(&ds, cfg, off);
  ASSERT_TRUE(eon.ok() && eoff.ok());
  // The one-time schedule build cost is metered in the platform and charged
  // against device memory; disabling schedules meters nothing.
  EXPECT_GT(eon.ValueOrDie()->platform()->ScheduleBytes(), 0);
  EXPECT_EQ(eoff.ValueOrDie()->platform()->ScheduleBytes(), 0);
  // Numerics agree across the banded/single-pass dispatch.
  for (int epoch = 0; epoch < 2; ++epoch) {
    auto ra = eon.ValueOrDie()->TrainEpoch();
    auto rb = eoff.ValueOrDie()->TrainEpoch();
    ASSERT_TRUE(ra.ok() && rb.ok());
    EXPECT_NEAR(ra.ValueOrDie().loss, rb.ValueOrDie().loss, 1e-3);
  }
}

/// The invariants every compiled schedule must meet: edge_perm is a
/// bijection on [0, E), and the zero-row list names exactly the output rows
/// without edges.
void ExpectScheduleInvariants(const kernels::EdgeSchedule& s, int64_t num_out,
                              const int64_t* offsets, const std::string& what) {
  const int64_t E = offsets[num_out];
  ASSERT_EQ(s.num_edges(), E) << what;
  std::vector<int> seen(static_cast<size_t>(E), 0);
  for (int64_t k = 0; k < E; ++k) {
    const int32_t e = s.edge_perm()[k];
    ASSERT_GE(e, 0) << what;
    ASSERT_LT(e, E) << what;
    ++seen[static_cast<size_t>(e)];
  }
  for (int64_t e = 0; e < E; ++e) {
    ASSERT_EQ(seen[static_cast<size_t>(e)], 1) << what << " edge " << e;
  }
  if (E == 0) return;
  std::vector<int> zero(static_cast<size_t>(num_out), 0);
  for (int64_t z = 0; z < s.num_zero_rows(); ++z) {
    const int32_t r = s.zero_rows()[z];
    ASSERT_GE(r, 0) << what;
    ASSERT_LT(r, num_out) << what;
    ++zero[static_cast<size_t>(r)];
  }
  for (int64_t d = 0; d < num_out; ++d) {
    ASSERT_EQ(zero[static_cast<size_t>(d)], offsets[d + 1] == offsets[d] ? 1 : 0)
        << what << " row " << d;
  }
}

TEST(HongTuEngine, NestedScheduleBuildMeetsInvariants) {
  // The engine compiles its chunks' schedules chunk-parallel, and each
  // build is shard-parallel inside that region. The inner helpers must
  // cover every shard whatever team size the nested region actually gets.
  const int saved_threads = NumThreads();
  SetNumThreads(4);
  Dataset ds = SmallDataset("it-2004", 0.2);
  ModelConfig cfg = ModelConfig::Make(GnnKind::kGcn, ds.feature_dim(), 16,
                                      ds.num_classes, 2, 31);
  HongTuOptions o;
  o.num_devices = 2;
  o.chunks_per_partition = 8;
  o.device_capacity_bytes = kBig;
  auto e = HongTuEngine::Create(&ds, cfg, o);
  SetNumThreads(saved_threads);
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  const HongTuEngine& engine = *e.ValueOrDie();
  for (int i = 0; i < o.num_devices; ++i) {
    for (int j = 0; j < o.chunks_per_partition; ++j) {
      const ChunkSchedules* cs = engine.chunk_schedules(i, j);
      ASSERT_NE(cs, nullptr);
      const Chunk& c = engine.partition().chunks[i][j];
      const std::string at =
          "chunk (" + std::to_string(i) + ", " + std::to_string(j) + ")";
      ExpectScheduleInvariants(cs->gather, c.num_dst(), c.in_offsets.data(),
                               at + " gather");
      ExpectScheduleInvariants(cs->scatter, c.num_neighbors(),
                               c.src_offsets.data(), at + " scatter");
    }
  }
}

/// Sets the OpenMP team size for a scope and restores it on exit, including
/// an early return from a failed ASSERT.
struct ScopedTeamSize {
  explicit ScopedTeamSize(int n) : saved(NumThreads()) { SetNumThreads(n); }
  ~ScopedTeamSize() { SetNumThreads(saved); }
  const int saved;
};

// Golden training digests: FNV-1a over the three epoch losses and the
// CRC32C of every parameter after them, one per layer kind, recorded before
// the backward learned to skip work its gradients do not need (the ReLU
// mask from the stored activation, no input-feature gradient at layer 0).
// A change that must keep every number the same keeps these digests. They
// are pinned per build flavour like the GEMM digest in kernels_test: GCC
// with FMA (-march=native on an AVX-512 host; -march=haswell gives the same)
// and GCC's portable x86-64.
// Other compilers and sanitizer builds check team-size invariance only.
#if defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_ADDRESS__) && defined(__FMA__)
constexpr uint64_t kGoldenSage = 0xd5b0514f92a75519ull;
constexpr uint64_t kGoldenGcn = 0x1b50cc841bded007ull;
constexpr uint64_t kGoldenGin = 0x87cd7d374e8d7b65ull;
#elif defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_ADDRESS__) && defined(__x86_64__)
constexpr uint64_t kGoldenSage = 0xa9b8dea8e6a89ab2ull;
constexpr uint64_t kGoldenGcn = 0x3b5b0efd61c1be38ull;
constexpr uint64_t kGoldenGin = 0xe0d6420805d9d5dbull;
#else
constexpr uint64_t kGoldenSage = 0;  // not pinned
constexpr uint64_t kGoldenGcn = 0;
constexpr uint64_t kGoldenGin = 0;
#endif

uint64_t Fnv1a(uint64_t h, const void* p, size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// Trains 3 epochs on `ds` over the `wire` at the current team size and
/// returns the digest of the losses and the final parameters.
uint64_t TrainingDigest(const Dataset& ds, GnnKind kind,
                        kernels::CommPrecision wire) {
  const ModelConfig cfg =
      ModelConfig::Make(kind, ds.feature_dim(), 64, ds.num_classes, 2, 41);
  HongTuOptions o;
  o.num_devices = 4;
  o.chunks_per_partition = 2;
  o.device_capacity_bytes = kBig;
  o.comm_precision = wire;
  auto e = HongTuEngine::Create(&ds, cfg, o);
  EXPECT_TRUE(e.ok()) << e.status().ToString();
  if (!e.ok()) return 0;
  uint64_t h = 1469598103934665603ull;
  for (int epoch = 0; epoch < 3; ++epoch) {
    auto r = e.ValueOrDie()->TrainEpoch();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return 0;
    const double loss = r.ValueOrDie().loss;
    h = Fnv1a(h, &loss, sizeof(loss));
  }
  for (const Tensor* p : e.ValueOrDie()->model()->AllParams()) {
    const uint32_t crc = Crc32c(p->data(), p->bytes());
    h = Fnv1a(h, &crc, sizeof(crc));
  }
  return h;
}

TEST(HongTuEngine, TrainingIsBitwiseEqualAtAnyTeamSize) {
  // Every kernel an epoch runs gives each output element one owning thread
  // and a fixed summation order, so a one-thread team and the default team
  // must produce the same losses and parameters, bit for bit, over the
  // process-default wire (HONGTU_COMM_PRECISION moves it; on a 16-bit wire
  // the backward's ReLU mask comes from quantized stored rows). The fp32
  // wire's digest must also equal the recorded one. The graph is the
  // full-size reddit stand-in (6k vertices), so the forward GEMM, dW and db
  // all run in parallel regions. The reference backend sums in other
  // orders: it checks team-size invariance only.
  const int team = NumThreads();
  const kernels::CommPrecision wire = HongTuOptions{}.comm_precision;
  const bool fp32 = wire == kernels::CommPrecision::kFp32;
  const bool pinned = kernels::ActiveBackend() == kernels::Backend::kBlocked;
  Dataset ds = SmallDataset("reddit", 1.0);
  const std::pair<GnnKind, uint64_t> cases[] = {{GnnKind::kSage, kGoldenSage},
                                                {GnnKind::kGcn, kGoldenGcn},
                                                {GnnKind::kGin, kGoldenGin}};
  for (const auto& [kind, golden] : cases) {
    uint64_t digest[2];
    for (int run = 0; run < 2; ++run) {
      const ScopedTeamSize threads(run == 0 ? 1 : team);
      digest[run] = TrainingDigest(ds, kind, wire);
    }
    const char* name = GnnKindName(kind);
    EXPECT_EQ(digest[0], digest[1])
        << name << " (" << kernels::CommPrecisionName(wire) << " wire)"
        << std::hex << ": 0x" << digest[0] << " vs 0x" << digest[1];
    if (pinned && golden != 0) {
      const uint64_t at_fp32 =
          fp32 ? digest[0]
               : TrainingDigest(ds, kind, kernels::CommPrecision::kFp32);
      EXPECT_EQ(at_fp32, golden) << name << std::hex << ": 0x" << at_fp32;
    }
  }
}

TEST(HongTuEngine, ReorganizeKeepsNumericsChangesVolume) {
  Dataset ds = SmallDataset("friendster", 0.1);
  ModelConfig cfg =
      ModelConfig::Make(GnnKind::kGcn, ds.feature_dim(), 8, ds.num_classes,
                        2, 13);
  HongTuOptions a;
  a.num_devices = 4;
  a.chunks_per_partition = 6;
  a.device_capacity_bytes = kBig;
  a.reorganize = true;
  HongTuOptions b = a;
  b.reorganize = false;
  auto ea = HongTuEngine::Create(&ds, cfg, a);
  auto eb = HongTuEngine::Create(&ds, cfg, b);
  ASSERT_TRUE(ea.ok() && eb.ok());
  auto ra = ea.ValueOrDie()->TrainEpoch();
  auto rb = eb.ValueOrDie()->TrainEpoch();
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_NEAR(ra.ValueOrDie().loss, rb.ValueOrDie().loss, 1e-3);
  EXPECT_LE(ea.ValueOrDie()->plan().volumes.v_ru,
            eb.ValueOrDie()->plan().volumes.v_ru);
}

TEST(HongTuEngine, DedupLevelsReduceHostTraffic) {
  // Fig. 9 ablation direction: Baseline > +P2P > +RU in H2D bytes.
  Dataset ds = SmallDataset("friendster", 0.1);
  ModelConfig cfg = ModelConfig::Make(GnnKind::kGcn, ds.feature_dim(), 8,
                                      ds.num_classes, 2, 13);
  int64_t prev = INT64_MAX;
  for (DedupLevel level :
       {DedupLevel::kNone, DedupLevel::kP2P, DedupLevel::kP2PReuse}) {
    HongTuOptions o;
    o.num_devices = 4;
    o.chunks_per_partition = 6;
    o.device_capacity_bytes = kBig;
    o.dedup = level;
    auto e = HongTuEngine::Create(&ds, cfg, o);
    ASSERT_TRUE(e.ok());
    auto r = e.ValueOrDie()->TrainEpoch();
    ASSERT_TRUE(r.ok());
    EXPECT_LE(r.ValueOrDie().bytes.h2d, prev)
        << DedupLevelName(level);
    prev = r.ValueOrDie().bytes.h2d;
  }
}

TEST(HongTuEngine, RejectsDimMismatch) {
  Dataset ds = SmallDataset();
  ModelConfig cfg =
      ModelConfig::Make(GnnKind::kGcn, ds.feature_dim() + 1, 8,
                        ds.num_classes, 2, 1);
  HongTuOptions o;
  EXPECT_TRUE(HongTuEngine::Create(&ds, cfg, o).status().IsInvalid());
  EXPECT_TRUE(
      HongTuEngine::Create(nullptr, cfg, o).status().IsInvalid());
}

TEST(HongTuEngine, SingleDeviceSingleChunkWorks) {
  Dataset ds = SmallDataset();
  ModelConfig cfg = ModelConfig::Make(GnnKind::kGcn, ds.feature_dim(), 8,
                                      ds.num_classes, 2, 1);
  HongTuOptions o;
  o.num_devices = 1;
  o.chunks_per_partition = 1;
  o.device_capacity_bytes = kBig;
  auto e = HongTuEngine::Create(&ds, cfg, o);
  ASSERT_TRUE(e.ok());
  EXPECT_TRUE(e.ValueOrDie()->TrainEpoch().ok());
}

TEST(InMemoryEngine, OomOnTinyDevices) {
  Dataset ds = SmallDataset("it-2004", 0.2);
  ModelConfig cfg = ModelConfig::Make(GnnKind::kGcn, ds.feature_dim(), 32,
                                      ds.num_classes, 3, 1);
  InMemoryOptions o;
  o.num_devices = 4;
  o.device_capacity_bytes = 1 << 20;  // 1 MB devices
  auto e = InMemoryEngine::Create(&ds, cfg, o);
  ASSERT_TRUE(e.ok());
  EXPECT_TRUE(e.ValueOrDie()->TrainEpoch().status().IsOutOfMemory());
}

TEST(HongTuEngine, FitsWhereInMemoryOoms) {
  // The paper's central claim (Table 6): with the same devices, HongTu
  // completes where the all-in-GPU engine runs out of memory.
  Dataset ds = SmallDataset("it-2004", 0.2);
  ModelConfig cfg = ModelConfig::Make(GnnKind::kGcn, ds.feature_dim(), 32,
                                      ds.num_classes, 3, 1);
  const int64_t cap = 6ll << 20;  // 6 MB per device
  InMemoryOptions imo;
  imo.num_devices = 4;
  imo.device_capacity_bytes = cap;
  auto im = InMemoryEngine::Create(&ds, cfg, imo);
  ASSERT_TRUE(im.ok());
  ASSERT_TRUE(im.ValueOrDie()->TrainEpoch().status().IsOutOfMemory());

  HongTuOptions hto;
  hto.num_devices = 4;
  hto.device_capacity_bytes = cap;
  hto.chunks_per_partition = 16;
  auto ht = HongTuEngine::Create(&ds, cfg, hto);
  ASSERT_TRUE(ht.ok());
  auto r = ht.ValueOrDie()->TrainEpoch();
  EXPECT_TRUE(r.ok()) << r.status().ToString();
}

TEST(MiniBatchEngine, TrainsAndImprovesLoss) {
  Dataset ds = SmallDataset();
  ModelConfig cfg = ModelConfig::Make(GnnKind::kGcn, ds.feature_dim(), 16,
                                      ds.num_classes, 2, 5);
  MiniBatchOptions o;
  o.num_devices = 4;
  o.device_capacity_bytes = kBig;
  o.batch_size = 256;
  auto e = MiniBatchEngine::Create(&ds, cfg, o);
  ASSERT_TRUE(e.ok());
  auto first = e.ValueOrDie()->TrainEpoch();
  ASSERT_TRUE(first.ok());
  EpochStats last;
  for (int i = 0; i < 5; ++i) {
    auto r = e.ValueOrDie()->TrainEpoch();
    ASSERT_TRUE(r.ok());
    last = r.ValueOrDie();
  }
  EXPECT_LT(last.loss, first.ValueOrDie().loss);
  auto acc = e.ValueOrDie()->EvaluateAccuracy(SplitRole::kVal);
  ASSERT_TRUE(acc.ok());
  EXPECT_GT(acc.ValueOrDie(), 1.5 / ds.num_classes);
}

TEST(MiniBatchEngine, SampleChunkRespectsFanout) {
  Dataset ds = SmallDataset();
  Rng rng(3);
  std::vector<VertexId> dsts = {0, 5, 9, 14};
  Chunk c = SampleChunk(ds.graph, dsts, 4, &rng);
  ASSERT_EQ(c.num_dst(), 4);
  for (size_t d = 0; d < 4; ++d) {
    EXPECT_LE(c.in_offsets[d + 1] - c.in_offsets[d], 4);
    // Self edge always kept.
    bool self = false;
    for (int64_t e = c.in_offsets[d]; e < c.in_offsets[d + 1]; ++e) {
      if (c.neighbors[c.nbr_idx[e]] == c.dst_vertices[d]) self = true;
    }
    EXPECT_TRUE(self);
  }
}

TEST(CpuClusterEngine, ScalesWithLayersAndOoms) {
  Dataset ds = SmallDataset("ogbn-paper", 0.3);
  CpuClusterOptions o;
  o.num_nodes = 16;
  o.node_memory_bytes = 1ll << 30;
  double prev = 0.0;
  for (int layers : {2, 3, 4}) {
    ModelConfig cfg = ModelConfig::Make(GnnKind::kGcn, ds.feature_dim(), 16,
                                        ds.num_classes, layers, 1);
    auto e = CpuClusterEngine::Create(&ds, cfg, o);
    ASSERT_TRUE(e.ok());
    auto r = e.ValueOrDie()->EstimateEpoch();
    ASSERT_TRUE(r.ok());
    EXPECT_GT(r.ValueOrDie().SimSeconds(), prev);
    prev = r.ValueOrDie().SimSeconds();
  }
  // Tiny node memory -> OOM.
  o.node_memory_bytes = 1 << 20;
  ModelConfig cfg = ModelConfig::Make(GnnKind::kGat, ds.feature_dim(), 16,
                                      ds.num_classes, 4, 1);
  auto e = CpuClusterEngine::Create(&ds, cfg, o);
  ASSERT_TRUE(e.ok());
  EXPECT_TRUE(e.ValueOrDie()->EstimateEpoch().status().IsOutOfMemory());
}

TEST(CpuClusterEngine, MoreNodesAreFaster) {
  Dataset ds = SmallDataset("it-2004", 0.3);
  ModelConfig cfg = ModelConfig::Make(GnnKind::kGcn, ds.feature_dim(), 16,
                                      ds.num_classes, 2, 1);
  CpuClusterOptions a;
  a.num_nodes = 4;
  CpuClusterOptions b;
  b.num_nodes = 16;
  auto ea = CpuClusterEngine::Create(&ds, cfg, a);
  auto eb = CpuClusterEngine::Create(&ds, cfg, b);
  ASSERT_TRUE(ea.ok() && eb.ok());
  auto ra = ea.ValueOrDie()->EstimateEpoch();
  auto rb = eb.ValueOrDie()->EstimateEpoch();
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_GT(ra.ValueOrDie().time.cpu, rb.ValueOrDie().time.cpu);
}

TEST(Trainer, ReachesTargetAndStops) {
  Dataset ds = SmallDataset("reddit", 0.2);
  ModelConfig cfg = ModelConfig::Make(GnnKind::kGcn, ds.feature_dim(), 32,
                                      ds.num_classes, 2, 7);
  HongTuOptions o;
  o.num_devices = 2;
  o.chunks_per_partition = 2;
  o.device_capacity_bytes = kBig;
  auto e = HongTuEngine::Create(&ds, cfg, o);
  ASSERT_TRUE(e.ok());
  TrainerOptions to;
  to.max_epochs = 100;
  to.target_val_accuracy = 0.8;  // SBM labels are easily learnable
  to.eval_every = 5;
  auto r = TrainToConvergence(e.ValueOrDie().get(), to);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.ValueOrDie().reached_target);
  EXPECT_LT(r.ValueOrDie().epochs_run, 100);
  EXPECT_GE(r.ValueOrDie().best_val_accuracy, 0.8);
  EXPECT_GT(r.ValueOrDie().total_sim_seconds, 0);
  EXPECT_GT(r.ValueOrDie().MeanEpochSimSeconds(), 0);
}

TEST(Trainer, PatienceStopsOnPlateau) {
  Dataset ds = SmallDataset("it-2004", 0.05);  // random labels: no progress
  ModelConfig cfg = ModelConfig::Make(GnnKind::kGcn, ds.feature_dim(), 8,
                                      ds.num_classes, 2, 7);
  HongTuOptions o;
  o.num_devices = 2;
  o.chunks_per_partition = 2;
  o.device_capacity_bytes = kBig;
  auto e = HongTuEngine::Create(&ds, cfg, o);
  ASSERT_TRUE(e.ok());
  TrainerOptions to;
  to.max_epochs = 200;
  to.patience = 2;
  to.eval_every = 2;
  auto r = TrainToConvergence(e.ValueOrDie().get(), to);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.ValueOrDie().early_stopped);
  EXPECT_LT(r.ValueOrDie().epochs_run, 200);
}

TEST(Trainer, RejectsBadOptions) {
  Dataset ds = SmallDataset("reddit", 0.1);
  ModelConfig cfg = ModelConfig::Make(GnnKind::kGcn, ds.feature_dim(), 8,
                                      ds.num_classes, 2, 7);
  HongTuOptions o;
  o.device_capacity_bytes = kBig;
  auto e = HongTuEngine::Create(&ds, cfg, o);
  ASSERT_TRUE(e.ok());
  TrainerOptions bad;
  bad.max_epochs = 0;
  EXPECT_TRUE(
      TrainToConvergence(e.ValueOrDie().get(), bad).status().IsInvalid());
  EXPECT_TRUE(TrainToConvergence<HongTuEngine>(nullptr, TrainerOptions())
                  .status()
                  .IsInvalid());
}

TEST(EpochStats, ComponentsPopulated) {
  Dataset ds = SmallDataset("it-2004", 0.1);
  ModelConfig cfg = ModelConfig::Make(GnnKind::kGcn, ds.feature_dim(), 16,
                                      ds.num_classes, 2, 3);
  HongTuOptions o;
  o.num_devices = 4;
  o.chunks_per_partition = 4;
  o.device_capacity_bytes = kBig;
  auto e = HongTuEngine::Create(&ds, cfg, o);
  ASSERT_TRUE(e.ok());
  auto r = e.ValueOrDie()->TrainEpoch();
  ASSERT_TRUE(r.ok());
  const EpochStats& st = r.ValueOrDie();
  EXPECT_GT(st.time.gpu, 0);
  EXPECT_GT(st.time.h2d, 0);
  EXPECT_GT(st.time.cpu, 0);
  EXPECT_GT(st.bytes.h2d, 0);
  EXPECT_GT(st.peak_device_bytes, 0);
  EXPECT_GT(st.wall_seconds, 0);
  EXPECT_GT(st.SimSeconds(), 0);
}

}  // namespace
}  // namespace hongtu
