// hongtu_cli: drive any engine/model/dataset combination from the command
// line — the "downstream user" entry point.
//
//   hongtu_cli --dataset friendster --model gcn --layers 3 --engine hongtu \
//              --devices 4 --chunks 32 --dedup ru --epochs 5 --scale 0.3 \
//              --executor taskgraph --max-inflight 4
//
// Engines: hongtu | inmemory | minibatch | cpu-cluster. Dedup: none|p2p|ru.
// All engines are built through the unified factory (Engine::Create) and
// driven through the identical RunEpoch/EvaluateAccuracy interface; the
// runtime-config dump records the knob state every run executed under.
// Prints per-epoch loss/accuracy, measured wall time, the simulated time
// breakdown and communication volumes, and a final val/test evaluation.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "hongtu/common/format.h"
#include "hongtu/engine/engine.h"
#include "hongtu/engine/hongtu_engine.h"
#include "hongtu/graph/datasets.h"

using namespace hongtu;

namespace {

struct Args {
  std::string dataset = "reddit";
  std::string model = "gcn";
  std::string engine = "hongtu";
  std::string dedup = "ru";
  std::string executor;  // empty => HONGTU_EXECUTOR / default
  int layers = 2;
  int hidden = 0;  // 0 => dataset default
  int devices = 4;
  int chunks = 0;  // 0 => dataset default
  int epochs = 10;
  double scale = 0.3;
  double lr = 0.01;
  double capacity_mb = 0;   // 0 => unlimited
  int max_inflight = 0;  // 0 => HONGTU_MAX_INFLIGHT / default
  bool help = false;
};

void PrintUsage() {
  std::printf(
      "usage: hongtu_cli [options]\n"
      "  --dataset reddit|ogbn-products|it-2004|ogbn-paper|friendster\n"
      "  --model gcn|sage|gin|gat        --layers N      --hidden N\n"
      "  --engine hongtu|inmemory|minibatch|cpu-cluster\n"
      "  --dedup none|p2p|ru             --devices N     --chunks N\n"
      "  --epochs N   --scale F (0,1]    --lr F          --capacity-mb F\n"
      "  --executor serial|pipeline|taskgraph\n"
      "                      (hongtu engine's modeled overlap schedule;\n"
      "                       default from HONGTU_EXECUTOR, else pipeline)\n"
      "  --max-inflight N    (modeled in-flight chunk batches, reserved in\n"
      "                       device memory; default from\n"
      "                       HONGTU_MAX_INFLIGHT, else 2)\n");
}

bool Parse(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--help" || flag == "-h") {
      a->help = true;
      return true;
    }
    const char* v = next();
    if (v == nullptr) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    if (flag == "--dataset") a->dataset = v;
    else if (flag == "--model") a->model = v;
    else if (flag == "--engine") a->engine = v;
    else if (flag == "--dedup") a->dedup = v;
    else if (flag == "--executor") a->executor = v;
    else if (flag == "--layers") a->layers = std::atoi(v);
    else if (flag == "--hidden") a->hidden = std::atoi(v);
    else if (flag == "--devices") a->devices = std::atoi(v);
    else if (flag == "--chunks") a->chunks = std::atoi(v);
    else if (flag == "--epochs") a->epochs = std::atoi(v);
    else if (flag == "--scale") a->scale = std::atof(v);
    else if (flag == "--lr") a->lr = std::atof(v);
    else if (flag == "--capacity-mb") a->capacity_mb = std::atof(v);
    else if (flag == "--max-inflight") a->max_inflight = std::atoi(v);
    else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

Result<GnnKind> ParseModel(const std::string& s) {
  if (s == "gcn") return GnnKind::kGcn;
  if (s == "sage") return GnnKind::kSage;
  if (s == "gin") return GnnKind::kGin;
  if (s == "gat") return GnnKind::kGat;
  return Status::Invalid("unknown model: " + s);
}

Result<DedupLevel> ParseDedup(const std::string& s) {
  if (s == "none") return DedupLevel::kNone;
  if (s == "p2p") return DedupLevel::kP2P;
  if (s == "ru") return DedupLevel::kP2PReuse;
  return Status::Invalid("unknown dedup level: " + s);
}

void PrintEpoch(int epoch, const EpochStats& st) {
  // `wall` is the measured host wall-clock of the epoch. Bracketed
  // components are simulated per-resource busy seconds; `sim` is the
  // simulated critical path, i.e. busy minus what the modeled schedule
  // overlapped.
  std::printf("epoch %3d  loss %.4f  acc %.3f  wall %-8s  sim %-8s  "
              "[gpu %s h2d %s d2d %s cpu %s ovl %s]  peak %s\n",
              epoch, st.loss, st.train_accuracy,
              FormatSeconds(st.wall_seconds).c_str(),
              FormatSeconds(st.SimSeconds()).c_str(),
              FormatSeconds(st.time.gpu).c_str(),
              FormatSeconds(st.time.h2d).c_str(),
              FormatSeconds(st.time.d2d).c_str(),
              FormatSeconds(st.time.cpu).c_str(),
              FormatSeconds(st.OverlapSeconds()).c_str(),
              FormatBytes(static_cast<double>(st.peak_device_bytes)).c_str());
}

Status Run(const Args& a) {
  HT_ASSIGN_OR_RETURN(Dataset ds, LoadDatasetScaled(a.dataset, a.scale));
  HT_ASSIGN_OR_RETURN(GnnKind kind, ParseModel(a.model));
  HT_ASSIGN_OR_RETURN(DedupLevel dedup, ParseDedup(a.dedup));
  EngineKind ekind;
  if (!ParseEngineKind(a.engine, &ekind)) {
    return Status::Invalid("unknown engine: " + a.engine);
  }
  const int hidden = a.hidden > 0 ? a.hidden : ds.default_hidden_dim;
  ModelConfig cfg = ModelConfig::Make(kind, ds.feature_dim(), hidden,
                                      ds.num_classes, a.layers);

  // One flattened config for every engine kind; knobs an engine does not
  // use are simply ignored by it.
  EngineConfig o;
  o.num_devices = a.devices;
  o.device_capacity_bytes =
      a.capacity_mb > 0 ? static_cast<int64_t>(a.capacity_mb * 1024 * 1024)
                        : (1ll << 40);
  o.dedup = dedup;
  o.reorganize = dedup != DedupLevel::kNone;
  o.chunks_per_partition =
      a.chunks > 0 ? a.chunks
                   : (kind == GnnKind::kGat ? ds.default_chunks_gat
                                            : ds.default_chunks_gcn);
  o.adam.lr = static_cast<float>(a.lr);
  if (!a.executor.empty() && !ParseExecutorKind(a.executor, &o.executor)) {
    return Status::Invalid("unknown executor: " + a.executor);
  }
  if (a.max_inflight > 0) o.max_inflight = a.max_inflight;

  std::printf("%s | %s %d-layer hidden=%d | engine=%s devices=%d\n",
              ds.graph.DebugString().c_str(), GnnKindName(kind), a.layers,
              hidden, EngineKindName(ekind), a.devices);
  std::printf("%s\n", o.runtime().Describe().c_str());

  const auto create_start = std::chrono::steady_clock::now();
  HT_ASSIGN_OR_RETURN(auto engine, Engine::Create(ekind, &ds, cfg, o));
  const double create_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - create_start)
                              .count();
  // Engine-specific accessors stay reachable through the concrete type when
  // a caller wants them; the training loop below is engine-agnostic.
  const auto* ht = dynamic_cast<const HongTuEngine*>(engine.get());
  if (ht != nullptr) {
    const CommVolumes& v = ht->plan().volumes;
    std::printf("dedup %s: V_ori=%lld V_p2p=%lld V_ru=%lld (rows/layer)\n",
                DedupLevelName(dedup), static_cast<long long>(v.v_ori),
                static_cast<long long>(v.v_p2p),
                static_cast<long long>(v.v_ru));
  }
  // Measured setup wall: the whole Engine::Create, and for HongTu its
  // partition and reorganize+dedup-plan parts.
  std::printf("setup  wall %s", FormatSeconds(create_s).c_str());
  if (ht != nullptr) {
    std::printf("  [partition %s plan %s]",
                FormatSeconds(ht->partition_seconds()).c_str(),
                FormatSeconds(ht->dedup_preprocess_seconds()).c_str());
  }
  std::printf("\n");

  for (int e = 1; e <= a.epochs; ++e) {
    HT_ASSIGN_OR_RETURN(EpochStats st, engine->RunEpoch());
    PrintEpoch(e, st);
  }
  Result<double> val = engine->EvaluateAccuracy(SplitRole::kVal);
  if (val.ok()) {
    Result<double> test = engine->EvaluateAccuracy(SplitRole::kTest);
    if (test.ok()) {
      std::printf("final: val %.3f test %.3f\n", val.ValueOrDie(),
                  test.ValueOrDie());
    } else {
      std::printf("final: val %.3f\n", val.ValueOrDie());
    }
  } else if (!val.status().IsNotImplemented()) {
    return val.status();
  }
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!Parse(argc, argv, &args)) {
    PrintUsage();
    return 2;
  }
  if (args.help) {
    PrintUsage();
    return 0;
  }
  const Status st = Run(args);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}
