// perfbench: the measuring child of perfbench/run.py.
//
// Every invocation is one workload run in its own process. It builds the
// workload's inputs from --seed, drives the public engine API, and prints
// one JSON object as the last line of stdout; run.py aggregates runs, checks
// them against the dense reference and prints the metrics. Modes:
//
//   run    Engine::Create + RunEpoch until --seconds of epochs have run.
//          Times setup and every epoch from outside; reports the child's
//          peak RSS (for the cluster: coordinator plus its workers).
//   ref    InMemoryEngine with one device on the same inputs: the dense
//          reference losses and the informational in-memory baseline.
//   trace  A run whose calls into each module are wrapped in spans, plus a
//          replay of two epochs from outside through the public layer,
//          communication and optimizer APIs. Writes the spans as Chrome
//          trace-event JSON (--spans) at exit.
//
// Usage: perfbench <run|ref|trace> --workload W --seed S [--seconds T]
//          [--epochs N] [--run-dir D] [--spans F] [--scale X] [--dataset D]

#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <omp.h>

#include "hongtu/comm/dedup_plan.h"
#include "hongtu/comm/executor.h"
#include "hongtu/comm/reorganize.h"
#include "hongtu/engine/checkpoint.h"
#include "hongtu/engine/cpu_cluster_engine.h"
#include "hongtu/engine/engine.h"
#include "hongtu/engine/hongtu_engine.h"
#include "hongtu/gnn/loss.h"
#include "hongtu/gnn/model.h"
#include "hongtu/graph/datasets.h"
#include "hongtu/net/cluster.h"
#include "hongtu/partition/two_level.h"
#include "hongtu/sim/interconnect.h"
#include "hongtu/tensor/adam.h"

using namespace hongtu;

namespace {

// ---- Workloads --------------------------------------------------------------
// The shapes are fixed here; run.py records why each was chosen. Every
// option not named below stays at its EngineConfig default.

constexpr int kDevices = 4;
constexpr int kHidden = 128;
constexpr int kLayers = 3;

struct Workload {
  const char* name;
  const char* dataset;
  double scale;
  GnnKind kind;
  int chunks;
  bool cluster;  ///< CpuClusterEngine over uds instead of HongTuEngine
};

const Workload kWorkloads[] = {
    {"gcn-it2004", "it-2004", 1.0, GnnKind::kGcn, 8, false},
    {"gat-friendster", "friendster", 0.2, GnnKind::kGat, 64, false},
    {"sage-reddit", "reddit", 1.0, GnnKind::kSage, 1, false},
    {"gcn-cluster", "it-2004", 1.0, GnnKind::kGcn, 8, true},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- Arguments --------------------------------------------------------------

struct Args {
  std::string mode;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 5.0;
  int epochs = 5;           ///< ref: epochs to run; run/trace: minimum
  std::string run_dir;      ///< cluster runtime + checkpoint directory
  std::string spans;        ///< trace: Chrome trace output path
  double scale = 0.0;       ///< > 0 overrides the workload's dataset scale
  std::string dataset;      ///< non-empty overrides the workload's dataset
};

bool ParseArgs(int argc, char** argv, Args* a) {
  if (argc < 2) return false;
  a->mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a->seconds = std::atof(v);
    else if (k == "--epochs") a->epochs = std::atoi(v);
    else if (k == "--run-dir") a->run_dir = v;
    else if (k == "--spans") a->spans = v;
    else if (k == "--scale") a->scale = std::atof(v);
    else if (k == "--dataset") a->dataset = v;
    else return false;
  }
  return (argc % 2) == 0 && !a->workload.empty();
}

// ---- JSON output ------------------------------------------------------------

/// Builds one flat JSON object; doubles keep all 17 significant digits and
/// a non-finite value (a diverged loss) is written as NaN, which run.py reads.
class JsonOut {
 public:
  void Num(const std::string& k, double v) { Raw(k, Fmt(v)); }
  void Int(const std::string& k, int64_t v) { Raw(k, std::to_string(v)); }
  void Bool(const std::string& k, bool v) { Raw(k, v ? "true" : "false"); }
  void Str(const std::string& k, const std::string& v) {
    Raw(k, Quote(v));
  }
  void Nums(const std::string& k, const std::vector<double>& v) {
    std::string s = "[";
    for (size_t i = 0; i < v.size(); ++i) s += (i ? "," : "") + Fmt(v[i]);
    Raw(k, s + "]");
  }
  void Raw(const std::string& k, const std::string& v) {
    body_ += (body_.empty() ? "" : ",") + Quote(k) + ":" + v;
  }
  std::string str() const { return "{" + body_ + "}"; }

  static std::string Fmt(double v) {
    if (!std::isfinite(v)) return "NaN";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }

  static std::string Quote(const std::string& s) {
    std::string q = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        q += '\\';
        q += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        q += ' ';
      } else {
        q += c;
      }
    }
    return q + "\"";
  }

 private:
  std::string body_;
};

int Fail(const std::string& what, const Status& st) {
  JsonOut j;
  j.Bool("ok", false);
  j.Str("error", what + ": " + st.ToString());
  std::printf("%s\n", j.str().c_str());
  std::fflush(stdout);
  return 2;
}

// ---- Spans ------------------------------------------------------------------

/// In-memory span recorder for the traced run. Spans nest through an
/// explicit stack (the traced run is single-threaded from the benchmark's
/// side); they are written once, at exit, as Chrome trace-event JSON.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string module;
    int layer = -1;
    double t0 = 0.0;
    double t1 = 0.0;
    int parent = -1;
  };

  int Begin(const std::string& name, const std::string& module,
            int layer = -1) {
    Span s;
    s.name = name;
    s.module = module;
    s.layer = layer;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.t0 = Now();
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void End(int id) {
    spans_[static_cast<size_t>(id)].t1 = Now();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Summed self time (duration minus the part of it that the span's
  /// children cover) of the spans named `name`: of one layer when
  /// `layer` >= 0, and only inside span `root` when `root` >= 0.
  double SumSelf(const std::string& name, int layer = -1,
                 int root = -1) const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& c : spans_) {
      if (c.parent >= 0) child[static_cast<size_t>(c.parent)] += c.t1 - c.t0;
    }
    double t = 0.0;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.name == name && (layer < 0 || s.layer == layer) &&
          (root < 0 || Inside(static_cast<int>(i), root))) {
        t += s.t1 - s.t0 - child[i];
      }
    }
    return t;
  }

  /// True when span `id` is `root` or one of its descendants.
  bool Inside(int id, int root) const {
    for (; id >= 0; id = spans_[static_cast<size_t>(id)].parent) {
      if (id == root) return true;
    }
    return false;
  }

  bool Write(const std::string& path, const std::string& run_id) const {
    std::ofstream f(path);
    if (!f) return false;
    const double base = spans_.empty() ? 0.0 : spans_.front().t0;
    const int pid = static_cast<int>(::getpid());
    f << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"run\":"
      << JsonOut::Quote(run_id) << "},\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[160];
      std::snprintf(buf, sizeof(buf), "\"ts\":%.3f,\"dur\":%.3f",
                    (s.t0 - base) * 1e6, (s.t1 - s.t0) * 1e6);
      f << (i ? "," : "") << "{\"name\":" << JsonOut::Quote(s.name)
        << ",\"cat\":" << JsonOut::Quote(s.module) << ",\"ph\":\"X\","
        << buf << ",\"pid\":" << pid << ",\"tid\":1,\"args\":{\"id\":" << i
        << ",\"parent\":" << s.parent << ",\"layer\":" << s.layer
        << ",\"run\":" << JsonOut::Quote(run_id) << "}}";
    }
    f << "]}\n";
    return static_cast<bool>(f);
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null tracer records nothing.
class Scope {
 public:
  Scope(Tracer* t, const std::string& name, const std::string& module,
        int layer = -1)
      : t_(t), id_(t ? t->Begin(name, module, layer) : -1) {}
  ~Scope() {
    if (t_) t_->End(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  int id_;
};

// ---- Memory -----------------------------------------------------------------

double MaxRssMb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// VmHWM (peak RSS) of a live process, in MB; 0 when unreadable.
double ProcHwmMb(int pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

/// Summed VmHWM of the live direct children of this process (the cluster's
/// worker processes), in MB, and their count.
double ChildrenHwmMb(int* count) {
  const int self = static_cast<int>(::getpid());
  double total = 0.0;
  *count = 0;
  DIR* d = ::opendir("/proc");
  if (d == nullptr) return 0.0;
  while (struct dirent* e = ::readdir(d)) {
    const int pid = std::atoi(e->d_name);
    if (pid <= 0) continue;
    std::ifstream f("/proc/" + std::to_string(pid) + "/stat");
    std::string stat;
    std::getline(f, stat);
    // Field 4 (ppid) follows the parenthesized command name.
    const size_t close = stat.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream rest(stat.substr(close + 1));
    std::string state;
    int ppid = 0;
    rest >> state >> ppid;
    if (ppid != self) continue;
    total += ProcHwmMb(pid);
    ++*count;
  }
  ::closedir(d);
  return total;
}

// ---- Shared setup -----------------------------------------------------------

struct Inputs {
  const Workload* w = nullptr;
  Dataset ds;
  ModelConfig model;
  double load_s = 0.0;
};

Status LoadInputs(const Args& a, Tracer* tr, Inputs* in) {
  in->w = FindWorkload(a.workload);
  if (in->w == nullptr) {
    return Status::Invalid("unknown workload " + a.workload);
  }
  const std::string name = a.dataset.empty() ? in->w->dataset : a.dataset;
  const double scale = a.scale > 0.0 ? a.scale : in->w->scale;
  const double t0 = Now();
  {
    Scope s(tr, "graph.load", "graph");
    Result<Dataset> r = LoadDatasetScaled(name, scale, a.seed);
    if (!r.ok()) return r.status();
    in->ds = r.MoveValueUnsafe();
  }
  in->load_s = Now() - t0;
  in->model = ModelConfig::Make(in->w->kind, in->ds.feature_dim(), kHidden,
                                in->ds.num_classes, kLayers, a.seed);
  return Status::OK();
}

EngineConfig WorkloadConfig(const Workload& w, const std::string& run_dir) {
  EngineConfig cfg;
  cfg.num_devices = kDevices;
  cfg.chunks_per_partition = w.chunks;
  if (w.cluster) {
    cfg.cluster_transport = "uds";
    cfg.cluster_workers = kDevices;
    // Sockets, journal and checkpoints stay in the benchmark's directory.
    cfg.cluster_runtime_dir = run_dir;
    cfg.cluster_checkpoint_dir = run_dir;
  }
  return cfg;
}

/// Per-epoch record of what the engine reported, plus outside wall time.
struct EpochLog {
  std::vector<double> wall, loss, h2d, d2d, ru, cpu_accum, recovery;
  std::vector<double> device_peak, host_peak;
  EpochStats last;

  void Add(double w, const EpochStats& s) {
    wall.push_back(w);
    loss.push_back(s.loss);
    h2d.push_back(static_cast<double>(s.bytes.h2d));
    d2d.push_back(static_cast<double>(s.bytes.d2d));
    ru.push_back(static_cast<double>(s.bytes.ru));
    cpu_accum.push_back(static_cast<double>(s.bytes.cpu_accum));
    recovery.push_back(static_cast<double>(s.recovery.total()));
    device_peak.push_back(static_cast<double>(s.peak_device_bytes));
    host_peak.push_back(static_cast<double>(s.host_peak_bytes));
    last = s;
  }
  void Emit(JsonOut* j) const {
    j->Nums("epoch_wall", wall);
    j->Nums("loss", loss);
    j->Nums("h2d_bytes", h2d);
    j->Nums("d2d_bytes", d2d);
    j->Nums("ru_bytes", ru);
    j->Nums("cpu_accum_bytes", cpu_accum);
    j->Nums("recovery", recovery);
    j->Nums("device_peak_bytes", device_peak);
  }
};

/// Runs epochs until `seconds` of them have run and at least `min_epochs`
/// completed; each epoch in a span when traced.
Status RunEpochs(Engine* e, double seconds, int min_epochs, Tracer* tr,
                 EpochLog* log) {
  const double start = Now();
  while (static_cast<int>(log->wall.size()) < min_epochs ||
         Now() - start < seconds) {
    const double t0 = Now();
    Result<EpochStats> r = [&] {
      Scope s(tr, "engine.epoch", "engine");
      return e->RunEpoch();
    }();
    const double wall = Now() - t0;
    if (!r.ok()) return r.status();
    log->Add(wall, r.ValueOrDie());
  }
  return Status::OK();
}

void EmitCommon(const Args& a, const Inputs& in, JsonOut* j) {
  j->Bool("ok", true);
  j->Str("mode", a.mode);
  j->Str("workload", a.workload);
  j->Int("omp_threads", omp_get_max_threads());
  j->Num("load_s", in.load_s);
  j->Int("num_vertices", in.ds.graph.num_vertices());
  j->Int("num_edges", in.ds.graph.num_edges());
}

// ---- Modes ------------------------------------------------------------------

int RunMode(const Args& a) {
  Inputs in;
  Status st = LoadInputs(a, nullptr, &in);
  if (!st.ok()) return Fail("load", st);
  const EngineKind kind =
      in.w->cluster ? EngineKind::kCpuCluster : EngineKind::kHongTu;
  const double t0 = Now();
  auto er = Engine::Create(kind, &in.ds, in.model,
                           WorkloadConfig(*in.w, a.run_dir));
  const double setup_s = Now() - t0;
  if (!er.ok()) return Fail("Engine::Create", er.status());
  std::unique_ptr<Engine> engine = er.MoveValueUnsafe();

  EpochLog log;
  st = RunEpochs(engine.get(), a.seconds, a.epochs, nullptr, &log);
  if (!st.ok()) return Fail("RunEpoch", st);

  JsonOut j;
  EmitCommon(a, in, &j);
  j.Num("setup_s", setup_s);
  log.Emit(&j);
  j.Num("self_rss_mb", MaxRssMb());
  int workers = 0;
  double workers_mb = 0.0;
  if (in.w->cluster) {
    workers_mb = ChildrenHwmMb(&workers);
    auto* ce = dynamic_cast<CpuClusterEngine*>(engine.get());
    if (ce != nullptr && ce->coordinator() != nullptr) {
      j.Int("respawns", ce->coordinator()->respawn_count());
    }
  }
  j.Int("workers", workers);
  j.Num("workers_rss_mb", workers_mb);
  engine.reset();
  std::printf("%s\n", j.str().c_str());
  return 0;
}

int RefMode(const Args& a) {
  Inputs in;
  Status st = LoadInputs(a, nullptr, &in);
  if (!st.ok()) return Fail("load", st);
  EngineConfig cfg;
  cfg.num_devices = 1;
  // The dense reference keeps every intermediate resident; give its single
  // simulated device room for all of it (as the equivalence tests do).
  cfg.device_capacity_bytes = 1ll << 40;
  auto er = Engine::Create(EngineKind::kInMemory, &in.ds, in.model, cfg);
  if (!er.ok()) return Fail("reference Engine::Create", er.status());
  std::unique_ptr<Engine> engine = er.MoveValueUnsafe();
  EpochLog log;
  st = RunEpochs(engine.get(), 0.0, a.epochs, nullptr, &log);
  if (!st.ok()) return Fail("reference RunEpoch", st);
  JsonOut j;
  EmitCommon(a, in, &j);
  log.Emit(&j);
  std::printf("%s\n", j.str().c_str());
  return 0;
}

// ---- Traced replay ----------------------------------------------------------

void GatherHostRows(const Tensor& host, const std::vector<VertexId>& rows,
                    Tensor* out) {
  const int64_t dim = host.cols();
  out->EnsureShape(static_cast<int64_t>(rows.size()), dim);
  for (size_t r = 0; r < rows.size(); ++r) {
    std::memcpy(out->row(static_cast<int64_t>(r)), host.row(rows[r]),
                static_cast<size_t>(dim) * sizeof(float));
  }
}

void ScatterHostRows(const Tensor& dev, const std::vector<VertexId>& rows,
                     Tensor* host) {
  const int64_t dim = host->cols();
  for (size_t r = 0; r < rows.size(); ++r) {
    std::memcpy(host->row(rows[r]), dev.row(static_cast<int64_t>(r)),
                static_cast<size_t>(dim) * sizeof(float));
  }
}

/// `epochs` training epochs replayed from outside the engine, in the serial
/// executor's order, each in a "replay.epoch" span with a span around every
/// call into a module. Uses its own model (same config, so the same initial
/// weights as the engine had) and returns each epoch's loss; `*last_epoch`
/// receives the span id of the last epoch.
Result<std::vector<double>> ReplayEpochs(
    const Inputs& in, const EngineConfig& cfg, const TwoLevelPartition& tl,
    const DedupPlan& plan, const std::vector<std::vector<ChunkSchedules>>& sch,
    int epochs, Tracer* tr, int* last_epoch) {
  HT_ASSIGN_OR_RETURN(GnnModel model, GnnModel::Create(in.model));
  Adam adam(cfg.adam);
  for (Tensor* p : model.AllParams()) adam.Register(p);
  SimPlatform platform(cfg.num_devices, cfg.device_capacity_bytes,
                       cfg.interconnect);
  CommExecutor exec(&tl, &plan, &platform);
  const int m = tl.num_partitions;
  const int n = tl.num_chunks;
  const int L = model.num_layers();
  const int64_t nv = in.ds.graph.num_vertices();
  const auto sched = [&](int i, int j) -> const ChunkSchedules* {
    return sch.empty() ? nullptr : &sch[i][j];
  };

  std::vector<Tensor> h, grad, cache(L);
  std::vector<bool> cached(L);
  for (int l = 0; l <= L; ++l) {
    h.emplace_back(nv, in.model.dims[l]);
    grad.emplace_back(nv, in.model.dims[l]);
  }
  HT_RETURN_IF_ERROR(h[0].CopyFrom(in.ds.features));
  for (int l = 0; l < L; ++l) {
    const Layer* layer = model.layer(l);
    cached[l] = cfg.hybrid_cache && layer->cacheable();
    if (cached[l]) {
      cache[l] = Tensor(nv, layer->agg_dim());
    }
  }
  std::vector<Tensor> out(m), agg(m), d_dst(m), dst_rows(m), d_src(m);
  std::vector<double> losses;

  for (int e = 0; e < epochs; ++e) {
    *last_epoch = tr->Begin("replay.epoch", "replay");
    model.ZeroGrads();
    for (int l = 0; l < L; ++l) {
      Scope ls(tr, "replay.forward", "replay", l);
      Layer* layer = model.layer(l);
      const bool c = cached[l];
      HT_RETURN_IF_ERROR(exec.BeginLayer(layer->in_dim(), 1, cfg.comm_precision,
                                         cfg.wire_integrity));
      for (int j = 0; j < n; ++j) {
        {
          Scope s(tr, "comm.load", "comm", l);
          HT_RETURN_IF_ERROR(exec.ForwardLoadSlot(j, 0, h[l]));
        }
        for (int i = 0; i < m; ++i) {
          const Chunk& chunk = tl.chunks[i][j];
          if (chunk.num_dst() == 0) continue;
          const LocalGraph lg = LocalGraph::FromChunk(chunk, sched(i, j));
          {
            Scope s(tr, "gnn.fwd", "gnn", l);
            HT_RETURN_IF_ERROR(layer->Forward(lg, exec.slot_buffers(0)[i],
                                              &out[i], c ? &agg[i] : nullptr));
          }
          ScatterHostRows(out[i], chunk.dst_vertices, &h[l + 1]);
          if (c) ScatterHostRows(agg[i], chunk.dst_vertices, &cache[l]);
        }
      }
      exec.EndLayer();
    }

    LossResult loss;
    {
      Scope s(tr, "gnn.loss", "gnn");
      loss = SoftmaxCrossEntropy(h[L], in.ds.labels,
                                 in.ds.VerticesWithRole(SplitRole::kTrain),
                                 &grad[L]);
    }

    for (int l = L - 1; l >= 0; --l) {
      Scope ls(tr, "replay.backward", "replay", l);
      Layer* layer = model.layer(l);
      const bool c = cached[l];
      grad[l].Zero();
      HT_RETURN_IF_ERROR(exec.BeginLayer(layer->in_dim(), 1, cfg.comm_precision,
                                         cfg.wire_integrity));
      for (int j = 0; j < n; ++j) {
        if (!c) {
          Scope s(tr, "comm.load", "comm", l);
          HT_RETURN_IF_ERROR(exec.ForwardLoadSlot(j, 0, h[l]));
        }
        for (int i = 0; i < m; ++i) {
          const Chunk& chunk = tl.chunks[i][j];
          if (chunk.num_dst() == 0) {
            d_src[i].EnsureShape(0, layer->in_dim());
            continue;
          }
          const LocalGraph lg = LocalGraph::FromChunk(chunk, sched(i, j));
          GatherHostRows(grad[l + 1], chunk.dst_vertices,
                         &d_dst[i]);
          d_src[i].EnsureShapeZeroed(chunk.num_neighbors(), layer->in_dim());
          if (c) {
            GatherHostRows(cache[l], chunk.dst_vertices,
                           &agg[i]);
            if (layer->needs_dst_h()) {
              GatherHostRows(h[l], chunk.dst_vertices,
                             &dst_rows[i]);
            } else {
              dst_rows[i].EnsureShape(0, 0);
            }
            Scope s(tr, "gnn.bwd", "gnn", l);
            HT_RETURN_IF_ERROR(layer->BackwardCached(lg, agg[i], dst_rows[i],
                                                     d_dst[i], &d_src[i]));
          } else {
            Scope s(tr, "gnn.bwd", "gnn", l);
            HT_RETURN_IF_ERROR(layer->BackwardRecompute(
                lg, exec.slot_buffers(0)[i], d_dst[i], &d_src[i]));
          }
        }
        Scope s(tr, "comm.accum", "comm", l);
        HT_RETURN_IF_ERROR(
            exec.BackwardAccumulate(j, d_src, &grad[l]));
      }
      exec.EndLayer();
    }

    std::vector<const Tensor*> grads;
    for (Tensor* g : model.AllGrads()) grads.push_back(g);
    {
      Scope s(tr, "tensor.adam", "tensor");
      HT_RETURN_IF_ERROR(adam.Step(grads));
    }
    tr->End(*last_epoch);
    losses.push_back(loss.loss);
  }
  return losses;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t k = v.size() / 2;
  return v.size() % 2 ? v[k] : 0.5 * (v[k - 1] + v[k]);
}

int TraceMode(const Args& a) {
  Tracer tr;
  Tracer* t = &tr;
  Inputs in;
  Status st = LoadInputs(a, t, &in);
  if (!st.ok()) return Fail("load", st);
  const EngineConfig cfg = WorkloadConfig(*in.w, a.run_dir);
  const bool cluster = in.w->cluster;
  constexpr double kMb = 1.0 / (1 << 20);

  // The preprocessing modules, called on the same inputs with the engine's
  // settings, each in its own span.
  TwoLevelOptions tlo;
  tlo.metis.seed = cfg.partition_seed;
  TwoLevelPartition tl;
  {
    Scope s(t, "partition.build", "partition");
    auto r = BuildTwoLevelPartition(in.ds.graph, cfg.num_devices,
                                    cfg.chunks_per_partition, tlo);
    if (!r.ok()) return Fail("BuildTwoLevelPartition", r.status());
    tl = r.MoveValueUnsafe();
  }
  if (cfg.reorganize && cfg.dedup != DedupLevel::kNone) {
    Scope s(t, "comm.reorganize", "comm");
    auto r = ReorganizePartition(&tl);
    if (!r.ok()) return Fail("ReorganizePartition", r.status());
  }
  DedupPlan plan;
  {
    Scope s(t, "comm.plan", "comm");
    auto r = BuildDedupPlan(tl, cfg.dedup);
    if (!r.ok()) return Fail("BuildDedupPlan", r.status());
    plan = r.MoveValueUnsafe();
  }
  // Edge schedules exist only in-process; the cluster workers build none.
  std::vector<std::vector<ChunkSchedules>> sched;
  double sched_bytes = 0.0;
  if (!cluster && cfg.edge_schedules) {
    kernels::EdgeScheduleParams sp;
    sp.max_dim = 1;
    for (int d : in.model.dims) sp.max_dim = std::max(sp.max_dim, d);
    Scope s(t, "kernels.sched_build", "kernels");
    sched.resize(tl.num_partitions);
    for (int i = 0; i < tl.num_partitions; ++i) {
      for (int j = 0; j < tl.num_chunks; ++j) {
        sched[i].push_back(ChunkSchedules::Build(tl.chunks[i][j], sp));
        sched_bytes += static_cast<double>(sched[i].back().bytes());
      }
    }
  }

  const EngineKind kind =
      cluster ? EngineKind::kCpuCluster : EngineKind::kHongTu;
  Result<std::unique_ptr<Engine>> er = [&] {
    Scope s(t, cluster ? "net.start" : "engine.create",
            cluster ? "net" : "engine");
    return Engine::Create(kind, &in.ds, in.model, cfg);
  }();
  if (!er.ok()) return Fail("Engine::Create", er.status());
  std::unique_ptr<Engine> engine = er.MoveValueUnsafe();

  EpochLog log;
  st = RunEpochs(engine.get(), a.seconds, a.epochs, t, &log);
  if (!st.ok()) return Fail("RunEpoch", st);
  {
    Scope s(t, "engine.eval", "engine");
    auto r = engine->EvaluateAccuracy(SplitRole::kTest);
    if (!r.ok()) return Fail("EvaluateAccuracy", r.status());
  }
  {
    const std::string dir = a.run_dir.empty() ? "." : a.run_dir;
    Scope s(t, "engine.ckpt_save", "engine");
    st = SaveCheckpoint(dir + "/trace.htck", engine->model(), *engine->adam(),
                        static_cast<int64_t>(log.wall.size()));
    if (!st.ok()) return Fail("SaveCheckpoint", st);
  }
  int respawns = 0;
  double recovery_s = 0.0;
  if (cluster) {
    auto* ce = dynamic_cast<CpuClusterEngine*>(engine.get());
    if (ce != nullptr && ce->coordinator() != nullptr) {
      respawns = ce->coordinator()->respawn_count();
      recovery_s = ce->coordinator()->recovery_seconds();
    }
  }

  // The replay runs on the engine's own partition and plan in-process; the
  // cluster exposes neither, so there it uses the identical ones built above.
  const TwoLevelPartition* rtl = &tl;
  const DedupPlan* rplan = &plan;
  if (auto* he = dynamic_cast<HongTuEngine*>(engine.get())) {
    rtl = &he->partition();
    rplan = &he->plan();
  }
  // Two replayed epochs: the first checks against the reference, the
  // second (pool filled, caches warm) gives the per-layer times.
  int warm_replay = -1;
  auto replay = ReplayEpochs(in, cfg, *rtl, *rplan, sched, 2, t, &warm_replay);
  if (!replay.ok()) return Fail("replay", replay.status());
  engine.reset();

  const std::string run_id =
      a.workload + "-s" + std::to_string(a.seed) + "-p" +
      std::to_string(static_cast<int>(::getpid()));
  if (!a.spans.empty() && !tr.Write(a.spans, run_id)) {
    return Fail("write spans", Status::IoError(a.spans));
  }

  // Per-layer metrics, by the names run.py reports.
  JsonOut j;
  EmitCommon(a, in, &j);
  log.Emit(&j);
  j.Nums("replay_loss", replay.ValueOrDie());
  j.Int("spans", static_cast<int64_t>(tr.spans().size()));
  JsonOut mt;
  mt.Num("graph.load_s", tr.SumSelf("graph.load"));
  mt.Num("partition.build_s", tr.SumSelf("partition.build"));
  mt.Num("comm.reorganize_s", tr.SumSelf("comm.reorganize"));
  mt.Num("comm.plan_s", tr.SumSelf("comm.plan"));
  const CommVolumes& v = plan.volumes;
  mt.Int("comm.v_ori_rows", v.v_ori);
  mt.Int("comm.v_p2p_rows", v.v_p2p);
  mt.Int("comm.v_ru_rows", v.v_ru);
  mt.Num("comm.saved_frac",
         v.v_ori > 0 ? 1.0 - static_cast<double>(v.v_ru) / v.v_ori : 0.0);
  const int r = warm_replay;
  mt.Num("comm.load_s", tr.SumSelf("comm.load", -1, r));
  mt.Num("comm.accum_s", tr.SumSelf("comm.accum", -1, r));
  mt.Num("comm.h2d_mb", log.last.bytes.h2d * kMb);
  mt.Num("comm.d2d_mb", log.last.bytes.d2d * kMb);
  mt.Num("comm.ru_mb", log.last.bytes.ru * kMb);
  mt.Num("kernels.sched_build_s", tr.SumSelf("kernels.sched_build"));
  mt.Num("kernels.sched_mb", sched_bytes * kMb);
  double layer_self = 0.0;
  for (int l = 0; l < kLayers; ++l) {
    const double f = tr.SumSelf("gnn.fwd", l, r);
    const double b = tr.SumSelf("gnn.bwd", l, r);
    mt.Num("gnn.fwd_s.l" + std::to_string(l), f);
    mt.Num("gnn.bwd_s.l" + std::to_string(l), b);
    layer_self += f + b;
  }
  mt.Num("gnn.loss_s", tr.SumSelf("gnn.loss", -1, r));
  mt.Num("tensor.adam_s", tr.SumSelf("tensor.adam", -1, r));
  for (const char* name :
       {"comm.load", "comm.accum", "gnn.loss", "tensor.adam"}) {
    layer_self += tr.SumSelf(name, -1, r);
  }
  // Steady state: the last epoch's pool counters.
  mt.Int("tensor.steady_allocs", log.last.host_alloc_count);
  mt.Int("tensor.pool_hits", log.last.host_pool_hits);
  double host_peak = 0.0;
  for (double b : log.host_peak) host_peak = std::max(host_peak, b);
  mt.Num("tensor.host_peak_mb", host_peak * kMb);
  // The cluster has no simulated platform: its EpochStats::time carries
  // the measured wall, so the model's columns are reported as 0 there.
  const TimeBreakdown& tb = log.last.time;
  const double sim = cluster ? 0.0 : 1.0;
  mt.Num("sim.epoch_s", sim * log.last.SimSeconds());
  mt.Num("sim.gpu_s", sim * tb.gpu);
  mt.Num("sim.h2d_s", sim * tb.h2d);
  mt.Num("sim.d2d_s", sim * tb.d2d);
  mt.Num("sim.cpu_s", sim * tb.cpu);
  mt.Num("sim.overlap_s", sim * tb.overlapped);
  std::vector<double> warm(log.wall.begin() + 1, log.wall.end());
  std::sort(warm.begin(), warm.end());
  // p90: the ceil(0.9 n)-th smallest warm epoch.
  const size_t k90 = static_cast<size_t>(std::ceil(0.9 * warm.size()));
  const double p90 = warm.empty() ? 0.0 : warm[k90 - 1];
  mt.Num("engine.epoch_s_p90", p90);
  mt.Num("engine.unattributed_s", Median(warm) - layer_self);
  mt.Num("engine.eval_s", tr.SumSelf("engine.eval"));
  mt.Num("engine.ckpt_save_s", tr.SumSelf("engine.ckpt_save"));
  mt.Num("net.start_s", tr.SumSelf("net.start"));
  mt.Num("net.recovery_s", recovery_s);
  mt.Int("net.respawns", respawns);
  double events = 0.0;
  for (double e : log.recovery) events += e;
  mt.Num("net.recovery_events", cluster ? events : 0.0);
  j.Int("p90_samples", static_cast<int64_t>(warm.size()));
  j.Raw("metrics", mt.str());
  std::printf("%s\n", j.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Cluster workers re-exec this binary; in that role this never returns.
  net::MaybeRunClusterWorker();
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: perfbench <run|ref|trace> --workload W --seed S "
                 "[--seconds T] [--epochs N] [--run-dir D] [--spans F] "
                 "[--scale X] [--dataset D]\n");
    return 64;
  }
  // mkdir -p: the cluster writes its sockets and checkpoints there.
  for (size_t i = 1; i <= a.run_dir.size(); ++i) {
    if (i == a.run_dir.size() || a.run_dir[i] == '/') {
      ::mkdir(a.run_dir.substr(0, i).c_str(), 0700);
    }
  }
  if (a.mode == "run") return RunMode(a);
  if (a.mode == "ref") return RefMode(a);
  if (a.mode == "trace") return TraceMode(a);
  std::fprintf(stderr, "unknown mode %s\n", a.mode.c_str());
  return 64;
}
