// Reproduces Figure 11: scaling from 1 to 4 devices for GCN and GAT on the
// three large graphs, normalized speedup over 1 device. Claim: 3.3x-3.8x at
// 4 devices (near-linear).
//
// A second section compares the three modeled executor schedules at 4
// devices — serial, the 3-stage pipeline (max_inflight 3) and the dataflow
// task graph (max_inflight 3) — and records the result in
// BENCH_pipeline.json: the overlapped schedules must hide communication
// behind compute, i.e. beat the serial total while reporting the hidden
// seconds in the Overlap column, and the task graph must beat or tie the
// fixed-depth pipeline (its cross-layer edges release work the pipeline's
// per-layer barrier serializes). All three run the same serial chunk loop;
// only the modeled overlap of its metered stage costs differs.

#include <cstdio>
#include <cstring>

#include "bench_util.h"

using namespace hongtu;

namespace {

struct PipelineRow {
  std::string model;
  std::string dataset;
  int chunks = 0;
  double serial_s = -1;
  double pipelined_s = -1;
  double overlap_s = -1;
  /// The dataflow task-graph executor at the same in-flight window.
  double taskgraph_s = -1;
  /// The pipelined epoch again with the bf16 comm wire (kernels/codec.h):
  /// halved wire bytes compound with the overlap.
  double pipelined_bf16_s = -1;
};

double RunEpochSimSeconds(const Dataset& ds, const ModelConfig& cfg,
                          int chunks, ExecutorKind ex, int inflight,
                          double* overlap_s,
                          kernels::CommPrecision wire =
                              kernels::CommPrecision::kFp32,
                          fault::RecoveryCounters* rec = nullptr) {
  EngineConfig o;
  o.num_devices = 4;
  o.chunks_per_partition = chunks;
  o.device_capacity_bytes = 1ll << 40;
  o.executor = ex;
  o.max_inflight = inflight;
  o.comm_precision = wire;
  auto e = Engine::Create(EngineKind::kHongTu, &ds, cfg, o);
  if (!e.ok()) return -1;
  auto r = e.ValueOrDie()->RunEpoch();
  if (!r.ok()) return -1;
  if (overlap_s != nullptr) *overlap_s = r.ValueOrDie().time.overlapped;
  if (rec != nullptr) {
    for (int k = 0; k < fault::kNumDegradeEvents; ++k) {
      rec->counts[k] += r.ValueOrDie().recovery.counts[k];
    }
  }
  return r.ValueOrDie().SimSeconds();
}

void WritePipelineReport(const std::vector<PipelineRow>& rows,
                         const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "fig11: cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"pipeline\",\n  \"scale\": %g,\n",
               benchutil::Scale());
  std::fprintf(f, "  \"devices\": 4,\n  \"max_inflight\": 3,\n");
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const PipelineRow& r = rows[i];
    const char* sep = i + 1 < rows.size() ? "," : "";
    if (r.serial_s <= 0 || r.pipelined_s <= 0) {
      // A failed run must not masquerade as data (negative seconds).
      std::fprintf(f,
                   "    {\"model\": \"%s\", \"dataset\": \"%s\", "
                   "\"chunks\": %d, \"error\": \"run failed\"}%s\n",
                   r.model.c_str(), r.dataset.c_str(), r.chunks, sep);
      continue;
    }
    std::fprintf(
        f,
        "    {\"model\": \"%s\", \"dataset\": \"%s\", \"chunks\": %d, "
        "\"serial_sim_s\": %.6g, \"pipelined_sim_s\": %.6g, "
        "\"overlap_s\": %.6g, \"speedup\": %.4g",
        r.model.c_str(), r.dataset.c_str(), r.chunks, r.serial_s,
        r.pipelined_s, r.overlap_s, r.serial_s / r.pipelined_s);
    if (r.taskgraph_s > 0) {
      std::fprintf(f, ", \"taskgraph_sim_s\": %.6g, \"taskgraph_speedup\": %.4g",
                   r.taskgraph_s, r.serial_s / r.taskgraph_s);
    }
    if (r.pipelined_bf16_s > 0) {
      std::fprintf(f,
                   ", \"pipelined_bf16_sim_s\": %.6g, \"bf16_speedup\": %.4g",
                   r.pipelined_bf16_s, r.serial_s / r.pipelined_bf16_s);
    }
    std::fprintf(f, "}%s\n", sep);
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nWrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  const char* report_path = "BENCH_pipeline.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--pipeline-report=", 18) == 0) {
      report_path = argv[i] + 18;
    }
  }

  benchutil::PrintTitle(
      "Figure 11: scaling with device count (normalized speedup)",
      "Paper: 3.3x-3.7x (GCN) and 3.4x-3.8x (GAT) going 1 -> 4 devices.");
  const std::vector<int> w = {6, 12, 9, 9, 9, 9};
  benchutil::PrintRow({"Model", "Dataset", "1 GPU", "2 GPUs", "3 GPUs",
                       "4 GPUs"},
                      w);
  benchutil::PrintRule(w);

  for (GnnKind kind : {GnnKind::kGcn, GnnKind::kGat}) {
    for (const char* name : {"it-2004", "ogbn-paper", "friendster"}) {
      Dataset ds = benchutil::MustLoad(name);
      const int chunks_total = 4 * (kind == GnnKind::kGat
                                        ? ds.default_chunks_gat
                                        : ds.default_chunks_gcn);
      ModelConfig cfg =
          ModelConfig::Make(kind, ds.feature_dim(), ds.default_hidden_dim,
                            ds.num_classes, 2, 42);
      std::vector<std::string> row = {GnnKindName(kind), ds.name};
      double t1 = -1;
      fault::RecoveryCounters rec;
      for (int devices : {1, 2, 3, 4}) {
        EngineConfig o;
        o.num_devices = devices;
        o.chunks_per_partition =
            std::max(1, (chunks_total + devices - 1) / devices);
        o.device_capacity_bytes = 1ll << 40;
        auto e = Engine::Create(EngineKind::kHongTu, &ds, cfg, o);
        if (!e.ok()) {
          row.push_back("ERR");
          continue;
        }
        auto r = e.ValueOrDie()->RunEpoch();
        if (!r.ok()) {
          row.push_back(benchutil::TimeOrOom(r));
          continue;
        }
        const EpochStats& s = r.ValueOrDie();
        for (int k = 0; k < fault::kNumDegradeEvents; ++k) {
          rec.counts[k] += s.recovery.counts[k];
        }
        const double t = s.SimSeconds();
        if (devices == 1) t1 = t;
        row.push_back(FormatDouble(t1 / t, 2) + "x");
      }
      benchutil::PrintRow(row, w);
      // Any graceful-degradation event (retry, refetch, fallback, ...) taints
      // the timing; say so instead of letting it pass as a clean measurement.
      if (rec.total() > 0) {
        std::printf("  ^ degraded epochs: %s\n", rec.ToString().c_str());
      }
    }
  }

  // ---- Chunk-executor comparison at 4 devices -----------------------------
  benchutil::PrintTitle(
      "Fig. 11 addendum: modeled executor schedules at 4 devices",
      "Serial = --executor serial; Pipelined = 3-stage pipeline model and\n"
      "TaskGraph = dataflow task-graph model, both with max_inflight 3.\n"
      "Overlap is the busy time the pipeline hid (sim seconds). bf16 = the\n"
      "pipelined epoch with the compressed comm wire on top.");
  const std::vector<int> wp = {6, 12, 7, 10, 10, 9, 8, 10, 8, 10, 9};
  benchutil::PrintRow({"Model", "Dataset", "Chunks", "Serial", "Pipelined",
                       "Overlap", "Speedup", "TaskGraph", "tg spd", "bf16",
                       "bf16 spd"},
                      wp);
  benchutil::PrintRule(wp);

  std::vector<PipelineRow> rows;
  for (GnnKind kind : {GnnKind::kGcn, GnnKind::kGat}) {
    for (const char* name : {"it-2004", "ogbn-paper", "friendster"}) {
      Dataset ds = benchutil::MustLoad(name);
      const int chunks = kind == GnnKind::kGat ? ds.default_chunks_gat
                                               : ds.default_chunks_gcn;
      ModelConfig cfg =
          ModelConfig::Make(kind, ds.feature_dim(), ds.default_hidden_dim,
                            ds.num_classes, 2, 42);
      PipelineRow row;
      row.model = GnnKindName(kind);
      row.dataset = ds.name;
      row.chunks = chunks;
      fault::RecoveryCounters rec;
      const kernels::CommPrecision fp32 = kernels::CommPrecision::kFp32;
      row.serial_s = RunEpochSimSeconds(ds, cfg, chunks, ExecutorKind::kSerial,
                                        1, nullptr, fp32, &rec);
      row.pipelined_s =
          RunEpochSimSeconds(ds, cfg, chunks, ExecutorKind::kPipeline, 3,
                             &row.overlap_s, fp32, &rec);
      row.taskgraph_s = RunEpochSimSeconds(
          ds, cfg, chunks, ExecutorKind::kTaskGraph, 3, nullptr, fp32, &rec);
      row.pipelined_bf16_s =
          RunEpochSimSeconds(ds, cfg, chunks, ExecutorKind::kPipeline, 3,
                             nullptr, kernels::CommPrecision::kBf16, &rec);
      rows.push_back(row);
      benchutil::PrintRow(
          {row.model, row.dataset, std::to_string(chunks),
           row.serial_s > 0 ? FormatSeconds(row.serial_s) : "ERR",
           row.pipelined_s > 0 ? FormatSeconds(row.pipelined_s) : "ERR",
           row.overlap_s >= 0 ? FormatSeconds(row.overlap_s) : "-",
           row.serial_s > 0 && row.pipelined_s > 0
               ? FormatDouble(row.serial_s / row.pipelined_s, 2) + "x"
               : "-",
           row.taskgraph_s > 0 ? FormatSeconds(row.taskgraph_s) : "ERR",
           row.serial_s > 0 && row.taskgraph_s > 0
               ? FormatDouble(row.serial_s / row.taskgraph_s, 2) + "x"
               : "-",
           row.pipelined_bf16_s > 0 ? FormatSeconds(row.pipelined_bf16_s)
                                    : "ERR",
           row.serial_s > 0 && row.pipelined_bf16_s > 0
               ? FormatDouble(row.serial_s / row.pipelined_bf16_s, 2) + "x"
               : "-"},
          wp);
      if (rec.total() > 0) {
        std::printf("  ^ degraded epochs: %s\n", rec.ToString().c_str());
      }
    }
  }
  WritePipelineReport(rows, report_path);
  return 0;
}
