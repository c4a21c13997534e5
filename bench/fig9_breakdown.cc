// Reproduces Figure 9: per-component time breakdown (GPU / H2D / D2D / CPU)
// of HongTu under the communication-deduplication ablation — Baseline
// (whole neighbor set per chunk), +P2P (inter-GPU dedup), +RU (adds
// intra-GPU reuse) — for GCN and GAT with 2/3/4 layers on the three large
// graphs. Claims: each level shrinks the communication share; overall
// speedup of +RU over Baseline is 1.3x-3.4x; GAT's GPU share is much larger
// than GCN's.

#include <cstdio>

#include "bench_util.h"

using namespace hongtu;

int main() {
  benchutil::PrintTitle(
      "Figure 9: time breakdown under the dedup ablation (sim seconds)",
      "Rows per (model, dataset, layers): Baseline -> +P2P -> +RU.\n"
      "Expected: H2D shrinks at each step; total speedup 1.3x-3.4x; GAT has "
      "a larger GPU share.\n"
      "Components are busy seconds; Overlap is the share the modeled\n"
      "pipeline hid behind compute, and Total = components - Overlap.");
  const std::vector<int> w = {6, 12, 7, 9, 8, 8, 8, 8, 9, 9, 9};
  benchutil::PrintRow({"Model", "Dataset", "Layers", "Level", "GPU", "H2D",
                       "D2D", "CPU", "Overlap", "Total", "Speedup"},
                      w);
  benchutil::PrintRule(w);

  for (GnnKind kind : {GnnKind::kGcn, GnnKind::kGat}) {
    for (const char* name : {"it-2004", "ogbn-paper", "friendster"}) {
      Dataset ds = benchutil::MustLoad(name);
      const int chunks = kind == GnnKind::kGat ? ds.default_chunks_gat
                                               : ds.default_chunks_gcn;
      for (int layers : {2, 3, 4}) {
        ModelConfig cfg =
            ModelConfig::Make(kind, ds.feature_dim(), ds.default_hidden_dim,
                              ds.num_classes, layers, 42);
        double baseline_total = -1;
        for (DedupLevel level : {DedupLevel::kNone, DedupLevel::kP2P,
                                 DedupLevel::kP2PReuse}) {
          EngineConfig o;
          o.num_devices = 4;
          o.chunks_per_partition = chunks;
          o.device_capacity_bytes = 1ll << 40;
          o.dedup = level;
          o.reorganize = level != DedupLevel::kNone;
          auto e = Engine::Create(EngineKind::kHongTu, &ds, cfg, o);
          if (!e.ok()) continue;
          auto r = e.ValueOrDie()->RunEpoch();
          if (!r.ok()) {
            benchutil::PrintRow({GnnKindName(kind), ds.name,
                                 std::to_string(layers),
                                 DedupLevelName(level),
                                 benchutil::TimeOrOom(r), "", "", "", "", "",
                                 ""},
                                w);
            continue;
          }
          const TimeBreakdown& t = r.ValueOrDie().time;
          const double total = r.ValueOrDie().SimSeconds();
          if (level == DedupLevel::kNone) baseline_total = total;
          benchutil::PrintRow(
              {GnnKindName(kind), ds.name, std::to_string(layers),
               DedupLevelName(level), FormatSeconds(t.gpu),
               FormatSeconds(t.h2d), FormatSeconds(t.d2d),
               FormatSeconds(t.cpu), FormatSeconds(t.overlapped),
               FormatSeconds(total),
               baseline_total > 0
                   ? FormatDouble(baseline_total / total, 2) + "x"
                   : "-"},
              w);
          // A timing row from a degraded epoch (retries, replays, fallbacks)
          // is not comparable to a clean one — flag it rather than letting
          // it silently skew the figure.
          const fault::RecoveryCounters& rc = r.ValueOrDie().recovery;
          if (rc.total() > 0) {
            std::printf("    ^ degraded epoch: %s\n", rc.ToString().c_str());
          }
        }
      }
      benchutil::PrintRule(w);
    }
  }
  return 0;
}
