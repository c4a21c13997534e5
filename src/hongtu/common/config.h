/// \file config.h
/// \brief Process-wide runtime configuration: the single parse point for
/// every `HONGTU_*` environment knob and the home of the executor policy.
///
/// Before this header existed the knobs were parsed ad hoc in five places
/// (kernels/backend.cc, kernels/codec.cc, tensor/pool.cc, common/fault.cc,
/// engine/engine.h), each with its own caching rules. They now all route
/// through `RuntimeConfig`, with one documented precedence:
///
///   explicit field assignment  >  environment variable  >  built-in default
///
/// "Explicit assignment" means writing the field on an options struct (e.g.
/// `EngineOptions::comm_precision`) after construction, or calling a setter
/// such as `kernels::SetBackend`. Defaults are captured from the environment
/// at the point the options object is constructed (`RuntimeConfig::FromEnv`),
/// so a test that `setenv`s and then builds options sees the new value, while
/// an already-built options struct is never mutated behind the caller's back.
///
/// | field           | env var                | default    |
/// |-----------------|------------------------|------------|
/// | kernel_backend  | HONGTU_KERNEL_BACKEND  | blocked    |
/// | comm_precision  | HONGTU_COMM_PRECISION  | fp32       |
/// | wire_integrity  | HONGTU_WIRE_INTEGRITY  | on (1)     |
/// | pool_enabled    | HONGTU_DISABLE_POOL    | on         |
/// | fault_spec      | HONGTU_FAULT_SPEC      | (disarmed) |
/// | retry_spec      | HONGTU_RETRY_SPEC      | (defaults) |
/// | executor        | HONGTU_EXECUTOR        | pipeline   |
/// | max_inflight    | HONGTU_MAX_INFLIGHT    | 2          |
/// | cluster         | HONGTU_CLUSTER         | (off)      |

#pragma once

#include <string>

#include "hongtu/kernels/backend.h"
#include "hongtu/kernels/codec.h"

namespace hongtu {

/// Which modeled schedule HongTuEngine charges for its chunk loop. The loop
/// itself is one serial path — every batch's load, compute and store stage
/// runs in order on the calling thread and is metered on its own — so all
/// three produce identical numerics; they differ only in how much of the
/// metered load/compute/store time the simulated platform overlaps.
enum class ExecutorKind {
  kSerial = 0,    ///< no overlap (the A/B baseline)
  kPipeline = 1,  ///< in-order 3-stage pipeline recurrence, per layer
  kTaskGraph = 2  ///< list schedule of the pass's (chunk, layer, stage) graph
};

const char* ExecutorKindName(ExecutorKind k);

/// Parses "serial" / "pipeline" / "taskgraph". Returns false (and leaves
/// *out untouched) on anything else.
bool ParseExecutorKind(const std::string& s, ExecutorKind* out);

/// One snapshot of every runtime knob. Options structs embed these fields as
/// thin views (their defaults are `RuntimeConfig::FromEnv()` values), so the
/// precedence above holds everywhere without each subsystem re-reading the
/// environment.
struct RuntimeConfig {
  kernels::Backend kernel_backend = kernels::Backend::kBlocked;
  kernels::CommPrecision comm_precision = kernels::CommPrecision::kFp32;
  bool wire_integrity = true;
  bool pool_enabled = true;
  /// Raw HONGTU_FAULT_SPEC string; common/fault.cc owns the grammar and the
  /// arming (it validates and aborts loudly on a malformed spec).
  std::string fault_spec;
  /// Raw HONGTU_RETRY_SPEC string (attempts:base:max:deadline:jitter_seed);
  /// common/fault.cc owns the grammar (fault::ParseRetrySpec) and the
  /// process-wide capture (fault::DefaultRetryPolicy).
  std::string retry_spec;
  ExecutorKind executor = ExecutorKind::kPipeline;
  /// The modeled in-flight window: token-pool capacity of the task graph /
  /// window depth of the pipeline. Each in-flight batch is reserved one
  /// buffer slot per device (comm buffers + chunk working set) in device
  /// memory, so this is also the memory knob.
  int max_inflight = 2;
  /// Real multi-process cluster transport for CpuClusterEngine: "" (off,
  /// the analytic model), "tcp" (loopback TCP) or "uds" (Unix-domain
  /// sockets). When set, `Engine::Create(kCpuCluster, ...)` spawns one
  /// worker process per simulated device and RunEpoch measures real
  /// wall-clock over the net/ transport (see net/cluster.h).
  std::string cluster_transport;

  /// Built-in defaults, environment ignored.
  static RuntimeConfig Defaults();
  /// Defaults overridden by whatever HONGTU_* variables are set right now
  /// (re-reads the environment on every call — no caching).
  static RuntimeConfig FromEnv();
  /// The process-wide snapshot, captured once on first use. Subsystems whose
  /// configuration must not change mid-run (kernel backend dispatch) read
  /// this one.
  static const RuntimeConfig& Process();

  /// Human-readable multi-line dump, printed by benches and hongtu_cli so
  /// every report records the knob state it ran under.
  std::string Describe() const;
};

}  // namespace hongtu
