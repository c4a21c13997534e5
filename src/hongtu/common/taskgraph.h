/// \file taskgraph.h
/// \brief Analytic overlap models of the chunk executors: the dataflow task
/// graph over (chunk, layer, stage) nodes and the in-order 3-stage pipeline.
///
/// HongTu overlaps host<->GPU transfers with GPU kernels. In this
/// reproduction every stage runs on the calling thread (kernels stay
/// OpenMP-parallel inside it) and is metered on its own; the overlap the
/// real device would get is then computed from those per-stage costs. Both
/// models here are pure functions of the per-node (per-item) durations, so
/// the modeled wall is deterministic and independent of host scheduling.
///
/// The task graph encodes the elastic fire-when-operands-arrive discipline
/// of dataflow circuits: a node may start once (a) every incoming edge has
/// retired, (b) its resource class is free, and (c) it holds a buffer-slot
/// token from its pool. Tokens model the bounded buffering the engine
/// charged against device memory in `CommExecutor::BeginLayer(dim,
/// num_slots, ...)`: a pool of capacity S stands for exactly S in-flight
/// comm slots + compute workspaces, and a token returns to its pool when
/// the (statically known) releasing node retires.

#pragma once

#include <array>
#include <vector>

namespace hongtu {

class TaskGraph {
 public:
  using NodeId = int;
  using PoolId = int;

  /// Creates a token pool of `capacity` slots.
  PoolId AddTokenPool(int capacity);

  struct NodeOptions {
    /// Acquire one token from this pool before starting (-1 = none).
    PoolId acquires = -1;
    /// On retirement, release the token held by this (earlier) node back to
    /// its pool. Static pairing lets ScheduleSeconds model token turnaround
    /// exactly.
    NodeId releases_token_of = -1;
    /// Resource class (e.g. 0=load wire, 1=GPU, 2=store wire): nodes of one
    /// class serialize, mirroring the lanes of the 3-stage pipeline.
    /// -1 = unconstrained.
    int sim_resource = -1;
  };

  /// Adds a node. Ids are assigned in call order and every edge must go from
  /// a lower to a higher id, so id order is a topological order by
  /// construction.
  NodeId AddNode(NodeOptions opts);
  NodeId AddNode() { return AddNode(NodeOptions{}); }

  /// Readiness edge: `to` cannot start until `from` retired. Requires
  /// from < to (see AddNode); duplicate edges are allowed and cheap.
  void AddEdge(NodeId from, NodeId to);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }

  /// Deterministic list-schedule of this graph given per-node busy seconds:
  /// nodes start at the max of (all predecessors' finish, their resource
  /// class free time, earliest token availability in their pool). Processed
  /// in id order (a topological order), so the result is a pure function of
  /// the graph and the durations. Returns max finish time.
  double ScheduleSeconds(const std::vector<double>& busy_seconds) const;

 private:
  struct Node {
    NodeOptions opts;
    std::vector<NodeId> succ;
  };
  std::vector<Node> nodes_;
  std::vector<int> pool_capacity_;
};

/// Modeled wall of an in-order 3-stage software pipeline (load -> compute ->
/// store) over items j = 0..n-1 with per-item stage seconds
/// `item_seconds[j] = {load, compute, store}`: a stage starts item j once
/// the upstream stage finished it and the stage itself finished item j-1,
/// and item j's buffer slot (j mod window) frees only once item j-window
/// retired from the store stage. Returns the store stage's finish time.
double ModelPipelineSeconds(
    const std::vector<std::array<double, 3>>& item_seconds, int window);

}  // namespace hongtu
