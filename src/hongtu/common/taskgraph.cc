#include "hongtu/common/taskgraph.h"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <queue>

#include "hongtu/common/logging.h"

namespace hongtu {

namespace {

// Graph-construction invariants are programming errors, not recoverable
// statuses: abort loudly.
void Check(bool ok, const char* what) {
  if (ok) return;
  HT_LOG(ERROR) << "TaskGraph: " << what;
  std::abort();
}

}  // namespace

TaskGraph::PoolId TaskGraph::AddTokenPool(int capacity) {
  pool_capacity_.push_back(std::max(1, capacity));
  return static_cast<PoolId>(pool_capacity_.size() - 1);
}

TaskGraph::NodeId TaskGraph::AddNode(NodeOptions opts) {
  Check(opts.acquires < static_cast<PoolId>(pool_capacity_.size()),
        "acquires references an unknown pool");
  Check(opts.releases_token_of < num_nodes(),
        "releases_token_of must reference an earlier node");
  nodes_.push_back(Node{opts, {}});
  return static_cast<NodeId>(nodes_.size() - 1);
}

void TaskGraph::AddEdge(NodeId from, NodeId to) {
  Check(from >= 0 && to > from && to < num_nodes(),
        "edges must go from a lower to a higher node id");
  nodes_[from].succ.push_back(to);
}

double TaskGraph::ScheduleSeconds(
    const std::vector<double>& busy_seconds) const {
  const int n = num_nodes();
  // Nodes past the end of busy_seconds are free.
  std::vector<double> busy(busy_seconds);
  busy.resize(static_cast<size_t>(n), 0.0);
  std::vector<double> ready(n, 0.0);
  std::vector<double> res_free;
  using MinHeap =
      std::priority_queue<double, std::vector<double>, std::greater<double>>;
  std::vector<MinHeap> pool_free(pool_capacity_.size());
  for (size_t p = 0; p < pool_capacity_.size(); ++p) {
    for (int t = 0; t < pool_capacity_[p]; ++t) pool_free[p].push(0.0);
  }
  double wall = 0.0;
  // Id order is a topological order (AddEdge enforces from < to), and in the
  // engine's graphs every releasing node precedes the next acquirer of its
  // token, so processing in id order sees each release before the acquire
  // that needs it. Everything below is a pure function of (graph, busy).
  for (NodeId id = 0; id < n; ++id) {
    const Node& node = nodes_[id];
    double start = ready[id];
    if (node.opts.sim_resource >= 0) {
      if (node.opts.sim_resource >= static_cast<int>(res_free.size())) {
        res_free.resize(node.opts.sim_resource + 1, 0.0);
      }
      start = std::max(start, res_free[node.opts.sim_resource]);
    }
    if (node.opts.acquires >= 0) {
      MinHeap& h = pool_free[node.opts.acquires];
      if (!h.empty()) {
        start = std::max(start, h.top());
        h.pop();
      }
    }
    const double finish = start + busy[id];
    if (node.opts.sim_resource >= 0) res_free[node.opts.sim_resource] = finish;
    for (const NodeId s : node.succ) ready[s] = std::max(ready[s], finish);
    if (node.opts.releases_token_of >= 0) {
      const Node& holder = nodes_[node.opts.releases_token_of];
      if (holder.opts.acquires >= 0) {
        pool_free[holder.opts.acquires].push(finish);
      }
    }
    wall = std::max(wall, finish);
  }
  return wall;
}

double ModelPipelineSeconds(
    const std::vector<std::array<double, 3>>& item_seconds, int window) {
  const size_t n = item_seconds.size();
  const size_t d = static_cast<size_t>(std::max(1, window));
  double load_fin = 0.0, comp_fin = 0.0, store_fin = 0.0;
  std::vector<double> retired(n, 0.0);
  for (size_t j = 0; j < n; ++j) {
    double start = load_fin;
    if (j >= d) start = std::max(start, retired[j - d]);
    load_fin = start + item_seconds[j][0];
    comp_fin = std::max(comp_fin, load_fin) + item_seconds[j][1];
    store_fin = std::max(store_fin, comp_fin) + item_seconds[j][2];
    retired[j] = store_fin;
  }
  return store_fin;
}

}  // namespace hongtu
