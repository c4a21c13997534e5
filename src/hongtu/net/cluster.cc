#include "hongtu/net/cluster.h"

#include <dirent.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include "hongtu/comm/dedup_plan.h"
#include "hongtu/comm/reorganize.h"
#include "hongtu/common/logging.h"
#include "hongtu/gnn/layer.h"
#include "hongtu/gnn/loss.h"
#include "hongtu/kernels/backend.h"
#include "hongtu/net/wire.h"
#include "hongtu/partition/two_level.h"

extern char** environ;

namespace hongtu {
namespace net {

namespace {

// ---- Bit-exact text encoding for the HONGTU_DIST_CONFIG env contract. ------

std::string U64Hex(uint64_t v) {
  char b[20];
  std::snprintf(b, sizeof(b), "%016llx", static_cast<unsigned long long>(v));
  return b;
}

uint64_t HexU64(const std::string& s) {
  return std::strtoull(s.c_str(), nullptr, 16);
}

std::string F64Hex(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return U64Hex(bits);
}

double HexF64(const std::string& s) {
  const uint64_t bits = HexU64(s);
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

std::string F32Hex(float f) {
  uint32_t bits;
  std::memcpy(&bits, &f, sizeof(bits));
  char b[12];
  std::snprintf(b, sizeof(b), "%08x", bits);
  return b;
}

float HexF32(const std::string& s) {
  const uint32_t bits = static_cast<uint32_t>(HexU64(s));
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (;;) {
    const size_t p = s.find(sep, start);
    if (p == std::string::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, p - start));
    start = p + 1;
  }
}

constexpr int64_t kNoKillEpoch = -1;

double NowS() { return MonotonicSeconds(); }

/// Best-effort removal of a flat scratch directory (sockets, checkpoints).
void RemoveDirShallow(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d != nullptr) {
    while (struct dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name == "." || name == "..") continue;
      ::unlink((dir + "/" + name).c_str());
    }
    ::closedir(d);
  }
  ::rmdir(dir.c_str());
}

// ---- Graceful SIGTERM ------------------------------------------------------
//
// Workers and coordinator install the same async-signal-safe flag setter;
// their command/wait loops tick every few hundred ms and drain out cleanly
// (pending RPC replies flush, children are reaped) instead of dying mid-write.

std::atomic<bool> g_sigterm{false};

void SigtermHandler(int) { g_sigterm.store(true, std::memory_order_relaxed); }

void InstallSigtermHandler() {
  struct sigaction sa = {};
  sa.sa_handler = SigtermHandler;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGTERM, &sa, nullptr);
}

bool SigtermRequested() {
  return g_sigterm.load(std::memory_order_relaxed);
}

/// True when `pid` is certainly gone. Reaps it when it is our zombie child
/// (an in-process coordinator restart keeps the workers as children of this
/// process, where kill(pid, 0) alone would call a zombie alive forever); a
/// re-attached worker inherited from a previous coordinator process is not
/// our child, so ECHILD falls back to the signal-0 probe.
bool ProbePidDead(pid_t pid) {
  int ws = 0;
  const pid_t r = ::waitpid(pid, &ws, WNOHANG);
  if (r == pid) return true;
  if (r < 0 && errno == ECHILD) {
    return ::kill(pid, 0) != 0 && errno == ESRCH;
  }
  return false;  // still running (our child), or transient waitpid error
}

/// SIGKILL + wait until the process is gone, whether or not it is a child.
void KillPidAndWait(pid_t pid) {
  ::kill(pid, SIGKILL);
  int ws = 0;
  const pid_t r = ::waitpid(pid, &ws, 0);
  if (r < 0 && errno == ECHILD) {
    const double t_end = NowS() + 2.0;
    while (NowS() < t_end && ::kill(pid, 0) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
}

}  // namespace

bool IsCoordinatorCommand(MsgType type) {
  switch (type) {
    case MsgType::kEpoch:
    case MsgType::kEval:
    case MsgType::kShutdown:
    case MsgType::kAbort:
    case MsgType::kPeerUpdate:
    case MsgType::kAdoptPartition:
    case MsgType::kCoordUpdate:
      return true;
    default:
      return false;
  }
}

Status CheckCoordinatorTerm(uint64_t frame_term, uint64_t* known_term) {
  if (frame_term < *known_term) {
    return Status::Invalid("stale coordinator term " +
                           std::to_string(frame_term) + " (current " +
                           std::to_string(*known_term) + "): command fenced");
  }
  *known_term = frame_term;
  return Status::OK();
}

std::string EncodeClusterConfig(const ClusterConfig& c) {
  std::string dims;
  for (size_t i = 0; i < c.model_dims.size(); ++i) {
    if (i > 0) dims += '|';
    dims += std::to_string(c.model_dims[i]);
  }
  const std::pair<const char*, std::string> kv[] = {
      {"transport", c.transport},
      {"workers", std::to_string(c.num_workers)},
      {"ds", c.dataset},
      {"scale", F64Hex(c.dataset_scale)},
      {"dseed", U64Hex(c.dataset_seed)},
      {"kind", std::to_string(static_cast<int>(c.model_kind))},
      {"dims", dims},
      {"mseed", U64Hex(c.model_seed)},
      {"chunks", std::to_string(c.chunks_per_partition)},
      {"dedup", std::to_string(c.dedup_level)},
      {"reorg", c.reorganize ? "1" : "0"},
      {"pseed", U64Hex(c.partition_seed)},
      {"wire", std::to_string(static_cast<int>(c.wire))},
      {"lr", F32Hex(c.adam.lr)},
      {"b1", F32Hex(c.adam.beta1)},
      {"b2", F32Hex(c.adam.beta2)},
      {"eps", F32Hex(c.adam.eps)},
      {"wd", F32Hex(c.adam.weight_decay)},
      {"dir", c.runtime_dir},
      {"ckdir", c.checkpoint_dir},
      {"hb", F64Hex(c.heartbeat_interval_s)},
      {"pto", F64Hex(c.peer_timeout_s)},
      {"rpc", F64Hex(c.rpc_deadline_s)},
      {"edl", F64Hex(c.epoch_deadline_s)},
      {"rmode", c.recover_mode},
      {"grace", F64Hex(c.recovery_grace_s)},
      {"lease", F64Hex(c.coord_lease_s)},
  };
  std::string out;
  for (const auto& p : kv) {
    if (!out.empty()) out += ';';
    out += p.first;
    out += '=';
    out += p.second;
  }
  return out;
}

Result<ClusterConfig> DecodeClusterConfig(const std::string& s) {
  ClusterConfig c;
  c.model_dims.clear();
  for (const std::string& clause : Split(s, ';')) {
    if (clause.empty()) continue;
    const size_t eq = clause.find('=');
    if (eq == std::string::npos) {
      return Status::Invalid("cluster config clause without '=': " + clause);
    }
    const std::string k = clause.substr(0, eq);
    const std::string v = clause.substr(eq + 1);
    if (k == "transport") c.transport = v;
    else if (k == "workers") c.num_workers = std::atoi(v.c_str());
    else if (k == "ds") c.dataset = v;
    else if (k == "scale") c.dataset_scale = HexF64(v);
    else if (k == "dseed") c.dataset_seed = HexU64(v);
    else if (k == "kind") c.model_kind = static_cast<GnnKind>(std::atoi(v.c_str()));
    else if (k == "dims") {
      for (const std::string& d : Split(v, '|')) {
        if (!d.empty()) c.model_dims.push_back(std::atoi(d.c_str()));
      }
    } else if (k == "mseed") c.model_seed = HexU64(v);
    else if (k == "chunks") c.chunks_per_partition = std::atoi(v.c_str());
    else if (k == "dedup") c.dedup_level = std::atoi(v.c_str());
    else if (k == "reorg") c.reorganize = (v == "1");
    else if (k == "pseed") c.partition_seed = HexU64(v);
    else if (k == "wire")
      c.wire = static_cast<kernels::CommPrecision>(std::atoi(v.c_str()));
    else if (k == "lr") c.adam.lr = HexF32(v);
    else if (k == "b1") c.adam.beta1 = HexF32(v);
    else if (k == "b2") c.adam.beta2 = HexF32(v);
    else if (k == "eps") c.adam.eps = HexF32(v);
    else if (k == "wd") c.adam.weight_decay = HexF32(v);
    else if (k == "dir") c.runtime_dir = v;
    else if (k == "ckdir") c.checkpoint_dir = v;
    else if (k == "hb") c.heartbeat_interval_s = HexF64(v);
    else if (k == "pto") c.peer_timeout_s = HexF64(v);
    else if (k == "rpc") c.rpc_deadline_s = HexF64(v);
    else if (k == "edl") c.epoch_deadline_s = HexF64(v);
    else if (k == "rmode") c.recover_mode = v;
    else if (k == "grace") c.recovery_grace_s = HexF64(v);
    else if (k == "lease") c.coord_lease_s = HexF64(v);
    // Unknown keys ignored: older workers tolerate newer coordinators.
  }
  if (c.dataset.empty()) return Status::Invalid("cluster config missing ds=");
  if (c.model_dims.size() < 2) {
    return Status::Invalid("cluster config needs dims= with >= 2 entries");
  }
  if (c.num_workers < 1) return Status::Invalid("cluster config workers < 1");
  return c;
}

// ============================================================================
// Worker
// ============================================================================

namespace {

class RankState;

/// One worker process: the process shell. Rebuilds the shared training
/// problem (dataset, partition, dedup plan) from the env contract, owns the
/// transport and the process-wide peer-address cache, and hosts one or more
/// `RankState`s: its own rank always (`primary_`), plus any dead partitions
/// it adopted for the current run (`adopted_`). Every peer-visible payload
/// carries an explicit owner rank, so requests are routed to the right
/// hosted state regardless of which process serves them.
class ClusterWorker {
 public:
  int Run();

 private:
  friend class RankState;

  Status Init();
  void MainLoop();
  void OnRequest(Transport::Request&& req);
  void RunEpochCmd(const std::string& payload);
  void RunEvalCmd(const std::string& payload);
  void HandlePeerUpdate(Transport::Request& req);
  void HandleAdopt(Transport::Request& req);
  void HandleCoordUpdate(Transport::Request& req);
  /// True while a parked worker's coordinator lease is still open: the
  /// coordinator is known dead but a successor may still appear. Report
  /// retry loops keep trying through this window.
  bool InCoordLease() const {
    const double dead = coord_dead_since_.load(std::memory_order_relaxed);
    return dead > 0.0 && NowS() < dead + cfg_.coord_lease_s;
  }
  /// The hosted state for `owner`: the primary rank or an adopted one.
  /// nullptr when this process does not (yet) host that rank.
  std::shared_ptr<RankState> FindState(int owner);
  /// Redirects a peer rank to a new address (no-op when unchanged).
  void UpdatePeer(int peer, const std::string& addr);
  /// Extends the process-wide recovery grace window to now + grace.
  void ExtendGrace();
  double grace_until() const {
    return grace_until_.load(std::memory_order_relaxed);
  }
  /// Aborts, joins and discards every adopted rank (they belong to a
  /// finished or aborted run; the real process takes over next epoch).
  void ClearAdopted(uint64_t abort_upto);

  int rank_ = -1;
  int W_ = 0;
  int coord_ = 0;  ///< coordinator rank = W_
  int L_ = 0;
  int n_ = 0;
  int64_t V_ = 0;
  int64_t kill_epoch_ = kNoKillEpoch;
  bool kill_on_recover_ = false;
  std::atomic<bool> kill_fired_{false};
  ClusterConfig cfg_;
  Dataset ds_;
  TwoLevelPartition tl_;
  DedupPlan plan_;
  std::unique_ptr<Transport> transport_;
  kernels::Backend kb_ = kernels::Backend::kReference;
  bool packed_ = false;
  int64_t elem_bytes_ = 4;
  std::vector<int> dims_;
  int64_t global_train_ = 0;

  std::mutex pmu_;
  std::condition_variable pcv_;
  std::deque<Frame> cmds_;
  std::vector<std::string> peer_addrs_;  ///< under pmu_
  struct Adopted {
    std::shared_ptr<RankState> state;
    std::thread thread;
  };
  std::map<int, Adopted> adopted_;  ///< under pmu_
  std::shared_ptr<RankState> primary_;
  /// Wall-clock (NowS) until which waits may overstay their budget because
  /// a peer is being recovered. 0 when no recovery is in flight.
  std::atomic<double> grace_until_{0.0};
  /// Highest coordinator term seen (fencing word); mirrored into the
  /// transport so this worker's own frames carry it.
  std::atomic<uint64_t> coord_term_{0};
  /// NowS() when the coordinator was declared dead; 0 while it is alive.
  /// Set by the transport death callback (park), cleared by the first
  /// term-valid coordinator command (re-attach).
  std::atomic<double> coord_dead_since_{0.0};
};

/// Per-hosted-rank training state and replay logs. A process usually hosts
/// exactly one (its own rank); after `kAdoptPartition` it hosts a survivor
/// copy of a dead rank too. All peer-visible state lives behind `mu_`,
/// shared between the step loop and the connection reader threads.
///
/// Replay contract: `fetch_log_` keeps, for every published step, the exact
/// serialized response each expected fetcher would receive — written at
/// PUBLISH time, so serving never reads the live transition slots and a
/// recovering peer can re-fetch any step of the epoch bit-identically.
/// `push_out_log_` keeps every outbound gradient push so a recovering
/// destination can re-pull what was already delivered (`kFetchPush`).
/// Both logs retain the full epoch (memory ~ one epoch of communication
/// volume) and reset at the next run.
///
/// Not every step talks to peers. A cacheable layer's backward step reads
/// the AGGREGATE its forward step kept in `agg_`, so it publishes and
/// fetches nothing; a layer-0 backward step computes no input gradient, so
/// it pushes nothing. Every rank runs the same step sequence, so no peer
/// ever asks for a skipped step, and a replay re-runs the forward, which
/// rebuilds `agg_` before any backward step reads it.
class RankState {
 public:
  RankState(ClusterWorker* host, int rank);

  /// Builds the per-rank problem: model replica, fetcher lists, own train
  /// vertices, activation/gradient buffers.
  Status Prepare();

  void ExecuteEpoch(uint64_t run, int64_t epoch, bool recover,
                    const std::string& tail);
  void ExecuteEval(uint64_t run, SplitRole role, const std::string& tail);
  void Abort(uint64_t run);

  void HandleFetch(Transport::Request& req, uint64_t run, int64_t step,
                   int requester);
  void HandlePush(Transport::Request& req, uint64_t run, int64_t step,
                  int sender, std::string body);
  void HandleSyncState(Transport::Request& req, uint64_t run, int asker);
  void HandleFetchPush(Transport::Request& req, uint64_t run, int64_t step,
                       int asker);

  /// The run currently executing (0 when idle). A re-attaching coordinator
  /// asks for it to decide whether this rank must rejoin a resumed run.
  uint64_t current_run() {
    std::lock_guard<std::mutex> lk(mu_);
    return cur_run_;
  }
  /// Records a degrade event into this rank's epoch counters (they travel
  /// to the coordinator inside the kEpochDone report).
  void RecordDegrade(fault::DegradeEvent e, const std::string& detail) {
    degrade_.Record(e, detail);
  }

 private:
  Status SetupRun(WireReader* r);
  Status SyncRecoveryFloors(uint64_t run);
  Status TrainEpoch(uint64_t run, int64_t epoch);
  Status ForwardPhase(uint64_t run);
  Status DoStep(uint64_t run, int64_t s, int l, int j, bool backward);
  Status PublishStep(uint64_t run, int64_t s, int l, int j);
  Status FetchNeighbors(uint64_t run, int64_t s, int l, int j);
  Status PushApplyFlush(uint64_t run, int64_t s, int l, int j);
  Status ComputeLossAndSeed();

  /// Retries `fn` while its failure is transient: one RetryTransient burst
  /// per pass (policy derived from fault::DefaultRetryPolicy), then keeps
  /// going only while the recovery grace window is open.
  Status RetryRpc(const char* site, const std::function<Status()>& fn);
  /// Caller holds lk(mu_). Waits for pred with a budget that stretches to
  /// the recovery grace window; Internal on abort, Unavailable on timeout.
  Status WaitCond(std::unique_lock<std::mutex>& lk, double budget_s,
                  const std::function<bool()>& pred, const std::string& what);
  double AttemptDeadlineS() const {
    return std::min(cfg_.rpc_deadline_s, std::max(cfg_.peer_timeout_s, 0.5));
  }

  // Step index mapping: forward steps are l*n+j, backward steps continue at
  // L*n with layers descending; all workers iterate the identical sequence.
  int LayerOf(int64_t s) const {
    const int64_t fwd = static_cast<int64_t>(L_) * n_;
    return s < fwd ? static_cast<int>(s / n_)
                   : static_cast<int>(L_ - 1 - (s - fwd) / n_);
  }
  int BatchOf(int64_t s) const { return static_cast<int>(s % n_); }
  int64_t PayloadCols(int dim) const { return packed_ ? (dim + 1) / 2 : dim; }
  size_t RowBytes(int dim) const {
    return static_cast<size_t>(dim) * static_cast<size_t>(elem_bytes_);
  }
  const Tensor& HIn(int l) const { return l == 0 ? ds_.features : h_[l]; }
  Tensor& AggCache(int l, int j) {
    return agg_[static_cast<size_t>(l) * n_ + j];
  }

  /// Serializes the requester's owner-group rows out of the transition
  /// buffer. Caller holds mu_; the buffer holds the step being published.
  std::string BuildFetchPayload(int requester, int64_t step) const;

  ClusterWorker* host_;
  const int rank_;
  const int W_;
  const int coord_;
  const int L_;
  const int n_;
  const int64_t V_;
  const int64_t kill_epoch_;
  const ClusterConfig& cfg_;
  const Dataset& ds_;
  const TwoLevelPartition& tl_;
  const DedupPlan& plan_;
  Transport* transport_;
  const kernels::Backend kb_;
  const bool packed_;
  const int64_t elem_bytes_;
  const std::vector<int> dims_;
  const int64_t global_train_;

  GnnModel model_;
  fault::DegradationPolicy degrade_;
  /// Per batch j: peers that fetch from (and push gradients to) this rank.
  std::vector<std::vector<int>> fetchers_;
  std::vector<VertexId> own_train_;
  std::vector<Tensor> h_;     ///< h_[l] for l >= 1 (l == 0 is ds_.features)
  std::vector<Tensor> grad_;  ///< gradient wrt h^l, |V| x dims[l]; l >= 1
  /// agg_[l * n_ + j]: chunk j's AGGREGATE output (num_dst x agg_dim) of a
  /// cacheable layer l, written by the forward, read by the backward.
  std::vector<Tensor> agg_;
  Tensor trans_;              ///< transition buffer (wire-encoded payload)
  Tensor tgrad_;              ///< transition gradients, fp32 accumulators
  /// Per-step workspaces: fetched neighbour rows, the destinations' input
  /// and output rows, and the destination/source gradients.
  Tensor nb_, dst_h_, out_h_, d_dst_, d_src_;
  double loss_sum_ = 0.0, acc_sum_ = 0.0;
  int64_t n_own_ = 0;

  std::mutex mu_;
  std::condition_variable cv_;
  uint64_t cur_run_ = 0;
  uint64_t max_aborted_run_ = 0;
  bool abort_cur_ = false;
  int64_t published_step_ = -1;
  int64_t applied_step_ = -1;
  std::map<std::pair<int64_t, int>, std::string> pushes_;  ///< (step, sender)
  /// (step, fetcher) -> the exact serialized fetch response, logged when the
  /// step is published. Serving reads only this, never the live slots.
  std::map<std::pair<int64_t, int>, std::string> fetch_log_;
  /// (step, destination) -> raw outbound gradient rows, logged before send.
  std::map<std::pair<int64_t, int>, std::string> push_out_log_;
  /// Highest step successfully pushed to each destination this run.
  std::vector<int64_t> push_hi_;
  /// Recovery floors (replay only): highest step each peer had already
  /// pushed to this rank's dead incarnation — those will not arrive live
  /// and are re-pulled via kFetchPush instead.
  std::vector<int64_t> push_floor_;
};

// ---- ClusterWorker: process shell -----------------------------------------

int ClusterWorker::Run() {
  // Coordinator death no longer kills the worker outright (the old
  // PDEATHSIG contract): the worker parks under the coordinator lease and
  // re-attaches to a restarted coordinator; orphans self-expire instead.
  InstallSigtermHandler();
  const Status st = Init();
  if (!st.ok()) {
    HT_LOG(ERROR) << "cluster worker failed to start: " << st.ToString();
    return 1;
  }
  HT_LOG(INFO) << "cluster worker r" << rank_ << " up at "
               << transport_->bound_addr() << " (pid " << ::getpid() << ")";
  MainLoop();
  ClearAdopted(~0ULL);
  transport_->Shutdown();
  return 0;
}

Status ClusterWorker::Init() {
  const char* rank_s = std::getenv(kEnvDistRank);
  const char* coord_s = std::getenv(kEnvDistCoord);
  const char* cfg_s = std::getenv(kEnvDistConfig);
  if (rank_s == nullptr || coord_s == nullptr || cfg_s == nullptr) {
    return Status::Invalid(
        "worker role needs HONGTU_DIST_RANK/COORD/CONFIG set");
  }
  rank_ = std::atoi(rank_s);
  HT_ASSIGN_OR_RETURN(cfg_, DecodeClusterConfig(cfg_s));
  W_ = cfg_.num_workers;
  coord_ = W_;
  if (rank_ < 0 || rank_ >= W_) {
    return Status::Invalid("worker rank out of range: " + std::string(rank_s));
  }
  if (const char* ke = std::getenv(kEnvDistKillEpoch)) {
    kill_epoch_ = std::atoll(ke);
  }
  if (const char* kr = std::getenv(kEnvDistKillOnRecover)) {
    kill_on_recover_ = kr[0] != '\0' && kr[0] != '0';
  }

  // Rebuild the exact training problem from provenance — the graph itself
  // never crosses the wire.
  HT_ASSIGN_OR_RETURN(
      ds_, LoadDatasetScaled(cfg_.dataset, cfg_.dataset_scale,
                             cfg_.dataset_seed));
  V_ = ds_.graph.num_vertices();
  L_ = static_cast<int>(cfg_.model_dims.size()) - 1;
  dims_ = cfg_.model_dims;

  TwoLevelOptions topts;
  topts.metis.seed = cfg_.partition_seed;
  HT_ASSIGN_OR_RETURN(
      tl_, BuildTwoLevelPartition(ds_.graph, W_, cfg_.chunks_per_partition,
                                  topts));
  const DedupLevel level = static_cast<DedupLevel>(cfg_.dedup_level);
  if (level == DedupLevel::kNone) {
    return Status::Invalid(
        "cluster backend requires owner-grouped transition buffers "
        "(dedup kP2P or kP2PReuse)");
  }
  if (cfg_.reorganize) {
    HT_RETURN_IF_ERROR(ReorganizePartition(&tl_).status());
  }
  HT_ASSIGN_OR_RETURN(plan_, BuildDedupPlan(tl_, level));
  n_ = plan_.num_chunks;

  kb_ = kernels::ActiveBackend();
  packed_ = cfg_.wire != kernels::CommPrecision::kFp32;
  elem_bytes_ = kernels::CommElemBytes(cfg_.wire);

  for (int64_t v = 0; v < V_; ++v) {
    if (ds_.split[v] == SplitRole::kTrain) ++global_train_;
  }

  peer_addrs_.assign(W_, "");

  Transport::Options topt;
  topt.rank = rank_;
  topt.heartbeat_interval_s = cfg_.heartbeat_interval_s;
  topt.peer_timeout_s = cfg_.peer_timeout_s;
  topt.io_deadline_s = cfg_.rpc_deadline_s;
  transport_.reset(new Transport(topt));
  transport_->set_handler(
      [this](Transport::Request&& req) { OnRequest(std::move(req)); });
  transport_->set_death_callback([this](int rank, const std::string& why) {
    if (rank != coord_) return;
    HT_LOG(WARNING) << "worker r" << rank_ << ": coordinator lost (" << why
                    << ") — parking for up to " << cfg_.coord_lease_s << "s";
    LogRecoveryEvent("coord_park", coord_term_.load(std::memory_order_relaxed),
                     rank_, 0.0, why);
    coord_dead_since_.store(NowS(), std::memory_order_relaxed);
    pcv_.notify_all();
  });
  std::string listen_addr;
  if (cfg_.transport == "uds") {
    listen_addr = "uds:" + cfg_.runtime_dir + "/w" + std::to_string(rank_) +
                  "." + std::to_string(::getpid()) + ".sock";
  } else {
    listen_addr = "tcp:127.0.0.1:0";
  }
  HT_RETURN_IF_ERROR(transport_->Listen(listen_addr));
  transport_->SetPeer(coord_, coord_s);
  // Self-dial: an adopted rank hosted here fetches from the primary rank
  // (and vice versa) over the same transport path as any remote peer.
  transport_->SetPeer(rank_, transport_->bound_addr());
  peer_addrs_[rank_] = transport_->bound_addr();

  primary_.reset(new RankState(this, rank_));
  HT_RETURN_IF_ERROR(primary_->Prepare());

  WireWriter hello;
  hello.U32(static_cast<uint32_t>(rank_));
  hello.Str(transport_->bound_addr());
  hello.U64(static_cast<uint64_t>(::getpid()));
  HT_ASSIGN_OR_RETURN(
      const std::string hr,
      transport_->Call(coord_, MsgType::kHello, hello.Take(), 30.0));
  // The hello ack advertises the coordinator's fencing term.
  if (!hr.empty()) {
    WireReader rr(hr);
    auto term_r = rr.U64();
    if (term_r.ok()) {
      coord_term_.store(term_r.ValueOrDie(), std::memory_order_relaxed);
      transport_->set_term(term_r.ValueOrDie());
    }
  }
  transport_->StartHeartbeatTo(coord_);
  // Watch the coordinator back (it heartbeats us): silence or connection
  // EOF parks this worker instead of leaving it wedged on a dead peer.
  transport_->WatchPeer(coord_);
  return Status::OK();
}

void ClusterWorker::MainLoop() {
  for (;;) {
    Frame cmd;
    {
      std::unique_lock<std::mutex> lk(pmu_);
      while (cmds_.empty()) {
        pcv_.wait_for(lk, std::chrono::milliseconds(200));
        if (SigtermRequested()) {
          HT_LOG(INFO) << "cluster worker r" << rank_
                       << ": SIGTERM — draining and exiting";
          return;
        }
        const double dead = coord_dead_since_.load(std::memory_order_relaxed);
        if (dead > 0.0 && NowS() >= dead + cfg_.coord_lease_s) {
          HT_LOG(WARNING) << "cluster worker r" << rank_
                          << ": coordinator lease expired ("
                          << cfg_.coord_lease_s << "s with no successor) — "
                          << "exiting";
          return;
        }
      }
      cmd = std::move(cmds_.front());
      cmds_.pop_front();
    }
    if (SigtermRequested()) {
      HT_LOG(INFO) << "cluster worker r" << rank_
                   << ": SIGTERM — draining and exiting";
      return;
    }
    switch (cmd.type) {
      case MsgType::kShutdown:
        HT_LOG(INFO) << "cluster worker r" << rank_ << " shutting down";
        return;
      case MsgType::kEpoch:
        RunEpochCmd(cmd.payload);
        break;
      case MsgType::kEval:
        RunEvalCmd(cmd.payload);
        break;
      default:
        HT_LOG(WARNING) << "worker r" << rank_ << ": unexpected command "
                        << MsgTypeName(cmd.type);
        break;
    }
  }
}

void ClusterWorker::OnRequest(Transport::Request&& req) {
  if (IsCoordinatorCommand(req.frame.type)) {
    // Term fencing: reject commands from a superseded coordinator
    // incarnation (non-transient, so its retry loop gives up immediately)
    // and adopt a successor's newer term.
    uint64_t known = coord_term_.load(std::memory_order_relaxed);
    const Status fence = CheckCoordinatorTerm(req.frame.term, &known);
    if (!fence.ok()) {
      HT_LOG(WARNING) << "worker r" << rank_ << ": fenced "
                      << MsgTypeName(req.frame.type) << ": "
                      << fence.ToString();
      req.reply_error(fence);
      return;
    }
    uint64_t cur = coord_term_.load(std::memory_order_relaxed);
    while (cur < known &&
           !coord_term_.compare_exchange_weak(cur, known,
                                              std::memory_order_relaxed)) {
    }
    if (transport_->term() < known) transport_->set_term(known);
    // Any term-valid coordinator command proves the coordinator (or its
    // successor) is alive: leave the parked state and re-arm the watch.
    const double parked =
        coord_dead_since_.exchange(0.0, std::memory_order_relaxed);
    if (parked > 0.0) {
      transport_->WatchPeer(coord_);
      LogRecoveryEvent("coord_reattach", known, rank_, NowS() - parked,
                       std::string("via ") + MsgTypeName(req.frame.type));
    }
  }
  switch (req.frame.type) {
    case MsgType::kCoordUpdate:
      HandleCoordUpdate(req);
      return;
    case MsgType::kEpoch:
    case MsgType::kEval:
    case MsgType::kShutdown: {
      // Long commands: ack now, execute on the main thread.
      {
        std::lock_guard<std::mutex> lk(pmu_);
        cmds_.push_back(std::move(req.frame));
      }
      pcv_.notify_all();
      req.reply(MsgType::kAck, "");
      return;
    }
    case MsgType::kAbort: {
      WireReader r(req.frame.payload);
      auto run = r.U64();
      if (!run.ok()) {
        req.reply_error(run.status());
        return;
      }
      primary_->Abort(run.ValueOrDie());
      std::vector<std::shared_ptr<RankState>> extra;
      {
        std::lock_guard<std::mutex> lk(pmu_);
        for (auto& kv : adopted_) extra.push_back(kv.second.state);
      }
      for (auto& s : extra) s->Abort(run.ValueOrDie());
      req.reply(MsgType::kAck, "");
      return;
    }
    case MsgType::kFetchRows: {
      WireReader r(req.frame.payload);
      auto run_r = r.U64();
      auto step_r = r.U32();
      auto owner_r = r.U32();
      auto req_r = r.U32();
      if (!run_r.ok() || !step_r.ok() || !owner_r.ok() || !req_r.ok()) {
        req.reply_error(Status::DataLoss("malformed kFetchRows payload"));
        return;
      }
      const int owner = static_cast<int>(owner_r.ValueOrDie());
      const int requester = static_cast<int>(req_r.ValueOrDie());
      if (owner < 0 || owner >= W_ || requester < 0 || requester >= W_) {
        req.reply_error(Status::Invalid("fetch names an unknown rank"));
        return;
      }
      auto st = FindState(owner);
      if (st == nullptr) {
        // Transient by design: during an adoption handoff the requester
        // retries until the new host registers the rank.
        req.reply_error(Status::Unavailable(
            "rank r" + std::to_string(owner) + " is not hosted here"));
        return;
      }
      st->HandleFetch(req, run_r.ValueOrDie(),
                      static_cast<int64_t>(step_r.ValueOrDie()), requester);
      return;
    }
    case MsgType::kGradPush: {
      WireReader r(req.frame.payload);
      auto run_r = r.U64();
      auto step_r = r.U32();
      auto owner_r = r.U32();
      auto snd_r = r.U32();
      if (!run_r.ok() || !step_r.ok() || !owner_r.ok() || !snd_r.ok()) {
        req.reply_error(Status::DataLoss("malformed kGradPush payload"));
        return;
      }
      const int owner = static_cast<int>(owner_r.ValueOrDie());
      const int sender = static_cast<int>(snd_r.ValueOrDie());
      if (owner < 0 || owner >= W_ || sender < 0 || sender >= W_) {
        req.reply_error(Status::Invalid("push names an unknown rank"));
        return;
      }
      auto st = FindState(owner);
      if (st == nullptr) {
        req.reply_error(Status::Unavailable(
            "rank r" + std::to_string(owner) + " is not hosted here"));
        return;
      }
      // The remainder after {run u64, step u32, owner u32, sender u32} is
      // the raw gradient row block.
      st->HandlePush(req, run_r.ValueOrDie(),
                     static_cast<int64_t>(step_r.ValueOrDie()), sender,
                     req.frame.payload.substr(20));
      return;
    }
    case MsgType::kSyncState: {
      WireReader r(req.frame.payload);
      auto run_r = r.U64();
      auto owner_r = r.U32();
      auto asker_r = r.U32();
      if (!run_r.ok() || !owner_r.ok() || !asker_r.ok()) {
        req.reply_error(Status::DataLoss("malformed kSyncState payload"));
        return;
      }
      const int owner = static_cast<int>(owner_r.ValueOrDie());
      const int asker = static_cast<int>(asker_r.ValueOrDie());
      if (owner < 0 || owner >= W_ || asker < 0 || asker >= W_) {
        req.reply_error(Status::Invalid("sync_state names an unknown rank"));
        return;
      }
      auto st = FindState(owner);
      if (st == nullptr) {
        req.reply_error(Status::Unavailable(
            "rank r" + std::to_string(owner) + " is not hosted here"));
        return;
      }
      st->HandleSyncState(req, run_r.ValueOrDie(), asker);
      return;
    }
    case MsgType::kFetchPush: {
      WireReader r(req.frame.payload);
      auto run_r = r.U64();
      auto step_r = r.U32();
      auto owner_r = r.U32();
      auto asker_r = r.U32();
      if (!run_r.ok() || !step_r.ok() || !owner_r.ok() || !asker_r.ok()) {
        req.reply_error(Status::DataLoss("malformed kFetchPush payload"));
        return;
      }
      const int owner = static_cast<int>(owner_r.ValueOrDie());
      const int asker = static_cast<int>(asker_r.ValueOrDie());
      if (owner < 0 || owner >= W_ || asker < 0 || asker >= W_) {
        req.reply_error(Status::Invalid("fetch_push names an unknown rank"));
        return;
      }
      auto st = FindState(owner);
      if (st == nullptr) {
        req.reply_error(Status::Unavailable(
            "rank r" + std::to_string(owner) + " is not hosted here"));
        return;
      }
      st->HandleFetchPush(req, run_r.ValueOrDie(),
                          static_cast<int64_t>(step_r.ValueOrDie()), asker);
      return;
    }
    case MsgType::kPeerUpdate:
      HandlePeerUpdate(req);
      return;
    case MsgType::kAdoptPartition:
      HandleAdopt(req);
      return;
    default:
      req.reply_error(Status::Invalid(std::string("worker: unexpected ") +
                                      MsgTypeName(req.frame.type)));
      return;
  }
}

std::shared_ptr<RankState> ClusterWorker::FindState(int owner) {
  if (owner == rank_) return primary_;
  std::lock_guard<std::mutex> lk(pmu_);
  auto it = adopted_.find(owner);
  return it == adopted_.end() ? nullptr : it->second.state;
}

void ClusterWorker::UpdatePeer(int peer, const std::string& addr) {
  std::lock_guard<std::mutex> lk(pmu_);
  if (peer < 0 || peer >= W_ || peer_addrs_[peer] == addr) return;
  // A recovered peer has a fresh address: drop any cached connection so the
  // next Call dials the new process.
  transport_->DropConnection(peer);
  transport_->SetPeer(peer, addr);
  peer_addrs_[peer] = addr;
}

void ClusterWorker::ExtendGrace() {
  const double until = NowS() + cfg_.recovery_grace_s;
  double cur = grace_until_.load(std::memory_order_relaxed);
  while (cur < until && !grace_until_.compare_exchange_weak(cur, until)) {
  }
}

void ClusterWorker::HandlePeerUpdate(Transport::Request& req) {
  WireReader r(req.frame.payload);
  auto run_r = r.U64();
  auto rank_r = r.U32();
  auto addr_r = r.Str();
  if (!run_r.ok() || !rank_r.ok() || !addr_r.ok()) {
    req.reply_error(Status::DataLoss("malformed kPeerUpdate payload"));
    return;
  }
  const int peer = static_cast<int>(rank_r.ValueOrDie());
  if (peer < 0 || peer >= W_) {
    req.reply_error(Status::Invalid("peer update for unknown rank"));
    return;
  }
  if (kill_on_recover_ && peer != rank_ && !kill_fired_.exchange(true)) {
    // Double-fault drill: die deterministically in the middle of another
    // rank's recovery, before acking the update.
    HT_LOG(WARNING) << "worker r" << rank_
                    << ": kill-during-recovery drill — raising SIGKILL";
    ::raise(SIGKILL);
  }
  UpdatePeer(peer, addr_r.ValueOrDie());
  ExtendGrace();
  req.reply(MsgType::kAck, "");
}

void ClusterWorker::HandleCoordUpdate(Transport::Request& req) {
  // A restarted coordinator announcing itself: {term, new endpoint}. The
  // fencing preamble already validated/adopted the term and un-parked us.
  WireReader r(req.frame.payload);
  auto term_r = r.U64();
  auto addr_r = r.Str();
  if (!term_r.ok() || !addr_r.ok()) {
    req.reply_error(Status::DataLoss("malformed kCoordUpdate payload"));
    return;
  }
  transport_->DropConnection(coord_);
  transport_->SetPeer(coord_, addr_r.ValueOrDie());
  transport_->WatchPeer(coord_);
  const uint64_t cur_run = primary_->current_run();
  HT_LOG(INFO) << "worker r" << rank_ << ": re-attached to coordinator at "
               << addr_r.ValueOrDie() << " (term " << term_r.ValueOrDie()
               << ", current run " << cur_run << ")";
  primary_->RecordDegrade(fault::DegradeEvent::kWorkerReattach,
                          "re-attached to coordinator term " +
                              std::to_string(term_r.ValueOrDie()));
  // Reply with who we are and which run we are inside, so the successor can
  // decide whether we must rejoin its resumed run.
  WireWriter w;
  w.U32(static_cast<uint32_t>(rank_));
  w.U64(cur_run);
  req.reply(MsgType::kAck, w.Take());
  pcv_.notify_all();
}

void ClusterWorker::HandleAdopt(Transport::Request& req) {
  WireReader r(req.frame.payload);
  auto run_r = r.U64();
  auto epoch_r = r.U64();
  auto rank_r = r.U32();
  if (!run_r.ok() || !epoch_r.ok() || !rank_r.ok()) {
    req.reply_error(Status::DataLoss("malformed kAdoptPartition payload"));
    return;
  }
  const uint64_t run = run_r.ValueOrDie();
  const int64_t epoch = static_cast<int64_t>(epoch_r.ValueOrDie());
  const int adopt = static_cast<int>(rank_r.ValueOrDie());
  if (adopt < 0 || adopt >= W_ || adopt == rank_) {
    req.reply_error(
        Status::Invalid("cannot adopt rank " + std::to_string(adopt)));
    return;
  }
  {
    std::lock_guard<std::mutex> lk(pmu_);
    if (adopted_.count(adopt) != 0) {
      // Duplicate of a retried kAdoptPartition whose ack was lost.
      req.reply(MsgType::kAck, "");
      return;
    }
  }
  const std::string tail =
      req.frame.payload.substr(req.frame.payload.size() - r.remaining());
  std::shared_ptr<RankState> st(new RankState(this, adopt));
  const Status ps = st->Prepare();
  if (!ps.ok()) {
    req.reply_error(ps);
    return;
  }
  ExtendGrace();
  {
    std::lock_guard<std::mutex> lk(pmu_);
    Adopted& a = adopted_[adopt];
    a.state = st;
    a.thread = std::thread([st, run, epoch, tail] {
      st->ExecuteEpoch(run, epoch, /*recover=*/true, tail);
    });
  }
  HT_LOG(INFO) << "worker r" << rank_ << ": adopted partition r" << adopt
               << " for run " << run;
  req.reply(MsgType::kAck, "");
}

void ClusterWorker::ClearAdopted(uint64_t abort_upto) {
  std::map<int, Adopted> old;
  {
    std::lock_guard<std::mutex> lk(pmu_);
    old.swap(adopted_);
  }
  for (auto& kv : old) {
    kv.second.state->Abort(abort_upto);
    if (kv.second.thread.joinable()) kv.second.thread.join();
  }
}

void ClusterWorker::RunEpochCmd(const std::string& payload) {
  WireReader r(payload);
  auto run_r = r.U64();
  auto epoch_r = r.U64();
  auto rec_r = r.U32();
  if (!run_r.ok() || !epoch_r.ok() || !rec_r.ok()) {
    HT_LOG(WARNING) << "worker r" << rank_ << ": malformed kEpoch payload";
    return;
  }
  const uint64_t run = run_r.ValueOrDie();
  // Adopted ranks belong to an earlier run; their real process takes over.
  ClearAdopted(run > 0 ? run - 1 : 0);
  const std::string tail = payload.substr(payload.size() - r.remaining());
  primary_->ExecuteEpoch(run, static_cast<int64_t>(epoch_r.ValueOrDie()),
                         rec_r.ValueOrDie() != 0, tail);
}

void ClusterWorker::RunEvalCmd(const std::string& payload) {
  WireReader r(payload);
  auto run_r = r.U64();
  auto role_r = r.U32();
  if (!run_r.ok() || !role_r.ok()) {
    HT_LOG(WARNING) << "worker r" << rank_ << ": malformed kEval payload";
    return;
  }
  const uint64_t run = run_r.ValueOrDie();
  ClearAdopted(run > 0 ? run - 1 : 0);
  const std::string tail = payload.substr(payload.size() - r.remaining());
  primary_->ExecuteEval(run, static_cast<SplitRole>(role_r.ValueOrDie()),
                        tail);
}

// ---- RankState: per-hosted-rank training state -----------------------------

RankState::RankState(ClusterWorker* host, int rank)
    : host_(host),
      rank_(rank),
      W_(host->W_),
      coord_(host->coord_),
      L_(host->L_),
      n_(host->n_),
      V_(host->V_),
      kill_epoch_(rank == host->rank_ ? host->kill_epoch_ : kNoKillEpoch),
      cfg_(host->cfg_),
      ds_(host->ds_),
      tl_(host->tl_),
      plan_(host->plan_),
      transport_(host->transport_.get()),
      kb_(host->kb_),
      packed_(host->packed_),
      elem_bytes_(host->elem_bytes_),
      dims_(host->dims_),
      global_train_(host->global_train_) {}

Status RankState::Prepare() {
  ModelConfig mc;
  mc.kind = cfg_.model_kind;
  mc.dims = cfg_.model_dims;
  mc.seed = cfg_.model_seed;
  HT_ASSIGN_OR_RETURN(model_, GnnModel::Create(mc));

  // Expected fetchers (== gradient pushers) per batch: peers whose fetch
  // plan has a nonempty group for this rank as owner.
  fetchers_.assign(n_, {});
  for (int j = 0; j < n_; ++j) {
    for (int w = 0; w < W_; ++w) {
      if (w == rank_) continue;
      const FetchPlan& fp = plan_.fetch[w][j];
      if (fp.group_off[rank_ + 1] > fp.group_off[rank_]) {
        fetchers_[j].push_back(w);
      }
    }
  }

  own_train_.clear();
  for (int64_t v = 0; v < V_; ++v) {
    if (ds_.split[v] == SplitRole::kTrain && tl_.partition_of[v] == rank_) {
      own_train_.push_back(v);
    }
  }

  h_.resize(L_ + 1);
  grad_.resize(L_ + 1);
  agg_.clear();
  agg_.resize(static_cast<size_t>(L_) * n_);
  push_hi_.assign(W_, -1);
  push_floor_.assign(W_, -1);
  return Status::OK();
}

void RankState::Abort(uint64_t run) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    max_aborted_run_ = std::max(max_aborted_run_, run);
    if (cur_run_ != 0 && cur_run_ <= run) abort_cur_ = true;
  }
  cv_.notify_all();
}

Status RankState::RetryRpc(const char* site,
                           const std::function<Status()>& fn) {
  // Short per-attempt deadline (the peer timeout), bounded total budget per
  // burst; the outer loop keeps retrying past the budget only while a
  // recovery grace window is open (a peer is being respawned or adopted).
  fault::RetryPolicy pol = fault::DefaultRetryPolicy();
  pol.max_attempts = std::max(pol.max_attempts, 16);
  pol.total_deadline_s = cfg_.rpc_deadline_s * 2.0;
  for (;;) {
    const Status st = fault::RetryTransient(pol, &degrade_, site, fn);
    if (st.ok() || !st.IsTransient()) return st;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (abort_cur_) return Status::Internal("run aborted");
    }
    // Keep retrying while a peer recovery grace window is open, or while a
    // dead coordinator's lease still allows a successor to appear (so a
    // finished epoch's report survives a coordinator restart).
    if (NowS() >= host_->grace_until() && !host_->InCoordLease()) return st;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

Status RankState::WaitCond(std::unique_lock<std::mutex>& lk, double budget_s,
                           const std::function<bool()>& pred,
                           const std::string& what) {
  const double start = NowS();
  for (;;) {
    if (pred()) return Status::OK();
    if (abort_cur_) return Status::Internal("run aborted");
    const double now = NowS();
    if (now >= start + budget_s && now >= host_->grace_until()) {
      return Status::Unavailable("timed out waiting for " + what);
    }
    cv_.wait_for(lk, std::chrono::milliseconds(50));
  }
}

std::string RankState::BuildFetchPayload(int requester, int64_t step) const {
  const int l = LayerOf(step);
  const int j = BatchOf(step);
  const size_t row_b = RowBytes(dims_[l]);
  const FetchPlan& fp = plan_.fetch[requester][j];
  const int64_t b = fp.group_off[rank_];
  const int64_t e = fp.group_off[rank_ + 1];
  std::string out;
  out.resize(static_cast<size_t>(e - b) * row_b);
  for (int64_t k = b; k < e; ++k) {
    std::memcpy(&out[static_cast<size_t>(k - b) * row_b],
                trans_.row(fp.group_slot[k]), row_b);
  }
  return out;
}

void RankState::HandleFetch(Transport::Request& req, uint64_t run,
                            int64_t step, int requester) {
  std::string payload;
  Status err = Status::OK();
  {
    std::unique_lock<std::mutex> lk(mu_);
    const double start = NowS();
    for (;;) {
      if (cur_run_ > run || run <= max_aborted_run_) {
        err = Status::Unavailable("fetch for stale run");
        break;
      }
      if (cur_run_ == run) {
        if (abort_cur_) {
          err = Status::Unavailable("run aborted");
          break;
        }
        auto it = fetch_log_.find({step, requester});
        if (it != fetch_log_.end()) {
          payload = it->second;
          break;
        }
      }
      const double now = NowS();
      if (now >= start + cfg_.rpc_deadline_s && now >= host_->grace_until()) {
        err = Status::Unavailable(
            "fetch wait timed out (run " + std::to_string(run) + " step " +
            std::to_string(step) + ", published " +
            std::to_string(published_step_) + ")");
        break;
      }
      cv_.wait_for(lk, std::chrono::milliseconds(50));
    }
  }
  if (!err.ok()) {
    req.reply_error(err);
    return;
  }
  req.reply(MsgType::kAck, std::move(payload));
}

void RankState::HandlePush(Transport::Request& req, uint64_t run,
                           int64_t step, int sender, std::string body) {
  Status err = Status::OK();
  {
    std::unique_lock<std::mutex> lk(mu_);
    const double start = NowS();
    while (cur_run_ < run && run > max_aborted_run_) {
      const double now = NowS();
      if (now >= start + cfg_.rpc_deadline_s && now >= host_->grace_until()) {
        break;
      }
      cv_.wait_for(lk, std::chrono::milliseconds(50));
    }
    if (cur_run_ != run || run <= max_aborted_run_) {
      err = Status::Unavailable("push for stale run");
    } else if (abort_cur_) {
      err = Status::Unavailable("run aborted");
    } else if (applied_step_ < step) {
      // Duplicates (a replaying sender re-pushing an applied step, or a
      // resend after a lost ack) either overwrite with identical bytes or
      // are dropped by the applied_step_ guard — idempotent both ways.
      pushes_[{step, sender}] = std::move(body);
    }
  }
  if (!err.ok()) {
    req.reply_error(err);
    return;
  }
  cv_.notify_all();
  req.reply(MsgType::kAck, "");
}

void RankState::HandleSyncState(Transport::Request& req, uint64_t run,
                                int asker) {
  int64_t hi = -1;
  Status err = Status::OK();
  {
    std::unique_lock<std::mutex> lk(mu_);
    const double start = NowS();
    while (cur_run_ < run && run > max_aborted_run_) {
      const double now = NowS();
      if (now >= start + cfg_.rpc_deadline_s && now >= host_->grace_until()) {
        break;
      }
      cv_.wait_for(lk, std::chrono::milliseconds(50));
    }
    if (cur_run_ != run || run <= max_aborted_run_) {
      err = Status::Unavailable("sync_state for stale run");
    } else {
      hi = push_hi_[asker];
    }
  }
  if (!err.ok()) {
    req.reply_error(err);
    return;
  }
  WireWriter w;
  w.I64(hi);
  req.reply(MsgType::kAck, w.Take());
}

void RankState::HandleFetchPush(Transport::Request& req, uint64_t run,
                                int64_t step, int asker) {
  std::string rows;
  Status err = Status::OK();
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (cur_run_ != run || run <= max_aborted_run_) {
      err = Status::Unavailable("fetch_push for stale run");
    } else {
      auto it = push_out_log_.find({step, asker});
      if (it == push_out_log_.end()) {
        // Not logged yet — this rank may itself be replaying toward the
        // step. Transient: the asker retries under the grace window.
        err = Status::Unavailable("push (step " + std::to_string(step) +
                                  " -> r" + std::to_string(asker) +
                                  ") not logged yet");
      } else {
        rows = it->second;
      }
    }
  }
  if (!err.ok()) {
    req.reply_error(err);
    return;
  }
  req.reply(MsgType::kAck, std::move(rows));
}

Status RankState::SetupRun(WireReader* r) {
  HT_ASSIGN_OR_RETURN(uint32_t w_count, r->U32());
  if (static_cast<int>(w_count) != W_) {
    return Status::Invalid("run announces " + std::to_string(w_count) +
                           " workers, expected " + std::to_string(W_));
  }
  for (int w = 0; w < W_; ++w) {
    HT_ASSIGN_OR_RETURN(std::string addr, r->Str());
    host_->UpdatePeer(w, addr);
  }
  HT_ASSIGN_OR_RETURN(uint32_t p_count, r->U32());
  auto params = model_.AllParams();
  if (p_count != params.size()) {
    return Status::Invalid("run broadcast has " + std::to_string(p_count) +
                           " params, model has " +
                           std::to_string(params.size()));
  }
  for (Tensor* p : params) {
    HT_ASSIGN_OR_RETURN(uint64_t rows, r->U64());
    HT_ASSIGN_OR_RETURN(uint64_t cols, r->U64());
    if (static_cast<int64_t>(rows) != p->rows() ||
        static_cast<int64_t>(cols) != p->cols()) {
      return Status::Invalid("parameter shape mismatch in run broadcast");
    }
    HT_RETURN_IF_ERROR(
        r->Raw(p->data(), static_cast<size_t>(p->size()) * sizeof(float)));
  }
  return Status::OK();
}

Status RankState::SyncRecoveryFloors(uint64_t run) {
  std::set<int> senders;
  for (int j = 0; j < n_; ++j) {
    for (int w : fetchers_[j]) senders.insert(w);
  }
  for (int w : senders) {
    WireWriter q;
    q.U64(run);
    q.U32(static_cast<uint32_t>(w));      // owner: whose watermark
    q.U32(static_cast<uint32_t>(rank_));  // asker: the recovering rank
    const std::string q_payload = q.Take();
    int64_t hi = -1;
    const Status st = RetryRpc("net.sync_state", [&]() -> Status {
      {
        std::lock_guard<std::mutex> lk(mu_);
        if (abort_cur_) return Status::Internal("run aborted");
      }
      auto res = transport_->Call(w, MsgType::kSyncState, q_payload,
                                  AttemptDeadlineS());
      if (!res.ok()) return res.status();
      WireReader rr(res.ValueOrDie());
      HT_ASSIGN_OR_RETURN(hi, rr.I64());
      return Status::OK();
    });
    HT_RETURN_IF_ERROR(st);
    std::lock_guard<std::mutex> lk(mu_);
    push_floor_[w] = hi;
  }
  HT_LOG(INFO) << "worker replay r" << rank_ << ": recovery floors synced ("
               << senders.size() << " peers)";
  return Status::OK();
}

void RankState::ExecuteEpoch(uint64_t run, int64_t epoch, bool recover,
                             const std::string& tail) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (run <= max_aborted_run_) return;  // aborted while queued
    // cur_run_ first: a peer recovering at the same time may already be
    // asking this state for its watermarks.
    cur_run_ = run;
    abort_cur_ = false;
    published_step_ = -1;
    applied_step_ = -1;
    pushes_.clear();
    fetch_log_.clear();
    push_out_log_.clear();
    push_hi_.assign(W_, -1);
    push_floor_.assign(W_, -1);
  }
  cv_.notify_all();
  if (recover) host_->ExtendGrace();
  WireReader r(tail);
  Status st = SetupRun(&r);
  if (st.ok() && recover) st = SyncRecoveryFloors(run);
  if (st.ok()) {
    degrade_.ResetEpoch();
    model_.ZeroGrads();
    loss_sum_ = acc_sum_ = 0.0;
    n_own_ = 0;
    st = TrainEpoch(run, epoch);
  }
  WireWriter w;
  w.U64(run);
  w.U32(static_cast<uint32_t>(rank_));
  w.U32(st.ok() ? 1 : 0);
  w.Str(st.ok() ? "" : st.ToString());
  w.F64(loss_sum_);
  w.F64(acc_sum_);
  w.U64(static_cast<uint64_t>(n_own_));
  const fault::RecoveryCounters rec = degrade_.SnapshotEpoch();
  w.U32(fault::kNumDegradeEvents);
  for (int e = 0; e < fault::kNumDegradeEvents; ++e) w.I64(rec.counts[e]);
  if (st.ok()) {
    auto grads = model_.AllGrads();
    w.U32(static_cast<uint32_t>(grads.size()));
    for (Tensor* g : grads) {
      w.U64(static_cast<uint64_t>(g->rows()));
      w.U64(static_cast<uint64_t>(g->cols()));
      w.Bytes(g->data(), static_cast<size_t>(g->size()) * sizeof(float));
    }
  } else {
    w.U32(0);
    HT_LOG(WARNING) << "worker r" << rank_ << ": epoch run " << run
                    << " failed: " << st.ToString();
  }
  // The report must arrive or the coordinator's watchdog eventually fires;
  // retry delivery — a resend after a dropped frame or lost ack is deduped
  // by the coordinator's !received guard.
  const std::string report = w.Take();
  const Status dr = RetryRpc("net.epoch_done", [&]() -> Status {
    return transport_
        ->Call(coord_, MsgType::kEpochDone, report, AttemptDeadlineS())
        .status();
  });
  if (!dr.ok()) {
    HT_LOG(WARNING) << "worker r" << rank_ << ": kEpochDone delivery failed: "
                    << dr.ToString();
  }
}

void RankState::ExecuteEval(uint64_t run, SplitRole role,
                            const std::string& tail) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (run <= max_aborted_run_) return;
    cur_run_ = run;
    abort_cur_ = false;
    published_step_ = -1;
    applied_step_ = -1;
    pushes_.clear();
    fetch_log_.clear();
    push_out_log_.clear();
    push_hi_.assign(W_, -1);
    push_floor_.assign(W_, -1);
  }
  cv_.notify_all();
  WireReader r(tail);
  Status st = SetupRun(&r);
  if (st.ok()) st = ForwardPhase(run);
  uint64_t correct = 0, total = 0;
  if (st.ok()) {
    const Tensor& logits = L_ == 0 ? ds_.features : h_[L_];
    const int C = dims_[L_];
    for (int64_t v = 0; v < V_; ++v) {
      if (tl_.partition_of[v] != rank_ || ds_.split[v] != role) continue;
      const float* row = logits.row(v);
      int best = 0;
      for (int c = 1; c < C; ++c) {
        if (row[c] > row[best]) best = c;
      }
      total++;
      if (best == ds_.labels[v]) correct++;
    }
  }
  WireWriter w;
  w.U64(run);
  w.U32(static_cast<uint32_t>(rank_));
  w.U32(st.ok() ? 1 : 0);
  w.Str(st.ok() ? "" : st.ToString());
  w.U64(correct);
  w.U64(total);
  const std::string report = w.Take();
  const Status dr = RetryRpc("net.eval_done", [&]() -> Status {
    return transport_
        ->Call(coord_, MsgType::kEvalDone, report, AttemptDeadlineS())
        .status();
  });
  if (!dr.ok()) {
    HT_LOG(WARNING) << "worker r" << rank_ << ": kEvalDone delivery failed: "
                    << dr.ToString();
  }
}

Status RankState::TrainEpoch(uint64_t run, int64_t epoch) {
  HT_RETURN_IF_ERROR(ForwardPhase(run));
  if (epoch == kill_epoch_) {
    // Deterministic failure drill: die between forward and backward, with
    // the epoch's communication in full flight on the peers.
    HT_LOG(WARNING) << "worker r" << rank_ << ": kill drill at epoch "
                    << epoch << " — raising SIGKILL";
    ::raise(SIGKILL);
  }
  HT_RETURN_IF_ERROR(ComputeLossAndSeed());
  for (int l = L_ - 1; l >= 0; --l) {
    if (l > 0) {
      grad_[l].EnsureShapeZeroed(V_, dims_[l]);
      tgrad_.EnsureShapeZeroed(plan_.buffer_slots[rank_], dims_[l]);
    }
    for (int j = 0; j < n_; ++j) {
      const int64_t s = static_cast<int64_t>(L_) * n_ +
                        static_cast<int64_t>(L_ - 1 - l) * n_ + j;
      HT_RETURN_IF_ERROR(DoStep(run, s, l, j, /*backward=*/true));
    }
  }
  return Status::OK();
}

Status RankState::ForwardPhase(uint64_t run) {
  for (int l = 0; l < L_; ++l) {
    h_[l + 1].EnsureShape(V_, dims_[l + 1]);
    for (int j = 0; j < n_; ++j) {
      const int64_t s = static_cast<int64_t>(l) * n_ + j;
      HT_RETURN_IF_ERROR(DoStep(run, s, l, j, /*backward=*/false));
    }
  }
  return Status::OK();
}

Status RankState::DoStep(uint64_t run, int64_t s, int l, int j,
                         bool backward) {
  const Chunk& chunk = tl_.chunks[rank_][j];
  const LocalGraph lg = LocalGraph::FromChunk(chunk);
  Layer* layer = model_.layer(l);
  const bool cached = layer->cacheable();
  if (!backward) {
    HT_RETURN_IF_ERROR(PublishStep(run, s, l, j));
    HT_RETURN_IF_ERROR(FetchNeighbors(run, s, l, j));
    HT_RETURN_IF_ERROR(layer->Forward(lg, nb_, &out_h_,
                                      cached ? &AggCache(l, j) : nullptr));
    Tensor& hout = h_[l + 1];
    const size_t out_b = static_cast<size_t>(dims_[l + 1]) * sizeof(float);
    for (int64_t d = 0; d < chunk.num_dst(); ++d) {
      std::memcpy(hout.row(chunk.dst_vertices[d]), out_h_.row(d), out_b);
    }
    return Status::OK();
  }
  // Layer 0's input is the feature matrix: nothing reads its gradient, so
  // the step computes only parameter gradients and pushes nothing.
  const bool input_grad = l > 0;
  const int64_t nd = chunk.num_dst();
  // Copies the chunk's destination rows of `host`, through the wire codec
  // when `quantize` (kFp32 is a plain copy).
  const auto gather = [&](const Tensor& host, bool quantize, Tensor* out) {
    const int64_t dim = host.cols();
    const kernels::CommPrecision p =
        quantize ? cfg_.wire : kernels::CommPrecision::kFp32;
    out->EnsureShape(nd, dim);
    for (int64_t d = 0; d < nd; ++d) {
      kernels::QuantizeCopyRows(kb_, p, host.row(chunk.dst_vertices[d]), dim,
                                out->row(d));
    }
  };
  gather(grad_[l + 1], /*quantize=*/false, &d_dst_);
  if (input_grad) d_src_.EnsureShapeZeroed(chunk.num_neighbors(), dims_[l]);
  Tensor* ds = input_grad ? &d_src_ : nullptr;
  if (cached) {
    // The hybrid path (Fig. 4c): the forward's AGGREGATE replaces the
    // neighbour reload. The self rows cross the wire codec exactly as the
    // forward's fetched copies did, and the ReLU mask comes from h^{l+1}.
    if (layer->needs_dst_h()) {
      gather(HIn(l), /*quantize=*/true, &dst_h_);
    } else {
      dst_h_.EnsureShape(0, 0);
    }
    const bool read_out = layer->backward_reads_output();
    if (read_out) gather(h_[l + 1], /*quantize=*/false, &out_h_);
    HT_RETURN_IF_ERROR(layer->BackwardCached(lg, AggCache(l, j), dst_h_,
                                             d_dst_, ds,
                                             read_out ? &out_h_ : nullptr));
  } else {
    HT_RETURN_IF_ERROR(PublishStep(run, s, l, j));
    HT_RETURN_IF_ERROR(FetchNeighbors(run, s, l, j));
    HT_RETURN_IF_ERROR(layer->BackwardRecompute(lg, nb_, d_dst_, ds));
  }
  if (!input_grad) return Status::OK();
  return PushApplyFlush(run, s, l, j);
}

Status RankState::PublishStep(uint64_t run, int64_t s, int l, int j) {
  (void)run;
  std::unique_lock<std::mutex> lk(mu_);
  if (abort_cur_) return Status::Internal("run aborted");
  const int dim = dims_[l];
  trans_.EnsureShape(plan_.buffer_slots[rank_], PayloadCols(dim));
  const TransitionStep& ts = plan_.transition[rank_][j];
  const Tensor& hin = HIn(l);
  const size_t row_b = RowBytes(dim);
  for (size_t p = 0; p < ts.vertices.size(); ++p) {
    if (ts.reused[p]) continue;  // N^gpu: the slot already holds this vertex
    const float* src = hin.row(ts.vertices[p]);
    float* slot_row = trans_.row(ts.slots[p]);
    if (packed_) {
      kernels::EncodeRows(kb_, cfg_.wire, src, dim,
                          reinterpret_cast<uint16_t*>(slot_row));
    } else {
      std::memcpy(slot_row, src, row_b);
    }
  }
  // Log the serialized response for every expected fetcher NOW, at publish
  // time: serving reads the log, never the live slots, so slot reuse needs
  // no gate and a replaying peer is served bit-identical bytes for any step
  // of the epoch.
  for (int w : fetchers_[j]) {
    fetch_log_[{s, w}] = BuildFetchPayload(w, s);
  }
  published_step_ = s;
  lk.unlock();
  cv_.notify_all();
  return Status::OK();
}

Status RankState::FetchNeighbors(uint64_t run, int64_t s, int l, int j) {
  const Chunk& chunk = tl_.chunks[rank_][j];
  const int dim = dims_[l];
  const FetchPlan& fp = plan_.fetch[rank_][j];
  const size_t row_b = RowBytes(dim);
  nb_.EnsureShape(chunk.num_neighbors(), dim);
  for (int o = 0; o < W_; ++o) {
    const int64_t b = fp.group_off[o];
    const int64_t e = fp.group_off[o + 1];
    if (b == e) continue;
    if (o == rank_) {
      std::lock_guard<std::mutex> lk(mu_);
      for (int64_t k = b; k < e; ++k) {
        float* dst = nb_.row(fp.group_pos[k]);
        if (packed_) {
          kernels::DecodeRows(
              kb_, cfg_.wire,
              reinterpret_cast<const uint16_t*>(trans_.row(fp.group_slot[k])),
              dim, dst);
        } else {
          std::memcpy(dst, trans_.row(fp.group_slot[k]), row_b);
        }
      }
      continue;
    }
    WireWriter req;
    req.U64(run);
    req.U32(static_cast<uint32_t>(s));
    req.U32(static_cast<uint32_t>(o));      // owner
    req.U32(static_cast<uint32_t>(rank_));  // requester
    const std::string req_payload = req.Take();
    std::string resp;
    const Status st = RetryRpc("net.fetch_rows", [&]() -> Status {
      {
        std::lock_guard<std::mutex> lk(mu_);
        if (abort_cur_) return Status::Internal("run aborted");
      }
      auto r = transport_->Call(o, MsgType::kFetchRows, req_payload,
                                AttemptDeadlineS());
      if (!r.ok()) return r.status();
      resp = r.MoveValueUnsafe();
      if (resp.size() != static_cast<size_t>(e - b) * row_b) {
        return Status::DataLoss("fetch response size mismatch from rank " +
                                std::to_string(o));
      }
      return Status::OK();
    });
    HT_RETURN_IF_ERROR(st);
    const char* p = resp.data();
    for (int64_t k = b; k < e; ++k) {
      const char* src = p + static_cast<size_t>(k - b) * row_b;
      float* dst = nb_.row(fp.group_pos[k]);
      if (packed_) {
        kernels::DecodeRows(kb_, cfg_.wire,
                            reinterpret_cast<const uint16_t*>(src), dim, dst);
      } else {
        std::memcpy(dst, src, row_b);
      }
    }
  }
  return Status::OK();
}

Status RankState::PushApplyFlush(uint64_t run, int64_t s, int l, int j) {
  const int dim = dims_[l];
  const size_t row_b = RowBytes(dim);
  const FetchPlan& fp = plan_.fetch[rank_][j];

  // 1. Send this chunk's gradient contributions to every remote owner
  //    before waiting for inbound pushes (deadlock freedom: everyone sends
  //    first, then waits). The raw row block is logged before the send so a
  //    recovering destination can re-pull it (kFetchPush) after this rank
  //    has moved on.
  for (int o = 0; o < W_; ++o) {
    if (o == rank_) continue;
    const int64_t b = fp.group_off[o];
    const int64_t e = fp.group_off[o + 1];
    if (b == e) continue;
    std::string rows;
    rows.resize(static_cast<size_t>(e - b) * row_b);
    for (int64_t k = b; k < e; ++k) {
      char* dst = &rows[static_cast<size_t>(k - b) * row_b];
      if (packed_) {
        kernels::EncodeRows(kb_, cfg_.wire, d_src_.row(fp.group_pos[k]), dim,
                            reinterpret_cast<uint16_t*>(dst));
      } else {
        std::memcpy(dst, d_src_.row(fp.group_pos[k]), row_b);
      }
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      push_out_log_[{s, o}] = rows;
    }
    WireWriter w;
    w.U64(run);
    w.U32(static_cast<uint32_t>(s));
    w.U32(static_cast<uint32_t>(o));      // owner (destination)
    w.U32(static_cast<uint32_t>(rank_));  // sender
    w.Bytes(rows.data(), rows.size());
    const Status st = RetryRpc("net.grad_push", [&]() -> Status {
      {
        std::lock_guard<std::mutex> lk(mu_);
        if (abort_cur_) return Status::Internal("run aborted");
      }
      return transport_
          ->Call(o, MsgType::kGradPush, w.buf(), AttemptDeadlineS())
          .status();
    });
    HT_RETURN_IF_ERROR(st);
    {
      std::lock_guard<std::mutex> lk(mu_);
      push_hi_[o] = std::max(push_hi_[o], s);
    }
  }

  // 2. Collect the expected inbound pushes for this step. A peer that had
  //    already delivered step s to this rank's dead incarnation
  //    (s <= push_floor_) will not resend — re-pull those from its outbound
  //    log; the rest arrive live.
  const std::vector<int>& senders = fetchers_[j];
  std::map<int, std::string> inbound;
  std::vector<int> live;
  for (int w : senders) {
    bool pull;
    {
      std::lock_guard<std::mutex> lk(mu_);
      pull = s <= push_floor_[w];
    }
    if (!pull) {
      live.push_back(w);
      continue;
    }
    WireWriter q;
    q.U64(run);
    q.U32(static_cast<uint32_t>(s));
    q.U32(static_cast<uint32_t>(w));      // owner: whose outbound log
    q.U32(static_cast<uint32_t>(rank_));  // asker: original destination
    const std::string q_payload = q.Take();
    std::string resp;
    const Status st = RetryRpc("net.fetch_push", [&]() -> Status {
      {
        std::lock_guard<std::mutex> lk(mu_);
        if (abort_cur_) return Status::Internal("run aborted");
      }
      auto r = transport_->Call(w, MsgType::kFetchPush, q_payload,
                                AttemptDeadlineS());
      if (!r.ok()) return r.status();
      resp = r.MoveValueUnsafe();
      return Status::OK();
    });
    HT_RETURN_IF_ERROR(st);
    inbound[w] = std::move(resp);
  }
  {
    std::unique_lock<std::mutex> lk(mu_);
    const std::vector<int>& lv = live;
    HT_RETURN_IF_ERROR(WaitCond(
        lk, cfg_.rpc_deadline_s,
        [&] {
          for (int w : lv) {
            if (pushes_.count({s, w}) == 0) return false;
          }
          return true;
        },
        "gradient pushes for step " + std::to_string(s)));
    for (int w : live) {
      auto it = pushes_.find({s, w});
      inbound[w] = std::move(it->second);
      pushes_.erase(it);
    }
  }

  // 3. Apply contributions in sender-rank order — the fixed accumulation
  //    order is what makes the distributed epoch bit-deterministic.
  for (int w = 0; w < W_; ++w) {
    if (w == rank_) {
      const int64_t b = fp.group_off[rank_];
      const int64_t e = fp.group_off[rank_ + 1];
      for (int64_t k = b; k < e; ++k) {
        kernels::QuantizeAccumRows(kb_, cfg_.wire, d_src_.row(fp.group_pos[k]),
                                   dim, tgrad_.row(fp.group_slot[k]));
      }
      continue;
    }
    auto it = inbound.find(w);
    if (it == inbound.end()) continue;  // no group for us in batch j
    const std::string& rows = it->second;
    const FetchPlan& fpw = plan_.fetch[w][j];
    const int64_t b = fpw.group_off[rank_];
    const int64_t e = fpw.group_off[rank_ + 1];
    if (rows.size() != static_cast<size_t>(e - b) * row_b) {
      return Status::Internal("gradient push size mismatch from rank " +
                              std::to_string(w));
    }
    for (int64_t k = b; k < e; ++k) {
      const char* src = rows.data() + static_cast<size_t>(k - b) * row_b;
      float* acc = tgrad_.row(fpw.group_slot[k]);
      if (packed_) {
        kernels::DecodeAccumRows(kb_, cfg_.wire,
                                 reinterpret_cast<const uint16_t*>(src), dim,
                                 acc);
      } else {
        const float* g = reinterpret_cast<const float*>(src);
        for (int c = 0; c < dim; ++c) acc[c] += g[c];
      }
    }
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    applied_step_ = s;
  }
  cv_.notify_all();

  // 4. Flush completed slots into the host gradient buffer (one more wire
  //    crossing under a packed precision, exactly like the executor's D2H).
  const TransitionStep& ts = plan_.transition[rank_][j];
  Tensor& hg = grad_[l];
  for (size_t p = 0; p < ts.vertices.size(); ++p) {
    if (!ts.flush[p]) continue;  // retained: keeps accumulating next batch
    float* tg = tgrad_.row(ts.slots[p]);
    float* dst = hg.row(ts.vertices[p]);
    if (packed_) {
      kernels::QuantizeAccumRows(kb_, cfg_.wire, tg, dim, dst);
    } else {
      for (int c = 0; c < dim; ++c) dst[c] += tg[c];
    }
    std::memset(tg, 0, static_cast<size_t>(dim) * sizeof(float));
  }
  return Status::OK();
}

Status RankState::ComputeLossAndSeed() {
  const int C = dims_[L_];
  grad_[L_].EnsureShapeZeroed(V_, C);
  n_own_ = static_cast<int64_t>(own_train_.size());
  if (n_own_ == 0 || global_train_ == 0) {
    loss_sum_ = acc_sum_ = 0.0;
    return Status::OK();
  }
  const LossResult lr =
      SoftmaxCrossEntropy(h_[L_], ds_.labels, own_train_, &grad_[L_]);
  // SoftmaxCrossEntropy divides by the local vertex count; rescale so every
  // worker's rows carry the global 1/|train| factor of the serial engines.
  const float scale = static_cast<float>(
      static_cast<double>(n_own_) / static_cast<double>(global_train_));
  for (const VertexId v : own_train_) {
    float* g = grad_[L_].row(v);
    for (int c = 0; c < C; ++c) g[c] *= scale;
  }
  loss_sum_ = lr.loss * static_cast<double>(n_own_);
  acc_sum_ = lr.accuracy * static_cast<double>(n_own_);
  return Status::OK();
}

}  // namespace

void MaybeRunClusterWorker() {
  const char* role = std::getenv(kEnvDistRole);
  if (role == nullptr || std::string(role) != "worker") return;
  ClusterWorker worker;
  std::exit(worker.Run());
}

// ============================================================================
// Coordinator
// ============================================================================

struct ClusterCoordinator::WorkerProc {
  pid_t pid = -1;
  std::string addr;
  bool hello = false;
  bool dead = false;
};

/// One worker's parsed kEpochDone/kEvalDone report.
struct ClusterCoordinator::DoneReport {
  bool received = false;
  bool ok = false;
  std::string error;
  double loss_sum = 0.0, acc_sum = 0.0;
  uint64_t n = 0;
  uint64_t correct = 0, total = 0;
  fault::RecoveryCounters rec;
  std::vector<std::vector<float>> grads;
};

struct ClusterCoordinator::RunState {
  std::mutex mu;
  std::condition_variable cv;
  uint64_t run = 0;  ///< active run id (0 = idle)
  bool eval = false;
  int64_t epoch = 0;  ///< training epoch the active run belongs to
  std::vector<DoneReport> done;
  int done_count = 0;
  /// Deaths observed during the active run, in detection order. A queue,
  /// not a single slot: a second rank can die while the first is still
  /// being recovered (the double-fault drill), and each death gets its own
  /// recovery pass.
  std::deque<std::pair<int, std::string>> deaths;
};

Result<std::unique_ptr<ClusterCoordinator>> ClusterCoordinator::Start(
    ClusterConfig cfg) {
  if (cfg.num_workers < 1 || cfg.num_workers > 64) {
    return Status::Invalid("cluster num_workers out of range: " +
                           std::to_string(cfg.num_workers));
  }
  if (cfg.transport != "tcp" && cfg.transport != "uds") {
    return Status::Invalid("cluster transport must be tcp or uds: " +
                           cfg.transport);
  }
  if (cfg.recover_mode != "step" && cfg.recover_mode != "adopt" &&
      cfg.recover_mode != "epoch") {
    return Status::Invalid("cluster recover_mode must be step, adopt or "
                           "epoch: " + cfg.recover_mode);
  }
  if (static_cast<DedupLevel>(cfg.dedup_level) == DedupLevel::kNone) {
    return Status::Invalid(
        "cluster backend requires dedup kP2P or kP2PReuse (owner-grouped "
        "transition buffers are the wire format)");
  }
  if (cfg.model_dims.size() < 2) {
    return Status::Invalid("cluster config needs model_dims (L+1 entries)");
  }
  if (cfg.dataset.empty()) {
    return Status::Invalid("cluster config needs a dataset name");
  }

  if (cfg.resume && cfg.runtime_dir.empty() && cfg.checkpoint_dir.empty()) {
    return Status::Invalid(
        "cluster resume needs a stable runtime_dir/checkpoint_dir (the "
        "journal and checkpoints of the previous incarnation live there)");
  }
  if (const char* lease_ms = std::getenv("HONGTU_COORD_LEASE_MS")) {
    const double ms = std::atof(lease_ms);
    if (ms > 0.0) cfg.coord_lease_s = ms / 1000.0;
  }

  std::unique_ptr<ClusterCoordinator> co(new ClusterCoordinator());
  co->cfg_ = std::move(cfg);
  ClusterConfig& c = co->cfg_;
  if (c.runtime_dir.empty()) {
    // Keep the path short: uds socket paths live inside it and must fit
    // sockaddr_un (108 bytes).
    char tmpl[] = "/tmp/hongtu-dist.XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) {
      return Status::IoError(std::string("mkdtemp: ") + std::strerror(errno));
    }
    c.runtime_dir = tmpl;
    co->owns_runtime_dir_ = true;
  }
  if (c.checkpoint_dir.empty()) c.checkpoint_dir = c.runtime_dir;

  ModelConfig mc;
  mc.kind = c.model_kind;
  mc.dims = c.model_dims;
  mc.seed = c.model_seed;
  HT_ASSIGN_OR_RETURN(co->model_, GnnModel::Create(mc));
  co->adam_ = Adam(c.adam);
  for (Tensor* p : co->model_.AllParams()) co->adam_.Register(p);

  co->ckpt_.reset(new CheckpointManager(c.checkpoint_dir, &co->degrade_));

  // ---- Write-ahead journal: replay (resume) or truncate (fresh). ----------
  const double t_start = NowS();
  const std::string jpath = c.checkpoint_dir + "/cluster.journal";
  JournalState js;
  bool replayed = false;
  if (c.resume) {
    auto rec_r = ClusterJournal::Replay(jpath);
    Result<JournalState> js_r = rec_r.ok()
                                    ? BuildJournalState(rec_r.ValueOrDie())
                                    : Result<JournalState>(rec_r.status());
    if (js_r.ok()) {
      js = js_r.MoveValueUnsafe();
      replayed = true;
    } else {
      // Rung 4: the journal is damaged — fall back to the checkpoint floor
      // (fresh workers, epoch rerun) instead of refusing to recover.
      co->journal_ok_ = false;
      co->degrade_.Record(fault::DegradeEvent::kCheckpointFallback,
                          "cluster journal unreadable on restart — "
                          "checkpoint-only recovery: " +
                              js_r.status().ToString());
      HT_LOG(WARNING) << "cluster coordinator: journal '" << jpath
                      << "' unreadable (" << js_r.status().ToString()
                      << ") — falling back to checkpoint recovery";
      ::unlink(jpath.c_str());
    }
  } else {
    ::unlink(jpath.c_str());
  }

  if (c.resume) {
    // Restore the authoritative model+Adam exactly where the previous
    // incarnation durably left them.
    HT_ASSIGN_OR_RETURN(co->epochs_completed_,
                        co->ckpt_->Restore(&co->model_, &co->adam_));
  } else {
    // Epoch-0 snapshot: the floor of the recovery ladder — a worker death
    // in the very first epoch restores to here.
    HT_RETURN_IF_ERROR(co->ckpt_->Save(&co->model_, co->adam_, 0));
  }

  co->term_ = js.term + 1;
  co->next_run_ = NextRunId(js);
  if (replayed && js.run != 0 && !js.run_eval &&
      js.run_epoch == co->epochs_completed_) {
    // An in-flight training run whose epoch was not applied: adopt it under
    // its original id so already-journaled reports are never recomputed.
    co->resume_run_ = js.run;
    co->resume_epoch_ = js.run_epoch;
    co->resume_reports_ = js.reports;
  }

  const int W = c.num_workers;
  co->run_.reset(new RunState());
  co->run_->done.resize(W);
  co->workers_.resize(W);

  Transport::Options topt;
  topt.rank = W;  // coordinator rank
  topt.heartbeat_interval_s = c.heartbeat_interval_s;
  topt.peer_timeout_s = c.peer_timeout_s;
  topt.io_deadline_s = c.rpc_deadline_s;
  co->transport_.reset(new Transport(topt));
  ClusterCoordinator* self = co.get();
  co->transport_->set_handler(
      [self](Transport::Request&& req) { self->OnRequest(std::move(req)); });
  co->transport_->set_death_callback(
      [self](int rank, const std::string& why) {
        self->OnPeerDeath(rank, why);
      });
  const std::string listen_addr =
      c.transport == "uds" ? "uds:" + c.runtime_dir + "/coord.sock"
                           : "tcp:127.0.0.1:0";
  HT_RETURN_IF_ERROR(co->transport_->Listen(listen_addr));
  // Every frame this coordinator sends carries its (bumped) fencing term.
  co->transport_->set_term(co->term_);

  if (co->journal_ok_) {
    auto j_r = ClusterJournal::Open(jpath);
    if (j_r.ok()) {
      co->journal_ = j_r.MoveValueUnsafe();
    } else {
      co->journal_ok_ = false;
      HT_LOG(WARNING) << "cluster journal open failed ("
                      << j_r.status().ToString()
                      << ") — degrading to checkpoint-only recovery";
    }
  }
  {
    WireWriter w;
    w.U64(co->term_);
    (void)co->JournalAppend(JournalRecordType::kTerm, w.Take());
  }

  if (replayed && !js.members.empty()) {
    // Successor path: adopt journaled survivors, respawn the dead.
    HT_RETURN_IF_ERROR(co->ReattachOrRespawn(js));
    co->resumed_from_journal_ = true;
    co->degrade_.Record(fault::DegradeEvent::kCoordJournalReplay,
                        "coordinator restarted from journal: term " +
                            std::to_string(co->term_) + ", " +
                            std::to_string(co->reattaches_) +
                            " re-attached, " + std::to_string(co->respawns_) +
                            " respawned");
    LogRecoveryEvent("journal_replay", co->term_, -1, NowS() - t_start,
                     "reattached=" + std::to_string(co->reattaches_) +
                         " respawned=" + std::to_string(co->respawns_) +
                         " resumed_run=" + std::to_string(co->resume_run_));
  } else {
    for (int r = 0; r < W; ++r) {
      HT_RETURN_IF_ERROR(co->SpawnWorker(r, /*first_spawn=*/!c.resume));
    }
    for (int r = 0; r < W; ++r) {
      HT_RETURN_IF_ERROR(co->WaitForHello(r, 120.0));
    }
    {
      std::lock_guard<std::mutex> lk(co->run_->mu);
      for (int r = 0; r < W; ++r) {
        co->transport_->SetPeer(r, co->workers_[r].addr);
        co->transport_->WatchPeer(r);
      }
    }
    if (c.resume) {
      LogRecoveryEvent("checkpoint_fallback", co->term_, -1, NowS() - t_start,
                       "epoch=" + std::to_string(co->epochs_completed_));
    }
  }
  // Coordinator→worker heartbeats: workers watch these to detect a dead
  // coordinator and park instead of wedging (the PDEATHSIG replacement).
  for (int r = 0; r < W; ++r) co->transport_->StartHeartbeatTo(r);
  InstallSigtermHandler();
  HT_LOG(INFO) << "cluster coordinator up: " << W << " workers over "
               << c.transport << ", runtime dir " << c.runtime_dir
               << ", recover_mode " << c.recover_mode << ", term "
               << co->term_;
  return co;
}

ClusterCoordinator::~ClusterCoordinator() { Shutdown(); }

Status ClusterCoordinator::SpawnWorker(int rank, bool first_spawn) {
  WorkerProc& wp = workers_[rank];
  std::vector<std::string> env;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    const std::string s(*e);
    if (s.rfind("HONGTU_DIST_", 0) == 0) continue;
    if (s.rfind("HONGTU_FAULT_SPEC=", 0) == 0) continue;
    if (s.rfind("HONGTU_CLUSTER=", 0) == 0) continue;
    if (s.rfind("OMP_NUM_THREADS=", 0) == 0) continue;
    env.push_back(s);
  }
  env.push_back(std::string(kEnvDistRole) + "=worker");
  env.push_back(std::string(kEnvDistRank) + "=" + std::to_string(rank));
  env.push_back(std::string(kEnvDistCoord) + "=" + transport_->bound_addr());
  env.push_back(std::string(kEnvDistConfig) + "=" + EncodeClusterConfig(cfg_));
  // Failure drills ride only on the FIRST spawn: a respawned worker must
  // not re-kill itself or re-inject faults, or recovery could never finish.
  if (first_spawn && rank == cfg_.fault_rank && !cfg_.worker_fault_spec.empty()) {
    env.push_back("HONGTU_FAULT_SPEC=" + cfg_.worker_fault_spec);
  }
  if (first_spawn && rank == cfg_.kill_rank && cfg_.kill_epoch >= 0) {
    env.push_back(std::string(kEnvDistKillEpoch) + "=" +
                  std::to_string(cfg_.kill_epoch));
  }
  if (first_spawn && rank == cfg_.kill2_rank && cfg_.kill2_epoch >= 0) {
    env.push_back(std::string(kEnvDistKillEpoch) + "=" +
                  std::to_string(cfg_.kill2_epoch));
  }
  if (first_spawn && rank == cfg_.kill_on_recover_rank) {
    env.push_back(std::string(kEnvDistKillOnRecover) + "=1");
  }
  long ncpu = ::sysconf(_SC_NPROCESSORS_ONLN);
  if (ncpu < 1) ncpu = 1;
  const long per = std::max(1L, ncpu / std::max(1, cfg_.num_workers));
  env.push_back("OMP_NUM_THREADS=" + std::to_string(per));

  std::vector<char*> envp;
  envp.reserve(env.size() + 1);
  for (std::string& s : env) envp.push_back(const_cast<char*>(s.c_str()));
  envp.push_back(nullptr);
  const std::string argv0 =
      "hongtu-cluster-worker-r" + std::to_string(rank);
  char* argv[] = {const_cast<char*>(argv0.c_str()), nullptr};

  const pid_t pid = ::fork();
  if (pid < 0) {
    return Status::IoError(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    ::execve("/proc/self/exe", argv, envp.data());
    _exit(127);
  }
  {
    std::lock_guard<std::mutex> lk(run_->mu);
    wp.pid = pid;
    wp.dead = false;
    wp.hello = false;
    wp.addr.clear();
  }
  return Status::OK();
}

Status ClusterCoordinator::WaitForHello(int rank, double deadline_s) {
  const double t_end = NowS() + deadline_s;
  std::unique_lock<std::mutex> lk(run_->mu);
  while (!workers_[rank].hello) {
    if (NowS() >= t_end) {
      return Status::Internal("worker r" + std::to_string(rank) +
                              " sent no hello within " +
                              std::to_string(deadline_s) + "s");
    }
    // Catch a worker that died during startup early (bad exec, Init error).
    if (workers_[rank].pid > 0) {
      int wstatus = 0;
      if (::waitpid(workers_[rank].pid, &wstatus, WNOHANG) ==
          workers_[rank].pid) {
        workers_[rank].pid = -1;
        workers_[rank].dead = true;
        return Status::Internal("worker r" + std::to_string(rank) +
                                " exited during startup (status " +
                                std::to_string(wstatus) + ")");
      }
    }
    run_->cv.wait_for(lk, std::chrono::milliseconds(100));
  }
  return Status::OK();
}

Status ClusterCoordinator::JournalAppend(JournalRecordType type,
                                         std::string payload) {
  std::lock_guard<std::mutex> lk(journal_mu_);
  if (journal_ == nullptr || !journal_ok_) {
    return Status::OK();  // degraded: checkpoint rung still covers recovery
  }
  const Status st = journal_->Append(type, payload);
  if (!st.ok()) {
    journal_ok_ = false;
    degrade_.Record(fault::DegradeEvent::kCheckpointFallback,
                    "cluster journal append failed — degrading to "
                    "checkpoint-only recovery: " + st.ToString());
    HT_LOG(WARNING) << "cluster journal append failed (" << st.ToString()
                    << ") — coordinator restart will use the checkpoint "
                    << "fallback rung";
  }
  return st;
}

void ClusterCoordinator::JournalMember(int rank) {
  std::string addr;
  uint64_t pid = 0;
  {
    std::lock_guard<std::mutex> lk(run_->mu);
    addr = workers_[rank].addr;
    pid = static_cast<uint64_t>(workers_[rank].pid);
  }
  WireWriter w;
  w.U32(static_cast<uint32_t>(rank));
  w.Str(addr);
  w.U64(pid);
  (void)JournalAppend(JournalRecordType::kMember, w.Take());
}

void ClusterCoordinator::JournalCompact() {
  // After an applied epoch the live state is just: this term, the current
  // membership, and the applied pointer with the run-id high-water mark.
  // Everything older is garbage.
  JournalState js;
  js.term = term_;
  {
    std::lock_guard<std::mutex> lk(run_->mu);
    for (size_t r = 0; r < workers_.size(); ++r) {
      JournalState::Member& m = js.members[static_cast<int>(r)];
      m.addr = workers_[r].addr;
      m.pid = static_cast<uint64_t>(workers_[r].pid);
      m.dead = workers_[r].dead;
    }
  }
  js.epochs_applied = epochs_completed_;
  js.ckpt_path = ckpt_->PrimaryPath();
  js.max_run = next_run_ - 1;
  std::lock_guard<std::mutex> lk(journal_mu_);
  if (journal_ == nullptr || !journal_ok_) return;
  const Status st = journal_->Compact(CompactRecords(js));
  if (!st.ok()) {
    HT_LOG(WARNING) << "cluster journal compact failed: " << st.ToString();
  }
}

Status ClusterCoordinator::ReattachOrRespawn(const JournalState& js) {
  const int W = cfg_.num_workers;
  for (int r = 0; r < W; ++r) {
    const auto it = js.members.find(r);
    const bool known = it != js.members.end() && !it->second.dead;
    const pid_t old_pid =
        known ? static_cast<pid_t>(it->second.pid) : static_cast<pid_t>(-1);
    bool attached = false;
    if (known && !ProbePidDead(old_pid)) {
      // Survivor of the previous incarnation: advertise the new term and
      // endpoint; the reply tells us which run (if any) it is inside.
      {
        std::lock_guard<std::mutex> lk(run_->mu);
        workers_[r].pid = old_pid;
        workers_[r].addr = it->second.addr;
        workers_[r].dead = false;
        workers_[r].hello = false;
        transport_->SetPeer(r, it->second.addr);
      }
      WireWriter w;
      w.U64(term_);
      w.Str(transport_->bound_addr());
      const double t0 = NowS();
      auto cr = transport_->Call(r, MsgType::kCoordUpdate, w.Take(),
                                 cfg_.rpc_deadline_s);
      if (cr.ok()) {
        WireReader rr(cr.ValueOrDie());
        auto rank_r = rr.U32();
        auto run_r = rr.U64();
        if (rank_r.ok() && run_r.ok() &&
            static_cast<int>(rank_r.ValueOrDie()) == r) {
          const uint64_t cur_run = run_r.ValueOrDie();
          {
            std::lock_guard<std::mutex> lk(run_->mu);
            workers_[r].hello = true;
            transport_->WatchPeer(r);
          }
          attached = true;
          ++reattaches_;
          JournalMember(r);
          degrade_.Record(fault::DegradeEvent::kWorkerReattach,
                          "worker r" + std::to_string(r) +
                              " re-attached to coordinator term " +
                              std::to_string(term_));
          LogRecoveryEvent("coord_reattach", term_, r, NowS() - t0,
                           "cur_run=" + std::to_string(cur_run));
          // Lock: a survivor can resend its pending report the instant the
          // kCoordUpdate ack lands, and the kEpochDone handler stashes it
          // into resume_reports_ under run_->mu.
          std::lock_guard<std::mutex> lk(run_->mu);
          if (resume_run_ != 0 && cur_run != resume_run_ &&
              resume_reports_.count(r) == 0) {
            // Alive but never saw (or already dropped) the resumed run's
            // broadcast: replay it in like a step recovery.
            rejoin_ranks_.insert(r);
          }
        }
      }
    }
    if (!attached) {
      // Verified dead, or alive-but-unresponsive (wedged): make it true,
      // journal the death, and respawn the rank fresh.
      WireWriter w;
      w.U32(static_cast<uint32_t>(r));
      (void)JournalAppend(JournalRecordType::kMemberDead, w.Take());
      if (known && !ProbePidDead(old_pid)) KillPidAndWait(old_pid);
      transport_->DropConnection(r);
      HT_RETURN_IF_ERROR(SpawnWorker(r, /*first_spawn=*/false));
      HT_RETURN_IF_ERROR(WaitForHello(r, 120.0));
      {
        std::lock_guard<std::mutex> lk(run_->mu);
        transport_->SetPeer(r, workers_[r].addr);
        transport_->WatchPeer(r);
      }
      ++respawns_;
      LogRecoveryEvent("coord_respawn", term_, r, 0.0,
                       "respawned during coordinator restart");
      std::lock_guard<std::mutex> lk(run_->mu);
      if (resume_run_ != 0 && resume_reports_.count(r) == 0) {
        rejoin_ranks_.insert(r);
      }
    }
  }
  return Status::OK();
}

Status ClusterCoordinator::CrashDrillWait(uint64_t run) {
  {
    std::unique_lock<std::mutex> lk(run_->mu);
    const double t_end = NowS() + cfg_.epoch_deadline_s;
    const int want = std::min(cfg_.coord_crash_done, cfg_.num_workers);
    while (run_->run == run && run_->done_count < want && NowS() < t_end) {
      run_->cv.wait_for(lk, std::chrono::milliseconds(50));
    }
  }
  HT_LOG(WARNING) << "coordinator crash drill: simulating crash in run "
                  << run << " (epoch " << epochs_completed_ << ")";
  Crash();
  return Status::Unavailable("coordinator crash drill");
}

void ClusterCoordinator::Crash() {
  {
    std::lock_guard<std::mutex> lk(run_->mu);
    if (crashed_ || shut_down_) return;
    crashed_ = true;
  }
  // Tear down exactly what SIGKILL would take: sockets and the journal fd.
  // Workers and on-disk state stay intact for a successor Start(resume).
  for (size_t r = 0; r < workers_.size(); ++r) {
    transport_->UnwatchPeer(static_cast<int>(r));
  }
  transport_->Shutdown();
  // Drop the transport now: a second Shutdown from the destructor would
  // re-run the uds teardown and unlink the successor's live coord.sock.
  transport_.reset();
  {
    std::lock_guard<std::mutex> lk(journal_mu_);
    journal_.reset();
  }
  HT_LOG(WARNING) << "cluster coordinator: simulated crash (term " << term_
                  << ") — workers left running";
}

Status ClusterCoordinator::ParseEpochDone(const std::string& payload,
                                          uint64_t* run, int* rank,
                                          DoneReport* d) {
  WireReader r(payload);
  HT_ASSIGN_OR_RETURN(*run, r.U64());
  HT_ASSIGN_OR_RETURN(const uint32_t rank_u, r.U32());
  HT_ASSIGN_OR_RETURN(const uint32_t ok_u, r.U32());
  HT_ASSIGN_OR_RETURN(d->error, r.Str());
  HT_ASSIGN_OR_RETURN(d->loss_sum, r.F64());
  HT_ASSIGN_OR_RETURN(d->acc_sum, r.F64());
  HT_ASSIGN_OR_RETURN(d->n, r.U64());
  HT_ASSIGN_OR_RETURN(const uint32_t ncnt, r.U32());
  *rank = static_cast<int>(rank_u);
  d->received = true;
  d->ok = ok_u != 0;
  for (uint32_t e = 0; e < ncnt; ++e) {
    HT_ASSIGN_OR_RETURN(const int64_t c, r.I64());
    if (e < fault::kNumDegradeEvents) d->rec.counts[e] = c;
  }
  HT_ASSIGN_OR_RETURN(const uint32_t gcnt, r.U32());
  for (uint32_t g = 0; g < gcnt; ++g) {
    HT_ASSIGN_OR_RETURN(const uint64_t rows, r.U64());
    HT_ASSIGN_OR_RETURN(const uint64_t cols, r.U64());
    const size_t count =
        static_cast<size_t>(rows) * static_cast<size_t>(cols);
    std::vector<float> buf(count);
    HT_RETURN_IF_ERROR(r.Raw(buf.data(), count * sizeof(float)));
    d->grads.push_back(std::move(buf));
  }
  return Status::OK();
}

void ClusterCoordinator::OnRequest(Transport::Request&& req) {
  switch (req.frame.type) {
    case MsgType::kHello: {
      WireReader r(req.frame.payload);
      auto rank_r = r.U32();
      auto addr_r = r.Str();
      auto pid_r = r.U64();
      if (!rank_r.ok() || !addr_r.ok() || !pid_r.ok()) {
        req.reply_error(Status::DataLoss("malformed kHello"));
        return;
      }
      const int rank = static_cast<int>(rank_r.ValueOrDie());
      if (rank < 0 || rank >= static_cast<int>(workers_.size())) {
        req.reply_error(Status::Invalid("hello from unknown rank"));
        return;
      }
      {
        std::lock_guard<std::mutex> lk(run_->mu);
        workers_[rank].addr = addr_r.ValueOrDie();
        workers_[rank].hello = true;
      }
      // Membership is a cluster decision: journal it so a successor can
      // find (or verify dead) this worker. Duplicate re-registrations are
      // idempotent — the journal replay keeps the last record per rank.
      JournalMember(rank);
      run_->cv.notify_all();
      // The ack advertises this coordinator's fencing term.
      WireWriter w;
      w.U64(term_);
      req.reply(MsgType::kAck, w.Take());
      return;
    }
    case MsgType::kEpochDone: {
      uint64_t run = 0;
      int rank = -1;
      DoneReport d;
      const Status ps = ParseEpochDone(req.frame.payload, &run, &rank, &d);
      if (!ps.ok()) {
        req.reply_error(ps);
        return;
      }
      bool accept = false;
      bool stash = false;
      int64_t run_epoch = 0;
      {
        std::lock_guard<std::mutex> lk(run_->mu);
        accept = run == run_->run && !run_->eval && rank >= 0 &&
                 rank < static_cast<int>(run_->done.size()) &&
                 !run_->done[rank].received;
        // A survivor's resent report can reach a successor BEFORE the
        // adopting RunEpoch opens the resumed run; dropping it here would
        // lose the contribution forever (the ack stops the resend loop).
        stash = !accept && resume_run_ != 0 && run == resume_run_ &&
                rank >= 0 && rank < static_cast<int>(run_->done.size()) &&
                resume_reports_.count(rank) == 0;
        run_epoch = run_->epoch;
      }
      bool all_done = false;
      if (accept || stash) {
        // WAL ordering: the raw report must be durable BEFORE the ack — an
        // acknowledged contribution has to survive a coordinator crash, or
        // the worker would consider it delivered and never resend.
        WireWriter jw;
        jw.U64(run);
        jw.U32(static_cast<uint32_t>(rank));
        jw.Str(req.frame.payload);
        (void)JournalAppend(JournalRecordType::kDoneReport, jw.Take());
        std::lock_guard<std::mutex> lk(run_->mu);
        // Re-check under the lock; the !received guard also dedups: after
        // an adoption both the adopter's thread and a late original could
        // report the same rank — first result wins.
        if (run == run_->run && !run_->eval && !run_->done[rank].received) {
          run_->done[rank] = std::move(d);
          ++run_->done_count;
          all_done = run_->done_count == cfg_.num_workers;
        } else if (resume_run_ != 0 && run == resume_run_) {
          resume_reports_.emplace(rank, req.frame.payload);
        }
      }
      if (all_done && cfg_.coord_kill_epoch >= 0 &&
          run_epoch == cfg_.coord_kill_epoch) {
        // Process-level drill: die with the whole epoch journaled but NOT
        // acked, applied, or checkpointed — the worst spot for a successor.
        HT_LOG(WARNING) << "coordinator kill drill: last kEpochDone of epoch "
                        << run_epoch << " journaled — raising SIGKILL";
        ::raise(SIGKILL);
      }
      run_->cv.notify_all();
      req.reply(MsgType::kAck, "");
      return;
    }
    case MsgType::kEvalDone: {
      WireReader r(req.frame.payload);
      auto run_r = r.U64();
      auto rank_r = r.U32();
      auto ok_r = r.U32();
      auto err_r = r.Str();
      auto correct_r = r.U64();
      auto total_r = r.U64();
      if (!run_r.ok() || !rank_r.ok() || !ok_r.ok() || !err_r.ok() ||
          !correct_r.ok() || !total_r.ok()) {
        req.reply_error(Status::DataLoss("malformed kEvalDone"));
        return;
      }
      const int rank = static_cast<int>(rank_r.ValueOrDie());
      {
        std::lock_guard<std::mutex> lk(run_->mu);
        if (run_r.ValueOrDie() == run_->run && run_->eval && rank >= 0 &&
            rank < static_cast<int>(run_->done.size()) &&
            !run_->done[rank].received) {
          DoneReport& d = run_->done[rank];
          d.received = true;
          d.ok = ok_r.ValueOrDie() != 0;
          d.error = err_r.ValueOrDie();
          d.correct = correct_r.ValueOrDie();
          d.total = total_r.ValueOrDie();
          ++run_->done_count;
        }
      }
      run_->cv.notify_all();
      req.reply(MsgType::kAck, "");
      return;
    }
    default:
      req.reply_error(Status::Invalid(std::string("coordinator: unexpected ") +
                                      MsgTypeName(req.frame.type)));
      return;
  }
}

void ClusterCoordinator::OnPeerDeath(int rank, const std::string& why) {
  if (rank < 0 || rank >= static_cast<int>(workers_.size())) return;
  {
    std::lock_guard<std::mutex> lk(run_->mu);
    WorkerProc& wp = workers_[rank];
    if (wp.dead || shut_down_ || crashed_) return;
    // The transport reports EOF/heartbeat silence; verify against the OS
    // before declaring death — an injected disconnect severs a connection
    // while the process is perfectly alive. ProbePidDead handles both our
    // children and re-attached workers inherited from a predecessor.
    if (wp.pid > 0) {
      if (ProbePidDead(wp.pid)) {
        wp.pid = -1;
      } else {
        const double age = transport_->SecondsSinceContact(rank);
        if (age < cfg_.peer_timeout_s) {
          // Alive and recently heard from: spurious report (severed conn).
          transport_->WatchPeer(rank);  // re-arm
          return;
        }
        // Alive but silent past the timeout: treat as hung, make it true.
        KillPidAndWait(wp.pid);
        wp.pid = -1;
      }
    }
    wp.dead = true;
    wp.hello = false;
    degrade_.Record(fault::DegradeEvent::kPeerDeath,
                    "worker r" + std::to_string(rank) + ": " + why);
    if (run_->run != 0) run_->deaths.emplace_back(rank, why);
  }
  LogRecoveryEvent("peer_death", term_, rank, 0.0, why);
  // Journal outside run_->mu (journal_mu_ is never nested inside it).
  WireWriter w;
  w.U32(static_cast<uint32_t>(rank));
  (void)JournalAppend(JournalRecordType::kMemberDead, w.Take());
  run_->cv.notify_all();
}

Status ClusterCoordinator::EnsureWorkersAlive() {
  for (int r = 0; r < cfg_.num_workers; ++r) {
    bool dead;
    {
      std::lock_guard<std::mutex> lk(run_->mu);
      dead = workers_[r].dead;
    }
    if (!dead) continue;
    transport_->DropConnection(r);
    HT_RETURN_IF_ERROR(SpawnWorker(r, /*first_spawn=*/false));
    HT_RETURN_IF_ERROR(WaitForHello(r, 120.0));
    {
      std::lock_guard<std::mutex> lk(run_->mu);
      transport_->SetPeer(r, workers_[r].addr);
      transport_->WatchPeer(r);
    }
    ++respawns_;
    HT_LOG(INFO) << "cluster coordinator: respawned worker r" << r
                 << " (respawn #" << respawns_ << ")";
  }
  return Status::OK();
}

std::string ClusterCoordinator::BuildWeightsPayloadTail() {
  WireWriter w;
  w.U32(static_cast<uint32_t>(cfg_.num_workers));
  {
    std::lock_guard<std::mutex> lk(run_->mu);
    for (int r = 0; r < cfg_.num_workers; ++r) w.Str(workers_[r].addr);
  }
  auto params = model_.AllParams();
  w.U32(static_cast<uint32_t>(params.size()));
  for (Tensor* p : params) {
    w.U64(static_cast<uint64_t>(p->rows()));
    w.U64(static_cast<uint64_t>(p->cols()));
    w.Bytes(p->data(), static_cast<size_t>(p->size()) * sizeof(float));
  }
  return w.Take();
}

Status ClusterCoordinator::BroadcastRun(bool eval, uint64_t run, int64_t epoch,
                                        SplitRole role) {
  const std::string tail = BuildWeightsPayloadTail();
  for (int r = 0; r < cfg_.num_workers; ++r) {
    WireWriter w;
    w.U64(run);
    if (eval) {
      w.U32(static_cast<uint32_t>(role));
    } else {
      w.U64(static_cast<uint64_t>(epoch));
      w.U32(0);  // recover flag: fresh run
    }
    w.Bytes(tail.data(), tail.size());
    auto cr = transport_->Call(r, eval ? MsgType::kEval : MsgType::kEpoch,
                               w.Take(), cfg_.rpc_deadline_s);
    if (!cr.ok()) {
      return Status::Unavailable("broadcast to worker r" + std::to_string(r) +
                                 " failed: " + cr.status().ToString());
    }
  }
  return Status::OK();
}

Status ClusterCoordinator::SendEpochTo(int rank, uint64_t run, int64_t epoch,
                                       bool recover) {
  // Fresh tail: addresses may have changed since the broadcast (this is the
  // recovery path), and the weights are still the epoch head — Adam only
  // steps after the epoch completes, so the coordinator's replica IS the
  // state every worker started this run from.
  const std::string tail = BuildWeightsPayloadTail();
  WireWriter w;
  w.U64(run);
  w.U64(static_cast<uint64_t>(epoch));
  w.U32(recover ? 1 : 0);
  w.Bytes(tail.data(), tail.size());
  auto cr = transport_->Call(rank, MsgType::kEpoch, w.Take(),
                             cfg_.rpc_deadline_s);
  if (!cr.ok()) {
    return Status::Unavailable("kEpoch to worker r" + std::to_string(rank) +
                               " failed: " + cr.status().ToString());
  }
  return Status::OK();
}

ClusterCoordinator::RunWait ClusterCoordinator::WaitRun(
    uint64_t run, double deadline_s, int* dead_rank, std::string* death_why) {
  (void)run;
  std::unique_lock<std::mutex> lk(run_->mu);
  const double t_end = NowS() + deadline_s;
  const auto decided = [&]() -> int {
    if (!run_->deaths.empty()) return 2;
    if (run_->done_count == cfg_.num_workers) return 1;
    // A worker reporting failure decides the attempt early — its peers may
    // be blocked on it and would only fall to the watchdog.
    for (const auto& d : run_->done) {
      if (d.received && !d.ok) return 1;
    }
    return 0;
  };
  for (;;) {
    const int dec = decided();
    if (dec == 2) {
      *dead_rank = run_->deaths.front().first;
      *death_why = run_->deaths.front().second;
      run_->deaths.pop_front();
      return RunWait::kDeath;
    }
    if (dec == 1) return RunWait::kAllDone;
    if (SigtermRequested()) return RunWait::kSigterm;
    if (NowS() >= t_end) return RunWait::kTimeout;
    // Tick (rather than sleep to the deadline) so SIGTERM drains promptly.
    run_->cv.wait_for(lk, std::chrono::milliseconds(250));
  }
}

std::string ClusterCoordinator::KillWedged() {
  std::lock_guard<std::mutex> lk(run_->mu);
  std::string wedged;
  for (int r = 0; r < cfg_.num_workers; ++r) {
    if (run_->done[r].received || workers_[r].dead) continue;
    wedged += " r" + std::to_string(r);
    if (workers_[r].pid > 0) {
      KillPidAndWait(workers_[r].pid);
      workers_[r].pid = -1;
    }
    workers_[r].dead = true;
    workers_[r].hello = false;
    transport_->UnwatchPeer(r);
    degrade_.Record(fault::DegradeEvent::kPeerDeath,
                    "epoch watchdog killed wedged worker r" +
                        std::to_string(r));
  }
  return wedged;
}

Status ClusterCoordinator::BroadcastPeerUpdate(uint64_t run, int rank,
                                               const std::string& addr) {
  for (int r = 0; r < cfg_.num_workers; ++r) {
    if (r == rank) continue;
    bool alive;
    {
      std::lock_guard<std::mutex> lk(run_->mu);
      alive = !workers_[r].dead && workers_[r].hello;
    }
    if (!alive) continue;
    WireWriter w;
    w.U64(run);
    w.U32(static_cast<uint32_t>(rank));
    w.Str(addr);
    auto cr = transport_->Call(r, MsgType::kPeerUpdate, w.Take(),
                               cfg_.rpc_deadline_s);
    if (!cr.ok()) {
      // Tolerated: the target may itself be dying (the kill-during-recovery
      // drill dies exactly here); its death surfaces via OnPeerDeath.
      HT_LOG(WARNING) << "cluster coordinator: kPeerUpdate(r" << rank
                      << ") to r" << r << " failed: "
                      << cr.status().ToString();
    }
  }
  return Status::OK();
}

Status ClusterCoordinator::RecoverRespawn(uint64_t run, int64_t epoch,
                                          int rank) {
  std::string old_addr;
  {
    std::lock_guard<std::mutex> lk(run_->mu);
    old_addr = workers_[rank].addr;
  }
  // First broadcast carries the OLD address: its purpose is the grace
  // extension — survivors' wait budgets must not expire during the seconds
  // the respawn takes. The real address follows after the hello.
  HT_RETURN_IF_ERROR(BroadcastPeerUpdate(run, rank, old_addr));
  transport_->DropConnection(rank);
  HT_RETURN_IF_ERROR(SpawnWorker(rank, /*first_spawn=*/false));
  HT_RETURN_IF_ERROR(WaitForHello(rank, 120.0));
  std::string new_addr;
  {
    std::lock_guard<std::mutex> lk(run_->mu);
    new_addr = workers_[rank].addr;
    transport_->SetPeer(rank, new_addr);
    transport_->WatchPeer(rank);
  }
  ++respawns_;
  ++step_recoveries_;
  degrade_.Record(fault::DegradeEvent::kStepRecovery,
                  "respawned worker r" + std::to_string(rank) +
                      " for in-epoch replay (run " + std::to_string(run) +
                      ")");
  HT_RETURN_IF_ERROR(BroadcastPeerUpdate(run, rank, new_addr));
  HT_LOG(INFO) << "cluster coordinator: step recovery — replaying r" << rank
               << " in run " << run;
  return SendEpochTo(rank, run, epoch, /*recover=*/true);
}

Status ClusterCoordinator::RecoverAdopt(uint64_t run, int64_t epoch,
                                        int rank) {
  std::string old_addr;
  int host = -1;
  {
    std::lock_guard<std::mutex> lk(run_->mu);
    old_addr = workers_[rank].addr;
    for (int r = 0; r < cfg_.num_workers; ++r) {
      if (r == rank || workers_[r].dead || !workers_[r].hello) continue;
      host = r;
      break;
    }
  }
  if (host < 0) {
    return Status::Unavailable("no survivor available to adopt partition r" +
                               std::to_string(rank));
  }
  // Grace extension first, same as the respawn path.
  HT_RETURN_IF_ERROR(BroadcastPeerUpdate(run, rank, old_addr));
  transport_->DropConnection(rank);
  std::string host_addr;
  {
    std::lock_guard<std::mutex> lk(run_->mu);
    host_addr = workers_[host].addr;
    // The dead rank's traffic now routes to the host process. The slot
    // stays marked dead so EnsureWorkersAlive gives it a fresh process at
    // the next epoch.
    workers_[rank].addr = host_addr;
  }
  const std::string tail = BuildWeightsPayloadTail();
  WireWriter w;
  w.U64(run);
  w.U64(static_cast<uint64_t>(epoch));
  w.U32(static_cast<uint32_t>(rank));
  w.Bytes(tail.data(), tail.size());
  auto cr = transport_->Call(host, MsgType::kAdoptPartition, w.Take(),
                             cfg_.rpc_deadline_s);
  if (!cr.ok()) {
    return Status::Unavailable("kAdoptPartition(r" + std::to_string(rank) +
                               ") to r" + std::to_string(host) +
                               " failed: " + cr.status().ToString());
  }
  transport_->SetPeer(rank, host_addr);  // no WatchPeer: it's host's process
  ++adoptions_;
  ++step_recoveries_;
  degrade_.Record(fault::DegradeEvent::kPartitionAdopted,
                  "partition r" + std::to_string(rank) + " adopted by r" +
                      std::to_string(host) + " (run " + std::to_string(run) +
                      ")");
  HT_LOG(INFO) << "cluster coordinator: partition r" << rank
               << " adopted by survivor r" << host << " in run " << run;
  return BroadcastPeerUpdate(run, rank, host_addr);
}

Status ClusterCoordinator::AbortAndRestore(uint64_t run,
                                           const std::string& why) {
  degrade_.Record(fault::DegradeEvent::kEpochRestart, why);
  LogRecoveryEvent("epoch_restart", term_, -1, 0.0, why);
  WireWriter w;
  w.U64(run);
  for (int r = 0; r < cfg_.num_workers; ++r) {
    bool dead;
    {
      std::lock_guard<std::mutex> lk(run_->mu);
      dead = workers_[r].dead;
    }
    if (dead) continue;
    (void)transport_->Notify(r, MsgType::kAbort, w.buf());
  }
  HT_ASSIGN_OR_RETURN(const int64_t ck_epoch, ckpt_->Restore(&model_, &adam_));
  HT_LOG(INFO) << "cluster coordinator: restored checkpoint (epoch "
               << ck_epoch << ") after: " << why;
  return Status::OK();
}

void ClusterCoordinator::SaveCheckpointResilient(int64_t epoch) {
  const fault::RetryPolicy pol = fault::DefaultRetryPolicy();
  const Status st =
      fault::RetryTransient(pol, &degrade_, "ckpt.save", [&]() -> Status {
        return ckpt_->Save(&model_, adam_, epoch);
      });
  if (!st.ok()) {
    // The epoch's weights are applied and live on the workers; losing the
    // snapshot only widens the restore distance of a FUTURE failure. Degrade
    // instead of failing a finished epoch.
    degrade_.Record(fault::DegradeEvent::kCheckpointFallback,
                    "epoch-end save failed; continuing on previous "
                    "checkpoint: " + st.ToString());
    HT_LOG(WARNING) << "cluster coordinator: checkpoint save for epoch "
                    << epoch << " failed (continuing): " << st.ToString();
  }
}

Result<ClusterEpochResult> ClusterCoordinator::RunEpoch() {
  if (shut_down_) return Status::Internal("coordinator is shut down");
  if (crashed_) return Status::Unavailable("coordinator crashed (drill)");
  degrade_.ResetEpoch();
  const double t0 = NowS();
  const int sr0 = step_recoveries_;
  const int ad0 = adoptions_;
  const double rs0 = recovery_seconds_;
  Status last = Status::OK();
  for (int attempt = 0; attempt < cfg_.max_epoch_attempts; ++attempt) {
    if (SigtermRequested()) {
      HT_LOG(INFO) << "cluster coordinator: SIGTERM — draining and "
                   << "shutting down";
      Shutdown();
      return Status::Internal("coordinator terminated by SIGTERM");
    }
    // Adoption: the first epoch after a journal resume continues the
    // in-flight run under its ORIGINAL id — journaled reports are adopted
    // verbatim, live workers finish and deliver to this incarnation.
    const bool adopting =
        attempt == 0 && resume_run_ != 0 && resume_epoch_ == epochs_completed_;
    if (!adopting) HT_RETURN_IF_ERROR(EnsureWorkersAlive());
    const uint64_t run = adopting ? resume_run_ : next_run_++;
    {
      std::lock_guard<std::mutex> lk(run_->mu);
      run_->run = run;
      run_->eval = false;
      run_->epoch = epochs_completed_;
      run_->done_count = 0;
      run_->deaths.clear();
      for (auto& d : run_->done) d = DoneReport{};
    }
    Status st = Status::OK();
    if (adopting) {
      int prefilled = 0;
      {
        std::lock_guard<std::mutex> lk(run_->mu);
        for (const auto& kv : resume_reports_) {
          uint64_t prun = 0;
          int prank = -1;
          DoneReport d;
          if (!ParseEpochDone(kv.second, &prun, &prank, &d).ok()) continue;
          if (prun != run || prank != kv.first || prank < 0 ||
              prank >= static_cast<int>(run_->done.size()) ||
              run_->done[prank].received) {
            continue;
          }
          run_->done[prank] = std::move(d);
          ++run_->done_count;
          ++prefilled;
        }
      }
      HT_LOG(INFO) << "cluster coordinator: adopted run " << run << " (epoch "
                   << epochs_completed_ << ") from journal — " << prefilled
                   << " reports prefilled, " << rejoin_ranks_.size()
                   << " ranks to rejoin";
      // Ranks that never entered (or already left) the adopted run replay
      // into it exactly like a step recovery; survivors' logs serve them.
      for (const int r : rejoin_ranks_) {
        std::string addr;
        {
          std::lock_guard<std::mutex> lk(run_->mu);
          // The rank's report may have raced in between re-attach and now
          // (its run id matched all along) — nothing to replay then.
          if (run_->done[r].received) continue;
          addr = workers_[r].addr;
        }
        const double r0 = NowS();
        st = BroadcastPeerUpdate(run, r, addr);
        if (st.ok()) {
          st = SendEpochTo(r, run, epochs_completed_, /*recover=*/true);
        }
        if (!st.ok()) break;
        recovery_seconds_ += NowS() - r0;
        ++step_recoveries_;
        degrade_.Record(fault::DegradeEvent::kStepRecovery,
                        "rejoined r" + std::to_string(r) +
                            " into resumed run " + std::to_string(run));
        LogRecoveryEvent("coord_rejoin", term_, r, NowS() - r0,
                         "replaying into resumed run " + std::to_string(run));
      }
      {
        std::lock_guard<std::mutex> lk(run_->mu);
        resume_run_ = 0;
        resume_epoch_ = -1;
        resume_reports_.clear();
        rejoin_ranks_.clear();
      }
    } else {
      // WAL: the run start (id + epoch) goes down before any worker can
      // observe the run, so a successor knows which run may be in flight.
      WireWriter jw;
      jw.U64(run);
      jw.U64(static_cast<uint64_t>(epochs_completed_));
      jw.U32(0);
      (void)JournalAppend(JournalRecordType::kRunStart, jw.Take());
      st = BroadcastRun(/*eval=*/false, run, epochs_completed_,
                        SplitRole::kTrain);
    }
    if (st.ok() && !crashed_ && cfg_.coord_crash_epoch == epochs_completed_) {
      // Always returns non-OK: the coordinator is gone after the drill.
      return CrashDrillWait(run);
    }
    int recoveries = 0;
    while (st.ok()) {
      int dead = -1;
      std::string why;
      const RunWait rw = WaitRun(run, cfg_.epoch_deadline_s, &dead, &why);
      if (rw == RunWait::kAllDone) break;
      if (rw == RunWait::kSigterm) {
        HT_LOG(INFO) << "cluster coordinator: SIGTERM mid-run — draining "
                     << "and shutting down";
        Shutdown();
        return Status::Internal("coordinator terminated by SIGTERM");
      }
      if (rw == RunWait::kTimeout) {
        st = Status::Unavailable("epoch watchdog expired (run " +
                                 std::to_string(run) +
                                 "), killed:" + KillWedged());
        break;
      }
      if (cfg_.coord_crash_on_death && !crashed_) {
        // Drill: the coordinator dies the instant it learns of the worker
        // death — composing coordinator restart with worker recovery.
        HT_LOG(WARNING) << "coordinator crash-on-death drill: r" << dead
                        << " died (" << why << ") — simulating crash";
        Crash();
        return Status::Unavailable("coordinator crash drill on death of r" +
                                   std::to_string(dead));
      }
      // A death. Try to recover in-epoch; fall back to the epoch ladder
      // when the mode forbids it, the per-epoch budget is spent, or the
      // recovery itself fails.
      if (cfg_.recover_mode == "epoch" ||
          recoveries >= cfg_.max_step_recoveries) {
        st = Status::Unavailable("worker r" + std::to_string(dead) +
                                 " died mid-run: " + why);
        break;
      }
      const double r0 = NowS();
      const Status rst = cfg_.recover_mode == "adopt"
                             ? RecoverAdopt(run, epochs_completed_, dead)
                             : RecoverRespawn(run, epochs_completed_, dead);
      recovery_seconds_ += NowS() - r0;
      if (!rst.ok()) {
        st = Status::Unavailable("in-epoch recovery of r" +
                                 std::to_string(dead) +
                                 " failed: " + rst.ToString());
        break;
      }
      LogRecoveryEvent(
          cfg_.recover_mode == "adopt" ? "adoption" : "step_recovery", term_,
          dead, NowS() - r0, why);
      ++recoveries;
    }
    std::vector<DoneReport> done;
    if (st.ok()) {
      std::lock_guard<std::mutex> lk(run_->mu);
      done = run_->done;
      for (int r = 0; r < cfg_.num_workers; ++r) {
        if (done[r].received && !done[r].ok) {
          st = Status::Unavailable("worker r" + std::to_string(r) +
                                   " reported epoch failure: " +
                                   done[r].error);
          break;
        }
        if (!done[r].received) {
          st = Status::Internal("worker r" + std::to_string(r) +
                                " never reported (run " +
                                std::to_string(run) + ")");
          break;
        }
      }
    }
    if (!st.ok()) {
      last = st;
      HT_LOG(WARNING) << "cluster epoch attempt " << (attempt + 1)
                      << " failed: " << st.ToString();
      HT_RETURN_IF_ERROR(AbortAndRestore(run, st.ToString()));
      continue;
    }
    {
      std::lock_guard<std::mutex> lk(run_->mu);
      run_->run = 0;
    }

    // Deterministic gradient reduction: sum worker contributions in rank
    // order, then one Adam step on the authoritative replica.
    auto grads = model_.AllGrads();
    model_.ZeroGrads();
    for (int r = 0; r < cfg_.num_workers; ++r) {
      if (done[r].grads.size() != grads.size()) {
        return Status::Internal("worker r" + std::to_string(r) +
                                " returned " +
                                std::to_string(done[r].grads.size()) +
                                " gradient tensors, expected " +
                                std::to_string(grads.size()));
      }
      for (size_t gi = 0; gi < grads.size(); ++gi) {
        const std::vector<float>& src = done[r].grads[gi];
        if (static_cast<int64_t>(src.size()) != grads[gi]->size()) {
          return Status::Internal("gradient shape mismatch from worker r" +
                                  std::to_string(r));
        }
        float* dst = grads[gi]->data();
        for (size_t i = 0; i < src.size(); ++i) dst[i] += src[i];
      }
    }
    std::vector<const Tensor*> cgrads(grads.begin(), grads.end());
    HT_RETURN_IF_ERROR(adam_.Step(cgrads));
    ++epochs_completed_;
    SaveCheckpointResilient(epochs_completed_);
    // WAL: the applied pointer settles the run (a successor will NOT replay
    // it), then compaction drops the now-dead prefix.
    (void)JournalAppend(
        JournalRecordType::kApplied,
        EncodeApplied(epochs_completed_, ckpt_->PrimaryPath(), next_run_ - 1));
    JournalCompact();

    ClusterEpochResult res;
    double n_total = 0;
    for (const auto& d : done) n_total += static_cast<double>(d.n);
    if (n_total > 0) {
      for (const auto& d : done) {
        res.loss += d.loss_sum;
        res.train_accuracy += d.acc_sum;
      }
      res.loss /= n_total;
      res.train_accuracy /= n_total;
    }
    res.wall_seconds = NowS() - t0;
    res.step_recoveries = step_recoveries_ - sr0;
    res.adoptions = adoptions_ - ad0;
    res.recovery_seconds = recovery_seconds_ - rs0;
    res.recovery = degrade_.SnapshotEpoch();
    for (const auto& d : done) {
      for (int e = 0; e < fault::kNumDegradeEvents; ++e) {
        res.recovery.counts[e] += d.rec.counts[e];
      }
    }
    return res;
  }
  return Status::Internal("cluster epoch failed after " +
                          std::to_string(cfg_.max_epoch_attempts) +
                          " attempts; last error: " + last.ToString());
}

Result<double> ClusterCoordinator::Evaluate(SplitRole role) {
  if (shut_down_) return Status::Internal("coordinator is shut down");
  if (crashed_) return Status::Unavailable("coordinator crashed (drill)");
  Status last = Status::OK();
  for (int attempt = 0; attempt < cfg_.max_epoch_attempts; ++attempt) {
    if (SigtermRequested()) {
      Shutdown();
      return Status::Internal("coordinator terminated by SIGTERM");
    }
    HT_RETURN_IF_ERROR(EnsureWorkersAlive());
    const uint64_t run = next_run_++;
    {
      std::lock_guard<std::mutex> lk(run_->mu);
      run_->run = run;
      run_->eval = true;
      run_->done_count = 0;
      run_->deaths.clear();
      for (auto& d : run_->done) d = DoneReport{};
    }
    // Journaled for run-id monotonicity: a successor must never reuse an
    // id a worker has already seen, even one from an eval run.
    {
      WireWriter jw;
      jw.U64(run);
      jw.U64(0);
      jw.U32(1);
      (void)JournalAppend(JournalRecordType::kRunStart, jw.Take());
    }
    Status st = BroadcastRun(/*eval=*/true, run, 0, role);
    if (st.ok()) {
      // Eval is forward-only and cheap: a death mid-eval just reruns it
      // (no in-epoch replay, no checkpoint restore — weights are intact).
      int dead = -1;
      std::string why;
      const RunWait rw = WaitRun(run, cfg_.epoch_deadline_s, &dead, &why);
      if (rw == RunWait::kDeath) {
        st = Status::Unavailable("worker r" + std::to_string(dead) +
                                 " died mid-eval: " + why);
      } else if (rw == RunWait::kSigterm) {
        Shutdown();
        return Status::Internal("coordinator terminated by SIGTERM");
      } else if (rw == RunWait::kTimeout) {
        st = Status::Unavailable("eval watchdog expired (run " +
                                 std::to_string(run) +
                                 "), killed:" + KillWedged());
      }
    }
    uint64_t correct = 0, total = 0;
    if (st.ok()) {
      std::lock_guard<std::mutex> lk(run_->mu);
      for (int r = 0; r < cfg_.num_workers; ++r) {
        const DoneReport& d = run_->done[r];
        if (!d.received) {
          st = Status::Internal("worker r" + std::to_string(r) +
                                " never reported eval (run " +
                                std::to_string(run) + ")");
          break;
        }
        if (!d.ok) {
          st = Status::Unavailable("worker r" + std::to_string(r) +
                                   " reported eval failure: " + d.error);
          break;
        }
        correct += d.correct;
        total += d.total;
      }
    }
    {
      std::lock_guard<std::mutex> lk(run_->mu);
      run_->run = 0;
    }
    if (!st.ok()) {
      last = st;
      HT_LOG(WARNING) << "cluster eval attempt " << (attempt + 1)
                      << " failed: " << st.ToString();
      WireWriter w;
      w.U64(run);
      for (int r = 0; r < cfg_.num_workers; ++r) {
        (void)transport_->Notify(r, MsgType::kAbort, w.buf());
      }
      continue;
    }
    return total == 0 ? 0.0
                      : static_cast<double>(correct) /
                            static_cast<double>(total);
  }
  return Status::Internal("cluster eval failed after " +
                          std::to_string(cfg_.max_epoch_attempts) +
                          " attempts; last error: " + last.ToString());
}

void ClusterCoordinator::Shutdown() {
  if (run_ == nullptr) {
    // Start failed before any worker was spawned; only the scratch dir
    // needs cleaning.
    if (owns_runtime_dir_ && !shut_down_) RemoveDirShallow(cfg_.runtime_dir);
    shut_down_ = true;
    return;
  }
  {
    std::lock_guard<std::mutex> lk(run_->mu);
    if (shut_down_) return;
    shut_down_ = true;  // under run_->mu: OnPeerDeath reads it there
    if (crashed_) {
      // Crash() already tore the transport down; a successor coordinator
      // owns the workers and the on-disk state now — touch nothing.
      return;
    }
  }
  if (transport_ != nullptr) {
    for (int r = 0; r < static_cast<int>(workers_.size()); ++r) {
      transport_->UnwatchPeer(r);
    }
    for (int r = 0; r < static_cast<int>(workers_.size()); ++r) {
      bool alive;
      {
        std::lock_guard<std::mutex> lk(run_->mu);
        alive = !workers_[r].dead && workers_[r].pid > 0;
      }
      if (alive) (void)transport_->Notify(r, MsgType::kShutdown, "");
    }
  }
  // Grace period, then force: never leak worker processes. ProbePidDead
  // covers re-attached workers that are not this process's children.
  const double t_end = NowS() + 3.0;
  for (;;) {
    bool any = false;
    for (auto& wp : workers_) {
      if (wp.pid <= 0) continue;
      if (ProbePidDead(wp.pid)) {
        wp.pid = -1;
      } else {
        any = true;
      }
    }
    if (!any || NowS() >= t_end) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  for (auto& wp : workers_) {
    if (wp.pid <= 0) continue;
    KillPidAndWait(wp.pid);
    wp.pid = -1;
  }
  if (transport_ != nullptr) transport_->Shutdown();
  if (owns_runtime_dir_) RemoveDirShallow(cfg_.runtime_dir);
}

}  // namespace net
}  // namespace hongtu
