#include "hongtu/common/fault.h"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

#include "hongtu/common/config.h"
#include "hongtu/common/logging.h"

namespace hongtu {
namespace fault {

namespace {

const char* const kSiteNames[kNumSites] = {
    "pool.alloc", "comm.fetch",  "comm.flush", "device.h2d",
    "pipeline.stage", "ckpt.write", "graph.io", "net.send",
    "net.recv", "net.accept", "ckpt.read", "journal.write",
};

/// Stall injected by Kind::kDelay at sites that route through Poke(). Long
/// enough to trip tight RPC deadlines in tests, short enough that a
/// low-probability delay spec does not dominate a run.
constexpr double kDelayStallSeconds = 2e-3;

/// splitmix64: the decision for check k is a pure function of (seed, k), so
/// the fire pattern is independent of thread interleaving and identical
/// across runs.
uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double DecisionDraw(uint64_t seed, int64_t k) {
  const uint64_t h = Mix64(seed ^ (static_cast<uint64_t>(k) *
                                   0x9e3779b97f4a7c15ULL));
  return static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
}

struct SiteState {
  SiteSpec spec;
  int64_t checks = 0;
  int64_t fired = 0;
};

struct Registry {
  std::mutex mu;
  SiteState sites[kNumSites];
  std::atomic<int> armed_count{0};
};

Registry& Reg() {
  static Registry* r = new Registry();  // never destroyed (pokes may outlive
  return *r;                            // static destructors)
}

/// Arms from HONGTU_FAULT_SPEC once, before main() touches any site. A bad
/// spec aborts loudly — silently training without the requested faults would
/// invalidate whatever experiment asked for them.
const bool g_env_armed = [] {
  const std::string spec = RuntimeConfig::FromEnv().fault_spec;
  if (!spec.empty()) {
    const Status st = ArmSpecString(spec);
    if (!st.ok()) {
      std::fprintf(stderr, "HONGTU_FAULT_SPEC rejected: %s\n",
                   st.ToString().c_str());
      std::abort();
    }
  }
  return true;
}();

}  // namespace

const char* SiteName(Site s) { return kSiteNames[static_cast<int>(s)]; }

const char* KindName(Kind k) {
  switch (k) {
    case Kind::kNone: return "none";
    case Kind::kTransient: return "transient";
    case Kind::kPermanent: return "permanent";
    case Kind::kCorrupt: return "corrupt";
    case Kind::kKill: return "kill";
    case Kind::kDrop: return "drop";
    case Kind::kDelay: return "delay";
    case Kind::kDisconnect: return "disconnect";
  }
  return "?";
}

bool Armed() {
  return Reg().armed_count.load(std::memory_order_relaxed) > 0;
}

Kind Check(Site s) {
  if (!Armed()) return Kind::kNone;
  Registry& reg = Reg();
  Kind fired = Kind::kNone;
  {
    std::lock_guard<std::mutex> lock(reg.mu);
    SiteState& st = reg.sites[static_cast<int>(s)];
    if (st.spec.kind == Kind::kNone) return Kind::kNone;
    const int64_t k = st.checks++;
    if (k < st.spec.skip) return Kind::kNone;
    if (st.spec.max_count >= 0 && st.fired >= st.spec.max_count) {
      return Kind::kNone;
    }
    if (DecisionDraw(st.spec.seed, k) >= st.spec.prob) return Kind::kNone;
    ++st.fired;
    fired = st.spec.kind;
  }
  if (fired == Kind::kKill) {
    // The crash/resume smoke: die exactly like a power cut would, with no
    // destructors, flushes or atexit handlers.
    std::raise(SIGKILL);
  }
  return fired;
}

Status Poke(Site s) { return Inject(s, Check(s)); }

Status Inject(Site s, Kind k) {
  switch (k) {
    case Kind::kNone:
    case Kind::kKill:  // unreachable; Check() does not return from a kill
      return Status::OK();
    case Kind::kTransient:
      return Status::Unavailable(std::string("injected transient fault at ") +
                                 SiteName(s));
    case Kind::kPermanent:
      return Status::Internal(std::string("injected permanent fault at ") +
                              SiteName(s));
    case Kind::kCorrupt:
      return Status::DataLoss(std::string("injected corruption at ") +
                              SiteName(s));
    case Kind::kDrop:
      // At a payload-less site the closest analogue of a silently-lost
      // frame is a retryable failure (the caller's deadline machinery is
      // what a real drop would exercise). The net.* sites use Check()
      // directly and implement true drop semantics.
      return Status::Unavailable(std::string("injected drop at ") +
                                 SiteName(s));
    case Kind::kDelay:
      std::this_thread::sleep_for(
          std::chrono::duration<double>(kDelayStallSeconds));
      return Status::OK();
    case Kind::kDisconnect:
      return Status::Unavailable(std::string("injected disconnect at ") +
                                 SiteName(s));
  }
  return Status::OK();
}

Status Arm(Site site, const SiteSpec& spec) {
  if (spec.prob < 0.0 || spec.prob > 1.0) {
    return Status::Invalid("fault::Arm: prob must be in [0, 1]");
  }
  Registry& reg = Reg();
  std::lock_guard<std::mutex> lock(reg.mu);
  SiteState& st = reg.sites[static_cast<int>(site)];
  if (st.spec.kind == Kind::kNone && spec.kind != Kind::kNone) {
    reg.armed_count.fetch_add(1, std::memory_order_relaxed);
  } else if (st.spec.kind != Kind::kNone && spec.kind == Kind::kNone) {
    reg.armed_count.fetch_sub(1, std::memory_order_relaxed);
  }
  st.spec = spec;
  st.checks = 0;
  st.fired = 0;
  return Status::OK();
}

Status ArmSpecString(const std::string& spec) {
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t end = spec.find(';', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string clause = spec.substr(pos, end - pos);
    pos = end + 1;
    if (clause.empty()) continue;

    std::vector<std::string> fields;
    size_t fpos = 0;
    while (fpos <= clause.size()) {
      size_t fend = clause.find(':', fpos);
      if (fend == std::string::npos) fend = clause.size();
      fields.push_back(clause.substr(fpos, fend - fpos));
      fpos = fend + 1;
    }
    if (fields.size() < 4 || fields.size() > 6) {
      return Status::Invalid(
          "fault spec clause needs site:kind:prob:seed[:max_count[:skip]]: " +
          clause);
    }

    int site = -1;
    for (int i = 0; i < kNumSites; ++i) {
      if (fields[0] == kSiteNames[i]) site = i;
    }
    if (site < 0) return Status::Invalid("unknown fault site: " + fields[0]);

    Kind kind = Kind::kNone;
    if (fields[1] == "transient") kind = Kind::kTransient;
    else if (fields[1] == "permanent") kind = Kind::kPermanent;
    else if (fields[1] == "corrupt") kind = Kind::kCorrupt;
    else if (fields[1] == "kill") kind = Kind::kKill;
    else if (fields[1] == "drop") kind = Kind::kDrop;
    else if (fields[1] == "delay") kind = Kind::kDelay;
    else if (fields[1] == "disconnect") kind = Kind::kDisconnect;
    else return Status::Invalid("unknown fault kind: " + fields[1]);

    SiteSpec s;
    s.kind = kind;
    char* rest = nullptr;
    s.prob = std::strtod(fields[2].c_str(), &rest);
    if (rest == fields[2].c_str() || *rest != '\0') {
      return Status::Invalid("bad fault prob: " + fields[2]);
    }
    s.seed = std::strtoull(fields[3].c_str(), nullptr, 0);
    if (fields.size() >= 5) s.max_count = std::strtoll(fields[4].c_str(), nullptr, 0);
    if (fields.size() >= 6) s.skip = std::strtoll(fields[5].c_str(), nullptr, 0);
    HT_RETURN_IF_ERROR(Arm(static_cast<Site>(site), s));
  }
  return Status::OK();
}

void DisarmAll() {
  Registry& reg = Reg();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (SiteState& st : reg.sites) {
    st.spec = SiteSpec{};
    st.checks = 0;
    st.fired = 0;
  }
  reg.armed_count.store(0, std::memory_order_relaxed);
}

SiteStats StatsFor(Site s) {
  Registry& reg = Reg();
  std::lock_guard<std::mutex> lock(reg.mu);
  const SiteState& st = reg.sites[static_cast<int>(s)];
  return SiteStats{st.checks, st.fired};
}

Result<RetryPolicy> ParseRetrySpec(const std::string& spec) {
  RetryPolicy p;
  std::vector<std::string> fields;
  size_t fpos = 0;
  while (fpos <= spec.size()) {
    size_t fend = spec.find(':', fpos);
    if (fend == std::string::npos) fend = spec.size();
    fields.push_back(spec.substr(fpos, fend - fpos));
    fpos = fend + 1;
  }
  if (fields.size() > 5) {
    return Status::Invalid(
        "retry spec has more than "
        "attempts:base_backoff_s:max_backoff_s:total_deadline_s:jitter_seed "
        "fields: " +
        spec);
  }
  const auto parse_f64 = [](const std::string& f, double* out) -> Status {
    char* rest = nullptr;
    const double v = std::strtod(f.c_str(), &rest);
    if (rest == f.c_str() || *rest != '\0') {
      return Status::Invalid("bad retry spec field: " + f);
    }
    *out = v;
    return Status::OK();
  };
  if (!fields.empty() && !fields[0].empty()) {
    char* rest = nullptr;
    const long v = std::strtol(fields[0].c_str(), &rest, 10);
    if (rest == fields[0].c_str() || *rest != '\0' || v < 1) {
      return Status::Invalid("retry spec attempts must be a positive int: " +
                             fields[0]);
    }
    p.max_attempts = static_cast<int>(v);
  }
  if (fields.size() >= 2 && !fields[1].empty()) {
    HT_RETURN_IF_ERROR(parse_f64(fields[1], &p.base_backoff_s));
  }
  if (fields.size() >= 3 && !fields[2].empty()) {
    HT_RETURN_IF_ERROR(parse_f64(fields[2], &p.max_backoff_s));
  }
  if (fields.size() >= 4 && !fields[3].empty()) {
    HT_RETURN_IF_ERROR(parse_f64(fields[3], &p.total_deadline_s));
  }
  if (fields.size() >= 5 && !fields[4].empty()) {
    p.jitter_seed = std::strtoull(fields[4].c_str(), nullptr, 0);
  }
  if (p.base_backoff_s < 0 || p.max_backoff_s < p.base_backoff_s) {
    return Status::Invalid("retry spec backoffs must satisfy 0 <= base <= max");
  }
  return p;
}

const RetryPolicy& DefaultRetryPolicy() {
  static const RetryPolicy* p = [] {
    auto* pol = new RetryPolicy();
    const std::string spec = RuntimeConfig::FromEnv().retry_spec;
    if (!spec.empty()) {
      auto r = ParseRetrySpec(spec);
      if (!r.ok()) {
        // Same contract as HONGTU_FAULT_SPEC: running with silently-default
        // retry caps would invalidate whatever experiment asked for them.
        std::fprintf(stderr, "HONGTU_RETRY_SPEC rejected: %s\n",
                     r.status().ToString().c_str());
        std::abort();
      }
      *pol = r.ValueOrDie();
    }
    return pol;
  }();
  return *p;
}

namespace internal {

double BackoffSleep(const RetryPolicy& p, int attempt) {
  double delay = p.base_backoff_s;
  for (int i = 1; i < attempt && delay < p.max_backoff_s; ++i) delay *= 2.0;
  if (delay > p.max_backoff_s) delay = p.max_backoff_s;
  // Deterministic jitter in [0.5, 1.0): decorrelates concurrent retriers
  // without making runs irreproducible.
  const double u = static_cast<double>(
                       Mix64(p.jitter_seed ^ static_cast<uint64_t>(attempt)) >>
                       11) *
                   (1.0 / 9007199254740992.0);
  delay *= 0.5 + 0.5 * u;
  std::this_thread::sleep_for(std::chrono::duration<double>(delay));
  return delay;
}

}  // namespace internal

const char* DegradeEventName(DegradeEvent e) {
  switch (e) {
    case DegradeEvent::kTransientRetry: return "retry";
    case DegradeEvent::kRetryExhausted: return "retry_exhausted";
    case DegradeEvent::kIntegrityRefetch: return "integrity_refetch";
    case DegradeEvent::kPipelineOomFallback: return "pipeline_oom_fallback";
    case DegradeEvent::kScheduleFallback: return "schedule_fallback";
    case DegradeEvent::kCheckpointFallback: return "checkpoint_fallback";
    case DegradeEvent::kPeerDeath: return "peer_death";
    case DegradeEvent::kEpochRestart: return "epoch_restart";
    case DegradeEvent::kStepRecovery: return "step_recovery";
    case DegradeEvent::kPartitionAdopted: return "partition_adopted";
    case DegradeEvent::kCoordJournalReplay: return "coord_journal_replay";
    case DegradeEvent::kWorkerReattach: return "worker_reattach";
  }
  return "?";
}

std::string RecoveryCounters::ToString() const {
  std::string out;
  for (int e = 0; e < kNumDegradeEvents; ++e) {
    if (counts[e] == 0) continue;
    if (!out.empty()) out += ' ';
    out += DegradeEventName(static_cast<DegradeEvent>(e));
    out += '=';
    out += std::to_string(counts[e]);
  }
  return out;
}

void DegradationPolicy::Record(DegradeEvent e, const std::string& detail) {
  epoch_[static_cast<int>(e)].fetch_add(1, std::memory_order_relaxed);
  HT_LOG(WARNING) << "degradation [" << DegradeEventName(e) << "] " << detail;
}

void DegradationPolicy::RecordSetup(DegradeEvent e,
                                    const std::string& detail) {
  setup_[static_cast<int>(e)].fetch_add(1, std::memory_order_relaxed);
  HT_LOG(WARNING) << "degradation (setup) [" << DegradeEventName(e) << "] "
                  << detail;
}

void DegradationPolicy::ResetEpoch() {
  for (auto& c : epoch_) c.store(0, std::memory_order_relaxed);
}

RecoveryCounters DegradationPolicy::SnapshotEpoch() const {
  RecoveryCounters rc;
  for (int e = 0; e < kNumDegradeEvents; ++e) {
    rc.counts[e] = epoch_[e].load(std::memory_order_relaxed) +
                   setup_[e].load(std::memory_order_relaxed);
  }
  return rc;
}

}  // namespace fault
}  // namespace hongtu
