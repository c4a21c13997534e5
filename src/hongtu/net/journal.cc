#include "hongtu/net/journal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "hongtu/common/crc32c.h"
#include "hongtu/common/fault.h"
#include "hongtu/net/wire.h"

namespace hongtu {
namespace net {

namespace {

constexpr uint32_t kJournalMagic = 0x4c4a5448u;  // "HTJL" little-endian
constexpr uint32_t kJournalVersion = 1;

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>(v >> (8 * i)));
  }
}
void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>(v >> (8 * i)));
  }
}
uint32_t GetU32(const unsigned char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}
uint64_t GetU64(const unsigned char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

Status WriteAll(int fd, const void* data, size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("journal write: ") +
                             std::strerror(errno));
    }
    p += w;
    n -= static_cast<size_t>(w);
  }
  return Status::OK();
}

Status FsyncFd(int fd) {
  if (::fsync(fd) != 0) {
    return Status::IoError(std::string("journal fsync: ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status FsyncPath(const std::string& path, bool directory) {
  const int fd = ::open(path.c_str(), directory ? O_RDONLY | O_DIRECTORY
                                                : O_RDONLY);
  if (fd < 0) {
    return Status::IoError("journal fsync open '" + path +
                           "': " + std::strerror(errno));
  }
  const Status st = FsyncFd(fd);
  ::close(fd);
  return st;
}

std::string DirOf(const std::string& path) {
  const size_t slash = path.rfind('/');
  return slash == std::string::npos ? std::string(".") : path.substr(0, slash);
}

/// One framed record: [type][len][payload][crc(type||len||payload)].
std::string FrameRecord(JournalRecordType type, const std::string& payload) {
  std::string rec;
  rec.reserve(16 + payload.size() + 4);
  PutU32(&rec, static_cast<uint32_t>(type));
  PutU64(&rec, payload.size());
  rec.append(payload);
  PutU32(&rec, Crc32c(rec.data(), rec.size()));
  return rec;
}

}  // namespace

Result<std::unique_ptr<ClusterJournal>> ClusterJournal::Open(
    const std::string& path) {
  int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
  if (fd < 0 && errno == ENOENT) {
    fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_EXCL, 0644);
    if (fd >= 0) {
      std::string hdr;
      PutU32(&hdr, kJournalMagic);
      PutU32(&hdr, kJournalVersion);
      Status st = WriteAll(fd, hdr.data(), hdr.size());
      if (st.ok()) st = FsyncFd(fd);
      if (st.ok()) st = FsyncPath(DirOf(path), /*directory=*/true);
      if (!st.ok()) {
        ::close(fd);
        ::unlink(path.c_str());
        return st;
      }
    }
  }
  if (fd < 0) {
    return Status::IoError("journal open '" + path +
                           "': " + std::strerror(errno));
  }
  return std::unique_ptr<ClusterJournal>(new ClusterJournal(path, fd));
}

ClusterJournal::~ClusterJournal() {
  if (fd_ >= 0) ::close(fd_);
}

Status ClusterJournal::Append(JournalRecordType type,
                              const std::string& payload) {
  HT_RETURN_IF_ERROR(fault::Poke(fault::Site::kJournalWrite));
  if (fd_ < 0) return Status::Internal("journal closed");
  const std::string rec = FrameRecord(type, payload);
  HT_RETURN_IF_ERROR(WriteAll(fd_, rec.data(), rec.size()));
  return FsyncFd(fd_);
}

Status ClusterJournal::Compact(const std::vector<JournalRecord>& records) {
  const std::string tmp = path_ + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("journal compact open '" + tmp +
                           "': " + std::strerror(errno));
  }
  Status st = [&]() -> Status {
    std::string hdr;
    PutU32(&hdr, kJournalMagic);
    PutU32(&hdr, kJournalVersion);
    HT_RETURN_IF_ERROR(WriteAll(fd, hdr.data(), hdr.size()));
    for (const JournalRecord& r : records) {
      const std::string rec = FrameRecord(r.type, r.payload);
      HT_RETURN_IF_ERROR(WriteAll(fd, rec.data(), rec.size()));
    }
    return FsyncFd(fd);
  }();
  ::close(fd);
  if (!st.ok()) {
    ::unlink(tmp.c_str());
    return st;
  }
  if (::rename(tmp.c_str(), path_.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return Status::IoError("journal rename to '" + path_ +
                           "': " + std::strerror(errno));
  }
  HT_RETURN_IF_ERROR(FsyncPath(DirOf(path_), /*directory=*/true));
  // The old fd points at the unlinked inode; reopen the installed file.
  const int nfd = ::open(path_.c_str(), O_WRONLY | O_APPEND);
  if (nfd < 0) {
    return Status::IoError("journal reopen '" + path_ +
                           "': " + std::strerror(errno));
  }
  if (fd_ >= 0) ::close(fd_);
  fd_ = nfd;
  return Status::OK();
}

Result<std::vector<JournalRecord>> ClusterJournal::Replay(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::vector<JournalRecord>{};
  std::fseek(f, 0, SEEK_END);
  const long fsize = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<unsigned char> image(fsize > 0 ? static_cast<size_t>(fsize) : 0);
  const size_t got =
      image.empty() ? 0 : std::fread(image.data(), 1, image.size(), f);
  std::fclose(f);
  if (got != image.size()) {
    return Status::IoError("journal '" + path + "': short read");
  }
  if (image.size() < 8 || GetU32(image.data()) != kJournalMagic) {
    return Status::DataLoss("journal '" + path + "': bad header");
  }
  if (GetU32(image.data() + 4) != kJournalVersion) {
    return Status::DataLoss("journal '" + path + "': unsupported version");
  }

  std::vector<JournalRecord> out;
  size_t off = 8;
  while (off < image.size()) {
    // Any structural damage from here on is a torn tail: the durable prefix
    // is what a crashed append left behind, so stop without error.
    const size_t avail = image.size() - off;
    if (avail < 16) break;
    const uint32_t type = GetU32(image.data() + off);
    const uint64_t len = GetU64(image.data() + off + 4);
    if (len > avail - 16) break;
    const uint32_t want = GetU32(image.data() + off + 12 + len);
    if (Crc32c(image.data() + off, 12 + len) != want) break;
    JournalRecord rec;
    rec.type = static_cast<JournalRecordType>(type);
    rec.payload.assign(reinterpret_cast<const char*>(image.data() + off + 12),
                       static_cast<size_t>(len));
    out.push_back(std::move(rec));
    off += 16 + len;
  }
  return out;
}

Result<JournalState> BuildJournalState(
    const std::vector<JournalRecord>& recs) {
  JournalState js;
  for (const JournalRecord& r : recs) {
    WireReader rd(r.payload);
    switch (r.type) {
      case JournalRecordType::kTerm: {
        HT_ASSIGN_OR_RETURN(const uint64_t t, rd.U64());
        js.term = std::max(js.term, t);
        break;
      }
      case JournalRecordType::kMember: {
        HT_ASSIGN_OR_RETURN(const uint32_t rank, rd.U32());
        JournalState::Member m;
        HT_ASSIGN_OR_RETURN(m.addr, rd.Str());
        HT_ASSIGN_OR_RETURN(m.pid, rd.U64());
        js.members[static_cast<int>(rank)] = m;  // re-registration: last wins
        break;
      }
      case JournalRecordType::kMemberDead: {
        HT_ASSIGN_OR_RETURN(const uint32_t rank, rd.U32());
        auto it = js.members.find(static_cast<int>(rank));
        if (it != js.members.end()) it->second.dead = true;
        break;
      }
      case JournalRecordType::kRunStart: {
        HT_ASSIGN_OR_RETURN(const uint64_t run, rd.U64());
        HT_ASSIGN_OR_RETURN(const uint64_t epoch, rd.U64());
        HT_ASSIGN_OR_RETURN(const uint32_t eval, rd.U32());
        js.run = run;
        js.run_epoch = static_cast<int64_t>(epoch);
        js.run_eval = eval != 0;
        js.reports.clear();
        js.max_run = std::max(js.max_run, run);
        break;
      }
      case JournalRecordType::kDoneReport: {
        HT_ASSIGN_OR_RETURN(const uint64_t run, rd.U64());
        HT_ASSIGN_OR_RETURN(const uint32_t rank, rd.U32());
        HT_ASSIGN_OR_RETURN(std::string raw, rd.Str());
        js.max_run = std::max(js.max_run, run);
        if (run == js.run) {
          // Duplicate report (coordinator died between fsync and ack, then
          // the worker resent): first writer wins, matching the in-memory
          // `received` dedup guard.
          js.reports.emplace(static_cast<int>(rank), std::move(raw));
        }
        break;
      }
      case JournalRecordType::kApplied: {
        HT_ASSIGN_OR_RETURN(const uint64_t applied, rd.U64());
        HT_ASSIGN_OR_RETURN(js.ckpt_path, rd.Str());
        js.epochs_applied = static_cast<int64_t>(applied);
        if (rd.remaining() > 0) {
          HT_ASSIGN_OR_RETURN(const uint64_t max_run, rd.U64());
          js.max_run = std::max(js.max_run, max_run);
        }
        // The in-flight run (if it was this epoch's) is settled.
        if (js.run != 0 && js.run_epoch >= 0 &&
            js.run_epoch < js.epochs_applied) {
          js.run = 0;
          js.run_epoch = -1;
          js.reports.clear();
        }
        break;
      }
      default:
        return Status::DataLoss("journal: unknown record type " +
                                std::to_string(static_cast<uint32_t>(r.type)));
    }
  }
  return js;
}

std::string EncodeApplied(int64_t epochs_applied, const std::string& ckpt_path,
                          uint64_t max_run) {
  WireWriter w;
  w.U64(static_cast<uint64_t>(epochs_applied));
  w.Str(ckpt_path);
  w.U64(max_run);
  return w.Take();
}

std::vector<JournalRecord> CompactRecords(const JournalState& js) {
  std::vector<JournalRecord> live;
  {
    WireWriter w;
    w.U64(js.term);
    live.push_back(JournalRecord{JournalRecordType::kTerm, w.Take()});
  }
  for (const auto& [rank, m] : js.members) {
    if (m.dead || m.addr.empty()) continue;
    WireWriter w;
    w.U32(static_cast<uint32_t>(rank));
    w.Str(m.addr);
    w.U64(m.pid);
    live.push_back(JournalRecord{JournalRecordType::kMember, w.Take()});
  }
  live.push_back(JournalRecord{
      JournalRecordType::kApplied,
      EncodeApplied(js.epochs_applied, js.ckpt_path, js.max_run)});
  return live;
}

}  // namespace net
}  // namespace hongtu
