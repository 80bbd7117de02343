#include "store/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "util/crc32c.h"
#include "store/test_hooks.h"

namespace anc::store {

namespace {

template <typename T>
void AppendPod(std::string* out, const T& value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T ReadPod(const char* p) {
  T value;
  std::memcpy(&value, p, sizeof(T));
  return value;
}

Status WriteAll(int fd, const char* data, size_t size,
                const std::string& path) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("write failed on " + path + ": " +
                             std::strerror(errno));
    }
    data += n;
    size -= static_cast<size_t>(n);
  }
  return Status::OK();
}

Status CrashStatus(CrashPoint point) {
  return Status::Unavailable(std::string("simulated crash at ") +
                             CrashPointName(point));
}

}  // namespace

Status FsyncFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("cannot open " + path + " for fsync: " +
                           std::strerror(errno));
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status::IoError("fsync failed on " + path + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status FsyncDir(const std::string& dir) {
  // Directory fsync makes renames/creates within it durable; some
  // filesystems refuse it, which is not fatal for the tests this backs.
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::IoError("cannot open directory " + dir + ": " +
                           std::strerror(errno));
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status::IoError("fsync failed on directory " + dir + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

void AppendWalFrame(std::string* out, const Activation* data, size_t count,
                    uint64_t first_seq) {
  const uint32_t length = static_cast<uint32_t>(
      sizeof(uint64_t) + sizeof(uint32_t) + count * kWalEntryBytes);
  std::string payload;
  payload.reserve(length);
  AppendPod(&payload, first_seq);
  AppendPod(&payload, static_cast<uint32_t>(count));
  for (size_t i = 0; i < count; ++i) {
    AppendPod(&payload, static_cast<uint32_t>(data[i].edge));
    AppendPod(&payload, data[i].time);
  }
  AppendPod(out, length);
  AppendPod(out, Crc32c(payload.data(), payload.size()));
  out->append(payload);
}

Result<WalRecord> DecodeWalFrame(const uint8_t* data, size_t size,
                                 size_t* consumed) {
  if (size < kWalFrameHeaderBytes) {
    return Status::InvalidArgument("WAL frame: short header");
  }
  const char* bytes = reinterpret_cast<const char*>(data);
  const uint32_t length = ReadPod<uint32_t>(bytes);
  const uint32_t crc = ReadPod<uint32_t>(bytes + 4);
  if (length < sizeof(uint64_t) + sizeof(uint32_t) ||
      length > kMaxWalPayloadBytes) {
    return Status::InvalidArgument("WAL frame: invalid length");
  }
  if (size - kWalFrameHeaderBytes < length) {
    return Status::InvalidArgument("WAL frame: short payload");
  }
  const char* payload = bytes + kWalFrameHeaderBytes;
  if (Crc32c(payload, length) != crc) {
    return Status::InvalidArgument("WAL frame: CRC mismatch");
  }
  const uint64_t first_seq = ReadPod<uint64_t>(payload);
  const uint32_t count = ReadPod<uint32_t>(payload + 8);
  if (count == 0 ||
      length != sizeof(uint64_t) + sizeof(uint32_t) +
                    static_cast<uint64_t>(count) * kWalEntryBytes) {
    return Status::InvalidArgument("WAL frame: inconsistent count");
  }
  WalRecord record;
  record.first_seq = first_seq;
  record.activations.resize(count);
  const char* entry = payload + 12;
  for (uint32_t i = 0; i < count; ++i, entry += kWalEntryBytes) {
    record.activations[i].edge = ReadPod<uint32_t>(entry);
    record.activations[i].time = ReadPod<double>(entry + 4);
  }
  if (consumed != nullptr) *consumed = kWalFrameHeaderBytes + length;
  return record;
}

Result<WalSegmentReader> WalSegmentReader::Open(const std::string& path,
                                                uint64_t offset) {
  Result<std::unique_ptr<MappedFile>> file = MappedFile::Open(path);
  if (!file.ok()) {
    return Status::IoError("cannot open WAL segment " + path + ": " +
                           file.status().message());
  }
  WalSegmentReader reader(std::move(file).value());
  const MappedFile& mapped = *reader.file_;
  if (mapped.size() < kWalSegmentHeaderBytes ||
      std::memcmp(mapped.data(), kWalMagic, sizeof(kWalMagic)) != 0) {
    return Status::InvalidArgument(path + ": not a WAL segment");
  }
  reader.base_seq_ = ReadPod<uint64_t>(mapped.data() + sizeof(kWalMagic));
  reader.offset_ = std::max<uint64_t>(offset, kWalSegmentHeaderBytes);
  return reader;
}

bool WalSegmentReader::Next(WalRecord* record, std::string_view* frame) {
  if (torn_tail_ || offset_ >= file_->size()) return false;
  const char* at = file_->data() + offset_;
  size_t consumed = 0;
  Result<WalRecord> decoded =
      DecodeWalFrame(reinterpret_cast<const uint8_t*>(at),
                     file_->size() - offset_, &consumed);
  if (!decoded.ok()) {
    torn_tail_ = true;
    return false;
  }
  *record = std::move(decoded).value();
  if (frame != nullptr) *frame = std::string_view(at, consumed);
  offset_ += consumed;
  return true;
}

Status WalSegmentReader::TruncateTornTail() const {
  if (!torn_tail_) return Status::OK();
  if (::truncate(file_->path().c_str(), static_cast<off_t>(offset_)) != 0) {
    return Status::IoError("cannot truncate torn tail of " + file_->path() +
                           ": " + std::strerror(errno));
  }
  return Status::OK();
}

Result<WalSegmentInfo> ReadWalSegment(
    const std::string& path, const std::function<Status(const WalRecord&)>& fn,
    bool truncate_torn_tail) {
  Result<WalSegmentReader> reader = WalSegmentReader::Open(path);
  ANC_RETURN_NOT_OK(reader.status());
  WalSegmentInfo info;
  info.base_seq = reader->base_seq();
  info.file_bytes = reader->file_bytes();
  WalRecord record;
  while (reader->Next(&record)) {
    ++info.records;
    info.activations += record.activations.size();
    info.last_seq = std::max(info.last_seq, record.last_seq());
    for (const Activation& a : record.activations) {
      info.last_time = std::max(info.last_time, a.time);
    }
    if (fn != nullptr) ANC_RETURN_NOT_OK(fn(record));
  }
  info.valid_bytes = reader->offset();
  info.torn_tail = reader->torn_tail();
  if (truncate_torn_tail) ANC_RETURN_NOT_OK(reader->TruncateTornTail());
  return info;
}

Result<std::unique_ptr<WalAppender>> WalAppender::Create(
    const std::string& path, uint64_t base_seq) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot create WAL segment " + path + ": " +
                           std::strerror(errno));
  }
  std::string header;
  header.append(kWalMagic, sizeof(kWalMagic));
  AppendPod(&header, base_seq);
  const Status written = WriteAll(fd, header.data(), header.size(), path);
  if (!written.ok()) {
    ::close(fd);
    return written;
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    return Status::IoError("fsync failed on new segment " + path);
  }
  return std::unique_ptr<WalAppender>(new WalAppender(path, fd, base_seq));
}

WalAppender::WalAppender(std::string path, int fd, uint64_t base_seq)
    : path_(std::move(path)), fd_(fd), base_seq_(base_seq) {
  appended_.seq = flushed_.seq = durable_.seq =
      base_seq_ > 0 ? base_seq_ - 1 : 0;
}

// Destructors cannot report; callers needing the final sync's status call
// Close() themselves first (Close is idempotent).
WalAppender::~WalAppender() { (void)Close(); }

Status WalAppender::Append(const Activation* data, size_t count,
                           uint64_t first_seq) {
  if (crashed_) return Status::Unavailable("WAL crashed (simulated)");
  if (closed_) return Status::FailedPrecondition("WAL segment closed");
  if (count == 0) return Status::InvalidArgument("empty WAL record");

  const size_t before = buffer_.size();
  AppendWalFrame(&buffer_, data, count, first_seq);
  frame_sizes_.push_back(buffer_.size() - before);
  double max_time = appended_.time;
  for (size_t i = 0; i < count; ++i) {
    max_time = std::max(max_time, data[i].time);
  }

  appended_.seq = std::max(appended_.seq, first_seq + count - 1);
  appended_.time = max_time;

  if (TestHooks::ShouldCrash(CrashPoint::kPostAppendPreFsync)) {
    // The record was accepted (buffered) but the process dies before any
    // write or fsync: it is gone. On-disk state is untouched.
    crashed_ = true;
    return CrashStatus(CrashPoint::kPostAppendPreFsync);
  }
  return Status::OK();
}

Status WalAppender::Flush() {
  if (crashed_) return Status::Unavailable("WAL crashed (simulated)");
  if (closed_) return Status::FailedPrecondition("WAL segment closed");
  if (buffer_.empty()) return Status::OK();

  if (TestHooks::ShouldCrash(CrashPoint::kMidRecord)) {
    // Tear the first pending frame: its header plus part of its payload
    // reach the file, the rest never does. flushed/durable marks do not
    // advance, so the durable contract is preserved.
    const size_t frame = frame_sizes_.front();
    const size_t torn = std::max<size_t>(kWalFrameHeaderBytes + 1, frame / 2);
    // Best-effort by design: the simulated death happens mid-write anyway.
    (void)WriteAll(fd_, buffer_.data(), std::min(torn, frame - 1), path_);
    crashed_ = true;
    return CrashStatus(CrashPoint::kMidRecord);
  }

  const Status written = WriteAll(fd_, buffer_.data(), buffer_.size(), path_);
  if (!written.ok()) return written;
  flushed_bytes_ += buffer_.size();
  flushed_ = appended_;
  buffer_.clear();
  frame_sizes_.clear();
  return Status::OK();
}

Status WalAppender::Sync(bool* fsynced) {
  if (fsynced != nullptr) *fsynced = false;
  ANC_RETURN_NOT_OK(Flush());
  if (flushed_.seq == durable_.seq && flushed_.time == durable_.time) {
    return Status::OK();  // nothing new reached the file since last fsync
  }
  if (::fsync(fd_) != 0) {
    return Status::IoError("fsync failed on " + path_ + ": " +
                           std::strerror(errno));
  }
  durable_ = flushed_;
  if (fsynced != nullptr) *fsynced = true;
  return Status::OK();
}

Status WalAppender::Close() {
  if (closed_) return Status::OK();
  Status status = Status::OK();
  if (!crashed_) status = Sync();
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  closed_ = true;
  return status;
}

}  // namespace anc::store
