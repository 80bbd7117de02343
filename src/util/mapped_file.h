#ifndef ANC_UTIL_MAPPED_FILE_H_
#define ANC_UTIL_MAPPED_FILE_H_

#include <cstddef>
#include <memory>
#include <string>

#include "util/status.h"

namespace anc {

/// Read-only mmap of one file (a sealed cold segment, read by the tier and
/// by LoadIndex). The mapping is immutable for the object's lifetime; cold
/// column pages point straight into it, so the MappedFile must outlive
/// every reference — TieredStore keeps readers alive until no page and no
/// checkpoint head references their segment.
class MappedFile {
 public:
  static Result<std::unique_ptr<MappedFile>> Open(const std::string& path);
  ~MappedFile();

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  const char* data() const { return data_; }
  size_t size() const { return size_; }
  const std::string& path() const { return path_; }

  /// True when `ptr` aims into this mapping.
  bool Contains(const void* ptr) const {
    const char* p = static_cast<const char*>(ptr);
    return p >= data_ && p < data_ + size_;
  }

 private:
  MappedFile(std::string path, const char* data, size_t size)
      : path_(std::move(path)), data_(data), size_(size) {}

  std::string path_;
  const char* data_;
  size_t size_;
};

}  // namespace anc

#endif  // ANC_UTIL_MAPPED_FILE_H_
