#include "util/mapped_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace anc {

Result<std::unique_ptr<MappedFile>> MappedFile::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  struct stat st = {};
  if (::fstat(fd, &st) != 0) {
    const std::string message = std::strerror(errno);
    ::close(fd);
    return Status::IoError("cannot stat " + path + ": " + message);
  }
  const size_t size = static_cast<size_t>(st.st_size);
  const char* data = nullptr;
  if (size > 0) {
    void* mapping = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (mapping == MAP_FAILED) {
      const std::string message = std::strerror(errno);
      ::close(fd);
      return Status::IoError("cannot mmap " + path + ": " + message);
    }
    data = static_cast<const char*>(mapping);
  }
  ::close(fd);  // the mapping survives the descriptor
  return std::unique_ptr<MappedFile>(new MappedFile(path, data, size));
}

MappedFile::~MappedFile() {
  if (data_ != nullptr && size_ > 0) {
    ::munmap(const_cast<char*>(data_), size_);
  }
}

}  // namespace anc
