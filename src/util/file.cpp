#include "util/file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>

namespace pnet::util {

bool write_file(const std::string& path, std::string_view bytes) {
  if (path == "-") {
    return std::fwrite(bytes.data(), 1, bytes.size(), stdout) ==
           bytes.size();
  }
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0666);
  if (fd < 0) return false;
  bool ok = true;
  const char* at = bytes.data();
  std::size_t left = bytes.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, at, left);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ok = false;
      break;
    }
    at += n;
    left -= static_cast<std::size_t>(n);
  }
  struct stat st {};
  if (ok && ::fstat(fd, &st) == 0 && S_ISREG(st.st_mode)) {
    ok = ::ftruncate(fd, static_cast<off_t>(bytes.size())) == 0;
  }
  return ::close(fd) == 0 && ok;
}

}  // namespace pnet::util
