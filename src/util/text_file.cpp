#include "util/text_file.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace treesvd {

bool write_text_file(const std::string& path, std::string_view text) {
  errno = 0;
  std::FILE* f = std::fopen(path.c_str(), "w");
  bool ok = f != nullptr && std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
            std::fflush(f) == 0;
  int err = errno;
  if (f != nullptr && std::fclose(f) != 0 && ok) {
    ok = false;
    err = errno;
  }
  if (!ok) std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(), std::strerror(err));
  return ok;
}

}  // namespace treesvd
