#include "core/paths.hpp"

#include <cstdlib>
#include <system_error>

namespace rsd {

namespace {

namespace fs = std::filesystem;

/// A directory is the repo root if it is a git checkout or has the repo's
/// source layout (covers extracted tarballs without .git).
bool looks_like_repo_root(const fs::path& dir) {
  std::error_code ec;
  if (fs::exists(dir / ".git", ec)) return true;
  return fs::exists(dir / "CMakeLists.txt", ec) && fs::is_directory(dir / "src", ec) &&
         fs::is_directory(dir / "bench", ec);
}

}  // namespace

fs::path results_dir() {
  if (const char* env = std::getenv("RSD_RESULTS_DIR")) {
    if (*env != '\0') return fs::path{env};
  }
  std::error_code ec;
  fs::path dir = fs::current_path(ec);
  if (!ec) {
    for (; !dir.empty(); dir = dir.parent_path()) {
      if (looks_like_repo_root(dir)) return dir / "bench_results";
      if (!dir.has_parent_path() || dir.parent_path() == dir) break;
    }
  }
  return fs::path{"bench_results"};
}

}  // namespace rsd
