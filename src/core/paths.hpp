// Canonical output locations. Benches historically wrote bench_results/
// relative to the process CWD, so running from build/ and from the repo
// root produced two diverging result trees. `results_dir()` resolves one
// canonical location instead:
//
//   1. `RSD_RESULTS_DIR` (env), when set and non-empty;
//   2. `<repo root>/bench_results`, found by walking up from the CWD to
//      the first directory that looks like the repo checkout;
//   3. `<cwd>/bench_results` as a last resort.
//
// `rsd_bench --results-dir` bypasses this through
// `ExperimentContext::Options::results_dir`.
#pragma once

#include <filesystem>

namespace rsd {

/// The directory bench CSVs / metadata are written to (not created here).
[[nodiscard]] std::filesystem::path results_dir();

}  // namespace rsd
