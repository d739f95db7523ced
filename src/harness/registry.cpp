#include "harness/registry.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

namespace rsd::harness {

namespace {

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::istringstream in{csv};
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

std::string_view strip_bench_prefix(std::string_view pattern) {
  constexpr std::string_view kPrefix = "bench_";
  if (pattern.substr(0, kPrefix.size()) == kPrefix) pattern.remove_prefix(kPrefix.size());
  return pattern;
}

}  // namespace

bool glob_match(std::string_view pattern, std::string_view text) {
  // Iterative glob with single-star backtracking: on mismatch, retry from
  // the last `*` consuming one more character of `text`.
  std::size_t p = 0, t = 0;
  std::size_t star = std::string_view::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == '?' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      star_t = t;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

Experiment::Experiment(std::string name, const std::string& tags_csv, std::string description,
                       RunFn fn)
    : name_(std::move(name)),
      tags_(split_csv(tags_csv)),
      description_(std::move(description)),
      fn_(fn) {}

bool register_experiment(std::string name, const std::string& tags_csv, std::string description,
                         Experiment::RunFn fn) {
  return Registry::global().add(std::make_unique<Experiment>(
      std::move(name), tags_csv, std::move(description), fn));
}

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

bool Registry::add(std::unique_ptr<Experiment> experiment) {
  const std::string& name = experiment->name();
  const auto pos = std::lower_bound(
      experiments_.begin(), experiments_.end(), name,
      [](const std::unique_ptr<Experiment>& e, const std::string& n) { return e->name() < n; });
  if (pos != experiments_.end() && (*pos)->name() == name) {
    errors_.push_back("duplicate experiment name: " + name);
    return false;
  }
  experiments_.insert(pos, std::move(experiment));
  return true;
}

const Experiment* Registry::find(std::string_view name) const {
  for (const auto& e : experiments_) {
    if (e->name() == name) return e.get();
  }
  return nullptr;
}

std::vector<const Experiment*> Registry::select(const std::vector<std::string>& patterns,
                                                const std::vector<std::string>& tags) const {
  std::vector<const Experiment*> out;
  for (const auto& e : experiments_) {
    const bool name_ok =
        patterns.empty() ||
        std::any_of(patterns.begin(), patterns.end(), [&](const std::string& pattern) {
          return glob_match(strip_bench_prefix(pattern), e->name());
        });
    const bool tag_ok = tags.empty() ||
                        std::any_of(tags.begin(), tags.end(), [&](const std::string& tag) {
                          const auto& have = e->tags();
                          return std::find(have.begin(), have.end(), tag) != have.end();
                        });
    if (name_ok && tag_ok) out.push_back(e.get());
  }
  return out;
}

}  // namespace rsd::harness
