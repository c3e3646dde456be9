// Shared setup for the paper-reproduction benches.
//
// Every bench binary regenerates one table or figure of the paper on the
// synthetic scenario (data/generators.h, models/calibrated.h).
// Environment knobs:
//   MUFFIN_SAMPLES       dataset size (default: the real dataset sizes,
//                        25331 for ISIC2019 / 16577 for Fitzpatrick17K)
//   MUFFIN_EPISODES      RL episodes for search benches (default per bench)
//   MUFFIN_SEED          master scenario seed (default 2019)
#pragma once

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/table.h"
#include "data/generators.h"
#include "fairness/metrics.h"
#include "models/pool.h"

namespace muffin::bench {

/// Minimal machine-readable bench output: an ordered flat JSON object
/// (dotted keys encode sections, e.g. "steady_state.engine_b32.rps") so the
/// perf trajectory can be tracked across PRs without a JSON dependency.
class BenchJson {
 public:
  void add(const std::string& key, double value) {
    std::ostringstream os;
    os.precision(6);
    os << value;
    entries_.emplace_back(key, os.str());
  }
  void add(const std::string& key, std::size_t value) {
    entries_.emplace_back(key, std::to_string(value));
  }
  void add(const std::string& key, bool value) {
    entries_.emplace_back(key, value ? "true" : "false");
  }
  void add_string(const std::string& key, const std::string& value) {
    std::string escaped = "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') escaped += '\\';
      escaped += c;
    }
    escaped += '"';
    entries_.emplace_back(key, escaped);
  }

  /// Writes the object to `path`; reports the destination on stdout.
  void write(const std::string& path) const {
    std::ofstream os(path);
    if (!os) {
      std::cerr << "could not write " << path << "\n";
      return;
    }
    os << "{\n";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      os << "  \"" << entries_[i].first << "\": " << entries_[i].second
         << (i + 1 < entries_.size() ? "," : "") << "\n";
    }
    os << "}\n";
    std::cout << "wrote " << path << "\n";
  }

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

inline std::size_t env_size(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  const long long parsed = std::atoll(value);
  return parsed > 0 ? static_cast<std::size_t>(parsed) : fallback;
}

/// The ISIC2019 scenario: full dataset, paper splits (64/16/20) and the
/// ten-architecture calibrated pool.
struct IsicScenario {
  data::Dataset full;
  data::Dataset train;
  data::Dataset validation;
  data::Dataset test;
  models::ModelPool pool;

  explicit IsicScenario(std::size_t samples = 0, std::uint64_t seed = 0)
      : full(data::synthetic_isic2019(
            samples ? samples : env_size("MUFFIN_SAMPLES", 25331),
            seed ? seed : env_size("MUFFIN_SEED", 2019))),
        pool(models::calibrated_isic_pool(full)) {
    SplitRng rng(full.record(0).uid ^ 0x5eedULL);
    const data::SplitIndices split = full.split(0.64, 0.16, rng);
    train = full.subset(split.train, ":train");
    validation = full.subset(split.validation, ":val");
    test = full.subset(split.test, ":test");
  }
};

/// The Fitzpatrick17K scenario (§4.5).
struct FitzpatrickScenario {
  data::Dataset full;
  data::Dataset train;
  data::Dataset validation;
  data::Dataset test;
  models::ModelPool pool;

  explicit FitzpatrickScenario(std::size_t samples = 0)
      : full(data::synthetic_fitzpatrick17k(
            samples ? samples : env_size("MUFFIN_SAMPLES", 16577))),
        pool(models::calibrated_fitzpatrick_pool(full)) {
    SplitRng rng(full.record(0).uid ^ 0x5eedULL);
    const data::SplitIndices split = full.split(0.64, 0.16, rng);
    train = full.subset(split.train, ":train");
    validation = full.subset(split.validation, ":val");
    test = full.subset(split.test, ":test");
  }
};

inline void print_header(const std::string& title, const std::string& note) {
  std::cout << "\n=== " << title << " ===\n";
  if (!note.empty()) std::cout << note << "\n";
  std::cout << "\n";
}

/// Record indices of one attribute's unprivileged groups.
inline std::vector<std::size_t> unprivileged_indices(
    const data::Dataset& dataset, const std::string& attribute) {
  const std::size_t a = data::attribute_index(dataset.schema(), attribute);
  std::vector<std::size_t> indices;
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    if (dataset.is_unprivileged(a, dataset.record(i).groups[a])) {
      indices.push_back(i);
    }
  }
  return indices;
}

}  // namespace muffin::bench
