// Shared pieces of the repository benchmark: command-line options, the
// result every run prints, the ISIC scenario and serving model, the
// reference scores served answers are checked against, and the entry
// points of the three workloads and of the traced-run layers.
//
// Every workload derives its inputs from --seed. Input generation (the
// synthetic records) is never counted as set-up; set-up is model build
// (pool calibration), head training, server start and connect.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/fused.h"
#include "core/search.h"
#include "data/dataset.h"
#include "models/pool.h"
#include "serve/engine.h"
#include "stats.h"

namespace perfbench {

using namespace muffin;

/// Where spans and unix sockets go, relative to the repository root the
/// benchmark runs from (ignored by git).
inline constexpr const char* kOutDir = ".bench_build/out";

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Parses --workload --seed --seconds --trace; throws muffin::Error on
/// anything else.
[[nodiscard]] Options parse_options(int argc, char** argv);

/// What one run reports: metrics for the last stdout line, plus
/// descriptive fields (configuration, per-phase accounting) printed on
/// the line before it.
class Result {
 public:
  /// A traced run reports only per-layer metrics, an untraced one only
  /// end-to-end metrics; the other kind is dropped.
  explicit Result(bool traced) : traced_(traced) {}
  void end_to_end(const std::string& name, double value, const std::string& unit);
  void layer(const std::string& name, double value, const std::string& unit);
  void info(const std::string& key, double value);
  void info(const std::string& key, const std::string& value);
  /// A timing's sample count, median, quartiles, p99 (or the supported
  /// tail, with its percentile) and maximum as `<prefix>.<field>`.
  void info(const std::string& prefix, const Summary& summary);
  /// Records a failed output check; the run then reports correct=false.
  void check(bool ok, const std::string& what);

  [[nodiscard]] bool correct() const { return problems_.empty(); }
  [[nodiscard]] const std::vector<std::string>& problems() const { return problems_; }
  [[nodiscard]] std::string metrics_json() const;
  [[nodiscard]] std::string info_json() const;

  std::size_t attempted = 0;
  std::size_t failed = 0;  ///< failed + refused

 private:
  void metric(const std::string& name, double value, const std::string& unit);

  bool traced_;
  std::vector<std::pair<std::string, std::string>> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::string> problems_;
};

/// Requests of one load phase.
struct PhaseCount {
  std::size_t attempted = 0;
  std::size_t succeeded = 0;
  std::size_t failed = 0;
  std::size_t refused = 0;  ///< muffin::Overloaded
  void add(const PhaseCount& other);
  void report(Result& result, const std::string& phase) const;
};

/// The ISIC2019 scenario records (25,331, generator seed 2019 — the
/// scenario every paper bench uses). The scenario and the models trained
/// on it are the system under test, so they do not vary with --seed; the
/// traffic, the bulk stream and the search's sampling seed do.
[[nodiscard]] data::Dataset scenario_records();
/// A fresh ISIC2019-schema record stream drawn from `seed`.
[[nodiscard]] data::Dataset stream_records(std::size_t count, std::uint64_t seed);

/// The calibrated pool and the train and test parts of the paper's
/// 64/16/20 split over `full`.
struct Scenario {
  const data::Dataset* full = nullptr;
  data::Dataset train;
  data::Dataset test;
  models::ModelPool pool;
};
[[nodiscard]] std::unique_ptr<Scenario> build_scenario(const data::Dataset& full);

/// The served model: ShuffleNet_V2_X1_0 + DenseNet121 body, [18, 12]
/// ReLU head trained on the scenario's proxy set.
[[nodiscard]] std::shared_ptr<const core::FusedModel> build_serving_model(
    const Scenario& scenario);

/// bench_table1's search space and configuration with ShuffleNet_V2_X1_0
/// forced into the body; the search seed is drawn from `seed`.
[[nodiscard]] rl::SearchSpace search_space(const models::ModelPool& pool);
[[nodiscard]] core::MuffinSearchConfig search_config(std::size_t episodes,
                                                     std::uint64_t seed);

/// FusedModel::score_batch over a whole dataset: the rows every served
/// answer must equal bit for bit.
class Reference {
 public:
  Reference(const core::FusedModel& model, const data::Dataset& dataset);
  /// Scores bit-identical to row `index` and served by model version 1.
  [[nodiscard]] bool matches(std::size_t index,
                             const serve::Prediction& prediction) const;

 private:
  tensor::Matrix scores_;
};

/// Accuracy and U_age/U_site (paper Eq. 1) of the served answers:
/// `predicted[i]` is record i's served class, -1 when it was not served.
void report_served_quality(Result& result, const data::Dataset& dataset,
                           const std::vector<int>& predicted);

/// Seed, MUFFIN_THREADS, pool width, SIMD backend and quant mode.
void report_environment(Result& result, const Options& options);
[[nodiscard]] double peak_rss_mb();

/// Unix-socket endpoint inside the output directory.
[[nodiscard]] std::string socket_endpoint(const std::string& name);

// --- workloads ------------------------------------------------------------

void run_search(const Options& options, Result& result);
void run_interactive_hot(const Options& options, Result& result);
void run_bulk_remote(const Options& options, Result& result);

// --- traced-run layers ------------------------------------------------------

/// The search loop of MuffinSearch::run rebuilt from the public core, rl
/// and fairness calls, with a span around each layer call. Returns every
/// episode's reward (bit-identical to MuffinSearch::run on the same
/// inputs) and reports the rl/core/fairness/search per-layer metrics.
std::vector<double> traced_search(const Scenario& scenario,
                                  const core::MuffinSearchConfig& config,
                                  Result& result);

/// The serving ledger: one 32-record batch at a time through each layer
/// alone — body score_batch, fuse, engine (memo off), in-process router,
/// wire codec, remote round trip — plus engine submit x32 on a warm
/// memo, and the untraced remote round trip they must sum to. Returns the
/// counters of the warm-memo engine.
struct LedgerMemo {
  serve::EngineCounters counters;
  std::size_t bytes = 0;
};
LedgerMemo serving_ledger(std::shared_ptr<const core::FusedModel> model,
                          std::span<const data::Record> records, double budget_seconds,
                          Result& result);

/// Engine counters as per-layer metrics.
void report_engine_counters(Result& result, const serve::EngineCounters& counters,
                            std::size_t memo_bytes);

/// Per-layer set-up metrics from the recorded setup.* spans.
void report_setup_layers(Result& result);

/// Median of the spans named `name`, in microseconds.
[[nodiscard]] double span_median_us(const char* name);

}  // namespace perfbench
