#include "bench.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <sstream>

#include "common/error.h"
#include "common/parallel_for.h"
#include "common/rng.h"
#include "core/head_trainer.h"
#include "data/generators.h"
#include "fairness/metrics.h"
#include "tensor/quant.h"
#include "tensor/simd.h"
#include "trace.h"

namespace perfbench {

namespace {

std::string json_number(double value) {
  std::ostringstream out;
  out.precision(17);
  out << value;
  return out.str();
}

std::string json_string(const std::string& value) {
  std::string out = "\"";
  for (const char c : value) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_object(const std::vector<std::pair<std::string, std::string>>& entries) {
  std::string out = "{";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    out += (i ? ", " : "") + json_string(entries[i].first) + ": " + entries[i].second;
  }
  return out + "}";
}

}  // namespace

Options parse_options(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    MUFFIN_REQUIRE(i + 1 < argc, "missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
      MUFFIN_REQUIRE(options.seconds >= 1.0 && options.seconds <= 120.0,
                     "--seconds must be in [1, 120]");
    } else if (flag == "--trace") {
      MUFFIN_REQUIRE(value == "0" || value == "1", "--trace must be 0 or 1");
      options.trace = value == "1";
    } else {
      throw Error("unknown flag " + flag);
    }
  }
  MUFFIN_REQUIRE(have_workload, "--workload is required");
  return options;
}

void Result::metric(const std::string& name, double value, const std::string& unit) {
  metrics_.emplace_back(name, "{\"value\": " + json_number(value) +
                                  ", \"unit\": " + json_string(unit) + "}");
}

void Result::end_to_end(const std::string& name, double value, const std::string& unit) {
  if (!traced_) metric(name, value, unit);
}

void Result::layer(const std::string& name, double value, const std::string& unit) {
  if (traced_) metric(name, value, unit);
}

void Result::info(const std::string& key, double value) {
  info_.emplace_back(key, json_number(value));
}

void Result::info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, json_string(value));
}

void Result::info(const std::string& prefix, const Summary& summary) {
  info(prefix + ".count", static_cast<double>(summary.count));
  info(prefix + ".median", summary.median);
  info(prefix + ".q1", summary.q1);
  info(prefix + ".q3", summary.q3);
  info(prefix + ".p99", summary.p99);
  info(prefix + ".tail_percentile", summary.tail_percentile);
  info(prefix + ".max", summary.max);
}

void Result::check(bool ok, const std::string& what) {
  if (!ok) problems_.push_back(what);
}

std::string Result::metrics_json() const {
  return "{\"correct\": " + std::string(correct() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) +
         ", \"metrics\": " + json_object(metrics_) + "}";
}

std::string Result::info_json() const {
  std::vector<std::pair<std::string, std::string>> entries = info_;
  std::string problems = "[";
  for (std::size_t i = 0; i < problems_.size(); ++i) {
    problems += (i ? ", " : "") + json_string(problems_[i]);
  }
  entries.emplace_back("check_failures", problems + "]");
  return json_object(entries);
}

void PhaseCount::add(const PhaseCount& other) {
  attempted += other.attempted;
  succeeded += other.succeeded;
  failed += other.failed;
  refused += other.refused;
}

void PhaseCount::report(Result& result, const std::string& phase) const {
  result.info(phase + ".attempted", static_cast<double>(attempted));
  result.info(phase + ".succeeded", static_cast<double>(succeeded));
  result.info(phase + ".failed", static_cast<double>(failed));
  result.info(phase + ".refused", static_cast<double>(refused));
}

data::Dataset scenario_records() { return data::synthetic_isic2019(25331, 2019); }

data::Dataset stream_records(std::size_t count, std::uint64_t seed) {
  return data::synthetic_isic2019(count, SplitRng(seed).fork("record-stream").seed());
}

std::unique_ptr<Scenario> build_scenario(const data::Dataset& full) {
  ScopedSpan span("setup.scenario");
  auto scenario = std::make_unique<Scenario>();
  scenario->full = &full;
  scenario->pool = models::calibrated_isic_pool(full);
  SplitRng rng(full.record(0).uid ^ 0x5eedULL);
  const data::SplitIndices split = full.split(0.64, 0.16, rng);
  scenario->train = full.subset(split.train, ":train");
  scenario->test = full.subset(split.test, ":test");
  return scenario;
}

std::shared_ptr<const core::FusedModel> build_serving_model(const Scenario& scenario) {
  ScopedSpan span("setup.head_train");
  rl::StructureChoice choice;
  choice.model_indices = {scenario.pool.index_of("ShuffleNet_V2_X1_0"),
                          scenario.pool.index_of("DenseNet121")};
  choice.hidden_dims = {18, 12};
  choice.activation = nn::Activation::Relu;
  const core::FusingStructure structure = core::FusingStructure::from_choice(
      choice, scenario.train.num_classes());
  const core::ScoreCache cache(scenario.pool, scenario.train);
  const core::ProxyDataset proxy = core::build_proxy(scenario.train);
  core::HeadTrainConfig config;
  config.epochs = 10;
  nn::Mlp head = core::train_head(cache, scenario.train, proxy, structure, config);
  std::vector<models::ModelPtr> body;
  for (const std::size_t m : choice.model_indices) body.push_back(scenario.pool.share(m));
  return std::make_shared<core::FusedModel>("Muffin-serving", std::move(body),
                                            std::move(head));
}

rl::SearchSpace search_space(const models::ModelPool& pool) {
  rl::SearchSpace space;
  space.pool_size = pool.size();
  space.paired_models = 2;
  space.forced_models = {pool.index_of("ShuffleNet_V2_X1_0")};
  space.hidden_width_choices = {8, 10, 12, 16, 18};
  space.min_hidden_layers = 1;
  space.max_hidden_layers = 3;
  return space;
}

core::MuffinSearchConfig search_config(std::size_t episodes, std::uint64_t seed) {
  core::MuffinSearchConfig config;
  config.episodes = episodes;
  config.controller_batch = 8;
  config.reward.attributes = {"age", "site"};
  config.head_train.epochs = 14;
  config.proxy.max_samples = 4000;
  config.seed = SplitRng(seed).fork("search").seed();
  return config;
}

Reference::Reference(const core::FusedModel& model, const data::Dataset& dataset) {
  const std::size_t n = dataset.size();
  const std::size_t classes = model.num_classes();
  scores_.resize(n, classes);
  constexpr std::size_t kChunk = 8192;
  for (std::size_t begin = 0; begin < n; begin += kChunk) {
    const std::size_t end = std::min(n, begin + kChunk);
    std::vector<data::Record> chunk;
    chunk.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) chunk.push_back(dataset.record(i));
    const tensor::Matrix scored = model.score_batch(chunk);
    std::memcpy(scores_.row(begin).data(), scored.flat().data(),
                scored.size() * sizeof(double));
  }
}

bool Reference::matches(std::size_t index, const serve::Prediction& prediction) const {
  const std::span<const double> expected = scores_.row(index);
  return prediction.model_version == 1 &&
         prediction.scores.size() == expected.size() &&
         std::memcmp(prediction.scores.data(), expected.data(),
                     expected.size() * sizeof(double)) == 0;
}

void report_served_quality(Result& result, const data::Dataset& dataset,
                           const std::vector<int>& predicted) {
  std::vector<std::size_t> indices;
  std::vector<std::size_t> predictions;
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    if (predicted[i] < 0) continue;
    indices.push_back(i);
    predictions.push_back(static_cast<std::size_t>(predicted[i]));
  }
  MUFFIN_REQUIRE(!indices.empty(), "no records were served");
  const data::Dataset served = dataset.subset(indices, ":served");
  const fairness::FairnessReport report = fairness::evaluate_predictions(served, predictions);
  result.end_to_end("accuracy", report.accuracy, "ratio");
  result.end_to_end("unfairness_age", report.unfairness_for("age"), "ratio");
  result.end_to_end("unfairness_site", report.unfairness_for("site"), "ratio");
  result.info("quality.records", static_cast<double>(indices.size()));
}

void report_environment(Result& result, const Options& options) {
  const char* threads = std::getenv("MUFFIN_THREADS");
  result.info("workload", options.workload);
  result.info("seed", static_cast<double>(options.seed));
  result.info("seconds", options.seconds);
  result.info("trace", options.trace ? 1.0 : 0.0);
  result.info("MUFFIN_THREADS", threads != nullptr ? threads : "");
  result.info("global_pool_size", static_cast<double>(common::global_pool_size()));
  result.info("simd_backend", std::string(tensor::simd_backend_name()));
  result.info("quant_mode", std::string(tensor::quant_mode_name(tensor::active_quant_mode())));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string socket_endpoint(const std::string& name) {
  return "unix:" + std::string(kOutDir) + "/" + std::to_string(::getpid()) + "-" + name +
         ".sock";
}

double span_median_us(const char* name) {
  return summarize(Tracer::instance().durations_us(name)).median;
}

void report_engine_counters(Result& result, const serve::EngineCounters& counters,
                            std::size_t memo_bytes) {
  const auto ratio = [](std::size_t num, std::size_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
  };
  result.layer("engine.memo_hit_ratio", ratio(counters.cache_hits, counters.requests),
                "ratio");
  result.layer("engine.memo_bytes", static_cast<double>(memo_bytes), "bytes");
  result.layer("engine.batch_fill", ratio(counters.requests, counters.batches),
                "requests/batch");
  result.layer("engine.consensus_ratio",
                ratio(counters.consensus_short_circuits,
                      counters.requests - counters.cache_hits),
                "ratio");
}

void report_setup_layers(Result& result) {
  result.layer("setup.scenario_ms", span_median_us("setup.scenario") / 1e3, "ms");
  result.layer("setup.head_train_ms", span_median_us("setup.head_train") / 1e3, "ms");
  result.layer("setup.server_start_ms", span_median_us("setup.server_start") / 1e3, "ms");
}

}  // namespace perfbench
