// Workload `search`: the paper's Fig. 4 loop, MuffinSearch::run on the
// ISIC scenario with bench_table1's space and configuration.
//
// A run performs kSearches searches of kEpisodes episodes, each under its
// own search seed drawn from --seed, and repeats them while time remains.
// Each search first builds the model pool and the search's score caches
// (that is set-up), then runs (that is the measured loop). A "request" of
// this workload is one episode: throughput_rps is episodes per second,
// and an episode's latency is the wall time of its controller batch
// (sample -> train heads -> evaluate -> update), when its reward becomes
// known.
#include <future>
#include <map>

#include "bench.h"
#include "common/parallel_for.h"
#include "common/rng.h"
#include "core/head_trainer.h"
#include "core/reward.h"
#include "fairness/metrics.h"
#include "trace.h"

namespace perfbench {

namespace {

constexpr std::size_t kEpisodes = 32;
/// Distinct searches per run: the speed and quality figures are medians
/// over this many sampled trajectories, not one. Searches run again, as a
/// determinism check, while time remains.
constexpr std::size_t kSearches = 16;

bool same_report(const fairness::FairnessReport& a, const fairness::FairnessReport& b) {
  if (a.accuracy != b.accuracy || a.attributes.size() != b.attributes.size()) return false;
  for (std::size_t i = 0; i < a.attributes.size(); ++i) {
    const auto& x = a.attributes[i];
    const auto& y = b.attributes[i];
    if (x.attribute != y.attribute || x.unfairness != y.unfairness ||
        x.group_accuracy != y.group_accuracy || x.group_count != y.group_count) {
      return false;
    }
  }
  return true;
}

std::vector<double> rewards_of(const core::SearchResult& result) {
  std::vector<double> rewards;
  for (const core::EpisodeRecord& episode : result.episodes) rewards.push_back(episode.reward);
  return rewards;
}

/// The seed an episode's head was trained with. A structure first seen in
/// an earlier controller batch is answered from the search's memo, which
/// holds its first evaluation; otherwise (a repeat inside one batch too)
/// the episode was evaluated under its own index.
std::uint64_t episode_seed_of(const core::SearchResult& result, std::size_t index,
                              std::size_t controller_batch) {
  const std::string key = result.episodes[index].choice.to_string();
  const std::size_t batch_start = index - index % controller_batch;
  for (std::size_t i = 0; i < batch_start; ++i) {
    if (result.episodes[i].choice.to_string() == key) return i;
  }
  return index;
}

/// Checks the best episode against a fresh evaluate_choice and returns its
/// fused model with that model's report on the test split.
std::pair<std::shared_ptr<core::FusedModel>, fairness::FairnessReport> check_best(
    core::MuffinSearch& search, const core::SearchResult& run,
    const core::MuffinSearchConfig& config, const Scenario& scenario, Result& result) {
  const core::EpisodeRecord& best = run.best();
  const std::uint64_t seed = episode_seed_of(run, run.best_index, config.controller_batch);
  result.check(same_report(search.evaluate_choice(best.choice, seed).eval_report,
                           best.eval_report),
               "evaluate_choice does not reproduce the best episode's eval_report");
  std::shared_ptr<core::FusedModel> fused;
  {
    ScopedSpan span("setup.head_train");
    fused = search.build_fused(best.choice, "Muffin-best", seed);
  }
  return {fused, fairness::evaluate_model(*fused, scenario.test)};
}

/// The search seed of the `index`-th distinct search of a run.
std::uint64_t search_seed(std::uint64_t seed, std::size_t index) {
  return SplitRng(seed).fork("search:" + std::to_string(index)).seed();
}

}  // namespace

std::vector<double> traced_search(const Scenario& scenario,
                                  const core::MuffinSearchConfig& config,
                                  Result& result) {
  const data::Dataset& eval = *scenario.full;
  const core::ScoreCache train_cache(scenario.pool, scenario.train);
  const core::ScoreCache eval_cache(scenario.pool, eval);
  const fairness::GroupPartition partition(eval);
  const core::ProxyDataset proxy = core::build_proxy(scenario.train, config.proxy);
  rl::RnnController controller(search_space(scenario.pool), config.controller);
  SplitRng sample_rng = SplitRng(config.seed).fork("controller-sampling");
  common::ThreadPool& pool = common::global_pool();

  std::map<std::string, double> memo;
  std::vector<double> rewards;
  std::size_t memo_hits = 0;
  const Clock::time_point start = Clock::now();
  for (std::size_t episode = 0; episode < config.episodes;) {
    const std::size_t batch = std::min(config.controller_batch, config.episodes - episode);
    ScopedSpan batch_span("search.controller_batch");
    std::vector<rl::SampledStructure> sampled;
    for (std::size_t b = 0; b < batch; ++b) {
      ScopedSpan span("rl.sample", batch_span.id(), batch_span.id());
      sampled.push_back(controller.sample(sample_rng));
    }
    std::vector<double> batch_rewards(batch);
    std::vector<std::future<double>> futures(batch);
    for (std::size_t b = 0; b < batch; ++b) {
      const auto hit = memo.find(sampled[b].choice.to_string());
      if (hit != memo.end()) {
        batch_rewards[b] = hit->second;
        ++memo_hits;
        continue;
      }
      const std::uint64_t episode_seed = episode + b;
      const std::uint64_t parent = batch_span.id();
      futures[b] = pool.submit([&, b, episode_seed, parent]() {
        ScopedSpan episode_span("search.episode", parent, parent);
        const core::FusingStructure structure = core::FusingStructure::from_choice(
            sampled[b].choice, scenario.train.num_classes());
        core::HeadTrainConfig head_config = config.head_train;
        head_config.seed =
            SplitRng(config.seed).fork("episode:" + std::to_string(episode_seed)).seed();
        const nn::Mlp head = [&]() {
          ScopedSpan span("core.train_head", episode_span.id(), parent);
          return core::train_head(train_cache, scenario.train, proxy, structure,
                                  head_config);
        }();
        std::vector<std::size_t> predictions;
        {
          ScopedSpan span("core.fused_predictions", episode_span.id(), parent);
          predictions = core::fused_predictions(eval_cache, structure, head,
                                                config.head_only_on_disagreement);
        }
        fairness::FairnessReport report;
        {
          ScopedSpan span("fairness.evaluate", episode_span.id(), parent);
          report = fairness::evaluate_predictions(partition, predictions);
        }
        return core::multi_fairness_reward(report, config.reward);
      });
    }
    // Every job references this scope: let all finish before a get()
    // can rethrow one's failure.
    for (std::future<double>& future : futures) {
      if (future.valid()) future.wait();
    }
    for (std::size_t b = 0; b < batch; ++b) {
      if (futures[b].valid()) batch_rewards[b] = futures[b].get();
    }
    std::vector<rl::EpisodeResult> feedback;
    for (std::size_t b = 0; b < batch; ++b) {
      feedback.push_back({sampled[b].tokens, batch_rewards[b]});
      memo.insert({sampled[b].choice.to_string(), batch_rewards[b]});
      rewards.push_back(batch_rewards[b]);
    }
    {
      ScopedSpan span("rl.update", batch_span.id(), batch_span.id());
      (void)controller.update(feedback);
    }
    episode += batch;
  }
  const double wall = seconds_since(start);

  result.layer("rl.sample_us", span_median_us("rl.sample"), "us");
  result.layer("rl.update_us", span_median_us("rl.update"), "us");
  result.layer("core.train_head_ms", span_median_us("core.train_head") / 1e3, "ms");
  result.layer("core.fused_predictions_ms",
                span_median_us("core.fused_predictions") / 1e3, "ms");
  result.layer("fairness.evaluate_us", span_median_us("fairness.evaluate"), "us");
  result.layer("search.memo_hit_ratio",
                static_cast<double>(memo_hits) / static_cast<double>(rewards.size()),
                "ratio");
  double busy_us = 0.0;
  for (const double us : Tracer::instance().durations_us("search.episode")) busy_us += us;
  result.layer("search.pool_utilization",
                busy_us / 1e6 / (wall * static_cast<double>(common::global_pool_size())),
                "ratio");
  result.info("search.traced_episodes_per_s", static_cast<double>(rewards.size()) / wall);
  return rewards;
}

void run_search(const Options& options, Result& result) {
  const data::Dataset full = scenario_records();

  if (options.trace) {
    const core::MuffinSearchConfig config =
        search_config(kEpisodes, search_seed(options.seed, 0));
    // MuffinSearch::run (no spans) first: the base of the tracing overhead
    // and the rewards the traced rebuild of its loop must reproduce.
    const std::unique_ptr<Scenario> scenario = build_scenario(full);
    core::MuffinSearch search(scenario->pool, scenario->train, full,
                              search_space(scenario->pool), config);
    const Clock::time_point start = Clock::now();
    const core::SearchResult run = search.run();
    const double untraced_eps = static_cast<double>(kEpisodes) / seconds_since(start);

    const Clock::time_point traced_start = Clock::now();
    const std::vector<double> traced = traced_search(*scenario, config, result);
    const double traced_eps = static_cast<double>(kEpisodes) / seconds_since(traced_start);
    result.check(traced == rewards_of(run),
                 "traced search loop diverged from MuffinSearch::run");
    result.layer("trace.overhead_pct", (untraced_eps / traced_eps - 1.0) * 100.0, "%");

    const auto best = check_best(search, run, config, *scenario, result);
    const std::vector<data::Record> records(scenario->test.records().begin(),
                                            scenario->test.records().end());
    const LedgerMemo memo =
        serving_ledger(best.first, records, std::max(2.0, 0.3 * options.seconds), result);
    report_engine_counters(result, memo.counters, memo.bytes);
    report_setup_layers(result);
    result.attempted = 2 * kEpisodes;
    return;
  }

  std::vector<double> setup_seconds;
  std::vector<double> episodes_per_second;
  std::vector<double> episode_latency_us;
  std::vector<std::vector<double>> rewards(kSearches);
  std::vector<double> accuracy;
  std::vector<double> unfairness_age;
  std::vector<double> unfairness_site;
  std::size_t repetitions = 0;
  time_calls(options.seconds, kSearches, [&]() {
    const std::size_t which = repetitions++ % kSearches;
    const bool first_pass = repetitions <= kSearches;
    Clock::time_point mark = Clock::now();
    const std::unique_ptr<Scenario> scenario = build_scenario(full);
    core::MuffinSearchConfig config =
        search_config(kEpisodes, search_seed(options.seed, which));
    double batch_us = 0.0;
    config.on_episode = [&](std::size_t episode, const core::EpisodeRecord&) {
      // Called for each episode once its controller batch has finished:
      // the batch's wall time is each of its episodes' latency.
      if (episode % config.controller_batch == 0) {
        const Clock::time_point now = Clock::now();
        batch_us = seconds_between(mark, now) * 1e6;
        mark = now;
      }
      if (first_pass) episode_latency_us.push_back(batch_us);
    };
    core::MuffinSearch search(scenario->pool, scenario->train, full,
                              search_space(scenario->pool), config);
    setup_seconds.push_back(seconds_since(mark));
    mark = Clock::now();
    const Clock::time_point start = mark;
    const core::SearchResult run = search.run();
    const double eps = static_cast<double>(kEpisodes) / seconds_since(start);
    result.attempted += kEpisodes;
    if (first_pass) {
      episodes_per_second.push_back(eps);
      rewards[which] = rewards_of(run);
      const fairness::FairnessReport report = check_best(search, run, config, *scenario, result).second;
      accuracy.push_back(report.accuracy);
      unfairness_age.push_back(report.unfairness_for("age"));
      unfairness_site.push_back(report.unfairness_for("site"));
    } else {
      result.check(rewards_of(run) == rewards[which],
                   "repeated search on the same inputs gave different rewards");
    }
  });

  const Summary latency = summarize(episode_latency_us);
  result.end_to_end("setup_s", summarize(setup_seconds).median, "s");
  result.end_to_end("throughput_rps", summarize(episodes_per_second).median, "1/s");
  result.end_to_end("latency_p50_us", latency.median, "us");
  result.end_to_end("latency_p99_us", latency.p99, "us");
  result.end_to_end("answered_ratio", 1.0, "ratio");
  result.end_to_end("accuracy", summarize(accuracy).median, "ratio");
  result.end_to_end("unfairness_age", summarize(unfairness_age).median, "ratio");
  result.end_to_end("unfairness_site", summarize(unfairness_site).median, "ratio");
  result.info("search.repetitions", static_cast<double>(repetitions));
  result.info("search.episodes_per_repetition", static_cast<double>(kEpisodes));
  result.info("episode_latency_us", latency);
}

}  // namespace perfbench
