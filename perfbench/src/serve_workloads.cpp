// The two serving workloads.
//
// interactive_hot — independent users: an open-loop Poisson schedule of
//   single-record ShardRouter::submit calls to two in-process shards
//   (engine batch 32, 1 ms flush), Zipf(1) popularity over the 25,331
//   scenario records, then a closed-loop saturation phase on the same
//   popularity. The memo is read-mostly; the time goes into admission,
//   batching, memo reads and completion.
// bulk_remote — batch callers that wait for replies: two client threads,
//   each calling predict_batch(256) on stream records through a
//   remote-only router to two ShardServers on unix sockets (2
//   connections each, 64-record frames). The stream is longer than both
//   memos together, so every request misses and the memo is written
//   (inserts and evictions); body scoring, fuse, the wire codec and the
//   sockets do the work.
//
// Every served answer is checked bit for bit against
// FusedModel::score_batch on the same record (model version 1).
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <thread>

#include "bench.h"
#include "common/error.h"
#include "common/rng.h"
#include "serve/router.h"
#include "serve/rpc/server.h"
#include "trace.h"

namespace perfbench {

namespace {

/// Open-loop offered rate: about a third of the saturation throughput of
/// this tier at the commit that introduced the benchmark (450-540k rec/s,
/// 4 cores, MUFFIN_THREADS=2 or 4); one generator thread offers at most
/// about 200k submits/s. Fixed, so a faster tier shows up as lower latency here
/// and higher throughput in the saturation phase.
constexpr double kInteractiveRate = 150'000.0;
/// Windows of the open-loop p99 (15,000 requests each at the fixed rate)
/// and of the closed-loop rates.
constexpr double kLatencyWindowSeconds = 0.1;
constexpr double kRateWindowSeconds = 0.5;
/// Windows of the bulk p99: about 2,000 predict_batch calls each, so every
/// window supports a p99.
constexpr double kBulkLatencyWindowSeconds = 2.0;
constexpr std::size_t kSaturationClients = 4;
constexpr std::size_t kSaturationWindow = 64;
constexpr std::size_t kSetupRepetitions = 15;
constexpr std::size_t kBulkBatch = 256;
constexpr std::size_t kBulkClients = 2;
constexpr std::size_t kBulkStreamBatches = 1172;  // 300,032 records
constexpr std::size_t kLedgerRecords = 8192;
constexpr std::size_t kMiniSearchEpisodes = 16;

/// Zipf(1) over record ranks. Which record holds which rank is a seeded
/// permutation that changes every kPopularityEpochSeconds (cycling
/// through kPopularityEpochs permutations): hot records change over time,
/// and one run's figures average over several placements of the hottest
/// records on the two shards instead of resting on one.
constexpr double kPopularityEpochSeconds = 2.0;
constexpr std::size_t kPopularityEpochs = 8;

class ZipfRecords {
 public:
  ZipfRecords(std::size_t n, std::uint64_t seed) : cdf_(n) {
    double total = 0.0;
    for (std::size_t r = 0; r < n; ++r) cdf_[r] = total += 1.0 / static_cast<double>(r + 1);
    for (double& c : cdf_) c /= total;
    for (std::size_t e = 0; e < kPopularityEpochs; ++e) {
      std::vector<std::size_t> ranks(n);
      for (std::size_t r = 0; r < n; ++r) ranks[r] = r;
      SplitRng(seed).fork("zipf-ranks:" + std::to_string(e)).shuffle(ranks);
      record_of_rank_.push_back(std::move(ranks));
    }
  }
  /// A record drawn with the popularity of the epoch containing `seconds`.
  std::size_t draw(SplitRng& rng, double seconds) const {
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), rng.uniform());
    const std::size_t rank =
        std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
    const std::size_t epoch =
        static_cast<std::size_t>(std::max(0.0, seconds) / kPopularityEpochSeconds);
    return record_of_rank_[epoch % kPopularityEpochs][rank];
  }

 private:
  std::vector<double> cdf_;
  std::vector<std::vector<std::size_t>> record_of_rank_;
};

/// Answers collected by one client thread.
struct Collected {
  PhaseCount count;
  /// (seconds into the phase, value) samples.
  std::vector<std::pair<double, double>> latency_us;
  std::vector<std::pair<double, double>> answered;
  std::vector<int> predicted;  ///< per record, -1 = not served
  std::size_t mismatches = 0;

  explicit Collected(std::size_t records) : predicted(records, -1) {}
  /// Checks one answer; returns false (and counts it) on a failure.
  bool take(std::size_t index, std::future<serve::Prediction>& future,
            const Reference& reference) {
    try {
      const serve::Prediction prediction = future.get();
      if (!reference.matches(index, prediction)) ++mismatches;
      predicted[index] = static_cast<int>(prediction.predicted);
      ++count.succeeded;
      return true;
    } catch (const Overloaded&) {
      ++count.refused;
    } catch (const std::exception&) {
      ++count.failed;
    }
    return false;
  }
};

/// Merges per-thread answers into `result`: phase counts, output checks
/// and (when `predicted` is given) the served answers quality is computed
/// over.
PhaseCount merge_collected(std::span<const Collected> parts, Result& result,
                           std::vector<int>* predicted, const std::string& phase) {
  PhaseCount total;
  std::size_t mismatches = 0;
  for (const Collected& part : parts) {
    total.add(part.count);
    mismatches += part.mismatches;
    if (predicted == nullptr) continue;
    for (std::size_t i = 0; i < predicted->size(); ++i) {
      if (part.predicted[i] >= 0) (*predicted)[i] = part.predicted[i];
    }
  }
  total.report(result, phase);
  result.check(mismatches == 0, phase + ": " + std::to_string(mismatches) +
                                    " answers differ from FusedModel::score_batch");
  return total;
}

/// Median over windows of records answered per second.
double median_window_rate(const std::vector<Collected>& parts, double seconds) {
  std::vector<std::pair<double, double>> answered;
  for (const Collected& part : parts) {
    answered.insert(answered.end(), part.answered.begin(), part.answered.end());
  }
  std::vector<double> rates;
  for (const std::vector<double>& window :
       split_windows(answered, kRateWindowSeconds, seconds)) {
    double total = 0.0;
    for (const double count : window) total += count;
    rates.push_back(total / kRateWindowSeconds);
  }
  return summarize(std::move(rates)).median;
}

/// Runs `clients` threads of `step(client, collected, phase_start)` for
/// `seconds`; returns the median window rate of records answered.
template <typename Step>
double closed_loop(std::size_t clients, double seconds, std::size_t records,
                   std::vector<Collected>& parts, Step&& step) {
  parts.assign(clients, Collected(records));
  std::vector<std::thread> threads;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c]() {
      Collected& sink = parts[c];
      while (Clock::now() < end) {
        const std::size_t before = sink.count.succeeded;
        step(c, sink, start);
        sink.answered.emplace_back(seconds_since(start),
                                   static_cast<double>(sink.count.succeeded - before));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return median_window_rate(parts, seconds);
}

/// The median of `repetitions` timed set-ups, keeping the last tier.
template <typename Tier, typename Build>
std::unique_ptr<Tier> timed_setup(Result& result, Build&& build) {
  std::vector<double> seconds;
  std::unique_ptr<Tier> tier;
  for (std::size_t i = 0; i < kSetupRepetitions; ++i) {
    tier.reset();
    const Clock::time_point start = Clock::now();
    tier = build();
    seconds.push_back(seconds_since(start));
  }
  result.end_to_end("setup_s", summarize(seconds).median, "s");
  return tier;
}

// --- interactive_hot ---------------------------------------------------------

struct InteractiveTier {
  std::unique_ptr<Scenario> scenario;
  std::shared_ptr<const core::FusedModel> model;
  std::unique_ptr<serve::ShardRouter> router;
};

std::unique_ptr<InteractiveTier> build_interactive(const data::Dataset& full) {
  auto tier = std::make_unique<InteractiveTier>();
  tier->scenario = build_scenario(full);
  tier->model = build_serving_model(*tier->scenario);
  ScopedSpan span("setup.server_start");
  serve::RouterConfig config;
  config.shards = 2;
  config.engine.max_batch = 32;
  config.engine.max_delay = std::chrono::microseconds(1000);
  tier->router = std::make_unique<serve::ShardRouter>(tier->model, config);
  return tier;
}

struct OpenLoopResult {
  explicit OpenLoopResult(std::size_t records) : warm(records), measured(records) {}
  Collected warm;
  Collected measured;
  std::vector<double> lateness_us;
};

/// Open-loop Poisson arrivals at kInteractiveRate for warm + measured
/// seconds from one generator thread, whose answers a collector thread
/// awaits in send order. A request is timed from its scheduled send time,
/// so a stalled generator's delay is charged to the requests it held up.
/// One generator: a second one (four client threads next to the engines'
/// on four cores) made the p99 swing by a third between runs. It sleeps
/// until each send time (1 us timer slack) and then sends every request
/// that is due, instead of spinning: a spinning generator held a core, and
/// one busy process beside the benchmark raised the p99 by 60% (by 3% with
/// the sleeping generator).
OpenLoopResult open_loop(serve::ShardRouter& router, const data::Dataset& full,
                         const ZipfRecords& zipf, const Reference& reference,
                         std::uint64_t seed, double warm_seconds,
                         double measured_seconds) {
  struct Pending {
    std::future<serve::Prediction> future;
    Clock::time_point scheduled;
    std::size_t index = 0;
    bool warm = false;
  };
  OpenLoopResult out(full.size());
  // Sized up front so the peak RSS does not depend on where growth lands.
  out.measured.latency_us.reserve(
      static_cast<std::size_t>(kInteractiveRate * measured_seconds * 1.05) + 1024);
  std::mutex mutex;
  std::vector<Pending> pending;  // guarded by mutex
  bool done = false;             // guarded by mutex
  const auto to_duration = [](double s) {
    return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
  };
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  const Clock::time_point warm_end = start + to_duration(warm_seconds);
  const Clock::time_point end = warm_end + to_duration(measured_seconds);

  std::thread generator([&]() {
    prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
    SplitRng rng = SplitRng(seed).fork("open-loop");
    Clock::time_point scheduled = start;
    while (true) {
      scheduled += to_duration(-std::log(1.0 - rng.uniform()) / kInteractiveRate);
      if (scheduled >= end) break;
      const std::size_t index = zipf.draw(rng, seconds_between(start, scheduled));
      Clock::time_point now = Clock::now();
      if (now < scheduled) {
        std::this_thread::sleep_until(scheduled);
        now = Clock::now();
      }
      const bool warm = scheduled < warm_end;
      if (!warm) out.lateness_us.push_back(seconds_between(scheduled, now) * 1e6);
      Collected& sink = warm ? out.warm : out.measured;
      ++sink.count.attempted;
      Pending item{{}, scheduled, index, warm};
      try {
        item.future = router.submit(full.record(index));
      } catch (const Overloaded&) {
        ++sink.count.refused;
        continue;
      } catch (const std::exception&) {
        ++sink.count.failed;
        continue;
      }
      std::lock_guard lock(mutex);
      pending.push_back(std::move(item));
    }
    std::lock_guard lock(mutex);
    done = true;
  });
  std::thread collector([&]() {
    std::vector<Pending> batch;
    while (true) {
      bool finished = false;
      {
        std::lock_guard lock(mutex);
        batch.swap(pending);
        finished = done;
      }
      if (batch.empty()) {
        if (finished) break;
        std::this_thread::sleep_for(std::chrono::microseconds(20));
        continue;
      }
      for (Pending& item : batch) {
        Collected& sink = item.warm ? out.warm : out.measured;
        if (sink.take(item.index, item.future, reference) && !item.warm) {
          sink.latency_us.emplace_back(seconds_between(warm_end, item.scheduled),
                                       seconds_since(item.scheduled) * 1e6);
        }
      }
      batch.clear();
    }
  });
  generator.join();
  collector.join();
  return out;
}

/// Closed loop: each client submits a window of single records, then
/// waits for all of them.
double interactive_saturation(serve::ShardRouter& router, const data::Dataset& full,
                              const ZipfRecords& zipf, const Reference& reference,
                              std::uint64_t seed, double seconds,
                              std::vector<Collected>& parts) {
  std::vector<SplitRng> rngs;
  for (std::size_t c = 0; c < kSaturationClients; ++c) {
    rngs.push_back(SplitRng(seed).fork("saturation:" + std::to_string(c)));
  }
  return closed_loop(kSaturationClients, seconds, full.size(), parts,
                     [&](std::size_t c, Collected& sink, Clock::time_point phase_start) {
    const double seconds = seconds_since(phase_start);
    std::vector<std::size_t> indices;
    std::vector<std::future<serve::Prediction>> futures;
    for (std::size_t i = 0; i < kSaturationWindow; ++i) {
      const std::size_t index = zipf.draw(rngs[c], seconds);
      ++sink.count.attempted;
      try {
        ScopedSpan span("client.submit");
        futures.push_back(router.submit(full.record(index)));
        indices.push_back(index);
      } catch (const Overloaded&) {
        ++sink.count.refused;
      } catch (const std::exception&) {
        ++sink.count.failed;
      }
    }
    for (std::size_t i = 0; i < futures.size(); ++i) sink.take(indices[i], futures[i], reference);
  });
}

void report_router_counters(Result& result, const serve::ShardRouter& router) {
  std::size_t memo_bytes = 0;
  for (std::size_t shard = 0; shard < router.replica_count(); ++shard) {
    memo_bytes += router.replica(shard).memo_bytes();
  }
  report_engine_counters(result, router.aggregate_counters(), memo_bytes);
}

/// The traced run of a serving workload: the saturation phase untraced and
/// then with a span around every client call (their gap is the tracing
/// overhead), the workload's engine counters, the serving ledger on the
/// workload's records and a short traced search for the search layers.
/// `saturate(seconds, parts)` runs one closed-loop phase.
template <typename Saturate, typename Counters>
PhaseCount traced_serving(const Options& options, const Scenario& scenario,
                          std::shared_ptr<const core::FusedModel> model,
                          std::span<const data::Record> ledger_records, Result& result,
                          Saturate&& saturate, Counters&& counters) {
  Tracer& tracer = Tracer::instance();
  PhaseCount total;
  const auto phase = [&](double seconds, const std::string& name) {
    std::vector<Collected> parts;
    const double rate = saturate(seconds, parts);
    total.add(merge_collected(parts, result, nullptr, name));
    return rate;
  };
  const double seconds = std::max(1.0, 0.2 * options.seconds);
  tracer.set_enabled(false);
  (void)phase(0.5, "warmup");
  const double untraced = phase(seconds, "untraced");
  tracer.set_enabled(true);
  const double traced = phase(seconds, "traced");
  result.layer("trace.overhead_pct", (untraced / traced - 1.0) * 100.0, "%");
  counters();
  (void)serving_ledger(std::move(model), ledger_records,
                       std::max(1.0, 0.25 * options.seconds), result);
  (void)traced_search(scenario, search_config(kMiniSearchEpisodes, options.seed), result);
  report_setup_layers(result);
  return total;
}

// --- bulk_remote --------------------------------------------------------------

struct BulkTier {
  std::unique_ptr<Scenario> scenario;
  std::shared_ptr<const core::FusedModel> model;
  std::unique_ptr<serve::rpc::ShardServer> shard_a;
  std::unique_ptr<serve::rpc::ShardServer> shard_b;
  std::unique_ptr<serve::ShardRouter> router;

  ~BulkTier() {
    if (router) router->shutdown();
    if (shard_a) shard_a->stop();
    if (shard_b) shard_b->stop();
  }
};

std::unique_ptr<BulkTier> build_bulk(const data::Dataset& full) {
  auto tier = std::make_unique<BulkTier>();
  tier->scenario = build_scenario(full);
  tier->model = build_serving_model(*tier->scenario);
  ScopedSpan span("setup.server_start");
  tier->shard_a = std::make_unique<serve::rpc::ShardServer>(
      tier->model, socket_endpoint("bulk-a"));
  tier->shard_b = std::make_unique<serve::rpc::ShardServer>(
      tier->model, socket_endpoint("bulk-b"));
  serve::RouterConfig config;
  config.shards = 0;
  config.remote_endpoints = {tier->shard_a->address(), tier->shard_b->address()};
  config.remote.connections = 2;
  config.remote.max_batch = 64;
  tier->router = std::make_unique<serve::ShardRouter>(nullptr, config);
  // Connect: one batch of scenario records reaches both shards.
  const std::vector<data::Record> probe(tier->scenario->test.records().begin(),
                                        tier->scenario->test.records().begin() + kBulkBatch);
  (void)tier->router->predict_batch(probe);
  return tier;
}

}  // namespace

void run_interactive_hot(const Options& options, Result& result) {
  const data::Dataset full = scenario_records();
  const ZipfRecords zipf(full.size(), options.seed);
  const std::unique_ptr<InteractiveTier> tier = timed_setup<InteractiveTier>(
      result, [&]() { return build_interactive(full); });
  const Reference reference(*tier->model, full);
  serve::ShardRouter& router = *tier->router;
  result.info("interactive.offered_rate_rps", kInteractiveRate);

  if (options.trace) {
    std::vector<data::Record> ledger_records;
    SplitRng rng = SplitRng(options.seed).fork("ledger-records");
    for (std::size_t i = 0; i < kLedgerRecords; ++i) {
      ledger_records.push_back(full.record(zipf.draw(rng, 0.0)));
    }
    std::uint64_t phase_seed = options.seed;
    const PhaseCount traced = traced_serving(
        options, *tier->scenario, tier->model, ledger_records, result,
        [&](double seconds, std::vector<Collected>& parts) {
          return interactive_saturation(router, full, zipf, reference, ++phase_seed,
                                        seconds, parts);
        },
        [&]() { report_router_counters(result, router); });
    result.attempted = traced.attempted;
    result.failed = traced.failed + traced.refused;
    return;
  }

  const double warm = 0.1 * options.seconds;
  const double open = 0.55 * options.seconds;
  const double saturation = 0.35 * options.seconds;
  OpenLoopResult loop = open_loop(router, full, zipf, reference, options.seed, warm, open);
  std::vector<int> predicted(full.size(), -1);
  (void)merge_collected({&loop.warm, 1}, result, nullptr, "warmup");
  const PhaseCount open_count =
      merge_collected({&loop.measured, 1}, result, &predicted, "open_loop");
  std::vector<Collected> parts;
  const double throughput = interactive_saturation(
      router, full, zipf, reference, SplitRng(options.seed).fork("saturation").seed(),
      saturation, parts);
  const PhaseCount saturation_count = merge_collected(parts, result, nullptr, "saturation");

  // p50 over every measured request; p99 as the median of per-window
  // p99s, so one multi-millisecond stall moves one window, not the run.
  std::vector<double> latency;
  for (const auto& sample : loop.measured.latency_us) latency.push_back(sample.second);
  std::vector<double> window_p99;
  for (std::vector<double>& window :
       split_windows(loop.measured.latency_us, kLatencyWindowSeconds, open)) {
    window_p99.push_back(summarize(std::move(window)).p99);
  }
  const Summary latency_summary = summarize(std::move(latency));
  const Summary lateness = summarize(std::move(loop.lateness_us));
  result.end_to_end("throughput_rps", throughput, "1/s");
  result.end_to_end("latency_p50_us", latency_summary.median, "us");
  result.end_to_end("latency_p99_us", summarize(std::move(window_p99)).median, "us");
  PhaseCount measured = open_count;
  measured.add(saturation_count);
  result.attempted = measured.attempted;
  result.failed = measured.failed + measured.refused;
  result.end_to_end("answered_ratio",
                static_cast<double>(measured.succeeded) / static_cast<double>(measured.attempted),
                "ratio");
  report_served_quality(result, full, predicted);
  result.info("open_loop.latency_us", latency_summary);
  result.info("open_loop.lateness_us", lateness);
  result.info("open_loop.achieved_rate_rps", static_cast<double>(open_count.attempted) / open);
}

void run_bulk_remote(const Options& options, Result& result) {
  const data::Dataset full = scenario_records();
  const data::Dataset stream = stream_records(kBulkStreamBatches * kBulkBatch, options.seed);
  const std::unique_ptr<BulkTier> tier =
      timed_setup<BulkTier>(result, [&]() { return build_bulk(full); });
  const Reference reference(*tier->model, stream);
  serve::ShardRouter& router = *tier->router;
  const std::span<const data::Record> records = stream.records();

  std::atomic<std::size_t> cursor{0};
  const auto saturate = [&](double seconds, std::vector<Collected>& parts) {
    return closed_loop(kBulkClients, seconds, stream.size(), parts,
                       [&](std::size_t, Collected& sink, Clock::time_point phase_start) {
      const std::size_t first =
          (cursor.fetch_add(1) % kBulkStreamBatches) * kBulkBatch;
      sink.count.attempted += kBulkBatch;
      const Clock::time_point start = Clock::now();
      try {
        std::vector<serve::Prediction> answers;
        {
          ScopedSpan span("client.predict_batch");
          answers = router.predict_batch(records.subspan(first, kBulkBatch));
        }
        sink.latency_us.emplace_back(seconds_between(phase_start, start),
                                     seconds_since(start) * 1e6);
        for (std::size_t i = 0; i < answers.size(); ++i) {
          if (!reference.matches(first + i, answers[i])) ++sink.mismatches;
          sink.predicted[first + i] = static_cast<int>(answers[i].predicted);
        }
        sink.count.succeeded += answers.size();
      } catch (const Overloaded&) {
        sink.count.refused += kBulkBatch;
      } catch (const std::exception&) {
        sink.count.failed += kBulkBatch;
      }
    });
  };
  const auto server_counters = [&]() {
    serve::EngineCounters total;
    for (const serve::rpc::ShardServer* server : {tier->shard_a.get(), tier->shard_b.get()}) {
      const serve::EngineCounters c = server->engine().counters();
      total.requests += c.requests;
      total.batches += c.batches;
      total.cache_hits += c.cache_hits;
      total.consensus_short_circuits += c.consensus_short_circuits;
      total.head_evaluations += c.head_evaluations;
    }
    report_engine_counters(result, total,
                           tier->shard_a->engine().memo_bytes() +
                               tier->shard_b->engine().memo_bytes());
  };

  if (options.trace) {
    const PhaseCount traced =
        traced_serving(options, *tier->scenario, tier->model,
                       records.subspan(0, kLedgerRecords), result, saturate, server_counters);
    result.attempted = traced.attempted;
    result.failed = traced.failed + traced.refused;
    return;
  }

  std::vector<Collected> warm_parts;
  std::vector<Collected> parts;
  std::vector<int> predicted(stream.size(), -1);
  (void)saturate(0.1 * options.seconds, warm_parts);
  (void)merge_collected(warm_parts, result, nullptr, "warmup");
  const double throughput = saturate(0.9 * options.seconds, parts);
  const PhaseCount measured = merge_collected(parts, result, &predicted, "closed_loop");

  // p50 over every measured batch; p99 as the median of per-window p99s,
  // as on interactive_hot: a whole-run p99 read 3.3 or 8.2 ms on the same
  // seed, depending on a few scheduler stalls.
  std::vector<std::pair<double, double>> timed_latency;
  for (const Collected& part : parts) {
    timed_latency.insert(timed_latency.end(), part.latency_us.begin(), part.latency_us.end());
  }
  std::vector<double> all_latency;
  for (const auto& sample : timed_latency) all_latency.push_back(sample.second);
  std::vector<double> window_p99;
  for (std::vector<double>& window :
       split_windows(timed_latency, kBulkLatencyWindowSeconds, 0.9 * options.seconds)) {
    window_p99.push_back(summarize(std::move(window)).p99);
  }
  const Summary latency_summary = summarize(std::move(all_latency));
  result.end_to_end("throughput_rps", throughput, "1/s");
  result.end_to_end("latency_p50_us", latency_summary.median, "us");
  result.end_to_end("latency_p99_us", summarize(std::move(window_p99)).median, "us");
  result.attempted = measured.attempted;
  result.failed = measured.failed + measured.refused;
  result.end_to_end("answered_ratio",
                static_cast<double>(measured.succeeded) / static_cast<double>(measured.attempted),
                "ratio");
  report_served_quality(result, stream, predicted);
  result.info("closed_loop.latency_us", latency_summary);
}

}  // namespace perfbench
