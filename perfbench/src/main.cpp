// muffin_perfbench — the repository benchmark program.
//
//   muffin_perfbench --workload <search|interactive_hot|bulk_remote>
//                    --seed <n> --seconds <s> --trace <0|1>
//
// Prints a JSON line of run information (seed, thread counts, SIMD and
// quant modes, per-phase accounting, check failures) and, as the last
// line, {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. A traced
// run also writes its spans to .bench_build/out/<workload>-seed<n>.trace.json.
// Exit code 0 only when every output check passed.
#include <filesystem>
#include <iostream>

#include "bench.h"
#include "trace.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Options options = parse_options(argc, argv);
    std::filesystem::create_directories(kOutDir);
    Tracer::instance().set_enabled(options.trace);

    Result result(options.trace);
    report_environment(result, options);
    if (options.workload == "search") {
      run_search(options, result);
    } else if (options.workload == "interactive_hot") {
      run_interactive_hot(options, result);
    } else if (options.workload == "bulk_remote") {
      run_bulk_remote(options, result);
    } else {
      throw muffin::Error("unknown workload " + options.workload);
    }
    result.end_to_end("peak_rss_mb", peak_rss_mb(), "MB");

    if (options.trace) {
      Tracer::instance().set_enabled(false);
      const std::string path = std::string(kOutDir) + "/" + options.workload + "-seed" +
                               std::to_string(options.seed) + ".trace.json";
      Tracer::instance().write_chrome_json(path);
      result.info("trace.file", path);
      result.info("trace.spans", static_cast<double>(Tracer::instance().span_count()));
    }
    std::cout << result.info_json() << "\n" << result.metrics_json() << std::endl;
    for (const std::string& problem : result.problems()) {
      std::cerr << "check failed: " << problem << "\n";
    }
    return result.correct() ? 0 : 1;
  } catch (const std::exception& error) {
    std::cerr << "muffin_perfbench: " << error.what() << "\n";
    return 2;
  }
}
