// briqbench: the BriQ benchmark binary. Normally started by run.py, which
// builds it first:
//
//   briqbench --workload align_stream|serve_open|train_stream --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]
//
// Prints a build line, a details line, and as its last line the result
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "briqbench: %s\nusage: briqbench --workload "
               "align_stream|serve_open|train_stream --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n",
               why);
  return 2;
}

bool Optimized() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  briqbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.seconds <= 0) return Usage("--seconds must be positive");

  const std::string build_type = BRIQBENCH_BUILD_TYPE;
  const bool optimized = Optimized() && build_type != "Debug";
  std::printf(
      "{\"build\": {\"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"optimized\": %s, \"threads\": %d}}\n",
      BRIQBENCH_COMPILER, build_type.c_str(), optimized ? "true" : "false",
      briqbench::HardwareThreads());
  if (!optimized) {
    std::fprintf(stderr,
                 "briqbench: WARNING: NOT AN OPTIMISED BUILD (build type '%s');"
                 " timings are meaningless\n",
                 build_type.c_str());
  }

  std::filesystem::create_directories(args.out_dir);
  briqbench::Result result;
  if (args.workload == "align_stream") {
    result = briqbench::RunAlignStream(args);
  } else if (args.workload == "serve_open") {
    result = briqbench::RunServeOpen(args);
  } else if (args.workload == "train_stream") {
    result = briqbench::RunTrainStream(args);
  } else {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  std::printf("%s\n%s\n", briqbench::DetailsLine(result).c_str(),
              briqbench::ResultLine(result).c_str());
  std::fflush(stdout);
  return 0;
}
