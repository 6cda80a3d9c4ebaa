// perfbench: one workload per process. Prints human-readable notes, one
// "provenance {...}" line and one "result {...}" line, which run.py checks
// and turns into the benchmark's final output.
//
//   perfbench --workload pipeline|waves|churn|mirror --seed N --seconds S
//             --trace 0|1 [--tiny] [--work-dir DIR]

#include <sched.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "harness.h"

namespace perfbench {
namespace {

const char* FilesystemName(const std::string& dir) {
  struct statfs fs {};
  if (statfs(dir.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: return "other";
  }
}

std::string AffinityList() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return "unknown";
  std::string out;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &set)) continue;
    int end = c;
    while (end + 1 < CPU_SETSIZE && CPU_ISSET(end + 1, &set)) ++end;
    if (!out.empty()) out += ",";
    out += end == c ? std::to_string(c)
                    : std::to_string(c) + "-" + std::to_string(end);
    c = end;
  }
  return out;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "pipeline|waves|churn|mirror --seed N --seconds S --trace 0|1 "
               "[--tiny] [--work-dir DIR]\n",
               why);
  return 64;
}

}  // namespace

ThreadPlan WorkloadThreads(const std::string& workload) {
  if (workload == "waves") return {3, 4};   // drivers + deferred-wave worker
  if (workload == "mirror") return {1, 3};  // + checkpointer + pool worker
  return {1, 2};                            // driver + upkeep pool worker
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      opt.tiny = true;
    } else if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
      have_seconds = true;
    } else if (arg == "--trace" && has_value) {
      opt.trace = std::strcmp(argv[++i], "1") == 0;
      have_trace = true;
    } else if (arg == "--work-dir" && has_value) {
      opt.work_dir = argv[++i];
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }
  if (!(opt.seconds > 0 && opt.seconds <= 600)) {
    return Usage("--seconds must be in (0, 600]");
  }
  WorkloadReport (*run)(const RunOptions&) = nullptr;
  if (opt.workload == "pipeline") run = RunPipeline;
  if (opt.workload == "waves") run = RunWaves;
  if (opt.workload == "churn") run = RunChurn;
  if (opt.workload == "mirror") run = RunMirror;
  if (run == nullptr) return Usage("unknown --workload");

  std::error_code ec;
  std::filesystem::create_directories(opt.work_dir, ec);
  WorkloadReport rep;
  try {
    rep = run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }

  for (const std::string& note : rep.notes) std::printf("%s\n", note.c_str());
  for (Metric& m : rep.metrics) {
    if (!std::isfinite(m.value)) {
      rep.Check(false, "non-finite metric " + m.name);
      m.value = 0;
    }
  }
  for (const std::string& err : rep.errors) {
    std::printf("error: %s\n", err.c_str());
  }

  const ThreadPlan threads = WorkloadThreads(opt.workload);
  std::printf(
      "provenance {\"build_type\": \"%s\", \"compiler\": \"%s\", \"nproc\": "
      "%ld, \"affinity\": \"%s\", \"workload\": \"%s\", \"driver_threads\": "
      "%d, \"process_threads\": %d, \"seed\": %llu, \"seconds\": %s, "
      "\"traced\": %s, \"samples\": %llu, \"work_dir_fs\": \"%s\"}\n",
      PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, sysconf(_SC_NPROCESSORS_ONLN),
      AffinityList().c_str(), opt.workload.c_str(), threads.drivers,
      threads.total, static_cast<unsigned long long>(opt.seed),
      JsonNumber(opt.seconds).c_str(), opt.trace ? "true" : "false",
      static_cast<unsigned long long>(rep.attempted),
      FilesystemName(opt.work_dir));

  std::string metrics;
  for (const Metric& m : rep.metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf(
      "result {\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      rep.correct ? "true" : "false",
      static_cast<unsigned long long>(rep.attempted),
      static_cast<unsigned long long>(rep.failed), metrics.c_str());
  return 0;
}
