// Helpers shared by the parent and the workloads, and the environment stamp
// every result JSON carries.
#include <sched.h>
#include <sys/statfs.h>
#include <sys/utsname.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "src/service/jsonio.hpp"
#include "src/util/sha1.hpp"

#include "bench/e2e/bench.hpp"

namespace hdtn::bench {

namespace fs = std::filesystem;

RepReport runRepetition(const RepConfig& config) {
  if (config.workload == "nus-mbt" || config.workload == "nus-coded-hostile") {
    return runNusWorkload(config);
  }
  if (config.workload == "city-sharded") return runCityWorkload(config);
  if (config.workload == "service-grid") return runServiceGrid(config);
  throw std::runtime_error("unknown workload '" + config.workload + "'");
}

std::string resultDigest(const core::EngineResult& result) {
  std::string text;
  char line[160];
  for (const core::DeliveryReport* report :
       {&result.delivery, &result.accessDelivery, &result.contributorDelivery,
        &result.freeRiderDelivery}) {
    std::snprintf(line, sizeof(line), "%zu %zu %zu %a %a %a %a\n",
                  report->queries, report->metadataDelivered,
                  report->filesDelivered, report->metadataRatio,
                  report->fileRatio, report->meanMetadataDelaySeconds,
                  report->meanFileDelaySeconds);
    text += line;
  }
  // EngineTotals is a flat block of 64-bit counters; hashing it as words
  // covers every field, including counters added after this file.
  static_assert(std::is_trivially_copyable_v<core::EngineTotals> &&
                sizeof(core::EngineTotals) % sizeof(std::uint64_t) == 0);
  std::array<std::uint64_t, sizeof(core::EngineTotals) / sizeof(std::uint64_t)>
      words{};
  std::memcpy(words.data(), &result.totals, sizeof(result.totals));
  for (const std::uint64_t word : words) text += std::to_string(word) + " ";
  return Sha1::hash(text).hex().substr(0, 16);
}

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double currentRssMib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double position = std::clamp(p, 0.0, 100.0) / 100.0 *
                          static_cast<double>(samples.size() - 1);
  const auto lower = static_cast<std::size_t>(std::floor(position));
  const std::size_t upper = std::min(lower + 1, samples.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return samples[lower] + (samples[upper] - samples[lower]) * fraction;
}

void makeDirs(const std::string& path) {
  std::error_code ec;
  fs::create_directories(path, ec);
  if (ec) {
    throw std::runtime_error("cannot create " + path + ": " + ec.message());
  }
}

namespace {

std::string firstLine(const fs::path& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

/// The commit checked out in the nearest enclosing git work tree of the
/// working directory; "unknown" outside one (an exported source tree).
std::string gitCommit() {
  std::error_code ec;
  for (fs::path dir = fs::current_path(ec); !ec && !dir.empty();
       dir = dir.parent_path()) {
    const fs::path git = dir / ".git";
    if (fs::is_directory(git)) {
      const std::string head = firstLine(git / "HEAD");
      if (head.rfind("ref: ", 0) != 0) return head;
      const std::string ref = head.substr(5);
      const std::string loose = firstLine(git / ref);
      if (!loose.empty()) return loose;
      std::ifstream packed(git / "packed-refs");
      std::string line;
      while (std::getline(packed, line)) {
        const std::size_t space = line.find(' ');
        if (space != std::string::npos && line.substr(space + 1) == ref) {
          return line.substr(0, space);
        }
      }
      return "unknown";
    }
    if (dir == dir.root_path()) break;
  }
  return "unknown";
}

std::string filesystemType(const std::string& path) {
  struct statfs info {};
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53: return "ext2/3/4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    default: break;
  }
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%lx",
                static_cast<unsigned long>(info.f_type));
  return hex;
}

std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace

std::string environmentJson(const std::string& stateDir, std::uint64_t seed) {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int nproc =
      sched_getaffinity(0, sizeof(cpus), &cpus) == 0 ? CPU_COUNT(&cpus) : 0;
  utsname uts{};
  uname(&uts);
  using service::jsonEscape;
  std::ostringstream out;
  out << "{\"nproc\": " << nproc << ", \"cpu\": \"" << jsonEscape(cpuModel())
      << "\", \"compiler\": \""
#if defined(__clang__)
      << "clang "
#elif defined(__GNUC__)
      << "gcc "
#endif
      << jsonEscape(__VERSION__) << "\", \"build_type\": \""
      << HDTN_BENCH_BUILD_TYPE << "\", \"git_commit\": \""
      << jsonEscape(gitCommit()) << "\", \"kernel\": \""
      << jsonEscape(std::string(uts.sysname) + " " + uts.release)
      << "\", \"state_dir_fs\": \"" << filesystemType(stateDir)
      << "\", \"seed\": " << seed << "}";
  return out.str();
}

}  // namespace hdtn::bench
