#include "host.hpp"

#include <sched.h>

#include <cstring>
#include <string>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace perfbench {

namespace {

std::string cpu_brand() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char text[sizeof regs + 1] = {};
    std::memcpy(text, regs, sizeof regs);
    std::string brand(text);
    const auto first = brand.find_first_not_of(' ');
    const auto last = brand.find_last_not_of(' ');
    if (first != std::string::npos) return brand.substr(first, last - first + 1);
  }
#endif
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// CPUs in this process's affinity mask — what `nproc` prints.
unsigned online_jobs() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  const int n = CPU_COUNT(&set);
  return n > 0 ? static_cast<unsigned>(n) : 1u;
}

}  // namespace

Host host_fingerprint() {
  Host host;
  host.cpu = cpu_brand();
  host.nproc = online_jobs();
  host.compiler = PERFBENCH_COMPILER;
  host.build_type = PERFBENCH_BUILD_TYPE;
  host.isa = PERFBENCH_ISA_TIER;
  return host;
}

std::string to_json(const Host& host) {
  return "{\"cpu\":" + json_string(host.cpu) +
         ",\"nproc\":" + std::to_string(host.nproc) +
         ",\"compiler\":" + json_string(host.compiler) +
         ",\"build_type\":" + json_string(host.build_type) +
         ",\"isa\":" + json_string(host.isa) + "}";
}

}  // namespace perfbench
