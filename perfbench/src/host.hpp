#pragma once
// The host fingerprint stamped on every result: a number measured on
// one host means little on another unless the record names the host.

#include <string>

namespace perfbench {

struct Host {
  std::string cpu;         ///< CPU brand string (cpuid).
  unsigned nproc = 1;      ///< CPUs in the affinity mask, as `nproc`.
  std::string compiler;    ///< Compiler id and version of this build.
  std::string build_type;  ///< CMake build type of this build.
  std::string isa;         ///< Tier the core/batch.cpp probe picked.
};

[[nodiscard]] Host host_fingerprint();

/// One-line JSON object with the fields above.
[[nodiscard]] std::string to_json(const Host& host);

}  // namespace perfbench
