// util/mem_stats.h -- process memory observables for the bench sinks
// (ROADMAP's memory-story item). Every --json bench record carries the
// peak RSS at flush time, and the overload bench (E13) pairs it with the
// matcher's own structure-byte accounting (EdgePool / adjacency-slab
// totals) so the memory envelope of a run is recorded next to its latency
// numbers instead of being re-measured by hand.
//
// Linux-only source (/proc/self/status); returns 0 where the file or the
// field is unavailable, so recording degrades to "not measured" rather
// than failing the bench.
#pragma once

#include <cstddef>
#include <cstdio>
#include <cstring>

namespace parmatch::util {

// Reads one "Key:   N kB" field from /proc/self/status; 0 if absent.
inline std::size_t proc_status_kb(const char* key) {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0;
  char line[256];
  std::size_t kb = 0;
  std::size_t keylen = std::strlen(key);
  while (std::fgets(line, sizeof(line), f)) {
    if (std::strncmp(line, key, keylen) != 0) continue;
    unsigned long long v = 0;
    if (std::sscanf(line + keylen, "%llu", &v) == 1)
      kb = static_cast<std::size_t>(v);
    break;
  }
  std::fclose(f);
  return kb;
}

// High-water-mark resident set size of this process, in bytes (VmHWM).
inline std::size_t peak_rss_bytes() { return proc_status_kb("VmHWM:") * 1024; }

}  // namespace parmatch::util
