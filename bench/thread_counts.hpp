// Thread counts the scaling benches record.
#pragma once

#include <algorithm>
#include <cstddef>
#include <iostream>
#include <vector>

namespace turbda::bench {

/// Thread counts this machine can actually run, always including 1 (the
/// row that carries the serial timings and the bitwise reference).
/// Oversubscribed counts (threads > hardware) measure scheduler noise, not
/// scaling, and have polluted committed baselines before, so they are
/// refused at record time with a printed note.
inline std::vector<std::size_t> runnable_thread_counts(const std::vector<std::size_t>& requested,
                                                       std::size_t hw) {
  std::vector<std::size_t> counts{1}, refused;
  for (const std::size_t c : requested) (c <= hw ? counts : refused).push_back(c);
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  if (!refused.empty()) {
    std::cout << "Note: skipping oversubscribed thread counts (hardware has " << hw << " thread"
              << (hw == 1 ? "" : "s") << "):";
    for (const std::size_t c : refused) std::cout << " " << c;
    std::cout << " — such rows are noise and are not recorded.\n\n";
  }
  return counts;
}

/// The analysis benches' thread counts: 1, 2 and 4, plus all hardware
/// threads on machines with more than 4.
inline std::vector<std::size_t> scaling_thread_counts(std::size_t hw) {
  std::vector<std::size_t> requested{2, 4};
  if (hw > 4) requested.push_back(hw);
  return runnable_thread_counts(requested, hw);
}

}  // namespace turbda::bench
