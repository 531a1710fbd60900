// FNV-1a (64-bit) over the bytes of vectors, in call order: the hash the
// pinned-bits tests compare with recorded constants.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace turbda {

class Fnv1a {
 public:
  template <class T>
  Fnv1a& add(const std::vector<T>& v) {
    const auto* p = reinterpret_cast<const unsigned char*>(v.data());
    for (std::size_t i = 0; i < v.size() * sizeof(T); ++i) h_ = (h_ ^ p[i]) * 0x100000001b3ull;
    return *this;
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace turbda
