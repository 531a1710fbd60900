// Tiny command-line parsing for bench/example binaries:
// --flag, --key=value. Unknown arguments are ignored.
#pragma once

#include <cstdlib>
#include <string>
#include <string_view>

namespace turbda::io {

class Args {
 public:
  Args(int argc, char** argv) : argc_(argc), argv_(argv) {}

  [[nodiscard]] bool flag(std::string_view name) const {
    const std::string full = "--" + std::string(name);
    for (int i = 1; i < argc_; ++i)
      if (full == argv_[i]) return true;
    return false;
  }

  [[nodiscard]] long get_int(std::string_view name, long fallback) const {
    const std::string prefix = "--" + std::string(name) + "=";
    for (int i = 1; i < argc_; ++i) {
      std::string_view a(argv_[i]);
      if (a.starts_with(prefix)) return std::atol(a.substr(prefix.size()).data());
    }
    return fallback;
  }

  [[nodiscard]] double get_double(std::string_view name, double fallback) const {
    const std::string prefix = "--" + std::string(name) + "=";
    for (int i = 1; i < argc_; ++i) {
      std::string_view a(argv_[i]);
      if (a.starts_with(prefix)) return std::atof(a.substr(prefix.size()).data());
    }
    return fallback;
  }

  [[nodiscard]] std::string get_str(std::string_view name, std::string fallback) const {
    const std::string prefix = "--" + std::string(name) + "=";
    for (int i = 1; i < argc_; ++i) {
      std::string_view a(argv_[i]);
      if (a.starts_with(prefix)) return std::string(a.substr(prefix.size()));
    }
    return fallback;
  }

 private:
  int argc_;
  char** argv_;
};

}  // namespace turbda::io
