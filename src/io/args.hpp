// Tiny command-line parsing for bench/example binaries: --flag, --key=value.
//
// A program passes its usage text, and the constructor refuses every
// argument the text does not name: `--help` prints the text to stdout and
// exits 0; an argument that is not `--name` or `--name=value` for a `--name`
// the text contains prints "unknown argument" and the usage to stderr and
// exits 2, so a mistyped flag stops the run instead of running the default.
// Without usage text arguments are not checked (the cycle benchmark takes a
// positional command). In both cases get_int / get_double exit 2, naming the
// flag, on a value that is missing (a bare `--name`), empty or not entirely
// a number.
#pragma once

#include <cerrno>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>

namespace turbda::io {

class Args {
 public:
  Args(int argc, char** argv, std::string_view usage = {})
      : argc_(argc), argv_(argv), usage_(usage) {
    if (usage_.empty()) return;
    if (flag("help")) {
      std::cout << usage_;
      std::exit(0);
    }
    for (int i = 1; i < argc_; ++i)
      if (!named(argv_[i])) refuse("unknown argument '" + std::string(argv_[i]) + "'");
  }

  [[nodiscard]] bool flag(std::string_view name) const {
    const std::string full = "--" + std::string(name);
    for (int i = 1; i < argc_; ++i)
      if (full == argv_[i]) return true;
    return false;
  }

  [[nodiscard]] long get_int(std::string_view name, long fallback) const {
    const char* v = number(name);
    if (v == nullptr) return fallback;
    char* end = nullptr;
    errno = 0;
    const long x = std::strtol(v, &end, 10);
    if (*v == '\0' || *end != '\0' || errno == ERANGE)
      refuse("--" + std::string(name) + " needs an integer, got '" + v + "'");
    return x;
  }

  [[nodiscard]] double get_double(std::string_view name, double fallback) const {
    const char* v = number(name);
    if (v == nullptr) return fallback;
    char* end = nullptr;
    const double x = std::strtod(v, &end);
    if (*v == '\0' || *end != '\0')
      refuse("--" + std::string(name) + " needs a number, got '" + v + "'");
    return x;
  }

  [[nodiscard]] std::string get_str(std::string_view name, std::string fallback) const {
    const char* v = value(name);
    return v == nullptr ? fallback : std::string(v);
  }

 private:
  /// The text after `--name=` in the first such argument, or nullptr.
  [[nodiscard]] const char* value(std::string_view name) const {
    const std::string prefix = "--" + std::string(name) + "=";
    for (int i = 1; i < argc_; ++i)
      if (std::string_view(argv_[i]).starts_with(prefix)) return argv_[i] + prefix.size();
    return nullptr;
  }

  /// value() for a numeric option, refusing a bare `--name`.
  [[nodiscard]] const char* number(std::string_view name) const {
    const char* v = value(name);
    if (v == nullptr && flag(name)) refuse("--" + std::string(name) + " needs a value");
    return v;
  }

  /// True when `arg` is `--name` or `--name=value` and the usage text holds
  /// `--name` as a whole word (not as the prefix of a longer flag).
  [[nodiscard]] bool named(std::string_view arg) const {
    if (!arg.starts_with("--")) return false;
    const std::string_view name = arg.substr(0, arg.find('='));
    if (name.size() <= 2) return false;
    const auto name_char = [](char c) {
      return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
             c == '-' || c == '_';
    };
    for (auto at = usage_.find(name); at != std::string::npos; at = usage_.find(name, at + 1)) {
      const std::size_t end = at + name.size();
      if (end == usage_.size() || !name_char(usage_[end])) return true;
    }
    return false;
  }

  [[noreturn]] void refuse(const std::string& why) const {
    std::cerr << (argc_ > 0 ? argv_[0] : "args") << ": " << why << "\n" << usage_;
    std::exit(2);
  }

  int argc_;
  char** argv_;
  std::string usage_;
};

}  // namespace turbda::io
