#pragma once

#include <climits>
#include <map>
#include <string>

namespace cq::util {

/// Parses `text` as a whole decimal integer in [min, max] (std::from_chars:
/// no sign but '-', no spaces, no trailing characters, no overflow);
/// throws std::invalid_argument "<what>=<text>: expected a whole number
/// in [min, max]" otherwise.
long parse_int(const std::string& what, const std::string& text, long min = LONG_MIN,
               long max = LONG_MAX);

/// Minimal `--key=value` / `--flag` parser for the tools, benches and
/// examples. Unknown keys are kept (callers may query freely); values
/// are returned through typed getters with defaults.
class Cli {
 public:
  Cli(int argc, char** argv);

  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& fallback) const;
  /// `fallback` when --key is absent, else its value through parse_int:
  /// a bad value throws std::invalid_argument naming --key=value.
  long get_int(const std::string& key, long fallback, long min = LONG_MIN,
               long max = LONG_MAX) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace cq::util
