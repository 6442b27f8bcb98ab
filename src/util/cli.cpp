#include "util/cli.h"

#include <charconv>
#include <cstdlib>
#include <stdexcept>

namespace cq::util {

long parse_int(const std::string& what, const std::string& text, long min, long max) {
  long n = 0;
  const char* const end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, n);
  if (error != std::errc() || stop != end || n < min || n > max) {
    throw std::invalid_argument(what + "=" + text + ": expected a whole number in [" +
                                std::to_string(min) + ", " + std::to_string(max) + "]");
  }
  return n;
}

Cli::Cli(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
      values_[arg] = "true";
    } else {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
}

bool Cli::has(const std::string& key) const { return values_.count(key) != 0; }

std::string Cli::get(const std::string& key, const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

long Cli::get_int(const std::string& key, long fallback, long min, long max) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : parse_int("--" + key, it->second, min, max);
}

double Cli::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : std::strtod(it->second.c_str(), nullptr);
}

bool Cli::get_bool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

}  // namespace cq::util
