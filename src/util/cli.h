// Minimal command-line flag parser for the bench/example binaries.
// Supports `--name value`, `--name=value`, and boolean `--flag`.
// Unknown flags are an error so typos in sweep scripts fail loudly, and
// so are malformed numbers ("-1", "12abc", "0.3junk", out of range).
//
// A malformed number surfaces when a typed getter reads it, after
// parse(): the getter throws CliError. A program that lets it escape
// main() does not abort — parse() installs a terminate handler that
// prints the message and the usage and exits with status 2 (the
// convention `dds_node` follows for every usage error), so no binary
// needs its own try block.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace dds::util {

// Strict full-string number parses, shared by Cli and the tools that
// parse their own arguments. The whole string must be one number in
// range: no sign on unsigned values, no surrounding whitespace or junk,
// no overflow, no inf/nan. Anything else is nullopt.
std::optional<std::uint64_t> parse_uint(
    std::string_view text,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());
std::optional<std::int64_t> parse_int(std::string_view text);
std::optional<double> parse_double(std::string_view text);

/// A malformed flag value, thrown by Cli's typed getters.
class CliError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

class Cli {
 public:
  /// Registers a flag with a help string and (for valued flags) a default.
  Cli& flag(std::string name, std::string help, std::string default_value);
  Cli& boolean(std::string name, std::string help);

  /// Parses argv. Returns false (after printing usage) on `--help` or on
  /// any unknown/malformed flag. Also records the usage text for the
  /// process-wide CliError terminate handler (see the file comment).
  bool parse(int argc, const char* const* argv);

  std::string get(const std::string& name) const;
  /// Typed getters; each throws CliError naming the flag when its value
  /// is not a well-formed number (see parse_uint).
  std::int64_t get_int(const std::string& name) const;
  std::uint64_t get_uint(const std::string& name) const;
  double get_double(const std::string& name) const;
  bool get_bool(const std::string& name) const;

  /// Comma-separated integer list, e.g. "--sites 5,10,20". Empty items
  /// are skipped (so "" is the empty list); malformed ones throw.
  std::vector<std::uint64_t> get_uint_list(const std::string& name) const;

  std::string usage(const std::string& program) const;

 private:
  struct Spec {
    std::string help;
    std::string default_value;
    bool is_boolean = false;
  };
  std::map<std::string, Spec> specs_;
  std::map<std::string, std::string> values_;
};

}  // namespace dds::util
