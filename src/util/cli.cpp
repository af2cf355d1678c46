#include "util/cli.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <sstream>
#include <stdexcept>

namespace dds::util {

namespace {

/// std::from_chars over the whole of `text`: nullopt unless every
/// character was consumed and the value is representable.
template <typename T>
std::optional<T> from_chars_exact(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

[[noreturn]] void bad_value(const std::string& name, const std::string& value,
                            const char* expected) {
  throw CliError("Cli: --" + name + " expects " + expected + ", got '" +
                 value + "'");
}

// The usage text of the last parse(), for the terminate handler.
std::string& parsed_usage() {
  static std::string usage;
  return usage;
}

std::terminate_handler previous_terminate = nullptr;

// An uncaught CliError is a usage error, not a crash: print it with the
// usage and exit 2. Anything else goes to the previous handler.
[[noreturn]] void on_terminate() {
  if (const std::exception_ptr e = std::current_exception()) {
    try {
      std::rethrow_exception(e);
    } catch (const CliError& err) {
      std::fprintf(stderr, "%s\n%s", err.what(), parsed_usage().c_str());
      std::fflush(stderr);
      std::_Exit(2);
    } catch (...) {
    }
  }
  if (previous_terminate != nullptr) previous_terminate();
  std::abort();
}

void install_terminate_handler() {
  static const bool installed = [] {
    previous_terminate = std::set_terminate(on_terminate);
    return true;
  }();
  (void)installed;
}

}  // namespace

std::optional<std::uint64_t> parse_uint(std::string_view text,
                                        std::uint64_t max) {
  const auto value = from_chars_exact<std::uint64_t>(text);
  if (!value || *value > max) return std::nullopt;
  return value;
}

std::optional<std::int64_t> parse_int(std::string_view text) {
  return from_chars_exact<std::int64_t>(text);
}

std::optional<double> parse_double(std::string_view text) {
  const auto value = from_chars_exact<double>(text);
  if (!value || !std::isfinite(*value)) return std::nullopt;
  return value;
}

Cli& Cli::flag(std::string name, std::string help, std::string default_value) {
  specs_[std::move(name)] = Spec{std::move(help), std::move(default_value),
                                 /*is_boolean=*/false};
  return *this;
}

Cli& Cli::boolean(std::string name, std::string help) {
  specs_[std::move(name)] = Spec{std::move(help), "false", /*is_boolean=*/true};
  return *this;
}

bool Cli::parse(int argc, const char* const* argv) {
  parsed_usage() = usage(argc > 0 ? argv[0] : "program");
  install_terminate_handler();
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage(argv[0]).c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected positional argument: %s\n%s",
                   arg.c_str(), usage(argv[0]).c_str());
      return false;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    auto it = specs_.find(name);
    if (it == specs_.end()) {
      std::fprintf(stderr, "unknown flag: --%s\n%s", name.c_str(),
                   usage(argv[0]).c_str());
      return false;
    }
    if (it->second.is_boolean) {
      values_[name] = has_value ? value : "true";
    } else {
      if (!has_value) {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "flag --%s expects a value\n", name.c_str());
          return false;
        }
        value = argv[++i];
      }
      values_[name] = value;
    }
  }
  return true;
}

std::string Cli::get(const std::string& name) const {
  auto it = values_.find(name);
  if (it != values_.end()) return it->second;
  auto spec = specs_.find(name);
  if (spec == specs_.end()) {
    throw std::invalid_argument("Cli: flag not registered: --" + name);
  }
  return spec->second.default_value;
}

std::int64_t Cli::get_int(const std::string& name) const {
  const std::string value = get(name);
  const auto parsed = parse_int(value);
  if (!parsed) bad_value(name, value, "an integer");
  return *parsed;
}

std::uint64_t Cli::get_uint(const std::string& name) const {
  const std::string value = get(name);
  const auto parsed = parse_uint(value);
  if (!parsed) bad_value(name, value, "an unsigned integer");
  return *parsed;
}

double Cli::get_double(const std::string& name) const {
  const std::string value = get(name);
  const auto parsed = parse_double(value);
  if (!parsed) bad_value(name, value, "a finite number");
  return *parsed;
}

bool Cli::get_bool(const std::string& name) const {
  const std::string v = get(name);
  return v == "true" || v == "1" || v == "yes";
}

std::vector<std::uint64_t> Cli::get_uint_list(const std::string& name) const {
  std::vector<std::uint64_t> out;
  std::stringstream ss(get(name));
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (tok.empty()) continue;
    const auto parsed = parse_uint(tok);
    if (!parsed) bad_value(name, tok, "a list of unsigned integers");
    out.push_back(*parsed);
  }
  return out;
}

std::string Cli::usage(const std::string& program) const {
  std::ostringstream os;
  os << "usage: " << program << " [flags]\n";
  for (const auto& [name, spec] : specs_) {
    os << "  --" << name;
    if (!spec.is_boolean) os << " <value> (default: " << spec.default_value
                             << ")";
    os << "\n      " << spec.help << '\n';
  }
  os << "  --help\n      show this message\n";
  return os.str();
}

}  // namespace dds::util
