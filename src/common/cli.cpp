#include "common/cli.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <stdexcept>

namespace orp {

CliParser::CliParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

CliParser& CliParser::flag(const std::string& name, const std::string& help) {
  options_.push_back({name, "", help, /*is_flag=*/true});
  return *this;
}

CliParser& CliParser::option(const std::string& name,
                             const std::string& default_value,
                             const std::string& help) {
  options_.push_back({name, default_value, help, /*is_flag=*/false});
  return *this;
}

const CliParser::Option* CliParser::find(const std::string& name) const {
  for (const auto& o : options_) {
    if (o.name == name) return &o;
  }
  return nullptr;
}

bool CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage();
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    const Option* opt = find(name);
    if (!opt) throw std::invalid_argument("unknown option --" + name);
    if (opt->is_flag) {
      if (has_value) throw std::invalid_argument("flag --" + name + " takes no value");
      // A fill, not a string copy: gcc 12 at -O3 warns (-Wrestrict, a false
      // positive) on `= "1"` here.
      values_[name].assign(1, '1');
    } else {
      if (!has_value) {
        if (i + 1 >= argc) throw std::invalid_argument("option --" + name + " needs a value");
        value = argv[++i];
      }
      values_[name] = value;
    }
  }
  return true;
}

bool CliParser::has(const std::string& name) const {
  return values_.count(name) != 0;
}

std::string CliParser::get(const std::string& name) const {
  if (auto it = values_.find(name); it != values_.end()) return it->second;
  const Option* opt = find(name);
  if (!opt) throw std::invalid_argument("option --" + name + " was never registered");
  return opt->default_value;
}

namespace {

// Parses all of `text` into a T; throws std::invalid_argument naming the
// option on anything from_chars does not consume whole, on overflow, and on
// a non-finite floating-point value.
template <class T>
T parse_whole(const std::string& name, const std::string& text, const char* what) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc::result_out_of_range) {
    throw std::invalid_argument("--" + name + ": out of range: " + text);
  }
  if (ec != std::errc{} || ptr != end) {
    throw std::invalid_argument("--" + name + ": not " + what + ": " + text);
  }
  if constexpr (std::is_floating_point_v<T>) {
    // A NaN compares false against every bound: "--tolerance nan" would
    // pass any regression gate.
    if (!std::isfinite(value)) {
      throw std::invalid_argument("--" + name + ": not a finite number: " + text);
    }
  }
  return value;
}

}  // namespace

std::int64_t CliParser::get_int(const std::string& name) const {
  return parse_whole<std::int64_t>(name, get(name), "an integer");
}

double CliParser::get_double(const std::string& name) const {
  return parse_whole<double>(name, get(name), "a number");
}

std::uint64_t CliParser::get_uint_up_to(const std::string& name,
                                        std::uint64_t max) const {
  const std::string v = get(name);
  if (const std::optional<std::uint64_t> parsed = parse_uint(v, max)) return *parsed;
  const bool digits = !v.empty() && v.find_first_not_of("0123456789") == std::string::npos;
  if (!digits) throw std::invalid_argument("--" + name + ": not an unsigned integer: " + v);
  throw std::invalid_argument("--" + name + ": out of range: " + v + " (at most " +
                              std::to_string(max) + ")");
}

void CliParser::print_usage() const {
  std::cout << program_ << " — " << description_ << "\n\nOptions:\n";
  for (const auto& o : options_) {
    std::cout << "  --" << o.name;
    if (!o.is_flag) std::cout << " <value>";
    std::cout << "\n      " << o.help;
    if (!o.is_flag && !o.default_value.empty()) {
      std::cout << " (default: " << o.default_value << ")";
    }
    std::cout << "\n";
  }
}

int report_bad_argument(const std::invalid_argument& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}

std::optional<std::uint64_t> parse_uint(std::string_view text, std::uint64_t max) noexcept {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || stop != end || value > max) return std::nullopt;
  return value;
}

std::int64_t env_int(const char* name, std::int64_t fallback) {
  const char* raw = std::getenv(name);
  const std::optional<std::uint64_t> parsed =
      raw ? parse_uint(raw, std::numeric_limits<std::int64_t>::max()) : std::nullopt;
  if (!parsed || *parsed == 0) return fallback;
  return static_cast<std::int64_t>(*parsed);
}

}  // namespace orp
