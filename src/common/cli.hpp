#pragma once
// Minimal command-line option parsing for the examples and bench drivers.
//
// Supports `--name value`, `--name=value`, and boolean `--flag`. Unknown
// options are an error so typos surface immediately; positional arguments
// are collected in order.

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace orp {

class CliParser {
 public:
  /// `spec` entries register valid options: {name, default, help}.
  struct Option {
    std::string name;
    std::string default_value;  // empty + is_flag=false means "required if queried"
    std::string help;
    bool is_flag = false;
  };

  CliParser(std::string program, std::string description);

  CliParser& flag(const std::string& name, const std::string& help);
  CliParser& option(const std::string& name, const std::string& default_value,
                    const std::string& help);

  /// Parses argv; on --help prints usage and returns false. Throws
  /// std::invalid_argument on unknown/malformed options.
  bool parse(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name) const;
  /// The value read whole as a number. Junk, whitespace, a leading '+',
  /// out-of-range values and (for get_double) NaN or infinity throw
  /// std::invalid_argument naming the option.
  std::int64_t get_int(const std::string& name) const;
  double get_double(const std::string& name) const;
  /// The value read whole as a non-negative T, range-checked the same way up
  /// to T's maximum; a sign of either kind is rejected too.
  template <class T>
  T get_uint(const std::string& name) const {
    static_assert(std::is_integral_v<T>);
    return static_cast<T>(get_uint_up_to(name, std::numeric_limits<T>::max()));
  }
  const std::vector<std::string>& positional() const { return positional_; }

  void print_usage() const;

 private:
  const Option* find(const std::string& name) const;
  std::uint64_t get_uint_up_to(const std::string& name, std::uint64_t max) const;

  std::string program_;
  std::string description_;
  std::vector<Option> options_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// The catch clause of a command-line program's main: prints
/// "error: <what>" on stderr and returns exit status 2.
int report_bad_argument(const std::invalid_argument& e);

/// The one reader of unsigned integers, for options and ORP_* variables
/// alike: all of `text` as decimal digits (no sign, whitespace or suffix)
/// with a value of at most `max`. Empty for anything else.
std::optional<std::uint64_t> parse_uint(
    std::string_view text,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) noexcept;

/// Reads a positive scaling factor from an environment variable, returning
/// `fallback` when it is unset, not parse_uint's digits, 0 or above
/// INT64_MAX. Used for ORP_SA_ITERS-style knobs.
std::int64_t env_int(const char* name, std::int64_t fallback);

}  // namespace orp
