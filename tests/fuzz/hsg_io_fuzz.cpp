// Fuzz-replay harness for the graph parsers (read_hsg, read_edgelist).
//
//   fuzz_hsg_io <corpus-dir>
//
// Replays every file of the committed seed corpus, then kMutations seeded
// byte-level mutations of it (tests/fuzz/fuzz.hpp). Every input must end
// in a parsed graph that passes check_invariants() or in
// std::invalid_argument; anything else (another exception, a crash, a
// sanitizer report, an allocation past the cap) fails the run. Runs as a
// ctest entry, so the ASan/UBSan job covers it.

#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "fuzz.hpp"
#include "hsg/io.hpp"

namespace {

using orp::HostSwitchGraph;

constexpr std::uint64_t kMutations = 20000;

// The graph order and degree read_edgelist is called with.
constexpr std::uint32_t kEdgelistOrder = 64;
constexpr std::uint32_t kEdgelistDegree = 8;

// The bytes that delimit the two formats' fields and lines.
constexpr char kStructural[] = {' ', '\n', '\r', '#', '-', '+', 'H', 'S', '\0', '\t'};

struct Tally {
  std::uint64_t inputs = 0, parsed = 0, rejected = 0;
};

// Runs one input through both parsers. Returns false (after printing why)
// when a parser ended in anything but a valid graph or invalid_argument.
bool fuzz_one(const std::string& input, Tally& tally) {
  ++tally.inputs;
  const auto run = [&](const char* parser, auto&& parse) {
    try {
      const HostSwitchGraph g = parse();
      g.check_invariants();
      ++tally.parsed;
      return true;
    } catch (const std::invalid_argument&) {
      ++tally.rejected;
      return true;
    } catch (const std::exception& e) {
      std::cerr << parser << " threw " << e.what() << " on input:\n" << input << "\n";
      return false;
    }
  };
  return run("read_hsg",
             [&] {
               std::istringstream in(input);
               return orp::read_hsg(in);
             }) &&
         run("read_edgelist", [&] {
           std::istringstream in(input);
           return orp::read_edgelist(in, kEdgelistOrder, kEdgelistDegree);
         });
}

}  // namespace

int main(int argc, char** argv) {
  Tally tally;
  const int status = orp::fuzz::run(
      argc, argv, "fuzz_hsg_io", kMutations,
      std::string_view(kStructural, sizeof kStructural),
      [&](const std::string& input) { return fuzz_one(input, tally); });
  if (status != 0) return status;
  std::cout << "fuzz_hsg_io: " << tally.inputs << " inputs, " << tally.parsed
            << " parses, " << tally.rejected << " rejections\n";
  return 0;
}
