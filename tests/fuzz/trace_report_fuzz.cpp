// Fuzz-replay harness for the trace reader behind orp_report
// (obs::report::analyze_trace, render_markdown).
//
//   fuzz_trace_report <corpus-dir>
//
// Replays every JSONL trace of the committed seed corpus, then kMutations
// seeded byte-level mutations of them (tests/fuzz/fuzz.hpp), and one line
// of arrays nested far past the JSON parser's depth cap. The reader counts
// a line it cannot use as malformed and never throws on one, so every
// input must give an analysis that renders as markdown. An exception (the
// harness names its message), a crash, a sanitizer report or an allocation
// past the cap fails the run. Runs as a ctest entry, so the ASan/UBSan job
// covers it.

#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "fuzz.hpp"
#include "obs/trace_analysis.hpp"

namespace {

constexpr std::uint64_t kMutations = 3000;

// The bytes that delimit JSON values and JSONL records.
constexpr char kStructural[] = {'{', '}', '[', ']', '"', ':', ',', '\\', '-', '.', 'e', '\n'};

struct Tally {
  std::uint64_t inputs = 0, lines = 0, malformed = 0;
};

std::vector<std::string> split_lines(const std::string& input) {
  std::vector<std::string> lines;
  std::size_t begin = 0;
  while (begin <= input.size()) {
    std::size_t end = input.find('\n', begin);
    if (end == std::string::npos) end = input.size();
    lines.push_back(input.substr(begin, end - begin));
    begin = end + 1;
  }
  return lines;
}

// Analyzes and renders one input. Returns false (after printing why) when
// that threw.
bool fuzz_one(const std::string& input, Tally& tally) {
  ++tally.inputs;
  try {
    const orp::obs::report::TraceAnalysis analysis =
        orp::obs::report::analyze_trace(split_lines(input));
    tally.lines += analysis.total_lines;
    tally.malformed += analysis.malformed_lines;
    orp::obs::report::render_markdown(analysis);
    return true;
  } catch (const std::exception& e) {
    std::cerr << "analyze_trace threw " << e.what() << " on input:\n"
              << input.substr(0, 4096) << "\n";
    return false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  Tally tally;
  const auto one = [&](const std::string& input) { return fuzz_one(input, tally); };
  const int status = orp::fuzz::run(argc, argv, "fuzz_trace_report", kMutations,
                                    std::string_view(kStructural, sizeof kStructural), one);
  if (status != 0) return status;
  if (!one(std::string(1 << 20, '['))) {
    std::cerr << "deeply nested line failed\n";
    return 1;
  }
  std::cout << "fuzz_trace_report: " << tally.inputs << " inputs, " << tally.lines
            << " lines, " << tally.malformed << " malformed\n";
  return 0;
}
