// Fuzz-replay harness for the graph parsers (read_hsg, read_edgelist).
//
//   fuzz_hsg_io <corpus-dir>
//
// Replays every file of the committed seed corpus, then kMutations seeded
// byte-level mutations of it (bit flips, digit runs, deletions,
// duplicated and spliced lines, truncation). Every input must end in a
// parsed graph that passes check_invariants() or in std::invalid_argument;
// anything else (another exception, a crash, a sanitizer report) fails the
// run. Single allocations are capped at kMaxAllocation bytes: by a
// replaced operator new in plain builds, by ASan's max_allocation_size_mb
// under AddressSanitizer. Runs as a ctest entry, so the ASan/UBSan job
// covers it.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/prng.hpp"
#include "hsg/io.hpp"

namespace {

constexpr std::size_t kMaxAllocation = std::size_t{256} << 20;
constexpr std::uint64_t kMutations = 20000;

}  // namespace

#if defined(__SANITIZE_ADDRESS__)
#define ORP_FUZZ_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ORP_FUZZ_ASAN 1
#endif
#endif

#ifdef ORP_FUZZ_ASAN
// Flags given in ASAN_OPTIONS still win; this only adds the cap.
extern "C" const char* __asan_default_options() { return "max_allocation_size_mb=256"; }
#else
void* operator new(std::size_t size) {
  if (size > kMaxAllocation) {
    std::fprintf(stderr, "fuzz_hsg_io: allocation of %zu bytes exceeds the cap\n", size);
    std::abort();
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace {

using orp::HostSwitchGraph;

// The graph order and degree read_edgelist is called with.
constexpr std::uint32_t kEdgelistOrder = 64;
constexpr std::uint32_t kEdgelistDegree = 8;

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

std::string mutate(const std::vector<std::string>& corpus, orp::Xoshiro256& rng) {
  const auto below = [&](std::size_t bound) {
    return bound == 0 ? std::size_t{0} : static_cast<std::size_t>(rng() % bound);
  };
  std::string s = corpus[below(corpus.size())];
  const std::size_t edits = 1 + below(4);
  for (std::size_t e = 0; e < edits; ++e) {
    switch (below(7)) {
      case 0:  // flip one bit
        if (!s.empty()) s[below(s.size())] ^= static_cast<char>(1u << below(8));
        break;
      case 1: {  // a run of digits: large and overflowing fields
        const std::string digits(1 + below(24), static_cast<char>('0' + below(10)));
        s.insert(below(s.size() + 1), digits);
        break;
      }
      case 2: {  // delete a range
        const std::size_t at = below(s.size() + 1);
        s.erase(at, below(s.size() - at + 1));
        break;
      }
      case 3: {  // one structural byte
        static const char kBytes[] = {' ', '\n', '\r', '#', '-', '+', 'H', 'S', '\0', '\t'};
        s.insert(below(s.size() + 1), 1, kBytes[below(sizeof kBytes)]);
        break;
      }
      case 4: {  // duplicate a line
        const std::size_t at = s.rfind('\n', below(s.size() + 1));
        const std::size_t begin = at == std::string::npos ? 0 : at + 1;
        const std::size_t end = s.find('\n', begin);
        const std::string line =
            s.substr(begin, end == std::string::npos ? std::string::npos : end - begin + 1);
        s.insert(begin, line);
        break;
      }
      case 5: {  // splice the tail of another seed
        const std::string& other = corpus[below(corpus.size())];
        s = s.substr(0, below(s.size() + 1)) + other.substr(below(other.size() + 1));
        break;
      }
      default:  // truncate
        s.resize(below(s.size() + 1));
        break;
    }
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: fuzz_hsg_io <corpus-dir>\n";
    return 2;
  }

  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(argv[1])) {
    if (entry.is_regular_file()) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());  // directory order is unspecified
  std::vector<std::string> corpus;
  for (const auto& path : files) {
    std::ifstream in(path, std::ios::binary);
    corpus.emplace_back(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  if (corpus.empty()) {
    std::cerr << "fuzz_hsg_io: empty corpus in " << argv[1] << "\n";
    return 2;
  }

  Tally tally;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    if (!fuzz_one(corpus[i], tally)) {
      std::cerr << "seed " << files[i] << " failed\n";
      return 1;
    }
  }
  orp::Xoshiro256 rng(0x5eed'f022ULL);
  for (std::uint64_t i = 0; i < kMutations; ++i) {
    if (!fuzz_one(mutate(corpus, rng), tally)) {
      std::cerr << "mutation " << i << " failed\n";
      return 1;
    }
  }
  std::cout << "fuzz_hsg_io: " << tally.inputs << " inputs, " << tally.parsed
            << " parses, " << tally.rejected << " rejections\n";
  return 0;
}
