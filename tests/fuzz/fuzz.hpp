#pragma once
// Shared parts of the fuzz-replay harnesses (fuzz_hsg_io, fuzz_trace_report):
// the single-allocation cap, the corpus reader and the byte-level mutator.
//
// Include from exactly one source file of a harness executable: the cap
// replaces the global operator new.
//
// Single allocations are capped at kMaxAllocation bytes: by a replaced
// operator new in plain builds, by ASan's max_allocation_size_mb under
// AddressSanitizer.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "common/prng.hpp"

namespace orp::fuzz {

constexpr std::size_t kMaxAllocation = std::size_t{256} << 20;

}  // namespace orp::fuzz

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
  if (size > orp::fuzz::kMaxAllocation) {
    std::fprintf(stderr, "fuzz: allocation of %zu bytes exceeds the cap\n", size);
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

namespace orp::fuzz {

/// One seeded mutation of a corpus entry: 1-4 edits among bit flips, digit
/// runs (large and overflowing fields), deletions, one byte of
/// `structural` (the format's delimiters), duplicated lines, the spliced
/// tail of another entry, and truncation.
inline std::string mutate(const std::vector<std::string>& corpus, Xoshiro256& rng,
                          std::string_view structural) {
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
      case 3:  // one structural byte
        s.insert(below(s.size() + 1), 1, structural[below(structural.size())]);
        break;
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

/// The harness main: replays every file of the corpus directory argv[1]
/// (in name order), then `mutations` seeded mutations of them, through
/// `one`, which returns false after printing why an input failed. Returns
/// the process exit status: 0 when every input passed, 1 on a failure, 2
/// on a usage error or an empty corpus.
inline int run(int argc, char** argv, const char* name, std::uint64_t mutations,
               std::string_view structural,
               const std::function<bool(const std::string&)>& one) {
  if (argc != 2) {
    std::cerr << "usage: " << name << " <corpus-dir>\n";
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
    std::cerr << name << ": empty corpus in " << argv[1] << "\n";
    return 2;
  }
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    if (!one(corpus[i])) {
      std::cerr << "seed " << files[i] << " failed\n";
      return 1;
    }
  }
  Xoshiro256 rng(0x5eed'f022ULL);
  for (std::uint64_t i = 0; i < mutations; ++i) {
    if (!one(mutate(corpus, rng, structural))) {
      std::cerr << "mutation " << i << " failed\n";
      return 1;
    }
  }
  return 0;
}

}  // namespace orp::fuzz
