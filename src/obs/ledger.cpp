#include "obs/ledger.hpp"

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <mutex>
#include <sstream>
#include <vector>

#include "common/json.hpp"
#include "obs/bench/provenance.hpp"
#include "obs/sink.hpp"

namespace orp::obs {
namespace {

struct LedgerState {
  std::mutex mutex;
  std::vector<std::string> argv;
  std::vector<std::pair<std::string, std::string>> notes;  // value pre-encoded
  std::vector<std::string> artifacts;
  std::string sink_path;  // captured at ledger_capture_argv(); see below
  std::chrono::steady_clock::time_point start = std::chrono::steady_clock::now();
  bool appended = false;
};

LedgerState& state() {
  static LedgerState* instance = new LedgerState();  // leaked: exit-hook safe
  return *instance;
}

std::string utc_timestamp() {
  const std::time_t now =
      std::chrono::system_clock::to_time_t(std::chrono::system_clock::now());
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  return {buf, std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm)};
}

std::string jquoted(std::string_view raw) {
  return '"' + json_escape_string(raw) + '"';
}

std::string format_number(double value) {
  if (value != value) return "\"nan\"";
  std::ostringstream os;
  os.precision(9);
  os << value;
  return os.str();
}

std::int64_t peak_rss_kb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<std::int64_t>(usage.ru_maxrss);  // kB on Linux
}

void upsert_note(std::string_view key, std::string value_json) {
  LedgerState& s = state();
  std::lock_guard lock(s.mutex);
  for (auto& [k, v] : s.notes) {
    if (k == key) {
      v = std::move(value_json);
      return;
    }
  }
  s.notes.emplace_back(std::string(key), std::move(value_json));
}

}  // namespace

std::string ledger_path() {
  const char* raw = std::getenv("ORP_RUN_LEDGER");
  if (!raw) return kDefaultLedgerPath;
  const std::string_view spec(raw);
  if (spec.empty() || spec == "none" || spec == "off") return std::string();
  return std::string(spec);
}

void ledger_capture_argv(int argc, const char* const* argv) {
  LedgerState& s = state();
  std::lock_guard lock(s.mutex);
  s.argv.assign(argv, argv + argc);
  s.start = std::chrono::steady_clock::now();
  // Remember the sink path now: flush() clears the active config when it
  // closes a JSONL trace, and append_run_ledger() runs after the flush.
  s.sink_path = active_sink().path;
}

void ledger_note(std::string_view key, std::string_view value) {
  upsert_note(key, jquoted(value));
}

void ledger_note(std::string_view key, double value) {
  upsert_note(key, format_number(value));
}

void ledger_note(std::string_view key, std::int64_t value) {
  upsert_note(key, std::to_string(value));
}

void ledger_artifact(std::string_view path) {
  LedgerState& s = state();
  std::lock_guard lock(s.mutex);
  s.artifacts.emplace_back(path);
}

bool ledger_append_line(const std::string& path, const std::string& line) {
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);  // open() reports failure
  }
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return false;
  // One write() of the whole record: O_APPEND makes the seek+write atomic
  // on regular files, so concurrent writers never interleave partial lines.
  const std::string payload = line + '\n';
  const char* data = payload.data();
  std::size_t remaining = payload.size();
  bool ok = true;
  while (remaining > 0) {
    const ssize_t written = ::write(fd, data, remaining);
    if (written < 0) {
      ok = false;
      break;
    }
    data += written;
    remaining -= static_cast<std::size_t>(written);
  }
  ::close(fd);
  return ok;
}

bool append_run_ledger() {
  const std::string path = ledger_path();
  if (path.empty()) return false;

  LedgerState& s = state();
  std::lock_guard lock(s.mutex);
  if (s.appended) return true;

  const double wall_s =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          std::chrono::steady_clock::now() - s.start)
          .count();
  const bench::Provenance prov = bench::collect_provenance();

  std::string tool = "unknown";
  if (!s.argv.empty()) {
    tool = std::filesystem::path(s.argv.front()).filename().string();
  }
  // The file sink is this run's primary artifact; record it even if the
  // binary never called ledger_artifact() itself. Prefer the live config,
  // falling back to the path remembered at ledger_capture_argv() time
  // (flush() clears the config when it closes a JSONL trace).
  std::vector<std::string> artifacts = s.artifacts;
  std::string sink_path = active_sink().path;
  if (sink_path.empty()) sink_path = s.sink_path;
  if (!sink_path.empty()) artifacts.push_back(sink_path);

  std::string line = "{\"schema\":" + jquoted(kLedgerSchema);
  line += ",\"ts\":" + jquoted(utc_timestamp());
  line += ",\"tool\":" + jquoted(tool);
  line += ",\"argv\":[";
  for (std::size_t i = 0; i < s.argv.size(); ++i) {
    if (i) line += ',';
    line += jquoted(s.argv[i]);
  }
  line += "],\"git_sha\":" + jquoted(prov.git_sha);
  line += ",\"compiler\":" + jquoted(prov.compiler);
  line += ",\"build_type\":" + jquoted(prov.build_type);
  line += ",\"cpu\":" + jquoted(prov.cpu_model);
  line += ",\"threads\":" + std::to_string(prov.hardware_threads);
  line += ",\"wall_s\":" + format_number(wall_s);
  line += ",\"peak_rss_kb\":" + std::to_string(peak_rss_kb());
  line += ",\"notes\":{";
  for (std::size_t i = 0; i < s.notes.size(); ++i) {
    if (i) line += ',';
    line += jquoted(s.notes[i].first) + ':' + s.notes[i].second;
  }
  line += "},\"artifacts\":[";
  for (std::size_t i = 0; i < artifacts.size(); ++i) {
    if (i) line += ',';
    line += jquoted(artifacts[i]);
  }
  line += "]}";

  if (!ledger_append_line(path, line)) {
    std::fprintf(stderr, "[obs] warning: could not append run ledger %s\n",
                 path.c_str());
    return false;
  }
  s.appended = true;
  return true;
}

}  // namespace orp::obs
