#include "obs/bench/report.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "common/json.hpp"
#include "common/table.hpp"

namespace orp::obs::bench {

namespace {

// JSON numbers are emitted with enough precision to round-trip the
// medians; trailing-zero trimming keeps the files diffable by eye.
std::string num(double value) {
  if (!std::isfinite(value)) return "0";
  std::ostringstream os;
  os.precision(12);
  os << value;
  return os.str();
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  out += json_escape_string(s);
  out += '"';
  return out;
}

double get_num(const JsonValue& obj, std::string_view key) {
  return obj.at(key).as_number();
}

}  // namespace

const BenchEntry* BenchReport::find(const std::string& name) const noexcept {
  for (const BenchEntry& e : entries) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

std::string report_to_json(const BenchReport& report) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": " << quoted(report.schema) << ",\n";
  os << "  \"provenance\": {\n";
  os << "    \"git_sha\": " << quoted(report.provenance.git_sha) << ",\n";
  os << "    \"compiler\": " << quoted(report.provenance.compiler) << ",\n";
  os << "    \"flags\": " << quoted(report.provenance.flags) << ",\n";
  os << "    \"build_type\": " << quoted(report.provenance.build_type) << ",\n";
  os << "    \"cpu_model\": " << quoted(report.provenance.cpu_model) << ",\n";
  os << "    \"hardware_threads\": " << report.provenance.hardware_threads << ",\n";
  os << "    \"obs_disabled\": " << (report.provenance.obs_disabled ? "true" : "false")
     << "\n";
  os << "  },\n";
  os << "  \"quick\": " << (report.quick ? "true" : "false") << ",\n";
  os << "  \"peak_rss_kb\": " << report.peak_rss_kb << ",\n";
  os << "  \"benchmarks\": [";
  for (std::size_t i = 0; i < report.entries.size(); ++i) {
    const BenchEntry& e = report.entries[i];
    os << (i ? ",\n" : "\n");
    os << "    {\n";
    os << "      \"name\": " << quoted(e.name) << ",\n";
    os << "      \"family\": " << quoted(e.family) << ",\n";
    os << "      \"repetitions\": " << e.repetitions << ",\n";
    os << "      \"iters_per_rep\": " << e.iters_per_rep << ",\n";
    os << "      \"ns_per_op\": {\"min\": " << num(e.wall.min_ns)
       << ", \"median\": " << num(e.wall.median_ns)
       << ", \"mad\": " << num(e.wall.mad_ns) << "},\n";
    os << "      \"ops_per_sec\": " << num(e.wall.ops_per_sec) << ",\n";
    os << "      \"cpu_per_op\": {\"user_ns\": " << num(e.cpu_user_ns)
       << ", \"sys_ns\": " << num(e.cpu_sys_ns) << "}\n";
    os << "    }";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

BenchReport report_from_json(const std::string& text) {
  const JsonValue doc = JsonValue::parse(text);
  BenchReport report;
  report.schema = doc.at("schema").as_string();
  if (report.schema != kBenchSchema) {
    throw std::runtime_error("bench report: unsupported schema \"" + report.schema +
                             "\" (expected \"" + kBenchSchema + "\")");
  }
  const JsonValue& prov = doc.at("provenance");
  report.provenance.git_sha = prov.at("git_sha").as_string();
  report.provenance.compiler = prov.at("compiler").as_string();
  report.provenance.flags = prov.at("flags").as_string();
  report.provenance.build_type = prov.at("build_type").as_string();
  report.provenance.cpu_model = prov.at("cpu_model").as_string();
  report.provenance.hardware_threads =
      static_cast<int>(get_num(prov, "hardware_threads"));
  report.provenance.obs_disabled = prov.at("obs_disabled").as_bool();
  report.quick = doc.at("quick").as_bool();
  report.peak_rss_kb = static_cast<std::int64_t>(get_num(doc, "peak_rss_kb"));
  for (const JsonValue& b : doc.at("benchmarks").items()) {
    BenchEntry e;
    e.name = b.at("name").as_string();
    e.family = b.at("family").as_string();
    e.repetitions = static_cast<int>(get_num(b, "repetitions"));
    e.iters_per_rep = static_cast<std::uint64_t>(get_num(b, "iters_per_rep"));
    const JsonValue& wall = b.at("ns_per_op");
    e.wall.min_ns = get_num(wall, "min");
    e.wall.median_ns = get_num(wall, "median");
    e.wall.mad_ns = get_num(wall, "mad");
    e.wall.ops_per_sec = get_num(b, "ops_per_sec");
    if (const JsonValue* cpu = b.find("cpu_per_op")) {
      e.cpu_user_ns = get_num(*cpu, "user_ns");
      e.cpu_sys_ns = get_num(*cpu, "sys_ns");
    }
    report.entries.push_back(std::move(e));
  }
  return report;
}

BenchReport report_from_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("bench report: cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return report_from_json(buffer.str());
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lower + upper) / 2.0;
}

double scaled_mad(const std::vector<double>& values, double center) {
  if (values.empty()) return 0.0;
  std::vector<double> deviations;
  deviations.reserve(values.size());
  for (const double v : values) deviations.push_back(std::fabs(v - center));
  return 1.4826 * median(std::move(deviations));
}

DiffResult diff_reports(const BenchReport& baseline, const BenchReport& current,
                        const DiffOptions& options) {
  DiffResult out;
  out.mode_mismatch = baseline.quick != current.quick;
  for (const BenchEntry& b : baseline.entries) {
    const BenchEntry* c = current.find(b.name);
    if (!c) {
      out.only_baseline.push_back(b.name);
      continue;
    }
    DiffRow row;
    row.name = b.name;
    row.old_median_ns = b.wall.median_ns;
    row.new_median_ns = c->wall.median_ns;
    row.ratio = b.wall.median_ns > 0.0 ? c->wall.median_ns / b.wall.median_ns : 1.0;
    const double delta = c->wall.median_ns - b.wall.median_ns;
    const double noise_floor = std::max(
        options.mad_sigma * std::max(b.wall.mad_ns, c->wall.mad_ns),
        options.abs_floor_ns);
    row.regressed = c->wall.median_ns > b.wall.median_ns * (1.0 + options.tolerance) &&
                    delta > noise_floor;
    row.improved = b.wall.median_ns > c->wall.median_ns * (1.0 + options.tolerance) &&
                   -delta > noise_floor;
    out.any_regression = out.any_regression || row.regressed;
    out.rows.push_back(std::move(row));
  }
  for (const BenchEntry& c : current.entries) {
    if (!baseline.find(c.name)) out.only_current.push_back(c.name);
  }
  return out;
}

Table diff_table(const DiffResult& diff) {
  Table table({"benchmark", "old ns/op", "new ns/op", "ratio", "verdict"});
  for (const DiffRow& row : diff.rows) {
    table.row()
        .add(row.name)
        .add(row.old_median_ns, 1)
        .add(row.new_median_ns, 1)
        .add(row.ratio, 3)
        .add(row.regressed ? "REGRESSED" : (row.improved ? "improved" : "ok"));
  }
  return table;
}

}  // namespace orp::obs::bench
