#include "hsg/io.hpp"

#include <fstream>
#include <optional>
#include <sstream>

namespace orp {

void write_hsg(std::ostream& os, const HostSwitchGraph& g) {
  os << "hsg " << g.num_hosts() << ' ' << g.num_switches() << ' ' << g.radix()
     << '\n';
  for (HostId h = 0; h < g.num_hosts(); ++h) {
    if (g.host_attached(h)) os << "H " << h << ' ' << g.host_switch(h) << '\n';
  }
  for (SwitchId s = 0; s < g.num_switches(); ++s) {
    for (SwitchId t : g.neighbors(s)) {
      if (s < t) os << "S " << s << ' ' << t << '\n';
    }
  }
}

bool write_hsg_file(const std::string& path, const HostSwitchGraph& g) {
  std::ofstream file(path);
  if (!file) return false;
  write_hsg(file, g);
  return static_cast<bool>(file);
}

namespace {

[[noreturn]] void parse_fail(std::size_t line, const std::string& what) {
  throw std::invalid_argument("hsg parse error at line " + std::to_string(line) +
                              ": " + what);
}

// Windows line endings and comments are stripped before tokenizing so the
// rest of the parser only sees clean fields.
void strip_comment_and_cr(std::string& line) {
  if (const auto hash = line.find('#'); hash != std::string::npos) line.resize(hash);
  if (!line.empty() && line.back() == '\r') line.pop_back();
}

// Strict uint32 field parse. operator>> into an unsigned silently wraps
// negative input ("-1" becomes 4294967295) and accepts partial tokens; this
// rejects both with the line number and the offending token.
std::uint32_t parse_u32(std::istringstream& fields, std::size_t line,
                        const char* what) {
  std::string token;
  if (!(fields >> token)) {
    parse_fail(line, std::string("missing ") + what);
  }
  if (token.front() == '-') {
    parse_fail(line, std::string(what) + " must be non-negative, got '" + token + "'");
  }
  std::uint64_t value = 0;
  for (const char c : token) {
    if (c < '0' || c > '9') {
      parse_fail(line, std::string("invalid ") + what + " '" + token + "'");
    }
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
    if (value > 0xffffffffULL) {
      parse_fail(line, std::string(what) + " out of range: '" + token + "'");
    }
  }
  return static_cast<std::uint32_t>(value);
}

void expect_line_end(std::istringstream& fields, std::size_t line) {
  std::string junk;
  if (fields >> junk) parse_fail(line, "trailing characters '" + junk + "'");
}

}  // namespace

HostSwitchGraph read_hsg(std::istream& is) {
  std::string line;
  std::size_t line_no = 0;
  std::optional<HostSwitchGraph> graph;
  while (std::getline(is, line)) {
    ++line_no;
    strip_comment_and_cr(line);
    std::istringstream fields(line);
    std::string tag;
    if (!(fields >> tag)) continue;  // blank line
    if (tag == "hsg") {
      if (graph) parse_fail(line_no, "duplicate header");
      const std::uint32_t n = parse_u32(fields, line_no, "host count");
      const std::uint32_t m = parse_u32(fields, line_no, "switch count");
      const std::uint32_t r = parse_u32(fields, line_no, "radix");
      expect_line_end(fields, line_no);
      if (n > kMaxHsgHosts) {
        parse_fail(line_no, "host count " + std::to_string(n) + " exceeds the format limit " +
                                std::to_string(kMaxHsgHosts));
      }
      if (m > kMaxHsgSwitches) {
        parse_fail(line_no, "switch count " + std::to_string(m) +
                                " exceeds the format limit " + std::to_string(kMaxHsgSwitches));
      }
      try {
        graph.emplace(n, m, r);
      } catch (const std::exception& e) {
        parse_fail(line_no, e.what());  // infeasible (n, m, r), with location
      }
    } else if (tag == "H") {
      if (!graph) parse_fail(line_no, "host line before header");
      const std::uint32_t h = parse_u32(fields, line_no, "host id");
      const std::uint32_t s = parse_u32(fields, line_no, "switch id");
      expect_line_end(fields, line_no);
      if (h >= graph->num_hosts() || s >= graph->num_switches()) {
        parse_fail(line_no, "host or switch id out of range");
      }
      if (graph->host_attached(h)) parse_fail(line_no, "host attached twice");
      if (graph->free_ports(s) == 0) parse_fail(line_no, "switch radix exceeded");
      graph->attach_host(h, s);
    } else if (tag == "S") {
      if (!graph) parse_fail(line_no, "edge line before header");
      const std::uint32_t a = parse_u32(fields, line_no, "switch id");
      const std::uint32_t b = parse_u32(fields, line_no, "switch id");
      expect_line_end(fields, line_no);
      if (a >= graph->num_switches() || b >= graph->num_switches()) {
        parse_fail(line_no, "switch id out of range");
      }
      if (a == b) parse_fail(line_no, "self-loop");
      if (graph->has_switch_edge(a, b)) parse_fail(line_no, "duplicate edge");
      if (graph->free_ports(a) == 0 || graph->free_ports(b) == 0) {
        parse_fail(line_no, "switch radix exceeded");
      }
      graph->add_switch_edge(a, b);
    } else {
      parse_fail(line_no, "unknown tag '" + tag + "'");
    }
  }
  if (is.bad()) parse_fail(line_no, "stream read error");
  if (!graph) parse_fail(line_no, "missing 'hsg' header");
  return std::move(*graph);
}

HostSwitchGraph read_hsg_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::invalid_argument("cannot open " + path);
  return read_hsg(file);
}

void write_edgelist(std::ostream& os, const HostSwitchGraph& g) {
  for (SwitchId s = 0; s < g.num_switches(); ++s) {
    for (SwitchId t : g.neighbors(s)) {
      if (s < t) os << s << ' ' << t << '\n';
    }
  }
}

HostSwitchGraph read_edgelist(std::istream& is, std::uint32_t order,
                              std::uint32_t degree) {
  HostSwitchGraph g(order, order, degree + 1);
  for (HostId h = 0; h < order; ++h) g.attach_host(h, h);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    strip_comment_and_cr(line);
    std::istringstream fields(line);
    std::string first;
    if (!(fields >> first)) continue;  // blank line
    // Re-tokenize from the start so `first` goes through the strict parser
    // (a non-numeric first token must be an error, not a skipped line).
    fields.clear();
    fields.seekg(0);
    const std::uint32_t a = parse_u32(fields, line_no, "vertex");
    const std::uint32_t b = parse_u32(fields, line_no, "vertex");
    expect_line_end(fields, line_no);
    if (a >= order || b >= order) parse_fail(line_no, "vertex out of range");
    if (a == b) parse_fail(line_no, "self-loop");
    if (g.has_switch_edge(a, b)) parse_fail(line_no, "duplicate edge");
    if (g.free_ports(a) == 0 || g.free_ports(b) == 0) {
      parse_fail(line_no, "degree bound exceeded");
    }
    g.add_switch_edge(a, b);
  }
  if (is.bad()) parse_fail(line_no, "stream read error");
  return g;
}

void write_dot(std::ostream& os, const HostSwitchGraph& g) {
  os << "graph hsg {\n  node [shape=box];\n";
  for (SwitchId s = 0; s < g.num_switches(); ++s) {
    os << "  s" << s << ";\n";
  }
  os << "  node [shape=ellipse];\n";
  for (HostId h = 0; h < g.num_hosts(); ++h) {
    if (g.host_attached(h)) {
      os << "  h" << h << " -- s" << g.host_switch(h) << ";\n";
    }
  }
  for (SwitchId s = 0; s < g.num_switches(); ++s) {
    for (SwitchId t : g.neighbors(s)) {
      if (s < t) os << "  s" << s << " -- s" << t << ";\n";
    }
  }
  os << "}\n";
}

}  // namespace orp
