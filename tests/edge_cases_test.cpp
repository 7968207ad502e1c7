// Corner-case coverage across modules: degenerate topology parameters,
// solver reuse, scratch-state reset, and API misuses that must throw.
#include <gtest/gtest.h>

#include <sstream>

#include "common/cli.hpp"
#include "common/prng.hpp"
#include "common/table.hpp"
#include "oracle/fairshare.hpp"
#include "sim/fairshare_fast.hpp"
#include "sim/packet.hpp"
#include "sim/routing.hpp"
#include "topo/dragonfly.hpp"
#include "topo/torus.hpp"

namespace orp {
namespace {

TEST(EdgeCases, TableAutoOpensFirstRow) {
  Table t({"a", "b"});
  t.add("x").add("y");  // no explicit row()
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_EQ(t.row_cells(0), (std::vector<std::string>{"x", "y"}));
}

TEST(EdgeCases, TableShortRowsPrintPadded) {
  Table t({"a", "b", "c"});
  t.row().add("only");
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("only"), std::string::npos);
}

TEST(EdgeCases, CliFlagRejectsValue) {
  CliParser cli("p", "t");
  cli.flag("verbose", "talk");
  const char* argv[] = {"p", "--verbose=1"};
  EXPECT_THROW(cli.parse(2, argv), std::invalid_argument);
}

TEST(EdgeCases, CliMissingValueThrows) {
  CliParser cli("p", "t");
  cli.option("n", "", "hosts");
  const char* argv[] = {"p", "--n"};
  EXPECT_THROW(cli.parse(2, argv), std::invalid_argument);
}

TEST(EdgeCases, SmallestDragonflyIsValid) {
  // a = 2: h = p = 1, g = 3, m = 6, r = 3.
  const DragonflyParams params{2};
  EXPECT_EQ(params.radix(), 3u);
  EXPECT_EQ(dragonfly_switch_count(params), 6u);
  const auto g = build_dragonfly(params, 6);
  g.check_invariants();
  EXPECT_TRUE(g.switches_connected());
}

TEST(EdgeCases, TwoSwitchTorusLine) {
  // dims=1, base=2: two switches, one cable.
  const TorusParams params{1, 2, 4};
  EXPECT_EQ(torus_link_degree(params), 1u);
  const auto g = build_torus(params, 6);
  EXPECT_EQ(g.num_switch_edges(), 1u);
  EXPECT_TRUE(g.switches_connected());
}

TEST(EdgeCases, RoutingThroughHostlessSwitches) {
  // Hosts only on the endpoints of a 4-switch path; transit switches have
  // no hosts but must still carry the route.
  HostSwitchGraph g(2, 4, 4);
  g.attach_host(0, 0);
  g.attach_host(1, 3);
  for (SwitchId s = 0; s + 1 < 4; ++s) g.add_switch_edge(s, s + 1);
  const RoutingTable routes(g);
  std::vector<LinkId> path;
  EXPECT_EQ(routes.append_host_path(0, 1, path), 5u);
}

TEST(EdgeCases, FairShareSolverScratchResetsBetweenCalls) {
  FastFairShareSolver solver(1e9);
  std::vector<double> rates;
  // First phase touches links 0..3.
  const PathStore paths1 = to_path_store({{0, 1}, {2, 3}});
  std::vector<std::uint8_t> active1{1, 1};
  solver.set_paths(paths1.links, paths1.ranges, active1);
  solver.solve(rates);
  EXPECT_DOUBLE_EQ(rates[0], 1e9);
  // Second phase touches a different link set; stale slots must not leak.
  const PathStore paths2 = to_path_store({{4}, {4}, {5, 6, 7}});
  std::vector<std::uint8_t> active2{1, 1, 1};
  solver.set_paths(paths2.links, paths2.ranges, active2);
  solver.solve(rates);
  ASSERT_EQ(rates.size(), 3u);
  EXPECT_DOUBLE_EQ(rates[0], 0.5e9);
  EXPECT_DOUBLE_EQ(rates[1], 0.5e9);
  EXPECT_DOUBLE_EQ(rates[2], 1e9);
}

TEST(EdgeCases, FairShareIgnoresInactiveFlows) {
  FastFairShareSolver solver(1e9);
  const PathStore paths = to_path_store({{0}, {0}});
  std::vector<std::uint8_t> active{1, 0};
  std::vector<double> rates;
  solver.set_paths(paths.links, paths.ranges, active);
  EXPECT_EQ(solver.solve(rates), std::vector<std::uint32_t>{0});  // active only
  EXPECT_DOUBLE_EQ(rates[0], 1e9);  // inactive flow does not share
  EXPECT_DOUBLE_EQ(rates[1], 0.0);
}

TEST(EdgeCases, PacketMachineRejectsBadRankMap) {
  HostSwitchGraph g(2, 1, 4);
  g.attach_host(0, 0);
  g.attach_host(1, 0);
  EXPECT_THROW(PacketMachine(g, PacketSimParams{}, {0, 0}), std::invalid_argument);
  EXPECT_THROW(PacketMachine(g, PacketSimParams{}, {0}), std::invalid_argument);
}

TEST(EdgeCases, PacketMachineHonorsRankMap) {
  // Dumbbell with a permuted map: ranks 0,1 land on different switches.
  HostSwitchGraph g(4, 2, 4);
  g.attach_host(0, 0);
  g.attach_host(1, 0);
  g.attach_host(2, 1);
  g.attach_host(3, 1);
  g.add_switch_edge(0, 1);
  PacketSimParams params;
  params.base.link_bandwidth = 1e9;
  params.base.hop_latency = 1e-6;
  params.base.mpi_overhead = 0;
  PacketMachine same(g, params);               // ranks 0,1 share switch 0
  PacketMachine split(g, params, {0, 2, 1, 3});  // rank 1 -> host 2 (switch 1)
  const auto t_same = same.phase({{0, 1, 4096}});
  const auto t_split = split.phase({{0, 1, 4096}});
  EXPECT_LT(t_same.elapsed, t_split.elapsed);  // extra hop costs time
}

TEST(EdgeCases, XoshiroBelowOneAlwaysZero) {
  Xoshiro256 rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
}

}  // namespace
}  // namespace orp
