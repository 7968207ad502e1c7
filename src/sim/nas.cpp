#include "sim/nas.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/require.hpp"

namespace orp {
namespace {

// ---- process grids -----------------------------------------------------

// Near-cubic power-of-two 3-D grid (NPB MG style): 1024 -> 16x8x8.
struct Grid3 {
  std::uint32_t px, py, pz;
};
Grid3 grid3(std::uint32_t p) {
  ORP_REQUIRE(std::has_single_bit(p), "NAS skeletons need a power-of-two rank count");
  Grid3 g{1, 1, 1};
  std::uint32_t* dims[3] = {&g.px, &g.py, &g.pz};
  int axis = 0;
  for (std::uint32_t v = p; v > 1; v >>= 1) {
    *dims[axis % 3] *= 2;
    ++axis;
  }
  return g;
}

// Square 2-D grid (CG/LU/SP/BT): rank count must be an even power of two.
std::uint32_t grid2_side(std::uint32_t p) {
  const auto side = static_cast<std::uint32_t>(std::lround(std::sqrt(p)));
  ORP_REQUIRE(side * side == p,
              "this NAS skeleton needs a square rank count (paper: 1024 = 32^2)");
  return side;
}

std::uint32_t scaled_iters(std::uint32_t full, double fraction) {
  ORP_REQUIRE(fraction > 0.0 && fraction <= 1.0, "iteration_fraction must be in (0,1]");
  return std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(std::lround(full * fraction)));
}

struct KernelStats {
  double gflops_total;   // full-class work across all ranks
  std::uint32_t iters;   // full-class iteration count
};

// ---- kernels -----------------------------------------------------------
// Problem sizes / iteration counts follow NPB 3.3.1 (IS & FT class A, the
// rest class B, as in the paper). The gflops numbers are the published
// order-of-magnitude op counts; they scale Mop/s identically for every
// topology and never change who wins.

NasResult run_ep(Machine& m, const NasOptions&) {
  // Class B: 2^30 Gaussian pairs, ~100 ops each; communication is three
  // 16-byte allreduces (counts + sums) — essentially nothing.
  NasResult r{"EP", 0, 107.4, 0, 0};
  m.compute(107.4e9 / m.num_ranks());
  r.comm_seconds += m.allreduce(16);
  r.comm_seconds += m.allreduce(16);
  r.comm_seconds += m.allreduce(16);
  return r;
}

NasResult run_is(Machine& m, const NasOptions& o) {
  // Class A: N = 2^23 keys, 10 rank-and-bucket iterations. Per iteration:
  // an allreduce of the bucket histogram, a small alltoall of per-target
  // counts, and the key redistribution as a uniform alltoall of N/p^2 keys
  // per pair (~N*4 bytes total).
  const std::uint64_t total_keys = 1ull << 23;
  const KernelStats stats{2.4, 10};
  const std::uint32_t iters = scaled_iters(stats.iters, o.iteration_fraction);
  NasResult r{"IS", 0, stats.gflops_total * iters / stats.iters, 0, 0};

  const std::uint32_t p = m.num_ranks();
  const std::uint64_t keys_per_pair = std::max<std::uint64_t>(1, total_keys / p / p);
  for (std::uint32_t it = 0; it < iters; ++it) {
    m.compute(stats.gflops_total * 1e9 / stats.iters / p);
    r.comm_seconds += m.allreduce(4096);       // bucket histogram
    r.comm_seconds += m.alltoall(4);           // send counts
    r.comm_seconds += m.alltoall(keys_per_pair * 4);  // key exchange
  }
  r.comm_seconds += m.allreduce(16);  // final verification
  return r;
}

NasResult run_ft(Machine& m, const NasOptions& o) {
  // Class A: 256 x 256 x 128 complex grid, 6 evolve/inverse-FFT steps, one
  // full-volume transpose alltoall each (plus the forward FFT's).
  const std::uint64_t grid_bytes = 256ull * 256 * 128 * 16;
  const KernelStats stats{25.0, 6};
  const std::uint32_t iters = scaled_iters(stats.iters, o.iteration_fraction);
  NasResult r{"FT", 0, stats.gflops_total * (iters + 1.0) / (stats.iters + 1), 0, 0};

  const std::uint32_t p = m.num_ranks();
  const std::uint64_t bytes_per_pair = std::max<std::uint64_t>(1, grid_bytes / p / p);
  // Forward transform.
  m.compute(stats.gflops_total * 1e9 / (stats.iters + 1) / p);
  r.comm_seconds += m.alltoall(bytes_per_pair);
  for (std::uint32_t it = 0; it < iters; ++it) {
    m.compute(stats.gflops_total * 1e9 / (stats.iters + 1) / p);
    r.comm_seconds += m.alltoall(bytes_per_pair);
    r.comm_seconds += m.allreduce(16);  // checksum
  }
  return r;
}

NasResult run_mg(Machine& m, const NasOptions& o) {
  // Class B: 256^3 grid, 20 V-cycles. At each level the 3-D halo exchange
  // runs with partners at growing rank strides once the grid becomes
  // coarser than the process grid — the "long-distance communication" the
  // paper credits for the proposed topology's MG win.
  const std::uint32_t global = 256;
  const KernelStats stats{58.0, 20};
  const std::uint32_t iters = scaled_iters(stats.iters, o.iteration_fraction);
  NasResult r{"MG", 0, stats.gflops_total * iters / stats.iters, 0, 0};

  const std::uint32_t p = m.num_ranks();
  const Grid3 g = grid3(p);
  const std::uint32_t dims[3] = {g.px, g.py, g.pz};
  const std::uint32_t stride_of[3] = {1, g.px, g.px * g.py};

  auto coord = [&](Rank rank, int axis) {
    return (rank / stride_of[axis]) % dims[axis];
  };

  // One halo exchange at grid size `size`, repeated `rounds` times.
  auto halo = [&](std::uint32_t size, int rounds) {
    for (int axis = 0; axis < 3; ++axis) {
      // Ranks active in this axis: when the global grid has fewer planes
      // than processes, only every `hop`-th rank participates and its
      // partner is `hop` ranks away.
      const std::uint32_t hop = std::max(1u, dims[axis] / std::max(1u, size));
      // Local face area = product of the other two local extents.
      std::uint64_t face = 8;  // bytes per point
      for (int other = 0; other < 3; ++other) {
        if (other == axis) continue;
        face *= std::max(1u, size / dims[other]);
      }
      std::vector<Message> up, down;
      for (Rank rank = 0; rank < p; ++rank) {
        const std::uint32_t c = coord(rank, axis);
        if (c % hop != 0) continue;
        const std::uint32_t cu = (c + hop) % dims[axis];
        const std::uint32_t cd = (c + dims[axis] - hop) % dims[axis];
        if (cu == c) continue;
        const Rank up_rank = rank + (cu - c) * stride_of[axis];
        const Rank down_rank = rank + (cd - c) * stride_of[axis];
        up.push_back({rank, up_rank, face});
        down.push_back({rank, down_rank, face});
      }
      for (int round = 0; round < rounds; ++round) {
        r.comm_seconds += m.phase(up);
        r.comm_seconds += m.phase(down);
      }
    }
  };

  for (std::uint32_t it = 0; it < iters; ++it) {
    m.compute(stats.gflops_total * 1e9 / stats.iters / p);
    // Down the V-cycle (restrict) and back up (prolongate + smooth).
    for (std::uint32_t size = global; size >= 4; size /= 2) halo(size, 1);
    for (std::uint32_t size = 4; size <= global; size *= 2) halo(size, 2);
    r.comm_seconds += m.allreduce(16);  // residual norm
  }
  return r;
}

NasResult run_cg(Machine& m, const NasOptions& o) {
  // Class B: na = 75000, 75 iterations on a 32x32 process grid. Each
  // matvec reduces partial sums across the row via log2(q) exchanges at
  // doubling rank distances, then exchanges with the transpose rank — the
  // "irregular" long-distance pattern the paper highlights for CG.
  const std::uint64_t na = 75000;
  const KernelStats stats{54.7, 75};
  const std::uint32_t iters = scaled_iters(stats.iters, o.iteration_fraction);
  NasResult r{"CG", 0, stats.gflops_total * iters / stats.iters, 0, 0};

  const std::uint32_t p = m.num_ranks();
  const std::uint32_t q = grid2_side(p);
  const std::uint64_t segment = na / q * 8;

  std::vector<Message> transpose;
  for (Rank rank = 0; rank < p; ++rank) {
    const std::uint32_t row = rank / q, col = rank % q;
    const Rank partner = col * q + row;
    if (partner != rank) transpose.push_back({rank, partner, segment});
  }

  for (std::uint32_t it = 0; it < iters; ++it) {
    m.compute(stats.gflops_total * 1e9 / stats.iters / p);
    for (std::uint32_t stride = 1; stride < q; stride <<= 1) {
      std::vector<Message> round;
      round.reserve(p);
      for (Rank rank = 0; rank < p; ++rank) {
        const std::uint32_t row = rank / q, col = rank % q;
        const Rank partner = row * q + (col ^ stride);
        round.push_back({rank, partner, segment});
      }
      r.comm_seconds += m.phase(round);
    }
    r.comm_seconds += m.phase(transpose);
    r.comm_seconds += m.allreduce(16);  // rho / alpha dot products
    r.comm_seconds += m.allreduce(16);
  }
  return r;
}

NasResult run_lu(Machine& m, const NasOptions& o) {
  // Class B: 102^3, 250 SSOR iterations on a 32x32 grid. Each iteration
  // performs a lower and an upper triangular sweep; the wavefront crosses
  // the grid diagonally, each step forwarding small block rows east/south
  // (then west/north on the way back).
  const KernelStats stats{355.0, 250};
  const std::uint32_t iters = scaled_iters(stats.iters, o.iteration_fraction);
  NasResult r{"LU", 0, stats.gflops_total * iters / stats.iters, 0, 0};

  const std::uint32_t p = m.num_ranks();
  const std::uint32_t q = grid2_side(p);
  const std::uint64_t block = 102ull / q * 102 * 5 * 8;  // pencil face * 5 vars

  auto sweep = [&](int dir) {  // +1: toward SE, -1: toward NW
    for (std::uint32_t diag = 0; diag + 1 < 2 * q; ++diag) {
      const std::uint32_t d = dir > 0 ? diag : 2 * q - 2 - diag;
      std::vector<Message> wave;
      for (std::uint32_t row = 0; row < q; ++row) {
        if (d < row || d - row >= q) continue;
        const std::uint32_t col = d - row;
        const Rank rank = row * q + col;
        const std::int64_t dr = dir, dc = dir;
        if (row + dr < q && static_cast<std::int64_t>(row) + dr >= 0) {
          wave.push_back({rank, static_cast<Rank>((row + dr) * q + col), block});
        }
        if (col + dc < q && static_cast<std::int64_t>(col) + dc >= 0) {
          wave.push_back({rank, static_cast<Rank>(row * q + (col + dc)), block});
        }
      }
      r.comm_seconds += m.phase(wave);
    }
  };

  for (std::uint32_t it = 0; it < iters; ++it) {
    m.compute(stats.gflops_total * 1e9 / stats.iters / p);
    sweep(+1);  // lower-triangular wavefront
    sweep(-1);  // upper-triangular wavefront
    if (it % 5 == 0) r.comm_seconds += m.allreduce(40);  // residual norms
  }
  return r;
}

// SP and BT share the multipartition face-exchange skeleton; they differ
// in iteration count and per-face volume (BT moves 5x5 blocks).
NasResult run_multipartition(Machine& m, const NasOptions& o, const char* name,
                             const KernelStats& stats, std::uint64_t face_bytes) {
  const std::uint32_t iters = scaled_iters(stats.iters, o.iteration_fraction);
  NasResult r{name, 0, stats.gflops_total * iters / stats.iters, 0, 0};
  const std::uint32_t p = m.num_ranks();
  const std::uint32_t q = grid2_side(p);

  auto neighbor_phase = [&](std::int64_t drow, std::int64_t dcol) {
    std::vector<Message> round;
    round.reserve(p);
    for (Rank rank = 0; rank < p; ++rank) {
      const std::int64_t row = rank / q, col = rank % q;
      const auto nrow = static_cast<std::uint32_t>((row + drow + q) % q);
      const auto ncol = static_cast<std::uint32_t>((col + dcol + q) % q);
      round.push_back({rank, nrow * q + ncol, face_bytes});
    }
    r.comm_seconds += m.phase(round);
  };

  for (std::uint32_t it = 0; it < iters; ++it) {
    m.compute(stats.gflops_total * 1e9 / stats.iters / p);
    // Three directional solves, each shifting faces both ways, plus the
    // diagonal multipartition handoff.
    neighbor_phase(0, +1);
    neighbor_phase(0, -1);
    neighbor_phase(+1, 0);
    neighbor_phase(-1, 0);
    neighbor_phase(+1, +1);
    neighbor_phase(-1, -1);
  }
  return r;
}

}  // namespace

const char* nas_kernel_name(NasKernel kernel) {
  switch (kernel) {
    case NasKernel::kEP: return "EP";
    case NasKernel::kIS: return "IS";
    case NasKernel::kFT: return "FT";
    case NasKernel::kMG: return "MG";
    case NasKernel::kCG: return "CG";
    case NasKernel::kLU: return "LU";
    case NasKernel::kSP: return "SP";
    case NasKernel::kBT: return "BT";
  }
  return "?";
}

std::vector<NasKernel> all_nas_kernels() {
  return {NasKernel::kBT, NasKernel::kCG, NasKernel::kEP, NasKernel::kFT,
          NasKernel::kIS, NasKernel::kLU, NasKernel::kMG, NasKernel::kSP};
}

NasResult run_nas_kernel(Machine& machine, NasKernel kernel, const NasOptions& options) {
  machine.reset();
  NasResult result;
  switch (kernel) {
    case NasKernel::kEP: result = run_ep(machine, options); break;
    case NasKernel::kIS: result = run_is(machine, options); break;
    case NasKernel::kFT: result = run_ft(machine, options); break;
    case NasKernel::kMG: result = run_mg(machine, options); break;
    case NasKernel::kCG: result = run_cg(machine, options); break;
    case NasKernel::kLU: result = run_lu(machine, options); break;
    case NasKernel::kSP:
      result = run_multipartition(machine, options, "SP", {447.0, 400},
                                  102ull / 32 * 102 * 5 * 8);
      break;
    case NasKernel::kBT:
      result = run_multipartition(machine, options, "BT", {721.0, 200},
                                  102ull / 32 * 102 * 25 * 8);
      break;
  }
  result.seconds = machine.now();
  result.mops_per_second = result.gflops_total * 1e3 / result.seconds;
  return result;
}

}  // namespace orp
