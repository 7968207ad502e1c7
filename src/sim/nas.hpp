#pragma once
// Communication skeletons of the NAS Parallel Benchmarks (§6.2.1).
//
// The paper runs NPB 3.3.1 (MPI) under SimGrid: IS and FT in class A, the
// rest in class B, on 1024 processes. We cannot run the Fortran codes, so
// each kernel is reproduced as a *communication skeleton*: the documented
// per-iteration communication pattern (collective types, partners, message
// volumes derived from the class problem sizes) plus a uniform compute
// model (total operation count / 100 GFlops hosts). Network comparisons
// depend on these patterns, not on the arithmetic itself:
//
//   EP  embarrassingly parallel      — a few tiny allreduces
//   IS  integer bucket sort          — alltoall(counts) + alltoall(keys)
//   FT  3-D FFT                      — full-volume transpose alltoall
//   MG  multigrid V-cycles           — 3-D halos whose partners get *far*
//                                      at coarse levels (long-distance)
//   CG  conjugate gradient           — row/column exchanges on a 2-D
//                                      process grid + transpose partner
//   LU  SSOR wavefront               — pipelined small NE/SW messages
//   SP  scalar pentadiagonal         — multipartition face exchanges
//   BT  block tridiagonal            — multipartition face exchanges
//
// `iteration_fraction` scales the iteration counts (1.0 = the class's full
// count) so laptop-scale runs stay minutes, preserving per-iteration
// behaviour exactly; Mop/s is computed from the same fraction of work.

#include <cstdint>
#include <string>
#include <vector>

#include "sim/machine.hpp"

namespace orp {

enum class NasKernel { kEP, kIS, kFT, kMG, kCG, kLU, kSP, kBT };

const char* nas_kernel_name(NasKernel kernel);
/// All eight kernels in the paper's figure order.
std::vector<NasKernel> all_nas_kernels();

struct NasResult {
  std::string name;
  double seconds = 0.0;      ///< simulated wall clock
  double gflops_total = 0.0; ///< work simulated (scaled by the fraction)
  double mops_per_second = 0.0;
  double comm_seconds = 0.0; ///< time in communication phases
};

struct NasOptions {
  /// Fraction of the class iteration count to simulate (0 < f <= 1).
  double iteration_fraction = 1.0;
};

/// Runs one kernel on the machine (resets the machine clock first).
/// The rank count must be a square power of two >= 16 (the paper uses
/// 1024; tests use 64/256).
NasResult run_nas_kernel(Machine& machine, NasKernel kernel,
                         const NasOptions& options = {});

}  // namespace orp
