// Host-speed reference: a fixed memory-bound kernel sampled between units.
//
// The benchmark's host is shared, and its memory system is contended by
// neighbours, so the same pass can take 40% longer from one minute to the
// next.  A run therefore times this kernel on each worker thread between
// units, and divides its end-to-end times by the pass's host slowdown: the
// mean kernel call time over kRefKernelS.  The kernel is a set-associative
// tag-store probe loop shaped like the simulator's LLC (16 ways, 24-byte
// lines, 3 MiB per thread), so it slows down with the host as the
// simulator does.  It must never change: the normalised figures of two
// commits are comparable only while it stays the same.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// Seconds one kernel call typically takes on the reference host (4-vCPU
/// Xeon VM, GCC Release, two busy worker threads).
inline constexpr double kRefKernelS = 0.006;

/// Unit time per kernel call: samples are spread evenly over a pass's time,
/// so long units weigh as much in the slowdown as the time they take.
inline constexpr double kRefPeriodS = 0.1;

struct KernelSamples {
  double seconds = 0;      ///< total host seconds of the calls
  std::uint64_t calls = 0;
};

/// Runs one call of the kernel on the calling thread; returns its host
/// seconds.  Each concurrent thread has its own tag store and address
/// stream, kept from pass to pass, so calls cost the same after a store's
/// first.
double run_ref_kernel();

/// The calls that follow a unit of `unit_s` seconds: one per kRefPeriodS,
/// rounded, and at least one.
KernelSamples sample_ref_kernel(double unit_s);

/// Mean call time of `samples` over kRefKernelS: how much slower than the
/// reference host they ran.  1 when there are no calls.
double host_slowdown(const std::vector<KernelSamples>& samples);

}  // namespace perfbench
