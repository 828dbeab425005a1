#ifndef PERFBENCH_HOST_REF_HPP
#define PERFBENCH_HOST_REF_HPP

namespace perfbench {

/**
 * Nominal duration of one host-reference run, in seconds. Timings are
 * reported scaled to this value: work that took `t` seconds while the
 * reference runs beside it took `r` on average is reported as
 * `t * kNominalRefSeconds / r`, i.e. as it would have taken on a host
 * where the reference kernel runs in exactly its nominal time.
 */
inline constexpr double kNominalRefSeconds = 0.001;

/**
 * Run the fixed host-reference kernel once and return its wall time in
 * seconds (about a millisecond). The instruction stream never changes:
 * it hashes a fixed 768 KiB text in four independent lanes, counting
 * words in a 256 KiB table. It makes no library calls and no heap
 * allocations, so it measures only how fast the host is right now. One
 * run is noisy; callers average many runs interleaved with the work they
 * normalize.
 */
double runHostReference();

} // namespace perfbench

#endif // PERFBENCH_HOST_REF_HPP
