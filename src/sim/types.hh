/**
 * @file
 * Fundamental simulator types and unit conversions.
 *
 * The simulator measures time in ticks of 100 picoseconds. This makes every
 * latency in the paper's Table 1 an integral number of ticks (2 ns L1,
 * 6 ns L2 and controller, 15 ns link, 80 ns DRAM), including the
 * serialization delay of an 8-byte control message on a 3.2 GB/s link
 * (2.5 ns = 25 ticks) and of a 72-byte data message (22.5 ns = 225
 * ticks), so no latency is ever rounded.
 */

#ifndef TOKENSIM_SIM_TYPES_HH
#define TOKENSIM_SIM_TYPES_HH

#include <cstdint>
#include <limits>

namespace tokensim {

/** Simulated time, in units of 100 picoseconds. */
using Tick = std::uint64_t;

/** Physical address of a byte of shared memory. */
using Addr = std::uint64_t;

/** Identifier of a system node (processor/cache/memory slice). */
using NodeId = std::uint32_t;

/** Number of ticks per nanosecond (tick = 100 ps). */
constexpr Tick ticksPerNs = 10;

/** A tick value that is never reached; used as "no deadline". */
constexpr Tick tickNever = std::numeric_limits<Tick>::max();

/** An invalid node id, used before routing information is filled in. */
constexpr NodeId invalidNode = std::numeric_limits<NodeId>::max();

/** Convert a whole number of nanoseconds to ticks. */
constexpr Tick
nsToTicks(std::uint64_t ns)
{
    return ns * ticksPerNs;
}

/** Convert ticks to (truncated) nanoseconds. */
constexpr std::uint64_t
ticksToNs(Tick t)
{
    return t / ticksPerNs;
}

/** Convert ticks to fractional nanoseconds (for reporting). */
constexpr double
ticksToNsF(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(ticksPerNs);
}

/**
 * Convert a *fractional* tick count to nanoseconds. Statistical means
 * of tick-valued samples are not whole ticks; routing them through the
 * Tick overload would silently truncate (that truncation quantized the
 * reported average miss latency to 0.1 ns steps until PR 6).
 */
constexpr double
ticksToNsF(double t)
{
    return t / static_cast<double>(ticksPerNs);
}

/**
 * Integer log2 for power-of-two values (block sizes, set counts).
 * Returns the floor of log2(v); v must be non-zero.
 */
constexpr unsigned
floorLog2(std::uint64_t v)
{
    unsigned r = 0;
    while (v >>= 1)
        ++r;
    return r;
}

/** True if v is a power of two (and non-zero). */
constexpr bool
isPowerOf2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/**
 * Ceiling division for unsigned integers; used for link serialization
 * delays (bytes / bandwidth rounded up to whole ticks).
 */
constexpr std::uint64_t
divCeil(std::uint64_t a, std::uint64_t b)
{
    return (a + b - 1) / b;
}

} // namespace tokensim

#endif // TOKENSIM_SIM_TYPES_HH
