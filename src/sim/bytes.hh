/**
 * @file
 * The one byte-level codec in the tree. Every binary format reads and
 * writes through it: the golden-trace format (workload/trace), the
 * sweep checkpoint and its fingerprint (harness/wire), the warm-state
 * snapshot codec (harness/snapshot), and the per-controller warm-state
 * encoders in proto/ and cpu/ that the snapshot codec composes.
 *
 * It lives below the harness so low-level units can serialize
 * themselves without depending on it (harness/system.hh includes the
 * protocol headers, so the include arrow must point this way).
 * harness/wire.hh re-exports everything here.
 *
 * Discipline: little-endian throughout, fixed-width u16/u32/u64 for
 * header fields and opaque bit patterns, ULEB128 varints for counters,
 * zigzag varints for signed ints, doubles as raw IEEE-754 bit patterns
 * (a u64), and a bounds-checked reader where every malformed input
 * class — short buffer, oversized varint, non-0/1 bool, trailing
 * garbage — throws a typed WireError naming the field. The parser
 * never reads out of bounds. The trace and checkpoint-header readers
 * turn a WireError into their own TraceError / CheckpointError.
 */

#ifndef TOKENSIM_SIM_BYTES_HH
#define TOKENSIM_SIM_BYTES_HH

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace tokensim {

/** Any structural problem with a wire buffer or frame. */
class WireError : public std::runtime_error
{
  public:
    explicit WireError(const std::string &what)
        : std::runtime_error("wire: " + what)
    {}
};

/** ULEB128 varints: this bit of a byte says another byte follows. */
constexpr unsigned kVarintMore = 1u << 7;
/** The 7 value bits of a varint byte. */
constexpr unsigned kVarintValue = kVarintMore - 1;

/** Zigzag mapping for signed varints: small magnitudes stay short. */
inline std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
        static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/**
 * Appends primitives to a growing buffer (the inverse of WireReader).
 * u8 and the varints are inline: trace recording appends one op per
 * call.
 */
class WireWriter
{
  public:
    void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
    void boolean(bool v) { u8(v ? 1 : 0); }
    /** Fixed-width little-endian integers. */
    void u16(std::uint16_t v) { fixed(v, 2); }
    void u32(std::uint32_t v) { fixed(v, 4); }
    void u64(std::uint64_t v) { fixed(v, 8); }
    void
    varint(std::uint64_t v)
    {
        while (v > kVarintValue) {
            u8(static_cast<std::uint8_t>((v & kVarintValue) | kVarintMore));
            v >>= 7;
        }
        u8(static_cast<std::uint8_t>(v));
    }
    /** Zigzag-coded signed varint. */
    void svarint(std::int64_t v) { varint(zigzag(v)); }
    /** Raw IEEE-754 bit pattern as a u64. */
    void f64(double v);
    /** varint length + bytes. */
    void str(const std::string &s);
    void raw(const void *data, std::size_t size);

    const std::string &buffer() const { return out_; }
    std::string take() { return std::move(out_); }

  private:
    void fixed(std::uint64_t v, int width);

    std::string out_;
};

/**
 * Bounds-checked cursor over a serialized buffer. Every read names
 * what it was reading so truncation errors localize the field. The
 * per-byte readers (u8, bytes, the varints) are inline: trace replay
 * and snapshot restore decode one op or one cache line per call.
 */
class WireReader
{
  public:
    WireReader(const void *data, std::size_t size)
        : p_(static_cast<const unsigned char *>(data)), size_(size)
    {}
    explicit WireReader(const std::string &buf)
        : WireReader(buf.data(), buf.size())
    {}

    std::uint8_t u8(const char *what) { return *bytes(1, what); }
    /** Strict: only 0 and 1 are valid encodings. */
    bool boolean(const char *what);
    std::uint16_t
    u16(const char *what)
    {
        return static_cast<std::uint16_t>(fixed(2, what));
    }
    std::uint32_t
    u32(const char *what)
    {
        return static_cast<std::uint32_t>(fixed(4, what));
    }
    std::uint64_t u64(const char *what) { return fixed(8, what); }
    std::uint64_t
    varint(const char *what)
    {
        std::uint64_t v;
        if (!tryVarint(v, what))
            truncatedVarint(what);
        return v;
    }
    /**
     * varint() for a reader that may be ahead of its writer: returns
     * false, consuming nothing, if the buffer ends mid-varint.
     * @throws WireError if the varint overflows 64 bits (no later
     *         byte can make that valid).
     */
    bool tryVarint(std::uint64_t &out, const char *what);
    std::int64_t svarint(const char *what) { return unzigzag(varint(what)); }
    double f64(const char *what);
    std::string str(const char *what);
    void raw(void *dst, std::size_t size, const char *what);
    /**
     * Consume @p size bytes and return where they start in the
     * underlying buffer (no copy; valid as long as the buffer is).
     */
    const unsigned char *
    bytes(std::size_t size, const char *what)
    {
        if (remaining() < size)
            truncated(what);
        const unsigned char *at = p_ + pos_;
        pos_ += size;
        return at;
    }

    std::size_t remaining() const { return size_ - pos_; }

    /** Bytes consumed so far (for callers resuming an outer cursor). */
    std::size_t consumed() const { return pos_; }

    /** @throws WireError if any bytes remain unconsumed. */
    void expectEnd(const char *what) const;

  private:
    std::uint64_t fixed(int width, const char *what);
    [[noreturn]] static void truncated(const char *what);
    [[noreturn]] static void truncatedVarint(const char *what);
    [[noreturn]] static void varintOverflow(const char *what);

    const unsigned char *p_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

inline bool
WireReader::tryVarint(std::uint64_t &out, const char *what)
{
    std::uint64_t v = 0;
    int shift = 0;
    for (std::size_t at = pos_; at < size_; ++at) {
        const unsigned b = p_[at];
        // Byte 10 carries at most bit 63; more payload — or an 11th
        // byte — cannot fit in 64 bits (and shifting by >= 64 would
        // be UB, so reject before it can happen).
        if (shift >= 63 && b > 1)
            varintOverflow(what);
        v |= static_cast<std::uint64_t>(b & kVarintValue) << shift;
        if (!(b & kVarintMore)) {
            pos_ = at + 1;
            out = v;
            return true;
        }
        shift += 7;
    }
    return false;
}

/** 64-bit FNV-1a over @p bytes (the sweep and snapshot fingerprints). */
std::uint64_t fnv1a(const std::string &bytes);

/**
 * Marks the end of each struct encoding. A decode that lands anywhere
 * but on this byte means the two sides disagree about the layout —
 * report it as a version skew rather than whatever field error the
 * misparse would otherwise stumble into next.
 */
constexpr std::uint8_t kStructEnd = 0x5a;

void putStructEnd(WireWriter &w);

/** @throws WireError naming @p what if the sentinel byte is absent. */
void checkStructEnd(WireReader &r, const char *what);

} // namespace tokensim

#endif // TOKENSIM_SIM_BYTES_HH
