#include "sim/bytes.hh"

#include <cstring>

namespace tokensim {

// ---------------------------------------------------------------------
// WireWriter
// ---------------------------------------------------------------------

void
WireWriter::fixed(std::uint64_t v, int width)
{
    for (int i = 0; i < width; ++i)
        out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
WireWriter::f64(double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v), "");
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void
WireWriter::str(const std::string &s)
{
    varint(s.size());
    out_.append(s);
}

void
WireWriter::raw(const void *data, std::size_t size)
{
    out_.append(static_cast<const char *>(data), size);
}

// ---------------------------------------------------------------------
// WireReader
// ---------------------------------------------------------------------

bool
WireReader::boolean(const char *what)
{
    const std::uint8_t v = u8(what);
    if (v > 1) {
        throw WireError(std::string(what) + ": invalid bool byte " +
                        std::to_string(v));
    }
    return v == 1;
}

std::uint64_t
WireReader::fixed(int width, const char *what)
{
    const unsigned char *p = bytes(width, what);
    std::uint64_t v = 0;
    for (int i = 0; i < width; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

void
WireReader::truncated(const char *what)
{
    throw WireError(std::string("truncated while reading ") + what);
}

void
WireReader::truncatedVarint(const char *what)
{
    throw WireError(std::string("truncated mid-varint in ") + what);
}

void
WireReader::varintOverflow(const char *what)
{
    throw WireError(std::string(what) + ": varint overflows 64 bits");
}

double
WireReader::f64(const char *what)
{
    const std::uint64_t bits = u64(what);
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string
WireReader::str(const char *what)
{
    const std::uint64_t len = varint(what);
    if (len > remaining()) {
        throw WireError(std::string(what) + ": string length " +
                        std::to_string(len) + " exceeds the " +
                        std::to_string(remaining()) +
                        " bytes remaining");
    }
    const auto n = static_cast<std::size_t>(len);
    return std::string(reinterpret_cast<const char *>(bytes(n, what)), n);
}

void
WireReader::raw(void *dst, std::size_t size, const char *what)
{
    std::memcpy(dst, bytes(size, what), size);
}

void
WireReader::expectEnd(const char *what) const
{
    if (pos_ != size_) {
        throw WireError(std::to_string(size_ - pos_) +
                        " trailing bytes after " + what);
    }
}

std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 1469598103934665603ull;   // FNV-1a 64 offset
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;                  // FNV-1a 64 prime
    }
    return h;
}

// ---------------------------------------------------------------------
// Struct-end sentinel
// ---------------------------------------------------------------------

void
putStructEnd(WireWriter &w)
{
    w.u8(kStructEnd);
}

void
checkStructEnd(WireReader &r, const char *what)
{
    if (r.u8(what) != kStructEnd) {
        throw WireError(std::string(what) +
                        ": layout mismatch (sender and receiver "
                        "disagree about the encoding — version skew?)");
    }
}

} // namespace tokensim
