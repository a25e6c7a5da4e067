#include "workload/trace.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <unordered_map>

namespace tokensim {

namespace {

constexpr char kMagic[8] = {'T', 'O', 'K', 'T', 'R', 'A', 'C', 'E'};

constexpr unsigned char kFlagStore = 1u << 0;
constexpr unsigned char kFlagEndsTransaction = 1u << 1;
constexpr unsigned char kFlagReservedMask =
    static_cast<unsigned char>(~(kFlagStore | kFlagEndsTransaction));

} // namespace

// ---------------------------------------------------------------------
// TraceData
// ---------------------------------------------------------------------

TraceData
TraceData::parse(const void *data, std::size_t size)
{
    WireReader r(data, size);
    TraceData t;
    try {
        char magic[8];
        r.raw(magic, sizeof(magic), "magic");
        if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
            throw TraceError("bad magic (not a tokensim trace)");

        const std::uint32_t ver = r.u32("version");
        if (ver != version) {
            throw TraceError("unsupported version " +
                             std::to_string(ver) + " (expected " +
                             std::to_string(version) + ")");
        }

        t.header_.numNodes = r.u32("node count");
        if (t.header_.numNodes == 0)
            throw TraceError("node count is zero");
        t.header_.blockBytes = r.u32("block size");
        t.header_.seed = r.u64("seed");
        t.header_.warmupOpsPerProcessor = r.u64("warmup ops");

        const std::uint16_t plen = r.u16("provenance length");
        t.header_.provenance.assign(
            reinterpret_cast<const char *>(r.bytes(plen, "provenance")),
            plen);

        const std::size_t n = t.header_.numNodes;
        t.opsPerNode_.resize(n);
        for (std::size_t i = 0; i < n; ++i)
            t.opsPerNode_[i] = r.u64("op counts");
        std::vector<std::uint64_t> streamBytes(n);
        for (std::size_t i = 0; i < n; ++i)
            streamBytes[i] = r.u64("stream sizes");

        t.streams_.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
            const auto len = static_cast<std::size_t>(streamBytes[i]);
            const unsigned char *body = r.bytes(len, "stream body");
            t.streams_[i].assign(body, body + len);
        }
    } catch (const WireError &e) {
        throw TraceError(e.what());
    }
    if (r.remaining() != 0)
        throw TraceError("trailing garbage after last stream");

    // Validate every stream decodes to exactly the advertised op
    // count; afterwards Reader::next() can never fault on in-bounds
    // traces, and a truncation inside the body is caught here rather
    // than mid-simulation.
    for (std::size_t i = 0; i < t.streams_.size(); ++i) {
        Reader reader(t, static_cast<NodeId>(i));
        for (std::uint64_t k = 0; k < t.opsPerNode_[i]; ++k)
            reader.next();
    }
    return t;
}

std::shared_ptr<const TraceData>
TraceData::load(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        throw TraceError("cannot open '" + path + "' for reading");
    std::string buf;
    char chunk[1 << 16];
    std::size_t got;
    while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
        buf.append(chunk, got);
    const bool read_error = std::ferror(f);
    std::fclose(f);
    if (read_error)
        throw TraceError("I/O error reading '" + path + "'");
    return std::make_shared<const TraceData>(
        parse(buf.data(), buf.size()));
}

namespace {

/** The loadCached intern table and its lock. */
struct TraceCache
{
    std::mutex lock;
    std::unordered_map<std::string, std::shared_ptr<const TraceData>>
        entries;

    static TraceCache &
    instance()
    {
        static TraceCache c;
        return c;
    }
};

} // namespace

std::shared_ptr<const TraceData>
TraceData::loadCached(const std::string &path)
{
    TraceCache &c = TraceCache::instance();
    {
        std::lock_guard<std::mutex> g(c.lock);
        auto it = c.entries.find(path);
        if (it != c.entries.end())
            return it->second;
    }
    std::shared_ptr<const TraceData> t = load(path);
    std::lock_guard<std::mutex> g(c.lock);
    auto [it, inserted] = c.entries.emplace(path, std::move(t));
    // A racing loader may have beaten us; both parsed the same file.
    return it->second;
}

void
TraceData::invalidateCached(const std::string &path)
{
    TraceCache &c = TraceCache::instance();
    std::lock_guard<std::mutex> g(c.lock);
    c.entries.erase(path);
}

std::uint64_t
TraceData::minOpsPerNode() const
{
    std::uint64_t m = opsPerNode_.empty() ? 0 : opsPerNode_[0];
    for (std::uint64_t c : opsPerNode_)
        m = std::min(m, c);
    return m;
}

std::uint64_t
TraceData::totalOps() const
{
    std::uint64_t total = 0;
    for (std::uint64_t c : opsPerNode_)
        total += c;
    return total;
}

namespace {

NodeId
checkedNode(const TraceData &trace, NodeId node)
{
    if (node >= trace.numNodes()) {
        throw TraceError("node " + std::to_string(node) +
                         " out of range (trace has " +
                         std::to_string(trace.numNodes()) + " nodes)");
    }
    return node;
}

} // namespace

TraceData::Reader::Reader(const TraceData &trace, NodeId node)
    : stream_(&trace.streams_[checkedNode(trace, node)]),
      in_(stream_->data(), stream_->size()),
      count_(trace.opsPerNode_[node])
{}

WorkloadOp
TraceData::Reader::next()
{
    if (done())
        throw TraceError("read past end of stream");
    if (in_.remaining() == 0)
        throw TraceError("stream shorter than advertised op count");
    const std::uint8_t flags = in_.u8("op flags");
    if (flags & kFlagReservedMask)
        throw TraceError("reserved flag bits set (corrupt stream?)");
    std::int64_t delta;
    try {
        delta = in_.svarint("address delta");
    } catch (const WireError &e) {
        throw TraceError(e.what());
    }

    WorkloadOp op;
    op.op = (flags & kFlagStore) ? MemOp::store : MemOp::load;
    op.endsTransaction = (flags & kFlagEndsTransaction) != 0;
    op.addr = prevAddr_ + static_cast<Addr>(delta);
    prevAddr_ = op.addr;
    ++returned_;
    return op;
}

void
TraceData::Reader::rewind()
{
    in_ = WireReader(stream_->data(), stream_->size());
    returned_ = 0;
    prevAddr_ = 0;
}

// ---------------------------------------------------------------------
// TraceWriter
// ---------------------------------------------------------------------

TraceWriter::TraceWriter(TraceHeader header)
    : header_(std::move(header)),
      opsPerNode_(header_.numNodes, 0),
      streams_(header_.numNodes),
      prevAddr_(header_.numNodes, 0)
{
    if (header_.numNodes == 0)
        throw TraceError("cannot record a zero-node trace");
    if (header_.provenance.size() > 0xffff)
        throw TraceError("provenance string too long");
}

void
TraceWriter::append(NodeId node, const WorkloadOp &op)
{
    WireWriter &s = streams_.at(node);
    unsigned char flags = 0;
    if (op.op == MemOp::store)
        flags |= kFlagStore;
    if (op.endsTransaction)
        flags |= kFlagEndsTransaction;
    s.u8(flags);
    s.svarint(static_cast<std::int64_t>(op.addr - prevAddr_[node]));
    prevAddr_[node] = op.addr;
    ++opsPerNode_[node];
}

std::string
TraceWriter::serialize() const
{
    WireWriter w;
    w.raw(kMagic, sizeof(kMagic));
    w.u32(TraceData::version);
    w.u32(header_.numNodes);
    w.u32(header_.blockBytes);
    w.u64(header_.seed);
    w.u64(header_.warmupOpsPerProcessor);
    w.u16(static_cast<std::uint16_t>(header_.provenance.size()));
    w.raw(header_.provenance.data(), header_.provenance.size());
    for (std::uint64_t c : opsPerNode_)
        w.u64(c);
    for (const WireWriter &s : streams_)
        w.u64(s.buffer().size());
    for (const WireWriter &s : streams_)
        w.raw(s.buffer().data(), s.buffer().size());
    return w.take();
}

void
TraceWriter::writeFile(const std::string &path) const
{
    // The file is about to change; a stale interned parse of the old
    // contents must not outlive it.
    TraceData::invalidateCached(path);
    const std::string buf = serialize();
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        throw TraceError("cannot open '" + path + "' for writing");
    const std::size_t wrote = std::fwrite(buf.data(), 1, buf.size(), f);
    const bool ok = wrote == buf.size() && std::fclose(f) == 0;
    if (!ok) {
        if (wrote != buf.size())
            std::fclose(f);
        throw TraceError("short write to '" + path + "'");
    }
}

} // namespace tokensim
