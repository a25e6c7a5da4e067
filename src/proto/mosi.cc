#include "proto/mosi.hh"

namespace tokensim {

// =====================================================================
// MosiHome
// =====================================================================

MosiHome::MosiHome(ProtoContext &ctx, NodeId id, std::string tag,
                   const ProtocolParams &params)
    : MemoryController(ctx, id, std::move(tag)),
      params_(params),
      store_(ctx.blockBytes),
      dram_(ctx.dram)
{
}

void
MosiHome::resetHome(const ProtocolParams &params)
{
    params_ = params;
    store_.clear();
    dram_ = Dram(ctx_.dram);
    waitPool_.clear();
}

std::uint64_t
MosiHome::peekData(Addr addr) const
{
    return store_.read(ctx_.blockAlign(addr));
}

void
MosiHome::sendMemoryData(const Message &req, bool exclusive,
                         int ack_count)
{
    Message msg;
    msg.type = exclusive ? MsgType::dataExclusive : MsgType::data;
    msg.cls = MsgClass::data;
    msg.dstUnit = Unit::cache;
    msg.addr = req.addr;
    msg.dest = req.requester;
    msg.requester = req.requester;
    msg.hasData = true;
    msg.data = store_.read(req.addr);
    msg.ackCount = ack_count;
    msg.fromMemoryCtrl = true;
    msg.src = id_;
    const Tick ready = dram_.access(ctx_.now() + ctx_.ctrlLatency);
    ctx_.eq->schedule(ready, [this, msg]() { ctx_.net->unicast(msg); });
}

// =====================================================================
// MosiCache
// =====================================================================

MosiCache::MosiCache(ProtoContext &ctx, NodeId id, std::string tag,
                     const ProtocolParams &params)
    : CacheController(ctx, id, std::move(tag)),
      params_(params),
      l2_(ctx.l2)
{
}

void
MosiCache::resetState(const ProtocolParams &params, std::uint64_t)
{
    params_ = params;
    l2_.clear();
    outstanding_.clear();
    wbBuffer_.clear();
    stats_ = CacheCtrlStats{};
}

void
MosiCache::request(const ProcRequest &req)
{
    const Addr ba = ctx_.blockAlign(req.addr);
    const bool is_store = req.op == MemOp::store;
    if (is_store)
        ++stats_.stores;
    else
        ++stats_.loads;

    assert(!outstanding_.count(ba) &&
           "sequencer must serialize same-block operations");

    std::uint64_t value;
    if (applyHit(req, l2_.touch(ba), value)) {
        ++stats_.hits;
        ProcResponse resp;
        resp.reqId = req.reqId;
        resp.addr = req.addr;
        resp.op = req.op;
        resp.value = value;
        resp.issuedAt = ctx_.now();
        resp.completedAt = ctx_.now() + ctx_.l2.latency;
        ctx_.eq->scheduleIn(ctx_.l2.latency,
                            [this, resp]() { respond(resp); });
        return;
    }

    ++stats_.misses;
    Miss m;
    m.req = req;
    m.issuedAt = ctx_.now();
    outstanding_.emplace(ba, m);
    issueMiss(ba, is_store);
}

void
MosiCache::issueMiss(Addr ba, bool is_store)
{
    Message msg;
    msg.type = is_store ? MsgType::getM : MsgType::getS;
    msg.cls = MsgClass::request;
    msg.dstUnit = Unit::memory;
    msg.addr = ba;
    msg.dest = ctx_.home(ba);
    msg.requester = id_;
    sendAfter(ctx_.ctrlLatency, msg);
}

void
MosiCache::writeBack(Addr ba, const MosiLine &victim)
{
    Message msg;
    msg.type = MsgType::putM;
    msg.cls = MsgClass::data;
    msg.dstUnit = Unit::memory;
    msg.addr = ba;
    msg.dest = ctx_.home(ba);
    msg.requester = id_;
    msg.hasData = true;
    msg.data = victim.data;
    sendAfter(ctx_.ctrlLatency, msg);
}

MosiCache::Miss
MosiCache::takeMiss(Addr addr)
{
    auto it = outstanding_.find(addr);
    assert(it != outstanding_.end());
    const Miss done = it->second;
    outstanding_.erase(it);
    return done;
}

std::uint64_t
MosiCache::fill(Addr addr, const Miss &done)
{
    MosiLine *line = l2_.find(addr);
    if (!line)
        line = allocLine(addr);
    if (done.req.op == MemOp::store) {
        line->state = MosiState::M;
        line->written = true;
        line->data = done.req.storeValue;
    } else {
        // An exclusive load fill is a migratory transfer: we received
        // read/write permission.
        line->state = done.exclusive ? MosiState::M : MosiState::S;
        line->written = false;
        line->data = done.value;
    }
    return line->data;
}

void
MosiCache::respondMiss(const Miss &done, std::uint64_t value)
{
    ProcResponse resp;
    resp.reqId = done.req.reqId;
    resp.addr = done.req.addr;
    resp.op = done.req.op;
    resp.value = value;
    resp.issuedAt = done.issuedAt;
    resp.completedAt = ctx_.now();
    resp.wasMiss = true;
    resp.cacheToCache = done.cacheToCache;

    const auto latency = static_cast<double>(ctx_.now() - done.issuedAt);
    ++stats_.missesCompleted;
    stats_.missLatency.add(latency);
    stats_.missLatencyHist.add(latency);
    if (resp.cacheToCache)
        ++stats_.cacheToCache;
    ++stats_.missesNotReissued;   // the baselines never reissue

    respond(resp);
}

void
MosiCache::maybeComplete(Addr addr)
{
    auto it = outstanding_.find(addr);
    if (it == outstanding_.end())
        return;
    const Miss &m = it->second;
    if (!m.dataReceived || m.acksReceived < m.acksNeeded)
        return;
    assert(m.acksReceived == m.acksNeeded && "too many acks");

    const Miss done = takeMiss(addr);
    const bool exclusive = done.exclusive || done.req.op == MemOp::store;
    const std::uint64_t value = fill(addr, done);

    Message unb;
    unb.type = exclusive ? MsgType::unblockExclusive : MsgType::unblock;
    unb.cls = MsgClass::nonData;
    unb.dstUnit = Unit::memory;
    unb.addr = addr;
    unb.dest = ctx_.home(addr);
    unb.requester = id_;
    sendAfter(ctx_.ctrlLatency, unb);

    respondMiss(done, value);
}

MosiLine *
MosiCache::allocLine(Addr addr)
{
    CacheArray<MosiLine>::Victim victim;
    MosiLine *line = l2_.allocate(
        addr, &victim, [this](Addr ba, const MosiLine &l) {
            return l.state == MosiState::O && outstanding_.count(ba);
        });
    if (victim.valid)
        evictVictim(victim.addr, victim.line);
    return line;
}

void
MosiCache::evictVictim(Addr ba, const MosiLine &victim)
{
    ++stats_.evictions;
    notifyLineRemoved(ba);
    if (victim.state == MosiState::S || victim.state == MosiState::I)
        return;   // clean copies drop silently; sharer lists stay safe
    wbBuffer_[ba] = WbEntry{victim.data, false};
    writeBack(ba, victim);
}

void
MosiCache::respondData(NodeId dest, Addr addr, std::uint64_t value,
                       bool exclusive, int ack_count)
{
    Message msg;
    msg.type = exclusive ? MsgType::dataExclusive : MsgType::data;
    msg.cls = MsgClass::data;
    msg.dstUnit = Unit::cache;
    msg.addr = addr;
    msg.dest = dest;
    msg.requester = dest;
    msg.hasData = true;
    msg.data = value;
    msg.ackCount = ack_count;
    sendAfter(ctx_.ctrlLatency + ctx_.l2.latency, msg);
}

void
MosiCache::dropLine(Addr ba)
{
    notifyLineRemoved(ba);
    l2_.invalidate(ba);
}

bool
MosiCache::hasPermission(Addr addr, MemOp op) const
{
    const MosiLine *line = l2_.find(ctx_.blockAlign(addr));
    if (!line)
        return false;
    return op == MemOp::store ? line->state == MosiState::M
                              : line->state != MosiState::I;
}

MosiState
MosiCache::state(Addr addr) const
{
    const MosiLine *line = l2_.find(ctx_.blockAlign(addr));
    return line ? line->state : MosiState::I;
}

// =====================================================================
// Fast-forward and warm-state snapshots
// =====================================================================

std::uint64_t
MosiCache::functionalFill(MosiLine *line, Addr ba, FunctionalEnv &env,
                          MosiState s, bool written, std::uint64_t data)
{
    if (!line) {
        CacheArray<MosiLine>::Victim victim;
        line = l2_.allocate(ba, &victim);
        if (victim.valid) {
            const Addr va = victim.addr;
            const MosiLine &v = victim.line;
            notifyLineRemoved(va);
            // An owned victim's writeback, settled at once; S copies
            // drop silently, exactly as in detailed mode.
            if (v.state == MosiState::M || v.state == MosiState::O) {
                static_cast<MosiHome *>(env.memories[ctx_.home(va)])
                    ->settleWriteback(va, id_, v.data);
            }
        }
    }
    line->state = s;
    line->written = written;
    line->data = data;
    return data;
}

void
MosiCache::encodeLines(WireWriter &w) const
{
    if (!quiescent())
        throw WireError(tag_ + " has transactions in flight");
    l2_.encodeWays(w, [](WireWriter &out, const MosiLine &l) {
        out.u8(static_cast<std::uint8_t>(l.state));
        out.boolean(l.written);
        out.varint(l.data);
    });
}

void
MosiCache::decodeLines(WireReader &r)
{
    l2_.decodeWays(r, [](WireReader &in) {
        MosiLine l;
        const std::uint8_t state = in.u8("mosi line state");
        l.written = in.boolean("mosi line written");
        l.data = in.varint("mosi line data");
        if (state < 1 || state > 3)
            throw WireError("invalid mosi line state");
        l.state = static_cast<MosiState>(state);
        return l;
    });
}

void
MosiCache::encodeWarmState(WireWriter &w) const
{
    encodeLines(w);
    putStructEnd(w);
}

void
MosiCache::decodeWarmState(WireReader &r)
{
    decodeLines(r);
    checkStructEnd(r, "mosi cache warm state");
}

} // namespace tokensim
