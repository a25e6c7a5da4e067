#include "proto/snooping/snooping.hh"

#include <algorithm>
#include <cassert>
#include <vector>

namespace tokensim {

// =====================================================================
// SnoopCache
// =====================================================================

SnoopCache::SnoopCache(ProtoContext &ctx, NodeId id,
                       const ProtocolParams &params)
    : MosiCache(ctx, id, strformat("snoop.%u", id), params)
{
}

void
SnoopCache::resetState(const ProtocolParams &params, std::uint64_t seed)
{
    MosiCache::resetState(params, seed);
    migratoryPred_.clear();
    deferredPool_.clear();
}

bool
SnoopCache::fetchExclusive(Addr ba, bool is_store)
{
    // Requester-side migratory optimization: a store miss means the
    // block follows the read-modify-write pattern, so future loads
    // fetch it exclusively and the whole section costs one miss.
    if (!params_.migratoryOpt)
        return is_store;
    if (is_store)
        migratoryPred_.insert(ba);
    return is_store || migratoryPred_.count(ba);
}

void
SnoopCache::issueMiss(Addr ba, bool is_store)
{
    Message msg;
    msg.type = fetchExclusive(ba, is_store) ? MsgType::getM : MsgType::getS;
    msg.cls = MsgClass::request;
    msg.dstUnit = Unit::cache;
    msg.addr = ba;
    msg.requester = id_;
    broadcastOrderedAfter(ctx_.ctrlLatency, msg);
}

void
SnoopCache::writeBack(Addr ba, const MosiLine &)
{
    // Owner eviction: announce the writeback in the total order, then
    // ship the data once the announcement has been ordered.
    Message msg;
    msg.type = MsgType::putM;
    msg.cls = MsgClass::request;
    msg.dstUnit = Unit::cache;
    msg.addr = ba;
    msg.requester = id_;
    broadcastOrderedAfter(ctx_.ctrlLatency, msg);
}

void
SnoopCache::handleMessage(const Message &msg)
{
    switch (msg.type) {
      case MsgType::getS:
      case MsgType::getM:
      case MsgType::putM:
        handleSnoop(msg);
        break;
      case MsgType::data:
      case MsgType::dataExclusive:
        handleData(msg);
        break;
      default:
        assert(false && "unexpected message at snooping cache");
    }
}

void
SnoopCache::handleSnoop(const Message &msg)
{
    if (msg.requester == id_) {
        handleOwnRequest(msg);
        return;
    }
    if (msg.type == MsgType::putM)
        return;   // foreign writeback announcements are none of ours

    auto it = outstanding_.find(msg.addr);
    if (it != outstanding_.end() && it->second.ordered) {
        // We are the block's logical holder (our request was ordered
        // first) but the data has not arrived: defer this snoop and
        // replay it after the fill — a classic non-stable state.
        deferredPool_.push(it->second.deferred, msg);
        return;
    }
    applySnoop(msg);
}

void
SnoopCache::applySnoop(const Message &msg)
{
    const Addr ba = msg.addr;
    const bool exclusive = msg.type == MsgType::getM;

    // A line announced for writeback still answers snoops ordered
    // before its PutM — until a GetM takes the ownership; from then on
    // the new owner answers.
    auto wit = wbBuffer_.find(ba);
    if (wit != wbBuffer_.end()) {
        if (!wit->second.surrendered) {
            respondData(msg.requester, ba, wit->second.data, exclusive);
            wit->second.surrendered = exclusive;
        }
        return;
    }

    MosiLine *line = l2_.find(ba);
    if (!line)
        return;

    if (!exclusive) {
        // S and I do not respond to GetS.
        if (line->state == MosiState::M) {
            respondData(msg.requester, ba, line->data, false);
            line->state = MosiState::O;
            if (!line->written)
                migratoryPred_.erase(ba);   // read-shared after all
        } else if (line->state == MosiState::O) {
            respondData(msg.requester, ba, line->data, false);
        }
        return;
    }
    if (line->state == MosiState::M || line->state == MosiState::O)
        respondData(msg.requester, ba, line->data, true);
    // S invalidates silently; ordering replaces explicit acks.
    dropLine(ba);
}

void
SnoopCache::handleOwnRequest(const Message &msg)
{
    const Addr ba = msg.addr;

    if (msg.type == MsgType::putM) {
        auto wit = wbBuffer_.find(ba);
        assert(wit != wbBuffer_.end());
        if (!wit->second.surrendered) {
            Message wb;
            wb.type = MsgType::wbData;
            wb.cls = MsgClass::data;
            wb.dstUnit = Unit::memory;
            wb.addr = ba;
            wb.dest = ctx_.home(ba);
            wb.requester = id_;
            wb.hasData = true;
            wb.data = wit->second.data;
            sendAfter(ctx_.ctrlLatency, wb);
        }
        wbBuffer_.erase(wit);
        return;
    }

    auto it = outstanding_.find(ba);
    assert(it != outstanding_.end() &&
           "own ordered request with no transaction");
    Miss &m = it->second;
    m.ordered = true;

    // Upgrade from Owned: we are the block's owner, so no one else
    // will supply data — our own copy is the data, and every other
    // sharer invalidates on observing this GetM.
    if (msg.type == MsgType::getM && !m.dataReceived) {
        const MosiLine *line = l2_.find(ba);
        if (line && (line->state == MosiState::O ||
                     line->state == MosiState::M)) {
            m.dataReceived = true;
            m.value = line->data;
            m.exclusive = true;   // not a c2c transfer
        }
    }

    if (m.dataReceived)
        completeMiss(ba);
}

void
SnoopCache::handleData(const Message &msg)
{
    auto it = outstanding_.find(msg.addr);
    assert(it != outstanding_.end() && "data response with no miss");
    Miss &m = it->second;
    assert(!m.dataReceived && "duplicate data response");
    m.dataReceived = true;
    m.value = msg.data;
    m.exclusive = msg.type == MsgType::dataExclusive;
    m.cacheToCache = !msg.fromMemoryCtrl;
    if (m.ordered)
        completeMiss(msg.addr);
}

void
SnoopCache::completeMiss(Addr addr)
{
    Miss done = takeMiss(addr);
    assert((done.exclusive || done.req.op == MemOp::load) &&
           "store fill without write permission");
    respondMiss(done, fill(addr, done));

    // Replay snoops that were ordered after our request but arrived
    // before our data.
    while (!done.deferred.empty())
        applySnoop(deferredPool_.pop(done.deferred));
}

// =====================================================================
// SnoopMemory
// =====================================================================

SnoopMemory::SnoopMemory(ProtoContext &ctx, NodeId id,
                         const ProtocolParams &params)
    : MosiHome(ctx, id, strformat("snoopmem.%u", id), params)
{
}

void
SnoopMemory::resetState(const ProtocolParams &params)
{
    resetHome(params);
    blocks_.clear();
}

SnoopMemory::MemBlock &
SnoopMemory::blockFor(Addr addr)
{
    assert(ctx_.home(addr) == id_);
    return blocks_[addr];
}

void
SnoopMemory::handleMessage(const Message &msg)
{
    const Addr ba = msg.addr;
    switch (msg.type) {
      case MsgType::getS:
      case MsgType::getM: {
        MemBlock &mb = blockFor(ba);
        if (mb.owner == invalidNode) {
            if (mb.wbPending)
                waitPool_.push(mb.waiting, msg);
            else
                sendMemoryData(msg, msg.type == MsgType::getM, 0);
        }
        if (msg.type == MsgType::getM)
            mb.owner = msg.requester;
        break;
      }
      case MsgType::putM: {
        MemBlock &mb = blockFor(ba);
        if (mb.owner == msg.requester) {
            mb.owner = invalidNode;
            mb.wbPending = true;
        }
        // Otherwise the writeback was overtaken by a GetM ordered
        // before it; the evictor already surrendered the data.
        break;
      }
      case MsgType::wbData: {
        MemBlock &mb = blockFor(ba);
        assert(mb.wbPending && "unexpected writeback data");
        store_.write(ba, msg.data);
        dram_.access(ctx_.now());
        mb.wbPending = false;
        while (!mb.waiting.empty()) {
            const Message req = waitPool_.pop(mb.waiting);
            sendMemoryData(req, req.type == MsgType::getM, 0);
        }
        break;
      }
      default:
        assert(false && "unexpected message at snooping memory");
    }
}

void
SnoopMemory::settleWriteback(Addr addr, NodeId from, std::uint64_t data)
{
    // The PutM/wbData exchange, settled. A stale-owner record (the
    // writeback overtaken by a GetM) never happens at quiescence, but
    // mirror the detailed filter anyway.
    MemBlock &mb = blockFor(addr);
    if (mb.owner == from) {
        store_.write(addr, data);
        mb.owner = invalidNode;
    }
}

bool
SnoopMemory::memoryOwns(Addr addr) const
{
    auto it = blocks_.find(ctx_.blockAlign(addr));
    return it == blocks_.end() || it->second.owner == invalidNode;
}

// =====================================================================
// Fast-forward and warm-state snapshots
// =====================================================================

std::uint64_t
SnoopCache::applyFunctional(const ProcRequest &req, FunctionalEnv &env)
{
    const Addr ba = ctx_.blockAlign(req.addr);
    const bool is_store = req.op == MemOp::store;
    assert(quiescent() && "fast-forward requires a quiescent cache");

    MosiLine *line = l2_.touch(ba);
    std::uint64_t value;
    if (applyHit(req, line, value))
        return value;

    auto *mem = static_cast<SnoopMemory *>(env.memories[ctx_.home(ba)]);

    if (!fetchExclusive(ba, is_store)) {
        // GetS: the owner — an M/O line somewhere, else the home
        // memory — supplies data; an M owner downgrades to O.
        value = mem->store_.read(ba);
        for (CacheController *c : env.caches) {
            auto *sc = static_cast<SnoopCache *>(c);
            MosiLine *l = sc->l2_.find(ba);
            if (c == this || !l || (l->state != MosiState::M &&
                                    l->state != MosiState::O))
                continue;
            value = l->data;
            if (l->state == MosiState::M) {
                l->state = MosiState::O;
                if (!l->written)
                    sc->migratoryPred_.erase(ba);
            }
            break;
        }
        return functionalFill(line, ba, env, MosiState::S, false, value);
    }

    // GetM: take data from the owner (our own O/M line, a peer's,
    // else memory), drop every other copy, and become the memory's
    // recorded owner — exactly the ordered-broadcast outcome.
    bool haveData = line && (line->state == MosiState::O ||
                             line->state == MosiState::M);
    if (haveData)
        value = line->data;
    for (CacheController *c : env.caches) {
        auto *sc = static_cast<SnoopCache *>(c);
        const MosiLine *l = sc->l2_.find(ba);
        if (c == this || !l)
            continue;
        if (!haveData && (l->state == MosiState::M ||
                          l->state == MosiState::O)) {
            value = l->data;
            haveData = true;
        }
        sc->dropLine(ba);
    }
    if (!haveData)
        value = mem->store_.read(ba);
    mem->blockFor(ba).owner = id_;
    if (is_store)
        value = req.storeValue;
    return functionalFill(line, ba, env, MosiState::M, is_store, value);
}

void
SnoopCache::encodeWarmState(WireWriter &w) const
{
    encodeLines(w);
    std::vector<Addr> pred;
    migratoryPred_.forEach([&](Addr a) { pred.push_back(a); });
    std::sort(pred.begin(), pred.end());
    w.varint(pred.size());
    for (Addr a : pred)
        w.varint(a);
    putStructEnd(w);
}

void
SnoopCache::decodeWarmState(WireReader &r)
{
    decodeLines(r);
    const std::uint64_t npred = r.varint("migratory predictor size");
    Addr prev = 0;
    for (std::uint64_t i = 0; i < npred; ++i) {
        const Addr a = r.varint("migratory predictor entry");
        if (ctx_.blockAlign(a) != a)
            throw WireError("predictor entry not block-aligned");
        if (i > 0 && a <= prev)
            throw WireError("predictor entries not strictly ascending");
        prev = a;
        migratoryPred_.insert(a);
    }
    checkStructEnd(r, "snooping cache warm state");
}

void
SnoopMemory::encodeWarmState(WireWriter &w) const
{
    for (const auto &[a, mb] : blocks_) {
        if (mb.wbPending || !mb.waiting.empty())
            throw WireError("snooping memory has writebacks in flight");
    }
    store_.encode(w);
    encodeOwnerRecords(w, blocks_);
    putStructEnd(w);
}

void
SnoopMemory::decodeWarmState(WireReader &r)
{
    store_.decode(r, [&](Addr a) { return ctx_.home(a) == id_; });
    decodeOwnerRecords(r, blocks_, ctx_, id_);
    checkStructEnd(r, "snooping memory warm state");
}

} // namespace tokensim
