#include "proto/directory/directory.hh"

#include <algorithm>
#include <cassert>

namespace tokensim {

// =====================================================================
// DirCache
// =====================================================================

DirCache::DirCache(ProtoContext &ctx, NodeId id,
                   const ProtocolParams &params)
    : MosiCache(ctx, id, strformat("dir.%u", id), params)
{
}

void
DirCache::handleMessage(const Message &msg)
{
    switch (msg.type) {
      case MsgType::fwdGetS:
      case MsgType::fwdGetM:
        handleFwd(msg);
        break;
      case MsgType::inv:
        handleInv(msg);
        break;
      case MsgType::data:
      case MsgType::dataExclusive:
      case MsgType::ack:
        handleDataOrGrant(msg);
        break;
      case MsgType::invAck: {
        auto it = outstanding_.find(msg.addr);
        assert(it != outstanding_.end() &&
               "invalidation ack with no transaction");
        ++it->second.acksReceived;
        maybeComplete(msg.addr);
        break;
      }
      case MsgType::wbAck:
        wbBuffer_.erase(msg.addr);
        break;
      default:
        assert(false && "unexpected message at directory cache");
    }
}

void
DirCache::handleFwd(const Message &msg)
{
    const Addr ba = msg.addr;
    const bool exclusive = msg.type == MsgType::fwdGetM;
    MosiLine *line = l2_.find(ba);

    if (!line) {
        // The directory forwarded to us while our writeback was in
        // flight; answer from the writeback buffer. The home's
        // owner check will reject the stale PutM data.
        auto wit = wbBuffer_.find(ba);
        assert(wit != wbBuffer_.end() &&
               "forward to a node with neither line nor writeback");
        respondData(msg.requester, ba, wit->second.data, exclusive,
                    exclusive ? msg.ackCount : 0);
        return;
    }

    assert(line->state == MosiState::M || line->state == MosiState::O);
    if (!exclusive &&
        !(line->state == MosiState::M && line->written &&
          params_.migratoryOpt)) {
        respondData(msg.requester, ba, line->data, false, 0);
        line->state = MosiState::O;
        return;
    }
    // GetM, or the migratory optimization passing read/write
    // permission on a GetS.
    respondData(msg.requester, ba, line->data, true,
                exclusive ? msg.ackCount : 0);
    dropLine(ba);
}

void
DirCache::handleInv(const Message &msg)
{
    const Addr ba = msg.addr;
    if (l2_.find(ba)) {
        assert(state(ba) == MosiState::S &&
               "invalidation hit a non-shared line");
        dropLine(ba);
    }
    // Acknowledge straight to the requester (even if we had silently
    // dropped the line — the directory's sharer list is conservative).
    Message ack;
    ack.type = MsgType::invAck;
    ack.cls = MsgClass::nonData;
    ack.dstUnit = Unit::cache;
    ack.addr = ba;
    ack.dest = msg.requester;
    ack.requester = msg.requester;
    sendAfter(ctx_.ctrlLatency + ctx_.l2.latency, ack);
}

void
DirCache::handleDataOrGrant(const Message &msg)
{
    const Addr ba = msg.addr;
    auto it = outstanding_.find(ba);
    assert(it != outstanding_.end() && "response with no transaction");
    Miss &m = it->second;
    assert(!m.dataReceived && "duplicate response");
    m.dataReceived = true;
    m.acksNeeded = msg.ackCount;
    if (msg.type == MsgType::ack) {
        // Dataless grant for an owner upgrade: data is already local
        // (eviction never takes an Owned line mid-upgrade).
        const MosiLine *line = l2_.find(ba);
        assert(line && "upgrade grant with no local line");
        m.value = line->data;
        m.exclusive = true;
    } else {
        m.value = msg.data;
        m.exclusive = msg.type == MsgType::dataExclusive;
        m.cacheToCache = !msg.fromMemoryCtrl;
    }
    maybeComplete(ba);
}

// =====================================================================
// DirMemory
// =====================================================================

DirMemory::DirMemory(ProtoContext &ctx, NodeId id,
                     const ProtocolParams &params)
    : SerialHome(ctx, id, strformat("dirmem.%u", id), params),
      sharerPool_(ctx.numNodes)
{
}

void
DirMemory::resetState(const ProtocolParams &params)
{
    SerialHome::resetState(params);
    sharerPool_.clear();
}

Tick
DirMemory::dirLatency() const
{
    return params_.perfectDirectory ? 0 : ctx_.dram.latency;
}

void
DirMemory::processRequest(const Message &msg, DirEntry &e)
{
    const NodeId req = msg.requester;
    if (msg.type == MsgType::getS) {
        if (e.owner == invalidNode)
            sendMemoryData(msg, false, 0);
        else
            sendAfterLookup(MsgType::fwdGetS, msg, e.owner, 0);
        return;
    }

    // GetM: every sharer but the requester invalidates and acks.
    const int acks = static_cast<int>(
        sharerPool_.count(e.sharers) -
        (sharerPool_.contains(e.sharers, req) ? 1 : 0));

    if (e.owner == invalidNode) {
        // The data DRAM read overlaps the directory lookup (they share
        // the access): total latency is the DRAM access itself.
        sendMemoryData(msg, true, acks);
    } else if (e.owner == req) {
        // Upgrade by the current (Owned-state) owner: dataless grant.
        sendAfterLookup(MsgType::ack, msg, req, acks);
    } else {
        sendAfterLookup(MsgType::fwdGetM, msg, e.owner, acks);
    }
    sharerPool_.forEach(e.sharers, [&](NodeId t) {
        if (t != req)
            sendAfterLookup(MsgType::inv, msg, t, 0);
    });
}

void
DirMemory::sendAfterLookup(MsgType type, const Message &req, NodeId dest,
                           int ack_count)
{
    Message msg;
    msg.type = type;
    msg.cls = type == MsgType::ack ? MsgClass::nonData : MsgClass::request;
    msg.dstUnit = Unit::cache;
    msg.addr = req.addr;
    msg.dest = dest;
    msg.requester = req.requester;
    msg.ackCount = ack_count;
    msg.fromMemoryCtrl = type == MsgType::ack;
    msg.src = id_;
    // Forwards and grants wait on the directory lookup — the
    // indirection latency the paper's Figure 5a isolates with the
    // striped bar.
    sendAfter(ctx_.ctrlLatency + dirLatency(), msg);
}

void
DirMemory::recordUnblock(const Message &unblock, DirEntry &e)
{
    if (unblock.type == MsgType::unblockExclusive)
        sharerPool_.clear(e.sharers);
    else
        sharerPool_.insert(e.sharers, unblock.requester);
}

DirMemory::DirView
DirMemory::view(Addr addr) const
{
    DirView v;
    auto it = entries_.find(ctx_.blockAlign(addr));
    if (it != entries_.end()) {
        v.busy = it->second.busy;
        v.owner = it->second.owner;
        sharerPool_.forEach(it->second.sharers,
                            [&](NodeId s) { v.sharers.push_back(s); });
    }
    return v;
}

// =====================================================================
// Fast-forward and warm-state snapshots
// =====================================================================

std::uint64_t
DirCache::applyFunctional(const ProcRequest &req, FunctionalEnv &env)
{
    const Addr ba = ctx_.blockAlign(req.addr);
    assert(quiescent() && "fast-forward requires a quiescent cache");

    MosiLine *line = l2_.touch(ba);
    std::uint64_t value;
    if (applyHit(req, line, value))
        return value;

    auto *mem = static_cast<DirMemory *>(env.memories[ctx_.home(ba)]);
    DirEntry &e = mem->entryFor(ba);
    assert(!e.busy && e.queue.empty() &&
           "fast-forward requires an idle directory");
    NodeMaskPool &sharers = mem->sharerPool_;

    if (req.op == MemOp::load) {
        // GetS. The directory supplies memory data or forwards to the
        // owner; a written migratory owner hands over exclusively.
        if (e.owner == invalidNode) {
            value = mem->store_.read(ba);
        } else {
            assert(e.owner != id_ &&
                   "load miss while the directory says we own it");
            auto *oc = static_cast<DirCache *>(env.caches[e.owner]);
            MosiLine *ol = oc->l2_.find(ba);
            assert(ol && (ol->state == MosiState::M ||
                          ol->state == MosiState::O));
            value = ol->data;
            if (ol->state == MosiState::M && ol->written &&
                params_.migratoryOpt) {
                // Migratory handoff: we take M, the owner drops.
                oc->dropLine(ba);
                e.owner = id_;
                sharers.clear(e.sharers);
                return functionalFill(line, ba, env, MosiState::M, false,
                                      value);
            }
            ol->state = MosiState::O;
        }
        sharers.insert(e.sharers, id_);
        return functionalFill(line, ba, env, MosiState::S, false, value);
    }

    // GetM: sharers invalidate, the owner (us on an upgrade, a peer,
    // or memory) supplies data, and the directory records us as the
    // exclusive owner.
    sharers.forEach(e.sharers, [&](NodeId s) {
        auto *sc = static_cast<DirCache *>(env.caches[s]);
        // Silently dropped sharer copies just ack in detailed mode.
        if (s != id_ && sc->l2_.find(ba))
            sc->dropLine(ba);
    });
    if (e.owner != invalidNode && e.owner != id_) {
        auto *oc = static_cast<DirCache *>(env.caches[e.owner]);
        assert(oc->state(ba) == MosiState::M ||
               oc->state(ba) == MosiState::O);
        oc->dropLine(ba);
    }
    // An upgrade (e.owner == id_) keeps local data; otherwise the
    // incoming data is immediately overwritten by the store anyway.
    e.owner = id_;
    sharers.clear(e.sharers);
    return functionalFill(line, ba, env, MosiState::M, true,
                          req.storeValue);
}

void
DirMemory::encodeWarmState(WireWriter &w) const
{
    requireQuiescent();
    store_.encode(w);
    std::vector<Addr> live;
    for (const auto &[a, e] : entries_) {
        if (e.owner != invalidNode || !e.sharers.empty())
            live.push_back(a);
    }
    std::sort(live.begin(), live.end());
    w.varint(live.size());
    for (Addr a : live) {
        const DirEntry &e = entries_.find(a)->second;
        w.varint(a);
        w.boolean(e.owner != invalidNode);
        if (e.owner != invalidNode)
            w.varint(e.owner);
        w.varint(sharerPool_.count(e.sharers));
        sharerPool_.forEach(e.sharers,   // ascending
                            [&](NodeId s) { w.varint(s); });
    }
    putStructEnd(w);
}

void
DirMemory::decodeWarmState(WireReader &r)
{
    store_.decode(r, [&](Addr a) { return ctx_.home(a) == id_; });
    const std::uint64_t nentries = r.varint("directory entry count");
    Addr prev = 0;
    for (std::uint64_t i = 0; i < nentries; ++i) {
        const Addr a = r.varint("directory entry address");
        if (ctx_.blockAlign(a) != a)
            throw WireError("directory entry not block-aligned");
        if (ctx_.home(a) != id_)
            throw WireError("directory entry homed elsewhere");
        if (i > 0 && a <= prev)
            throw WireError("directory entries not strictly ascending");
        prev = a;
        DirEntry &e = entries_[a];
        if (r.boolean("directory entry has owner")) {
            const std::uint64_t o = r.varint("directory entry owner");
            if (o >= static_cast<std::uint64_t>(ctx_.numNodes))
                throw WireError("directory owner is an invalid node");
            e.owner = static_cast<NodeId>(o);
        }
        const std::uint64_t ns = r.varint("directory sharer count");
        if (ns > static_cast<std::uint64_t>(ctx_.numNodes))
            throw WireError("directory sharer count exceeds nodes");
        NodeId sprev = 0;
        for (std::uint64_t j = 0; j < ns; ++j) {
            const std::uint64_t s = r.varint("directory sharer");
            if (s >= static_cast<std::uint64_t>(ctx_.numNodes))
                throw WireError("directory sharer is an invalid node");
            if (j > 0 && s <= sprev)
                throw WireError("directory sharers not ascending");
            sprev = static_cast<NodeId>(s);
            sharerPool_.insert(e.sharers, static_cast<NodeId>(s));
        }
    }
    checkStructEnd(r, "directory memory warm state");
}

} // namespace tokensim
