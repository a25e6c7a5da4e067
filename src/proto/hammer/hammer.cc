#include "proto/hammer/hammer.hh"

#include <algorithm>
#include <cassert>
#include <vector>

#include "sim/stats.hh"

namespace tokensim {

// =====================================================================
// HammerCache
// =====================================================================

HammerCache::HammerCache(ProtoContext &ctx, NodeId id,
                         const ProtocolParams &params)
    : CacheController(ctx, id, strformat("hammer.%u", id)),
      params_(params),
      l2_(ctx.l2)
{
}

void
HammerCache::resetState(const ProtocolParams &params, std::uint64_t)
{
    params_ = params;
    l2_.clear();
    outstanding_.clear();
    wbBuffer_.clear();
    stats_ = CacheCtrlStats{};
}

void
HammerCache::request(const ProcRequest &req)
{
    const Addr ba = ctx_.blockAlign(req.addr);
    const bool is_store = req.op == MemOp::store;
    if (is_store)
        ++stats_.stores;
    else
        ++stats_.loads;

    assert(!outstanding_.count(ba) &&
           "sequencer must serialize same-block operations");

    HammerLine *line = l2_.touch(ba);
    const bool hit = line &&
        (is_store ? line->state == HammerState::M
                  : line->state != HammerState::I);
    if (hit) {
        ++stats_.hits;
        ProcResponse resp;
        resp.reqId = req.reqId;
        resp.addr = req.addr;
        resp.op = req.op;
        resp.issuedAt = ctx_.now();
        resp.completedAt = ctx_.now() + ctx_.l2.latency;
        if (is_store) {
            line->data = req.storeValue;
            line->written = true;
            resp.value = req.storeValue;
        } else {
            resp.value = line->data;
        }
        ctx_.eq->scheduleIn(ctx_.l2.latency,
                            [this, resp]() { respond(resp); });
        return;
    }

    ++stats_.misses;
    Transaction tr;
    tr.req = req;
    tr.issuedAt = ctx_.now();
    outstanding_.emplace(ba, std::move(tr));

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
HammerCache::handleMessage(const Message &msg)
{
    switch (msg.type) {
      case MsgType::fwdGetS:
      case MsgType::fwdGetM:
        handleProbe(msg);
        break;
      case MsgType::data:
      case MsgType::dataExclusive:
      case MsgType::ack:
        handleResponse(msg);
        break;
      case MsgType::wbAck:
        wbBuffer_.erase(msg.addr);
        break;
      default:
        assert(false && "unexpected message at hammer cache");
    }
}

void
HammerCache::handleProbe(const Message &msg)
{
    if (msg.requester == id_)
        return;   // requesters do not probe themselves

    const Addr ba = msg.addr;
    const bool exclusive = msg.type == MsgType::fwdGetM;
    const NodeId req = msg.requester;

    // A line whose writeback is in flight answers from the buffer.
    auto wit = wbBuffer_.find(ba);
    if (wit != wbBuffer_.end()) {
        respondData(req, ba, wit->second.data, exclusive);
        return;
    }

    HammerLine *line = l2_.find(ba);
    if (!line) {
        respondAck(req, ba);
        return;
    }

    if (!exclusive) {
        switch (line->state) {
          case HammerState::M:
            if (line->written && params_.migratoryOpt) {
                respondData(req, ba, line->data, true);
                notifyLineRemoved(ba);
                l2_.invalidate(ba);
            } else {
                respondData(req, ba, line->data, false);
                line->state = HammerState::O;
            }
            break;
          case HammerState::O:
            respondData(req, ba, line->data, false);
            break;
          default:
            respondAck(req, ba);
            break;
        }
    } else {
        switch (line->state) {
          case HammerState::M:
          case HammerState::O:
            respondData(req, ba, line->data, true);
            notifyLineRemoved(ba);
            l2_.invalidate(ba);
            break;
          case HammerState::S:
            respondAck(req, ba);
            notifyLineRemoved(ba);
            l2_.invalidate(ba);
            break;
          default:
            respondAck(req, ba);
            break;
        }
    }
}

void
HammerCache::handleResponse(const Message &msg)
{
    const Addr ba = msg.addr;
    auto it = outstanding_.find(ba);
    assert(it != outstanding_.end() && "response with no transaction");
    Transaction &tr = it->second;

    if (msg.fromMemoryCtrl) {
        assert(!tr.memResponse && "duplicate memory response");
        tr.memResponse = true;
        tr.memData = msg.data;
        tr.cacheResponsesNeeded = msg.ackCount;
    } else {
        ++tr.cacheResponses;
        if (msg.hasData) {
            assert(!tr.haveOwnerData && "two caches supplied data");
            tr.haveOwnerData = true;
            tr.ownerData = msg.data;
            tr.ownerDataExclusive = msg.type == MsgType::dataExclusive;
        }
    }
    maybeComplete(ba);
}

void
HammerCache::maybeComplete(Addr addr)
{
    auto it = outstanding_.find(addr);
    if (it == outstanding_.end())
        return;
    Transaction &tr = it->second;
    if (!tr.memResponse || tr.cacheResponses < tr.cacheResponsesNeeded)
        return;
    assert(tr.cacheResponses == tr.cacheResponsesNeeded);

    Transaction done = std::move(tr);
    outstanding_.erase(it);

    HammerLine *line = l2_.find(addr);
    if (!line)
        line = allocLine(addr);

    const bool is_store = done.req.op == MemOp::store;
    const std::uint64_t fill =
        done.haveOwnerData ? done.ownerData : done.memData;
    const bool exclusive =
        is_store || (done.haveOwnerData && done.ownerDataExclusive);

    if (is_store) {
        line->state = HammerState::M;
        line->written = true;
        line->data = done.req.storeValue;
    } else if (exclusive) {
        line->state = HammerState::M;
        line->written = false;
        line->data = fill;
    } else {
        line->state = HammerState::S;
        line->written = false;
        line->data = fill;
    }

    Message unb;
    unb.type = exclusive ? MsgType::unblockExclusive : MsgType::unblock;
    unb.cls = MsgClass::nonData;
    unb.dstUnit = Unit::memory;
    unb.addr = addr;
    unb.dest = ctx_.home(addr);
    unb.requester = id_;
    sendAfter(ctx_.ctrlLatency, unb);

    ProcResponse resp;
    resp.reqId = done.req.reqId;
    resp.addr = done.req.addr;
    resp.op = done.req.op;
    resp.value = line->data;
    resp.issuedAt = done.issuedAt;
    resp.completedAt = ctx_.now();
    resp.wasMiss = true;
    resp.cacheToCache = done.haveOwnerData;

    ++stats_.missesCompleted;
    stats_.missLatency.add(
        static_cast<double>(ctx_.now() - done.issuedAt));
    stats_.missLatencyHist.add(
        static_cast<double>(ctx_.now() - done.issuedAt));
    if (resp.cacheToCache)
        ++stats_.cacheToCache;
    ++stats_.missesNotReissued;

    respond(resp);
}

HammerLine *
HammerCache::allocLine(Addr addr)
{
    CacheArray<HammerLine>::Victim victim;
    HammerLine *line = l2_.allocate(addr, &victim);
    if (victim.valid)
        evictVictim(victim.line);
    return line;
}

void
HammerCache::evictVictim(const HammerLine &victim)
{
    ++stats_.evictions;
    notifyLineRemoved(victim.addr);
    if (victim.state == HammerState::S ||
        victim.state == HammerState::I) {
        return;
    }

    wbBuffer_[victim.addr] = WbEntry{victim.data};
    Message msg;
    msg.type = MsgType::putM;
    msg.cls = MsgClass::data;
    msg.dstUnit = Unit::memory;
    msg.addr = victim.addr;
    msg.dest = ctx_.home(victim.addr);
    msg.requester = id_;
    msg.hasData = true;
    msg.data = victim.data;
    sendAfter(ctx_.ctrlLatency, msg);
}

void
HammerCache::respondData(NodeId dest, Addr addr, std::uint64_t value,
                         bool exclusive)
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
    sendAfter(ctx_.ctrlLatency + ctx_.l2.latency, msg);
}

void
HammerCache::respondAck(NodeId dest, Addr addr)
{
    Message msg;
    msg.type = MsgType::ack;
    msg.cls = MsgClass::nonData;
    msg.dstUnit = Unit::cache;
    msg.addr = addr;
    msg.dest = dest;
    msg.requester = dest;
    sendAfter(ctx_.ctrlLatency + ctx_.l2.latency, msg);
}

bool
HammerCache::hasPermission(Addr addr, MemOp op) const
{
    const HammerLine *line = l2_.find(ctx_.blockAlign(addr));
    if (!line)
        return false;
    return op == MemOp::store ? line->state == HammerState::M
                              : line->state != HammerState::I;
}

HammerState
HammerCache::state(Addr addr) const
{
    const HammerLine *line = l2_.find(ctx_.blockAlign(addr));
    return line ? line->state : HammerState::I;
}

// =====================================================================
// HammerMemory
// =====================================================================

HammerMemory::HammerMemory(ProtoContext &ctx, NodeId id,
                           const ProtocolParams &params)
    : MemoryController(ctx, id, strformat("hammem.%u", id)),
      params_(params),
      store_(ctx.blockBytes),
      dram_(ctx.dram)
{
}

void
HammerMemory::resetState(const ProtocolParams &params)
{
    params_ = params;
    store_.clear();
    dram_ = Dram(ctx_.dram);
    entries_.clear();
    waitPool_.clear();
}

HammerMemory::HomeEntry &
HammerMemory::entryFor(Addr addr)
{
    assert(ctx_.home(addr) == id_);
    return entries_[addr];
}

void
HammerMemory::handleMessage(const Message &msg)
{
    switch (msg.type) {
      case MsgType::getS:
      case MsgType::getM:
      case MsgType::putM: {
        HomeEntry &e = entryFor(msg.addr);
        if (e.busy) {
            waitPool_.push(e.queue, msg);
            return;
        }
        if (msg.type == MsgType::putM)
            handlePutM(msg);
        else
            processRequest(msg);
        break;
      }
      case MsgType::unblock:
      case MsgType::unblockExclusive:
        handleUnblock(msg);
        break;
      case MsgType::fwdGetS:
      case MsgType::fwdGetM:
        // Our own probe broadcast echoing back to the home node.
        break;
      default:
        assert(false && "unexpected message at hammer memory");
    }
}

void
HammerMemory::processRequest(const Message &msg)
{
    const Addr ba = msg.addr;
    HomeEntry &e = entryFor(ba);
    assert(!e.busy);
    e.busy = true;
    e.pendingRequester = msg.requester;

    // Probe every node immediately — no directory lookup gates it.
    Message probe;
    probe.type = msg.type == MsgType::getM ? MsgType::fwdGetM
                                           : MsgType::fwdGetS;
    probe.cls = MsgClass::request;
    probe.dstUnit = Unit::cache;
    probe.addr = ba;
    probe.requester = msg.requester;
    broadcastAfter(ctx_.ctrlLatency, probe);

    // Speculative memory read proceeds in parallel. Its response also
    // tells the requester how many cache responses to expect.
    Message data;
    data.type = msg.type == MsgType::getM ? MsgType::dataExclusive
                                          : MsgType::data;
    data.cls = MsgClass::data;
    data.dstUnit = Unit::cache;
    data.addr = ba;
    data.dest = msg.requester;
    data.requester = msg.requester;
    data.hasData = true;
    data.data = store_.read(ba);
    data.ackCount = ctx_.numNodes - 1;
    data.fromMemoryCtrl = true;
    data.src = id_;
    const Tick ready = dram_.access(ctx_.now() + ctx_.ctrlLatency);
    ctx_.eq->schedule(ready, [this, data]() { ctx_.net->unicast(data); });
}

void
HammerMemory::handleUnblock(const Message &msg)
{
    const Addr ba = msg.addr;
    HomeEntry &e = entryFor(ba);
    assert(e.busy && "unblock with no transaction in flight");
    assert(msg.requester == e.pendingRequester);
    if (msg.type == MsgType::unblockExclusive)
        e.owner = msg.requester;
    e.busy = false;
    e.pendingRequester = invalidNode;
    serviceNext(ba);
}

void
HammerMemory::handlePutM(const Message &msg)
{
    const Addr ba = msg.addr;
    HomeEntry &e = entryFor(ba);
    assert(!e.busy);

    // Every M/O line was created through an exclusive unblock, so the
    // last-owner id is authoritative: a writeback from anyone else is
    // stale (its ownership was probed away in flight) and is dropped.
    if (e.owner == msg.requester) {
        store_.write(ba, msg.data);
        dram_.access(ctx_.now());
        e.owner = invalidNode;
    }

    Message ack;
    ack.type = MsgType::wbAck;
    ack.cls = MsgClass::nonData;
    ack.dstUnit = Unit::cache;
    ack.addr = ba;
    ack.dest = msg.requester;
    ack.requester = msg.requester;
    ack.src = id_;
    sendAfter(ctx_.ctrlLatency, ack);
}

void
HammerMemory::serviceNext(Addr addr)
{
    HomeEntry &e = entryFor(addr);
    while (!e.busy && !e.queue.empty()) {
        const Message next = waitPool_.pop(e.queue);
        if (next.type == MsgType::putM)
            handlePutM(next);
        else
            processRequest(next);
    }
}

std::uint64_t
HammerMemory::peekData(Addr addr) const
{
    return store_.read(ctx_.blockAlign(addr));
}

// =====================================================================
// Fast-forward and warm-state snapshots
// =====================================================================

HammerLine *
HammerCache::functionalAlloc(Addr ba, FunctionalEnv &env)
{
    CacheArray<HammerLine>::Victim victim;
    HammerLine *line = l2_.allocate(ba, &victim);
    if (victim.valid) {
        const HammerLine &v = victim.line;
        notifyLineRemoved(v.addr);
        if (v.state == HammerState::M || v.state == HammerState::O) {
            // The PutM, settled: the last-owner filter mirrors the
            // detailed stale-writeback drop.
            auto *mem = static_cast<HammerMemory *>(
                env.memories[ctx_.home(v.addr)]);
            HammerMemory::HomeEntry &e = mem->entryFor(v.addr);
            if (e.owner == id_) {
                mem->store_.write(v.addr, v.data);
                e.owner = invalidNode;
            }
        }
    }
    return line;
}

std::uint64_t
HammerCache::applyFunctional(const ProcRequest &req, FunctionalEnv &env)
{
    const Addr ba = ctx_.blockAlign(req.addr);
    const bool is_store = req.op == MemOp::store;
    assert(outstanding_.empty() && wbBuffer_.empty() &&
           "fast-forward requires a quiescent cache");

    HammerLine *line = l2_.touch(ba);
    const bool hit = line &&
        (is_store ? line->state == HammerState::M
                  : line->state != HammerState::I);
    if (hit) {
        if (is_store) {
            line->data = req.storeValue;
            line->written = true;
            return req.storeValue;
        }
        return line->data;
    }

    auto *mem = static_cast<HammerMemory *>(env.memories[ctx_.home(ba)]);
    HammerMemory::HomeEntry &e = mem->entryFor(ba);
    assert(!e.busy && e.queue.empty() &&
           "fast-forward requires an idle home");

    if (!is_store) {
        // GetS probes every cache; the M/O owner supplies data (a
        // written migratory M owner hands over exclusively), else the
        // speculative memory read wins.
        for (CacheController *c : env.caches) {
            if (c == this)
                continue;
            auto *hc = static_cast<HammerCache *>(c);
            HammerLine *ol = hc->l2_.find(ba);
            if (!ol || (ol->state != HammerState::M &&
                        ol->state != HammerState::O))
                continue;
            const std::uint64_t value = ol->data;
            if (ol->state == HammerState::M && ol->written &&
                params_.migratoryOpt) {
                hc->notifyLineRemoved(ba);
                hc->l2_.invalidate(ba);
                e.owner = id_;   // exclusive unblock
                HammerLine *nl = line ? line : functionalAlloc(ba, env);
                nl->state = HammerState::M;
                nl->written = false;
                nl->data = value;
                return value;
            }
            if (ol->state == HammerState::M)
                ol->state = HammerState::O;
            HammerLine *nl = line ? line : functionalAlloc(ba, env);
            nl->state = HammerState::S;
            nl->written = false;
            nl->data = value;
            return value;
        }
        const std::uint64_t value = mem->store_.read(ba);
        HammerLine *nl = line ? line : functionalAlloc(ba, env);
        nl->state = HammerState::S;
        nl->written = false;
        nl->data = value;
        return value;
    }

    // GetM probes drop every peer copy; we take exclusive ownership.
    for (CacheController *c : env.caches) {
        if (c == this)
            continue;
        auto *hc = static_cast<HammerCache *>(c);
        if (hc->l2_.find(ba)) {
            hc->notifyLineRemoved(ba);
            hc->l2_.invalidate(ba);
        }
    }
    e.owner = id_;   // exclusive unblock

    HammerLine *nl = line ? line : functionalAlloc(ba, env);
    nl->state = HammerState::M;
    nl->written = true;
    nl->data = req.storeValue;
    return req.storeValue;
}

void
HammerCache::encodeWarmState(WireWriter &w) const
{
    if (!quiescent())
        throw WireError("hammer cache has transactions in flight");
    w.varint(l2_.useCounter());
    w.varint(l2_.validCount());
    l2_.forEachValidIndexed(
        [&](std::size_t way, std::uint64_t stamp, const HammerLine &l) {
            w.varint(way);
            w.varint(stamp);
            w.varint(l.addr);
            w.u8(static_cast<std::uint8_t>(l.state));
            w.boolean(l.written);
            w.varint(l.data);
        });
    putStructEnd(w);
}

void
HammerCache::decodeWarmState(WireReader &r)
{
    l2_.setUseCounter(r.varint("l2 use counter"));
    const std::uint64_t count = r.varint("l2 line count");
    if (count > l2_.wayCount())
        throw WireError("l2 line count exceeds the array's ways");
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint64_t way = r.varint("l2 way index");
        const std::uint64_t stamp = r.varint("l2 lru stamp");
        const Addr addr = r.varint("l2 line address");
        const std::uint8_t state = r.u8("hammer line state");
        const bool written = r.boolean("hammer line written");
        const std::uint64_t data = r.varint("hammer line data");
        if (way >= l2_.wayCount())
            throw WireError("l2 way index out of range");
        if (l2_.wayValid(way))
            throw WireError("duplicate l2 way in snapshot");
        if (ctx_.blockAlign(addr) != addr)
            throw WireError("l2 line address not block-aligned");
        if (!l2_.wayMatchesSet(way, addr))
            throw WireError("l2 line mapped to the wrong set");
        if (l2_.contains(addr))
            throw WireError("duplicate l2 block in snapshot");
        if (stamp > l2_.useCounter())
            throw WireError("l2 lru stamp exceeds the use counter");
        if (state < 1 || state > 3)
            throw WireError("invalid hammer line state");
        HammerLine *l = l2_.restoreWay(static_cast<std::size_t>(way),
                                       addr, stamp);
        l->state = static_cast<HammerState>(state);
        l->written = written;
        l->data = data;
    }
    checkStructEnd(r, "hammer cache warm state");
}

void
HammerMemory::encodeWarmState(WireWriter &w) const
{
    std::vector<std::pair<Addr, std::uint64_t>> written;
    for (const auto &[a, v] : store_.blocks()) {
        if (v != BackingStore::initialValue(a))
            written.emplace_back(a, v);
    }
    std::sort(written.begin(), written.end());
    w.varint(written.size());
    for (const auto &[a, v] : written) {
        w.varint(a);
        w.varint(v);
    }

    std::vector<std::pair<Addr, NodeId>> owners;
    for (const auto &[a, e] : entries_) {
        if (e.busy || !e.queue.empty())
            throw WireError("hammer home has transactions in flight");
        if (e.owner != invalidNode)
            owners.emplace_back(a, e.owner);
    }
    std::sort(owners.begin(), owners.end());
    w.varint(owners.size());
    for (const auto &[a, o] : owners) {
        w.varint(a);
        w.varint(o);
    }
    putStructEnd(w);
}

void
HammerMemory::decodeWarmState(WireReader &r)
{
    const std::uint64_t nwritten = r.varint("written block count");
    Addr prev = 0;
    for (std::uint64_t i = 0; i < nwritten; ++i) {
        const Addr a = r.varint("written block address");
        const std::uint64_t v = r.varint("written block value");
        if (ctx_.blockAlign(a) != a)
            throw WireError("written block not block-aligned");
        if (ctx_.home(a) != id_)
            throw WireError("written block homed elsewhere");
        if (i > 0 && a <= prev)
            throw WireError("written blocks not strictly ascending");
        prev = a;
        store_.write(a, v);
    }
    const std::uint64_t nowners = r.varint("owner record count");
    prev = 0;
    for (std::uint64_t i = 0; i < nowners; ++i) {
        const Addr a = r.varint("owner record address");
        const std::uint64_t o = r.varint("owner record node");
        if (ctx_.blockAlign(a) != a)
            throw WireError("owner record not block-aligned");
        if (ctx_.home(a) != id_)
            throw WireError("owner record homed elsewhere");
        if (i > 0 && a <= prev)
            throw WireError("owner records not strictly ascending");
        if (o >= static_cast<std::uint64_t>(ctx_.numNodes))
            throw WireError("owner record names an invalid node");
        prev = a;
        entries_[a].owner = static_cast<NodeId>(o);
    }
    checkStructEnd(r, "hammer memory warm state");
}

} // namespace tokensim
