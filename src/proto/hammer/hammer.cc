#include "proto/hammer/hammer.hh"

#include <cassert>

namespace tokensim {

// =====================================================================
// HammerCache
// =====================================================================

HammerCache::HammerCache(ProtoContext &ctx, NodeId id,
                         const ProtocolParams &params)
    : MosiCache(ctx, id, strformat("hammer.%u", id), params)
{
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

    // A line whose writeback is in flight answers from the buffer
    // until a GetM takes the ownership; after that the new owner
    // answers, and the buffer only acks.
    auto wit = wbBuffer_.find(ba);
    if (wit != wbBuffer_.end()) {
        if (wit->second.surrendered) {
            respondAck(req, ba);
        } else {
            respondData(req, ba, wit->second.data, exclusive);
            wit->second.surrendered = exclusive;
        }
        return;
    }

    MosiLine *line = l2_.find(ba);
    if (!line) {
        respondAck(req, ba);
        return;
    }

    if (!exclusive) {
        switch (line->state) {
          case MosiState::M:
            if (line->written && params_.migratoryOpt) {
                respondData(req, ba, line->data, true);
                dropLine(ba);
            } else {
                respondData(req, ba, line->data, false);
                line->state = MosiState::O;
            }
            break;
          case MosiState::O:
            respondData(req, ba, line->data, false);
            break;
          default:
            respondAck(req, ba);
            break;
        }
    } else if (line->state == MosiState::S) {
        respondAck(req, ba);
        dropLine(ba);
    } else {
        respondData(req, ba, line->data, true);
        dropLine(ba);
    }
}

void
HammerCache::handleResponse(const Message &msg)
{
    const Addr ba = msg.addr;
    auto it = outstanding_.find(ba);
    assert(it != outstanding_.end() && "response with no transaction");
    Miss &m = it->second;

    // The memory response tells how many cache responses to expect;
    // an owner's data, whenever it comes, wins over memory's (possibly
    // stale) copy.
    if (msg.fromMemoryCtrl) {
        assert(!m.dataReceived && "duplicate memory response");
        m.dataReceived = true;
        m.acksNeeded = msg.ackCount;
        if (!m.cacheToCache)
            m.value = msg.data;
    } else {
        ++m.acksReceived;
        if (msg.hasData) {
            assert(!m.cacheToCache && "two caches supplied data");
            m.cacheToCache = true;
            m.value = msg.data;
            m.exclusive = msg.type == MsgType::dataExclusive;
        }
    }
    maybeComplete(ba);
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

// =====================================================================
// HammerMemory
// =====================================================================

HammerMemory::HammerMemory(ProtoContext &ctx, NodeId id,
                           const ProtocolParams &params)
    : SerialHome(ctx, id, strformat("hammem.%u", id), params)
{
}

void
HammerMemory::processRequest(const Message &msg, SerialEntry &)
{
    // Probe every node immediately — no directory lookup gates it.
    Message probe;
    probe.type = msg.type == MsgType::getM ? MsgType::fwdGetM
                                           : MsgType::fwdGetS;
    probe.cls = MsgClass::request;
    probe.dstUnit = Unit::cache;
    probe.addr = msg.addr;
    probe.requester = msg.requester;
    broadcastAfter(ctx_.ctrlLatency, probe);

    // Speculative memory read proceeds in parallel. Its response also
    // tells the requester how many cache responses to expect.
    sendMemoryData(msg, msg.type == MsgType::getM, ctx_.numNodes - 1);
}

// =====================================================================
// Fast-forward and warm-state snapshots
// =====================================================================

std::uint64_t
HammerCache::applyFunctional(const ProcRequest &req, FunctionalEnv &env)
{
    const Addr ba = ctx_.blockAlign(req.addr);
    assert(quiescent() && "fast-forward requires a quiescent cache");

    MosiLine *line = l2_.touch(ba);
    std::uint64_t value;
    if (applyHit(req, line, value))
        return value;

    auto *mem = static_cast<HammerMemory *>(env.memories[ctx_.home(ba)]);
    SerialEntry &e = mem->entryFor(ba);
    assert(!e.busy && e.queue.empty() &&
           "fast-forward requires an idle home");

    if (req.op == MemOp::load) {
        // GetS probes every cache; the M/O owner supplies data (a
        // written migratory M owner hands over exclusively), else the
        // speculative memory read wins.
        for (CacheController *c : env.caches) {
            if (c == this)
                continue;
            auto *hc = static_cast<HammerCache *>(c);
            MosiLine *ol = hc->l2_.find(ba);
            if (!ol || (ol->state != MosiState::M &&
                        ol->state != MosiState::O))
                continue;
            value = ol->data;
            if (ol->state == MosiState::M && ol->written &&
                params_.migratoryOpt) {
                hc->dropLine(ba);
                e.owner = id_;   // exclusive unblock
                return functionalFill(line, ba, env, MosiState::M, false,
                                      value);
            }
            ol->state = MosiState::O;
            return functionalFill(line, ba, env, MosiState::S, false,
                                  value);
        }
        return functionalFill(line, ba, env, MosiState::S, false,
                              mem->store_.read(ba));
    }

    // GetM probes drop every peer copy; we take exclusive ownership.
    for (CacheController *c : env.caches) {
        auto *hc = static_cast<HammerCache *>(c);
        if (c != this && hc->l2_.find(ba))
            hc->dropLine(ba);
    }
    e.owner = id_;   // exclusive unblock
    return functionalFill(line, ba, env, MosiState::M, true,
                          req.storeValue);
}

void
HammerMemory::encodeWarmState(WireWriter &w) const
{
    requireQuiescent();
    store_.encode(w);
    encodeOwnerRecords(w, entries_);
    putStructEnd(w);
}

void
HammerMemory::decodeWarmState(WireReader &r)
{
    store_.decode(r, [&](Addr a) { return ctx_.home(a) == id_; });
    decodeOwnerRecords(r, entries_, ctx_, id_);
    checkStructEnd(r, "hammer memory warm state");
}

} // namespace tokensim
