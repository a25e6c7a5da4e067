#include "core/tokenb.hh"

#include <algorithm>
#include <cassert>
#include <vector>

#include "sim/stats.hh"

namespace tokensim {

// =====================================================================
// TokenBCache
// =====================================================================

TokenBCache::TokenBCache(ProtoContext &ctx, NodeId id,
                         const ProtocolParams &params,
                         TokenAuditor *auditor, std::uint64_t seed,
                         TokenHolderSet &holders)
    : CacheController(ctx, id, strformat("tokenb.%u", id)),
      t_(params.tokensPerBlock > 0 ? params.tokensPerBlock
                                   : ctx.numNodes),
      params_(params),
      auditor_(auditor),
      rng_(seed),
      l2_(ctx.l2),
      holders_(holders),
      avgMissLatency_(0.2)
{
    assert(t_ >= ctx.numNodes &&
           "T must be at least the number of processors");
    holders_.attach(id, this);
}

void
TokenBCache::resetState(const ProtocolParams &params,
                        std::uint64_t seed)
{
    assert(params.tokensPerBlock == params_.tokensPerBlock);
    params_ = params;
    rng_ = Rng(seed);
    l2_.clear();
    // clear() parks value objects like erase() does; disarm any armed
    // reissue timers first (resetState may be driven directly, without
    // the queue-wide EventQueue::reset that would disarm them).
    for (auto entry : outstanding_)
        entry.second.timer.cancel();
    outstanding_.clear();
    persistentTable_.clear();
    persistDoneSent_.clear();
    avgMissLatency_ = Ewma(0.2);
    stats_ = CacheCtrlStats{};
}

void
TokenBCache::request(const ProcRequest &req)
{
    const Addr ba = ctx_.blockAlign(req.addr);
    const bool is_store = req.op == MemOp::store;
    if (is_store)
        ++stats_.stores;
    else
        ++stats_.loads;

    assert(!outstanding_.count(ba) &&
           "sequencer must serialize same-block operations");

    TokenLine *line = l2_.touch(ba);
    const bool hit = line && line->validData &&
        (is_store ? line->tokens == t_ : line->tokens >= 1);
    if (hit) {
        ++stats_.hits;
        ProcResponse resp;
        resp.reqId = req.reqId;
        resp.addr = req.addr;
        resp.op = req.op;
        resp.issuedAt = ctx_.now();
        resp.completedAt = ctx_.now() + ctx_.l2.latency;
        resp.wasMiss = false;
        if (is_store) {
            line->data = req.storeValue;
            line->dirty = true;
            resp.value = req.storeValue;
        } else {
            resp.value = line->data;
        }
        ctx_.eq->scheduleIn(ctx_.l2.latency,
                            [this, resp]() { respond(resp); });
        return;
    }

    ++stats_.misses;
    auto [it, inserted] = outstanding_.emplace(ba);
    assert(inserted);
    Transaction &tr = it->second;
    tr.req = req;
    tr.issuedAt = ctx_.now();
    issueTransient(ba, tr, false);
    scheduleTimeout(ba);
}

void
TokenBCache::issueTransient(Addr addr, const Transaction &trans,
                            bool reissue)
{
    Message msg;
    msg.type = trans.req.op == MemOp::store ? MsgType::getM
                                            : MsgType::getS;
    msg.cls = reissue ? MsgClass::reissue : MsgClass::request;
    msg.dstUnit = Unit::cache;
    msg.addr = addr;
    msg.requester = id_;
    if (reissue)
        ++stats_.reissueMessages;
    if (tracing()) {
        trace(strformat("%s transient %s for %#lx",
                        reissue ? "reissue" : "issue",
                        msgTypeName(msg.type),
                        static_cast<unsigned long>(addr)));
    }

    // Failure injection: performance protocols have no correctness
    // obligations (Section 4.1), so the tests deliberately sabotage
    // this one — dropped or misdirected transient requests must cost
    // only reissues and persistent requests, never coherence.
    if (params_.chaosDropFraction > 0.0 &&
        rng_.chance(params_.chaosDropFraction)) {
        return;   // request "lost"
    }
    if (params_.chaosMisdirectFraction > 0.0 &&
        rng_.chance(params_.chaosMisdirectFraction)) {
        msg.dest = static_cast<NodeId>(
            rng_.below(static_cast<std::uint64_t>(ctx_.numNodes)));
        sendAfter(ctx_.ctrlLatency, msg);
        return;
    }
    broadcastAfter(ctx_.ctrlLatency, msg);
}

void
TokenBCache::handleMessage(const Message &msg)
{
    switch (msg.type) {
      case MsgType::getS:
      case MsgType::getM:
        handleTransient(msg);
        break;
      case MsgType::tokenTransfer:
        handleTokenTransfer(msg);
        break;
      case MsgType::persistActivate:
        handlePersistActivate(msg);
        break;
      case MsgType::persistDeactivate:
        handlePersistDeactivate(msg);
        break;
      default:
        assert(false && "unexpected message at token cache");
    }
}

void
TokenBCache::handleTransient(const Message &msg)
{
    if (msg.requester == id_)
        return;   // our own broadcast echoing back

    const Addr ba = msg.addr;

    // Active persistent requests override performance-protocol
    // policies: tokens for this block are committed to the starving
    // requester, so transient requests are ignored.
    if (persistentTable_.count(ba))
        return;

    TokenLine *line = l2_.find(ba);
    if (!line || line->tokens == 0)
        return;   // state I: ignore all transient requests

    const bool exclusive = msg.type == MsgType::getM;
    const NodeId req = msg.requester;
    const Tick resp_delay = ctx_.ctrlLatency + ctx_.l2.latency;

    if (!exclusive) {
        // Shared request: only the owner responds.
        if (!line->owner)
            return;
        if (line->tokens == t_ && line->dirty && params_.migratoryOpt) {
            // Migratory optimization: a dirty exclusive owner hands
            // over read/write permission (data + all tokens).
            sendTokensFromLine(ba, *line, line->tokens, true, true, req,
                               Unit::cache, MsgClass::data, resp_delay);
        } else if (line->tokens >= 2) {
            // Keep the owner token; share one plain token with data.
            sendTokensFromLine(ba, *line, 1, false, true, req,
                               Unit::cache, MsgClass::data, resp_delay);
        } else {
            // Only the owner token remains; it must travel with data.
            sendTokensFromLine(ba, *line, 1, true, true, req,
                               Unit::cache, MsgClass::data, resp_delay);
        }
    } else {
        // Exclusive request: give up everything. The owner includes
        // data; plain sharers send a dataless token message (like a
        // directory protocol's invalidation acknowledgment).
        const bool with_data = line->owner;
        sendTokensFromLine(ba, *line, line->tokens, line->owner,
                           with_data, req, Unit::cache,
                           with_data ? MsgClass::data : MsgClass::nonData,
                           resp_delay);
    }
}

void
TokenBCache::handleTokenTransfer(const Message &msg)
{
    if (auditor_)
        auditor_->onReceive(msg);

    const Addr ba = msg.addr;

    // Forward everything to an active persistent requester.
    auto pit = persistentTable_.find(ba);
    if (pit != persistentTable_.end() && pit->second != id_) {
        Message fwd = makeTokenMsg(ba, id_, pit->second, Unit::cache,
                                   msg.tokens, msg.ownerToken,
                                   msg.hasData, msg.data,
                                   MsgClass::persistent);
        sendTokenMsg(fwd, ctx_.ctrlLatency);
        return;
    }

    TokenLine *line = l2_.find(ba);
    if (!line) {
        const bool wanted = outstanding_.count(ba) ||
            (pit != persistentTable_.end() && pit->second == id_);
        if (!wanted) {
            // Unsolicited tokens and no room wanted for them:
            // redirect to the home memory (Section 3.1's freedom).
            Message fwd = makeTokenMsg(
                ba, id_, ctx_.home(ba), Unit::memory, msg.tokens,
                msg.ownerToken, msg.hasData, msg.data,
                msg.hasData ? MsgClass::data : MsgClass::nonData);
            sendTokenMsg(fwd, ctx_.ctrlLatency);
            return;
        }
        line = allocLine(ba);
    }

    line->tokens += msg.tokens;
    assert(line->tokens <= t_ && "more than T tokens accumulated");
    if (msg.ownerToken) {
        assert(!line->owner && "owner token duplicated");
        line->owner = true;
    }
    if (msg.hasData) {
        if (line->validData) {
            // All simultaneously-valid copies must agree (safety).
            assert(line->data == msg.data &&
                   "incoherent data copies detected");
        } else {
            line->validData = true;
            line->data = msg.data;
        }
    }

    auto it = outstanding_.find(ba);
    if (it != outstanding_.end()) {
        if (msg.hasData && !msg.fromMemoryCtrl && msg.src != id_)
            it->second.sawCacheData = true;
        checkSatisfied(ba);
    }
}

void
TokenBCache::checkSatisfied(Addr addr)
{
    auto it = outstanding_.find(addr);
    if (it == outstanding_.end())
        return;
    TokenLine *line = l2_.find(addr);
    if (!line || !line->validData)
        return;

    Transaction &tr = it->second;
    const bool is_store = tr.req.op == MemOp::store;
    if (is_store ? line->tokens != t_ : line->tokens < 1)
        return;

    if (is_store) {
        line->data = tr.req.storeValue;
        line->dirty = true;
    }

    ProcResponse resp;
    resp.reqId = tr.req.reqId;
    resp.addr = tr.req.addr;
    resp.op = tr.req.op;
    resp.value = line->data;
    resp.issuedAt = tr.issuedAt;
    resp.completedAt = ctx_.now();
    resp.wasMiss = true;
    resp.cacheToCache = tr.sawCacheData;
    resp.reissues = tr.reissues;
    resp.usedPersistent = tr.persistentIssued;

    const auto latency =
        static_cast<double>(ctx_.now() - tr.issuedAt);
    ++stats_.missesCompleted;
    stats_.missLatency.add(latency);
    stats_.missLatencyHist.add(latency);
    // The adaptive reissue timeout tracks the latency of *ordinary*
    // misses. Folding in persistent-path latencies (which include the
    // timeout chain itself) makes the estimate — and therefore the
    // next timeouts — grow geometrically under contention: a runaway
    // backoff that starves the system. Found by the failure-injection
    // tests.
    if (!tr.persistentIssued)
        avgMissLatency_.add(latency);
    if (tr.sawCacheData)
        ++stats_.cacheToCache;

    // Table 2 classification (mutually exclusive buckets).
    if (tr.persistentIssued)
        ++stats_.missesPersistent;
    else if (tr.reissues == 1)
        ++stats_.missesReissuedOnce;
    else if (tr.reissues >= 2)
        ++stats_.missesReissuedMore;
    else
        ++stats_.missesNotReissued;

    const bool need_done = [&] {
        auto pit = persistentTable_.find(addr);
        return pit != persistentTable_.end() && pit->second == id_;
    }();

    // BlockMap::erase parks the value object in its tombstoned slot
    // instead of destroying it, so disarm the reissue timer here — it
    // must never fire for a completed transaction.
    tr.timer.cancel();
    outstanding_.erase(it);
    if (need_done)
        sendPersistDone(addr);
    respond(resp);
}

Tick
TokenBCache::avgMissTicks() const
{
    if (avgMissLatency_.primed())
        return static_cast<Tick>(avgMissLatency_.value());
    return params_.initialAvgMissLatency;
}

Tick
TokenBCache::timeoutDelay(int reissues_so_far)
{
    const double base = params_.reissueLatencyMultiple *
        static_cast<double>(avgMissTicks());
    // Small randomized exponential backoff, "much like ethernet".
    const double jitter = rng_.uniform() * params_.reissueJitter *
        static_cast<double>(1u << reissues_so_far);
    auto delay = static_cast<Tick>(base * (1.0 + jitter));
    if (delay > params_.maxReissueTimeout)
        delay = params_.maxReissueTimeout;
    return delay > 0 ? delay : 1;
}

void
TokenBCache::scheduleTimeout(Addr addr)
{
    auto it = outstanding_.find(addr);
    assert(it != outstanding_.end());
    Transaction &tr = it->second;
    tr.timer.scheduleIn(*ctx_.eq, timeoutDelay(tr.reissues),
                        [this, addr]() { onTimeout(addr); });
}

void
TokenBCache::onTimeout(Addr addr)
{
    // A fired timer implies a live, non-escalated transaction: the
    // timer is cancelled by completion (Transaction teardown) and by
    // persistent activation, so no stale-dispatch guard is needed.
    auto it = outstanding_.find(addr);
    assert(it != outstanding_.end() &&
           "reissue timer outlived its transaction");
    Transaction &tr = it->second;
    assert(!tr.persistentIssued &&
           "reissue timer armed past persistent escalation");

    if (params_.reissueEnabled && tr.reissues < params_.maxReissues) {
        ++tr.reissues;
        issueTransient(addr, tr, true);
        scheduleTimeout(addr);
    } else {
        invokePersistent(addr, tr);
    }
}

void
TokenBCache::invokePersistent(Addr addr, Transaction &trans)
{
    trans.persistentIssued = true;
    ++stats_.persistentInvocations;
    if (tracing()) {
        trace(strformat("invoke persistent request for %#lx",
                        static_cast<unsigned long>(addr)));
    }
    Message msg;
    msg.type = MsgType::persistReq;
    msg.cls = MsgClass::persistent;
    msg.dstUnit = Unit::arbiter;
    msg.addr = addr;
    msg.dest = ctx_.home(addr);
    msg.requester = id_;
    sendAfter(ctx_.ctrlLatency, msg);
}

void
TokenBCache::sendPersistDone(Addr addr)
{
    // One release per activation: later completions on the same block
    // while the deactivation is still in flight must not re-release.
    if (!persistDoneSent_.insert(addr).second)
        return;
    Message msg;
    msg.type = MsgType::persistDone;
    msg.cls = MsgClass::persistent;
    msg.dstUnit = Unit::arbiter;
    msg.addr = addr;
    msg.dest = ctx_.home(addr);
    msg.requester = id_;
    sendAfter(ctx_.ctrlLatency, msg);
}

void
TokenBCache::handlePersistActivate(const Message &msg)
{
    const Addr ba = msg.addr;
    const NodeId starving = msg.requester;

    assert(!persistentTable_.count(ba) &&
           "arbiter activated two persistent requests for one block");
    persistentTable_[ba] = starving;

    if (starving == id_) {
        auto it = outstanding_.find(ba);
        if (it != outstanding_.end()) {
            // The activation now backs whatever transaction is in
            // flight for this block (it may be a successor of the one
            // that invoked the persistent request). Reissuing is
            // pointless from here on: the substrate guarantees the
            // tokens arrive, so the reissue timer is disarmed.
            it->second.persistentIssued = true;
            it->second.timer.cancel();
        } else {
            // Satisfied before activation completed: release it.
            sendPersistDone(ba);
        }
    } else {
        TokenLine *line = l2_.find(ba);
        if (line && line->tokens > 0) {
            const bool with_data = line->owner;
            sendTokensFromLine(ba, *line, line->tokens, line->owner,
                               with_data, starving, Unit::cache,
                               MsgClass::persistent,
                               ctx_.ctrlLatency + ctx_.l2.latency);
        }
    }

    Message ack;
    ack.type = MsgType::persistActAck;
    ack.cls = MsgClass::persistent;
    ack.dstUnit = Unit::arbiter;
    ack.addr = ba;
    ack.dest = msg.src;
    ack.requester = starving;
    sendAfter(ctx_.ctrlLatency, ack);
}

void
TokenBCache::handlePersistDeactivate(const Message &msg)
{
    persistentTable_.erase(msg.addr);
    persistDoneSent_.erase(msg.addr);

    Message ack;
    ack.type = MsgType::persistDeactAck;
    ack.cls = MsgClass::persistent;
    ack.dstUnit = Unit::arbiter;
    ack.addr = msg.addr;
    ack.dest = msg.src;
    ack.requester = msg.requester;
    sendAfter(ctx_.ctrlLatency, ack);
}

TokenLine *
TokenBCache::allocLine(Addr addr)
{
    CacheArray<TokenLine>::Victim victim;
    TokenLine *line = l2_.allocate(addr, &victim);
    holders_.add(addr, id_);
    if (victim.valid)
        evictVictim(victim.addr, victim.line);
    return line;
}

void
TokenBCache::evictVictim(Addr ba, const TokenLine &victim)
{
    ++stats_.evictions;
    holders_.remove(ba, id_);
    notifyLineRemoved(ba);
    assert(victim.tokens > 0 && "token-less line survived in cache");

    // Tokens (and data, when we are the owner) return to the home —
    // unless a persistent request is active, in which case they are
    // owed to the starving node.
    NodeId dest = ctx_.home(ba);
    Unit unit = Unit::memory;
    MsgClass cls = victim.owner ? MsgClass::data : MsgClass::nonData;
    auto pit = persistentTable_.find(ba);
    if (pit != persistentTable_.end() && pit->second != id_) {
        dest = pit->second;
        unit = Unit::cache;
        cls = MsgClass::persistent;
    }
    Message msg = makeTokenMsg(ba, id_, dest, unit,
                               victim.tokens, victim.owner,
                               victim.owner, victim.data, cls);
    sendTokenMsg(msg, ctx_.ctrlLatency);
}

void
TokenBCache::sendTokensFromLine(Addr ba, TokenLine &line, int count,
                                bool send_owner, bool with_data,
                                NodeId dest, Unit dst_unit, MsgClass cls,
                                Tick delay)
{
    assert(count >= 1 && count <= line.tokens);
    assert(!send_owner || line.owner);
    Message msg = makeTokenMsg(ba, id_, dest, dst_unit, count,
                               send_owner, with_data, line.data, cls);
    line.tokens -= count;
    if (send_owner)
        line.owner = false;
    sendTokenMsg(msg, delay);
    if (line.tokens == 0)
        freeLine(ba);
}

void
TokenBCache::sendTokenMsg(Message msg, Tick delay)
{
    if (auditor_)
        auditor_->onSend(msg);
    if (tracing())
        trace("send " + msg.toString());
    msg.src = id_;
    ctx_.eq->scheduleIn(delay, [this, msg]() { ctx_.net->unicast(msg); });
}

void
TokenBCache::freeLine(Addr ba)
{
    assert(l2_.find(ba)->tokens == 0);
    holders_.remove(ba, id_);
    notifyLineRemoved(ba);
    l2_.invalidate(ba);
}

bool
TokenBCache::hasPermission(Addr addr, MemOp op) const
{
    const TokenLine *line = l2_.find(ctx_.blockAlign(addr));
    if (!line || !line->validData)
        return false;
    return op == MemOp::store ? line->tokens == t_ : line->tokens >= 1;
}

TokenMoesi
TokenBCache::moesiState(Addr addr) const
{
    const TokenLine *line = l2_.find(ctx_.blockAlign(addr));
    if (!line)
        return TokenMoesi::invalid;
    TokenCount tc{line->tokens, line->owner, line->validData};
    return tc.moesi(t_);
}

int
TokenBCache::tokensHeld(Addr block_addr) const
{
    const TokenLine *line = l2_.find(block_addr);
    return line ? line->tokens : 0;
}

bool
TokenBCache::ownerHeld(Addr block_addr) const
{
    const TokenLine *line = l2_.find(block_addr);
    return line && line->owner;
}

std::string
TokenBCache::holderName() const
{
    return strformat("cache.%u", id_);
}

// =====================================================================
// TokenBMemory
// =====================================================================

TokenBMemory::TokenBMemory(ProtoContext &ctx, NodeId id,
                           const ProtocolParams &params,
                           TokenAuditor *auditor)
    : MemoryController(ctx, id, strformat("tokenmem.%u", id)),
      t_(params.tokensPerBlock > 0 ? params.tokensPerBlock
                                   : ctx.numNodes),
      params_(params),
      auditor_(auditor),
      store_(ctx.blockBytes),
      dram_(ctx.dram),
      arbiter_(ctx, id)
{
}

void
TokenBMemory::resetState(const ProtocolParams &params)
{
    assert(params.tokensPerBlock == params_.tokensPerBlock);
    params_ = params;
    store_.clear();
    dram_ = Dram(ctx_.dram);
    arbiter_.reset();
    tokens_.clear();
    persistentTable_.clear();
}

TokenCount &
TokenBMemory::tokensFor(Addr addr)
{
    assert(ctx_.home(addr) == id_ &&
           "memory touched for a block homed elsewhere");
    auto it = tokens_.find(addr);
    if (it == tokens_.end())
        it = tokens_.emplace(addr, TokenCount::all(t_)).first;
    return it->second;
}

void
TokenBMemory::handleMessage(const Message &msg)
{
    switch (msg.type) {
      case MsgType::getS:
      case MsgType::getM:
        handleTransient(msg);
        break;
      case MsgType::tokenTransfer:
        handleTokenTransfer(msg);
        break;
      case MsgType::persistActivate:
        handlePersistActivate(msg);
        break;
      case MsgType::persistDeactivate:
        handlePersistDeactivate(msg);
        break;
      case MsgType::persistReq:
      case MsgType::persistActAck:
      case MsgType::persistDone:
      case MsgType::persistDeactAck:
        arbiter_.handleMessage(msg);
        break;
      default:
        assert(false && "unexpected message at token memory");
    }
}

void
TokenBMemory::handleTransient(const Message &msg)
{
    const Addr ba = msg.addr;
    if (persistentTable_.count(ba))
        return;   // tokens are owed to a starving node

    TokenCount &tc = tokensFor(ba);
    if (tc.count == 0)
        return;

    const NodeId req = msg.requester;
    if (msg.type == MsgType::getS) {
        if (!tc.owner)
            return;   // some cache owns it and will respond
        if (tc.count >= 2) {
            sendFromMemory(ba, tc, 1, false, true, req, MsgClass::data);
        } else {
            sendFromMemory(ba, tc, 1, true, true, req, MsgClass::data);
        }
    } else {
        const bool with_data = tc.owner;
        sendFromMemory(ba, tc, tc.count, tc.owner, with_data, req,
                       with_data ? MsgClass::data : MsgClass::nonData);
    }
}

void
TokenBMemory::handleTokenTransfer(const Message &msg)
{
    if (auditor_)
        auditor_->onReceive(msg);

    const Addr ba = msg.addr;

    auto pit = persistentTable_.find(ba);
    if (pit != persistentTable_.end()) {
        // Tokens arriving while a persistent request is active are
        // forwarded onward to the starving node.
        Message fwd = makeTokenMsg(ba, id_, pit->second, Unit::cache,
                                   msg.tokens, msg.ownerToken,
                                   msg.hasData, msg.data,
                                   MsgClass::persistent);
        fwd.fromMemoryCtrl = true;
        if (auditor_)
            auditor_->onSend(fwd);
        ctx_.eq->scheduleIn(ctx_.ctrlLatency, [this, fwd]() {
            ctx_.net->unicast(fwd);
        });
        return;
    }

    TokenCount &tc = tokensFor(ba);
    tc.absorb(msg.tokens, msg.ownerToken, msg.hasData);
    assert(tc.sane(t_));
    if (msg.hasData) {
        store_.write(ba, msg.data);
        dram_.access(ctx_.now());
    }
}

void
TokenBMemory::handlePersistActivate(const Message &msg)
{
    const Addr ba = msg.addr;
    assert(!persistentTable_.count(ba));
    persistentTable_[ba] = msg.requester;

    TokenCount &tc = tokensFor(ba);
    if (tc.count > 0) {
        const bool with_data = tc.owner;
        sendFromMemory(ba, tc, tc.count, tc.owner, with_data,
                       msg.requester, MsgClass::persistent);
    }
}

void
TokenBMemory::handlePersistDeactivate(const Message &msg)
{
    persistentTable_.erase(msg.addr);
}

void
TokenBMemory::sendFromMemory(Addr addr, TokenCount &tc, int count,
                             bool send_owner, bool with_data,
                             NodeId dest, MsgClass cls)
{
    Message msg = makeTokenMsg(addr, id_, dest, Unit::cache, count,
                               send_owner, with_data, store_.read(addr),
                               cls);
    msg.fromMemoryCtrl = true;
    tc.release(count, send_owner);
    if (auditor_)
        auditor_->onSend(msg);
    // Tokens live in ECC bits of DRAM: memory responses — data or
    // dataless — pay the DRAM access latency.
    const Tick ready = dram_.access(ctx_.now() + ctx_.ctrlLatency);
    ctx_.eq->schedule(ready, [this, msg]() { ctx_.net->unicast(msg); });
}

std::uint64_t
TokenBMemory::peekData(Addr addr) const
{
    return store_.read(ctx_.blockAlign(addr));
}

TokenCount
TokenBMemory::tokenState(Addr addr) const
{
    auto it = tokens_.find(addr);
    if (it != tokens_.end())
        return it->second;
    if (ctx_.home(addr) == id_)
        return TokenCount::all(t_);
    return TokenCount{};
}

int
TokenBMemory::tokensHeld(Addr block_addr) const
{
    return tokenState(block_addr).count;
}

bool
TokenBMemory::ownerHeld(Addr block_addr) const
{
    return tokenState(block_addr).owner;
}

std::string
TokenBMemory::holderName() const
{
    return strformat("memory.%u", id_);
}

// =====================================================================
// Fast-forward and warm-state snapshots
// =====================================================================

TokenLine *
TokenBCache::functionalAlloc(Addr ba, FunctionalEnv &env)
{
    CacheArray<TokenLine>::Victim victim;
    TokenLine *line = l2_.allocate(ba, &victim);
    holders_.add(ba, id_);
    if (victim.valid) {
        const Addr va = victim.addr;
        const TokenLine &v = victim.line;
        assert(v.tokens > 0 && "token-less line survived in cache");
        holders_.remove(va, id_);
        notifyLineRemoved(va);
        // The eviction token message, delivered: the home absorbs the
        // tokens (data travels iff we own — invariant #4'). The home's
        // holding must already be materialized: tokens can only have
        // reached this cache through it.
        auto *mem = static_cast<TokenBMemory *>(
            env.memories[ctx_.home(va)]);
        TokenCount &tc = mem->tokensFor(va);
        tc.absorb(v.tokens, v.owner, v.owner);
        assert(tc.sane(t_));
        if (v.owner)
            mem->store_.write(va, v.data);
    }
    return line;
}

std::uint64_t
TokenBCache::applyFunctional(const ProcRequest &req, FunctionalEnv &env)
{
    const Addr ba = ctx_.blockAlign(req.addr);
    const bool is_store = req.op == MemOp::store;
    assert(outstanding_.empty() && persistentTable_.empty() &&
           "fast-forward requires a quiescent cache");
    if (auditor_)
        auditor_->touch(ba);

    TokenLine *line = l2_.touch(ba);
    const bool hit = line && line->validData &&
        (is_store ? line->tokens == t_ : line->tokens >= 1);
    if (hit) {
        if (is_store) {
            line->data = req.storeValue;
            line->dirty = true;
            return req.storeValue;
        }
        return line->data;
    }

    auto *mem = static_cast<TokenBMemory *>(env.memories[ctx_.home(ba)]);

    // Token conservation makes the home record an O(1) oracle for
    // where the peer scans can stop: the owner token is either in a
    // cache line or folded into the home's TokenCount, and tokens the
    // home still holds cannot be in any peer. Both short-circuits
    // skip only peers that provably hold nothing for this block, so
    // the resulting state is bit-identical to the full scans.
    const TokenCount memView = mem->tokenState(ba);

    // When a scan is unavoidable, the token-holder set bounds it to
    // the caches that actually hold the block. The probe order can
    // differ from a walk over every peer, but the outcome cannot: GetS
    // takes from the unique owner wherever it sits, and GetM drains
    // every actual holder (conservation pins their token total), so
    // the resulting state is bit-identical either way.
    if (!is_store) {
        // GetS: the owner — a cache line holding the owner token, else
        // the home memory — responds exactly as handleTransient would;
        // the transfer settles atomically.
        int gotTokens = 0;
        bool gotOwner = false;
        std::uint64_t value = 0;
        TokenBCache *ownerCache = nullptr;
        TokenLine *ownerLine = nullptr;
        if (!memView.owner) {
            holders_.forEach(holders_.mask(ba), [&](NodeId id) {
                if (id == id_)
                    return true;
                auto *tc = static_cast<TokenBCache *>(env.caches[id]);
                TokenLine *l = tc->l2_.find(ba);
                assert(l && "holder set lists a cache with no line");
                if (!l->owner)
                    return true;
                ownerCache = tc;
                ownerLine = l;
                return false;
            });
            assert(ownerLine &&
                   "owner neither at home nor in any cache");
        }
        if (ownerLine) {
            value = ownerLine->data;
            if (ownerLine->tokens == t_ && ownerLine->dirty &&
                params_.migratoryOpt) {
                // Migratory: data + all tokens + owner.
                gotTokens = ownerLine->tokens;
                gotOwner = true;
            } else if (ownerLine->tokens >= 2) {
                gotTokens = 1;   // one plain token, owner kept
            } else {
                gotTokens = 1;   // the owner token itself, with data
                gotOwner = true;
            }
            ownerLine->tokens -= gotTokens;
            if (gotOwner)
                ownerLine->owner = false;
            if (ownerLine->tokens == 0)
                ownerCache->freeLine(ba);
        } else {
            TokenCount &tc = mem->tokensFor(ba);
            assert(tc.owner &&
                   "no owner anywhere for a quiescent block");
            const bool send_owner = tc.count < 2;
            tc.release(1, send_owner);
            gotTokens = 1;
            gotOwner = send_owner;
            value = mem->store_.read(ba);
        }
        TokenLine *nl = line ? line : functionalAlloc(ba, env);
        nl->tokens += gotTokens;
        assert(nl->tokens <= t_);
        if (gotOwner) {
            assert(!nl->owner && "owner token duplicated");
            nl->owner = true;
        }
        if (!nl->validData) {
            nl->validData = true;
            nl->data = value;
        } else {
            assert(nl->data == value &&
                   "incoherent data copies detected");
        }
        return nl->data;
    }

    // GetM: gather every token in the system — each peer holding any
    // gives up everything (the owner's travel with data), and so does
    // the home. Peers can hold only what neither we nor the home do;
    // once that many have been collected, the remaining peers provably
    // hold nothing and the scan stops.
    int inPeers = t_ - (line ? line->tokens : 0) - memView.count;
    assert(inPeers >= 0);
    const auto gatherFrom = [&](TokenBCache *tc) {
        TokenLine *l = tc->l2_.find(ba);
        assert(l && l->tokens > 0 &&
               "holder set lists a cache with no tokens");
        const int n = l->tokens;
        const bool owner = l->owner;
        l->tokens = 0;
        l->owner = false;
        tc->freeLine(ba);
        TokenLine *nl = line ? line : functionalAlloc(ba, env);
        line = nl;
        nl->tokens += n;
        inPeers -= n;
        if (owner) {
            assert(!nl->owner);
            nl->owner = true;
        }
    };
    if (inPeers > 0) {
        // Draining a holder frees its line, which edits the set: walk
        // a copy of the mask.
        const std::uint64_t *m = holders_.mask(ba);
        assert(m && "peers hold tokens but the holder set is empty");
        gatherMask_.assign(m, m + holders_.words());
        holders_.forEach(gatherMask_.data(), [&](NodeId id) {
            if (id != id_)
                gatherFrom(static_cast<TokenBCache *>(env.caches[id]));
            return inPeers > 0;
        });
        assert(inPeers == 0);
    }
    {
        TokenCount &tc = mem->tokensFor(ba);
        if (tc.count > 0) {
            const int n = tc.count;
            const bool owner = tc.owner;
            tc.release(n, owner);
            TokenLine *nl = line ? line : functionalAlloc(ba, env);
            line = nl;
            line->tokens += n;
            if (owner) {
                assert(!line->owner);
                line->owner = true;
            }
        }
    }
    assert(line && line->tokens == t_ && line->owner &&
           "store gathered fewer than T tokens");
    line->validData = true;
    line->dirty = true;
    line->data = req.storeValue;
    return req.storeValue;
}

void
TokenBCache::encodeWarmState(WireWriter &w) const
{
    if (!quiescent() || !persistentTable_.empty() ||
        !persistDoneSent_.empty())
        throw WireError("token cache has transactions in flight");
    l2_.encodeWays(w, [](WireWriter &out, const TokenLine &l) {
        out.varint(static_cast<std::uint64_t>(l.tokens));
        out.boolean(l.owner);
        out.boolean(l.validData);
        out.boolean(l.dirty);
        out.varint(l.data);
    });
    putStructEnd(w);
}

void
TokenBCache::decodeWarmState(WireReader &r)
{
    l2_.decodeWays(
        r,
        [&](WireReader &in) {
            TokenLine l;
            const std::uint64_t tokens = in.varint("token line count");
            l.owner = in.boolean("token line owner");
            l.validData = in.boolean("token line validData");
            l.dirty = in.boolean("token line dirty");
            l.data = in.varint("token line data");
            if (tokens < 1 || tokens > static_cast<std::uint64_t>(t_))
                throw WireError("token count outside [1, T]");
            l.tokens = static_cast<int>(tokens);
            return l;
        },
        [&](Addr ba, const TokenLine &) {
            holders_.add(ba, id_);
            if (auditor_)
                auditor_->touch(ba);
        });
    checkStructEnd(r, "token cache warm state");
}

void
TokenBMemory::encodeWarmState(WireWriter &w) const
{
    if (!persistentTable_.empty() || !arbiter_.quiescent())
        throw WireError("token memory has persistent activity");
    store_.encode(w);

    // Holdings that still equal the initial all-T state are omitted:
    // tokensFor() rematerializes them on demand, so the snapshot stays
    // canonical whether or not they were ever touched.
    std::vector<Addr> live;
    for (const auto &[a, tc] : tokens_) {
        if (tc.count != t_ || !tc.owner || !tc.valid)
            live.push_back(a);
    }
    std::sort(live.begin(), live.end());
    w.varint(live.size());
    for (Addr a : live) {
        const TokenCount &tc = tokens_.find(a)->second;
        w.varint(a);
        w.varint(static_cast<std::uint64_t>(tc.count));
        w.boolean(tc.owner);
        w.boolean(tc.valid);
    }
    putStructEnd(w);
}

void
TokenBMemory::decodeWarmState(WireReader &r)
{
    store_.decode(r, [&](Addr a) { return ctx_.home(a) == id_; });
    const std::uint64_t nlive = r.varint("token holding count");
    Addr prev = 0;
    for (std::uint64_t i = 0; i < nlive; ++i) {
        const Addr a = r.varint("token holding address");
        const std::uint64_t count = r.varint("token holding tokens");
        const bool owner = r.boolean("token holding owner");
        const bool valid = r.boolean("token holding valid");
        if (ctx_.blockAlign(a) != a)
            throw WireError("token holding not block-aligned");
        if (ctx_.home(a) != id_)
            throw WireError("token holding homed elsewhere");
        if (i > 0 && a <= prev)
            throw WireError("token holdings not strictly ascending");
        prev = a;
        TokenCount tc;
        tc.count = static_cast<int>(count);
        tc.owner = owner;
        tc.valid = valid;
        if (count > static_cast<std::uint64_t>(t_) || !tc.sane(t_))
            throw WireError("token holding violates invariants");
        tokens_.emplace(a, tc);
        if (auditor_)
            auditor_->touch(a);
    }
    checkStructEnd(r, "token memory warm state");
}

} // namespace tokensim
