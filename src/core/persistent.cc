#include "core/persistent.hh"

#include <algorithm>
#include <cassert>

#include "sim/log.hh"
#include "sim/stats.hh"

namespace tokensim {

void
PersistentArbiter::handleMessage(const Message &msg)
{
    switch (msg.type) {
      case MsgType::persistReq:
        onRequest(msg);
        break;
      case MsgType::persistActAck:
        onActAck(msg);
        break;
      case MsgType::persistDone:
        onDone(msg);
        break;
      case MsgType::persistDeactAck:
        onDeactAck(msg);
        break;
      default:
        assert(false && "non-arbiter message routed to arbiter");
    }
}

void
PersistentArbiter::onRequest(const Message &msg)
{
    ++arbStats_.requestsReceived;
    BlockArb &b = blocks_[msg.addr];

    // Deduplicate: a requester already queued (or active) for this
    // block is not enqueued again.
    if (b.phase != Phase::idle && b.requester == msg.requester)
        return;
    bool queued = false;
    std::uint64_t depth = 1;
    queuePool_.forEach(b.queue, [&](NodeId n) {
        queued = queued || n == msg.requester;
        ++depth;
    });
    if (queued)
        return;

    queuePool_.push(b.queue, msg.requester);
    arbStats_.maxQueueDepth =
        std::max<std::uint64_t>(arbStats_.maxQueueDepth, depth);
    if (b.phase == Phase::idle)
        activateNext(msg.addr, b);
}

void
PersistentArbiter::activateNext(Addr addr, BlockArb &b)
{
    assert(b.phase == Phase::idle);
    if (b.queue.empty())
        return;
    b.requester = queuePool_.pop(b.queue);
    b.phase = Phase::activating;
    b.acksPending = ctx_.numNodes;
    b.doneReceived = false;
    ++arbStats_.activations;
    broadcastArb(b, MsgType::persistActivate, addr, b.requester);
}

void
PersistentArbiter::onActAck(const Message &msg)
{
    auto it = blocks_.find(msg.addr);
    assert(it != blocks_.end());
    BlockArb &b = it->second;
    assert(b.phase == Phase::activating);
    assert(b.acksPending > 0);
    if (--b.acksPending == 0) {
        b.phase = Phase::active;
        // The requester may have satisfied its request while the
        // activation handshake was still completing.
        if (b.doneReceived)
            startDeactivation(msg.addr, b);
    }
}

void
PersistentArbiter::onDone(const Message &msg)
{
    // A requester that completes several operations on the block
    // before the deactivation reaches it can emit duplicate dones;
    // anything not matching the live activation is stale and dropped.
    // (Per-route FIFO delivery guarantees a stale done cannot arrive
    // after the same node's next persistent request.)
    auto it = blocks_.find(msg.addr);
    if (it == blocks_.end())
        return;
    BlockArb &b = it->second;
    if ((b.phase != Phase::activating && b.phase != Phase::active) ||
        msg.requester != b.requester) {
        return;
    }
    if (b.phase == Phase::activating) {
        b.doneReceived = true;   // finish activation acks first
        return;
    }
    startDeactivation(msg.addr, b);
}

void
PersistentArbiter::startDeactivation(Addr addr, BlockArb &b)
{
    b.phase = Phase::deactivating;
    b.acksPending = ctx_.numNodes;
    ++arbStats_.deactivations;
    broadcastArb(b, MsgType::persistDeactivate, addr, b.requester);
}

void
PersistentArbiter::onDeactAck(const Message &msg)
{
    auto it = blocks_.find(msg.addr);
    assert(it != blocks_.end());
    BlockArb &b = it->second;
    assert(b.phase == Phase::deactivating);
    assert(b.acksPending > 0);
    if (--b.acksPending == 0) {
        b.phase = Phase::idle;
        b.requester = invalidNode;
        activateNext(msg.addr, b);
        if (b.phase == Phase::idle && b.queue.empty())
            blocks_.erase(it);
    }
}

void
PersistentArbiter::broadcastArb(BlockArb &b, MsgType type, Addr addr,
                                NodeId requester)
{
    // The per-block handshake phases serialize: the previous broadcast
    // always left before the next one is requested, so the block's
    // single timer handle is free for reuse here.
    assert(!b.bcastTimer.pending() &&
           "overlapping arbiter broadcasts for one block");
    Message msg;
    msg.type = type;
    msg.cls = MsgClass::persistent;
    msg.dstUnit = Unit::cache;
    msg.addr = addr;
    msg.src = id_;
    msg.requester = requester;
    b.bcastTimer.scheduleIn(*ctx_.eq, ctx_.ctrlLatency, [this, msg]() {
        if (logging::enabled(logging::Level::debug)) {
            logging::write(logging::Level::debug, ctx_.now(),
                           strformat("arbiter.%u", id_),
                           "broadcast " + msg.toString());
        }
        ctx_.net->broadcast(msg);
    });
}

} // namespace tokensim
