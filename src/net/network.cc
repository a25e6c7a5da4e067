#include "net/network.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/substrate.hh"
#include "core/token_holders.hh"
#include "sim/log.hh"

namespace tokensim {

Network::Network(EventQueue &eq, std::unique_ptr<Topology> topo,
                 NetworkParams params)
    : eq_(eq), topo_(std::move(topo))
{
    setParams(params);
    endpoints_.assign(static_cast<std::size_t>(topo_->numNodes()),
                      nullptr);
    linkFree_.assign(topo_->links().size(), 0);
    deliveryRing_.resize(deliveryRingSize);
    wanted_.assign(static_cast<std::size_t>(topo_->numNodes()), 0);
}

void
Network::attach(NodeId id, NetworkEndpoint *ep)
{
    assert(id < endpoints_.size());
    endpoints_[id] = ep;
}

void
Network::reset(const NetworkParams &params)
{
    setParams(params);
    std::fill(linkFree_.begin(), linkFree_.end(), 0);
    stats_.clear();
    orderSeq_ = 0;
    // A drained system has no pending deliveries or live slots; clear
    // defensively (the chunks stay pooled either way).
    for (Batch &b : deliveryRing_)
        deliveryPool_.clear(b);
    for (auto &&far : farDeliveries_)
        deliveryPool_.clear(far.second);
    farDeliveries_.clear();
    // Recycle all pool chunks: nothing is in flight in a drained
    // system, so simply rewind the allocation cursor.
    slotCount_ = 0;
    freeHead_ = noSlot;
}

void
Network::setParams(const NetworkParams &params)
{
    if (!params.unlimitedBandwidth) {
        // A rate that is zero, negative, NaN or so small that a delay
        // overflows a Tick would make serializationTicks' cast UB.
        const double worst =
            static_cast<double>(std::max(params.ctrlBytes,
                                         params.dataBytes)) *
            static_cast<double>(ticksPerNs) / params.bytesPerNs;
        if (!(params.bytesPerNs > 0) || !(worst < 0x1p62)) {
            throw std::invalid_argument(strformat(
                "network bytesPerNs must be a positive link bandwidth "
                "(bytes per ns) when bandwidth is limited; got %g",
                params.bytesPerNs));
        }
    }
    params_ = params;
    ctrlSer_ = serializationTicks(params_.ctrlBytes);
    dataSer_ = serializationTicks(params_.dataBytes);
}

Tick
Network::serializationTicks(std::uint32_t bytes) const
{
    if (params_.unlimitedBandwidth)
        return 0;
    return static_cast<Tick>(std::ceil(
        static_cast<double>(bytes) * static_cast<double>(ticksPerNs) /
        params_.bytesPerNs));
}

void
Network::finalize(Message &msg)
{
    msg.size = msg.hasData ? params_.dataBytes : params_.ctrlBytes;
    msg.sentAt = eq_.curTick();
}

void
Network::account(const Message &msg, std::size_t nlinks)
{
    auto &cls = stats_.byClass[static_cast<std::size_t>(msg.cls)];
    ++cls.messages;
    cls.byteLinks += static_cast<std::uint64_t>(msg.size) * nlinks;
    ++stats_.messagesByType[static_cast<std::size_t>(msg.type)];
}

std::uint32_t
Network::acquireSlot(const Message &m)
{
    std::uint32_t s;
    if (freeHead_ != noSlot) {
        s = freeHead_;
        freeHead_ = slotRef(s).nextFree;
    } else {
        s = slotCount_++;
        if ((s >> slotChunkBits) >= slotChunks_.size()) {
            slotChunks_.push_back(
                std::make_unique<TransitSlot[]>(slotChunkSize));
        }
    }
    TransitSlot &slot = slotRef(s);
    slot.msg = m;
    slot.refs = 1;
    return s;
}

void
Network::scheduleDelivery(NodeId dest, std::uint32_t slot, Tick when)
{
    assert(endpoints_[dest] &&
           "message sent to node with no attached endpoint");
    slotAddRef(slot);
    Batch *batch;
    if (when - eq_.curTick() < deliveryRingSize) {
        batch = &deliveryRing_[when & deliveryRingMask];
    } else {
        batch = &farDeliveries_[when];
    }
    // The first delivery landing on this tick schedules the batch's
    // single flush event.
    if (batch->empty())
        eq_.schedule(when, [this, when]() { flushDeliveries(when); });
    deliveryPool_.push(*batch, Delivery{dest, slot});
}

void
Network::flushDeliveries(Tick when)
{
    // Detach the whole batch: a handler may send a message whose
    // delivery lands on this same tick, which opens a fresh batch (and
    // its own flush event) without disturbing this walk.
    Batch batch;
    // Far-map batches flush before any same-tick ring batch: every
    // far entry for this tick was scheduled while the tick was still
    // beyond the ring horizon, i.e. strictly before any ring entry,
    // and its flush event was likewise scheduled first — so checking
    // the far map first preserves exact per-tick scheduling order.
    auto far = farDeliveries_.empty() ? farDeliveries_.end()
                                      : farDeliveries_.find(when);
    if (far != farDeliveries_.end()) {
        batch = far->second;
        farDeliveries_.erase(far);
    } else {
        std::swap(batch, deliveryRing_[when & deliveryRingMask]);
    }
    assert(!batch.empty());
    if (holders_)
        deliverBatch<true>(batch);
    else
        deliverBatch<false>(batch);
}

template <bool SkipIgnored>
void
Network::deliverBatch(Batch &batch)
{
    // The holders of the transient request last looked up. Copies of
    // one message landing on one tick mostly sit next to each other in
    // the batch; such a run shares one lookup unless a handler in
    // between changed the set.
    std::uint32_t memoSlot = noSlot;
    std::uint64_t memoGeneration = 0;
    const std::uint64_t *memoMask = nullptr;
    NodeId memoHome = invalidNode;
    const bool tracing = logging::enabled(logging::Level::trace);
    while (!batch.empty()) {
        const std::uint32_t n = batch.size(batch.head);
        for (std::uint32_t i = 0; i < n; ++i) {
            const Delivery &d = *batch.head->at(i);
            ++stats_.deliveries;
            // Deliver straight out of the pool: chunks keep the slot
            // address stable even if the handler's own sends grow it,
            // and our reference keeps the slot alive until after
            // deliver().
            Message &msg = slotRef(d.slot).msg;
            msg.dest = d.dest;
            stats_.latency.add(
                static_cast<double>(eq_.curTick() - msg.sentAt));
            if (tracing) {
                logging::write(logging::Level::trace, eq_.curTick(), "net",
                               "deliver " + msg.toString());
            }
            if constexpr (SkipIgnored) {
                if (msg.isBroadcast && (msg.type == MsgType::getS ||
                                        msg.type == MsgType::getM)) {
                    if (d.slot != memoSlot ||
                        holders_->generation() != memoGeneration) {
                        memoSlot = d.slot;
                        memoGeneration = holders_->generation();
                        memoMask = holders_->mask(msg.addr);
                        memoHome = holders_->home(msg.addr);
                    }
                    if (d.dest != memoHome &&
                        !TokenHolderSet::test(memoMask, d.dest)) {
                        assert(holders_->cache(d.dest)->tokensHeld(
                                   msg.addr) == 0 &&
                               "skipped a transient request to a holder");
                        slotRelease(d.slot);
                        continue;
                    }
                }
            }
            endpoints_[d.dest]->deliver(msg);
            slotRelease(d.slot);
        }
        deliveryPool_.popChunk(batch);
    }
}

Tick
Network::reserve(LinkId link, Tick at, Tick ser)
{
    const Tick start = std::max(at, linkFree_[link]);
    if (!params_.unlimitedBandwidth)
        linkFree_[link] = start + ser;
    return start + params_.linkLatency;
}

// ---------------------------------------------------------------------
// Unicast (cut-through: reserve the whole path at send time)
// ---------------------------------------------------------------------

Tick
Network::reservePath(Span<LinkId> path, Tick ser)
{
    Tick t = eq_.curTick();
    for (LinkId link : path)
        t = reserve(link, t, ser);
    return t;
}

void
Network::unicast(Message msg)
{
    finalize(msg);
    assert(msg.dest != invalidNode);
    if (msg.dest == msg.src) {
        account(msg, 0);
        const std::uint32_t slot = acquireSlot(msg);
        scheduleDelivery(msg.dest, slot,
                         eq_.curTick() + params_.localDelay);
        slotRelease(slot);
        return;
    }
    const Span<LinkId> path = topo_->route(msg.src, msg.dest);
    account(msg, path.size());
    // One path walk, one delivery event: the tail arrives one
    // serialization delay after the head clears the last link.
    const Tick ser = serialization(msg);
    const Tick head = reservePath(path, ser);
    const std::uint32_t slot = acquireSlot(msg);
    scheduleDelivery(msg.dest, slot, head + ser);
    slotRelease(slot);
}

// ---------------------------------------------------------------------
// Tree forwarding (broadcast / multicast)
// ---------------------------------------------------------------------

void
Network::transmitEdge(std::uint32_t slot, std::uint32_t ei)
{
    const TransitSlot &s = slotRef(slot);
    const TreeEdge &e = topo_->broadcastTree(s.msg.src)[ei];
    const Tick ser = serialization(s.msg);
    const Tick head = reserve(e.link, eq_.curTick(), ser);
    if (s.marks[ei] & edgeDelivers)
        scheduleDelivery(static_cast<NodeId>(e.to), slot, head + ser);
    if (s.marks[ei] & edgeForks) {
        // The fan-out event inherits this call's slot reference.
        eq_.schedule(head, [this, slot, ei]() {
            forward(slot, topo_->broadcastTree(slotRef(slot).msg.src)
                              .children(ei));
        });
    } else {
        slotRelease(slot);
    }
}

void
Network::forward(std::uint32_t slot, Span<std::uint32_t> edges)
{
    for (std::uint32_t ei : edges) {
        if (slotRef(slot).marks[ei] & edgeNeeded) {
            slotAddRef(slot);
            transmitEdge(slot, ei);
        }
    }
    slotRelease(slot);
}

void
Network::multicast(Message msg, const std::vector<NodeId> &dests)
{
    finalize(msg);
    msg.isBroadcast = true;
    bool self = false;
    bool remote = false;
    for (NodeId d : dests) {
        if (d == msg.src) {
            self = true;
        } else {
            wanted_[d] = 1;
            remote = true;
        }
    }
    const std::uint32_t slot = acquireSlot(msg);
    if (remote) {
        // Prune the source's broadcast tree to the routes reaching
        // the wanted nodes; the marks ride in the slot until its last
        // fan-out event.
        TransitSlot &s = slotRef(slot);
        const Tree &tree = topo_->broadcastTree(msg.src);
        s.ownMarks.resize(tree.size());
        s.marks = s.ownMarks.data();
        account(msg, topo_->markMulticast(msg.src, wanted_.data(),
                                          s.ownMarks.data()));
        for (NodeId d : dests)
            wanted_[d] = 0;
        slotAddRef(slot);
        forward(slot, tree.rootEdges());
    } else {
        account(msg, 0);
    }
    if (self) {
        scheduleDelivery(msg.src, slot,
                         eq_.curTick() + params_.localDelay);
    }
    slotRelease(slot);
}

void
Network::broadcast(Message msg)
{
    finalize(msg);
    msg.isBroadcast = true;
    const Tree &tree = topo_->broadcastTree(msg.src);
    account(msg, tree.size());
    const std::uint32_t slot = acquireSlot(msg);
    slotRef(slot).marks = tree.marks.data();
    slotAddRef(slot);
    forward(slot, tree.rootEdges());
    // The sender's own node (cache controller and, if it is the home,
    // memory controller) observes the broadcast locally.
    scheduleDelivery(msg.src, slot, eq_.curTick() + params_.localDelay);
    slotRelease(slot);
}

// ---------------------------------------------------------------------
// Totally-ordered broadcast
// ---------------------------------------------------------------------

void
Network::broadcastOrdered(Message msg)
{
    if (!topo_->totallyOrdered()) {
        throw std::logic_error(
            "broadcastOrdered requires a totally-ordered topology (" +
            topo_->name() + " provides none)");
    }
    finalize(msg);
    msg.isBroadcast = true;

    const Span<LinkId> up = topo_->routeToRoot(msg.src);
    account(msg, up.size());

    // Phase 1: reserve the climb to the root in one cut-through walk.
    // The root receives the full message (head + serialization)
    // before ordering it, so the sequencing event lands one
    // serialization delay after the head clears the last up-link.
    const std::uint32_t slot = acquireSlot(msg);
    if (up.empty()) {
        sequenceAndFanOut(slot);
        return;
    }
    const Tick ser = serialization(msg);
    const Tick at_root = reservePath(up, ser) + ser;
    eq_.schedule(at_root, [this, slot]() { sequenceAndFanOut(slot); });
}

void
Network::sequenceAndFanOut(std::uint32_t slot)
{
    // Phase 2: take the next slot in the global total order and fan
    // out to every node — including the sender. Root-arrival events
    // execute in tick order (FIFO within a tick), which is what
    // serializes racing broadcasts. The climb owns the transit slot
    // exclusively, so the sequence number is stamped in place.
    Message &ordered = slotRef(slot).msg;
    ordered.seq = orderSeq_++;
    const Tree &down = topo_->downTree();
    auto &cls = stats_.byClass[static_cast<std::size_t>(ordered.cls)];
    cls.byteLinks +=
        static_cast<std::uint64_t>(ordered.size) * down.size();

    // Cut-through walk of the whole down tree: reserve every edge
    // (the recurrence is identical to forwarding it edge by edge —
    // tree edges are distinct links, so forward order is the only
    // dependency), then deliver to EVERY node at the latest arrival.
    //
    // Delivering all copies at one tick makes an ordered broadcast
    // atomically visible: the requester's own echo — which is what
    // completes its transaction — can never land before another
    // node's invalidation of the same broadcast. Traditional snooping
    // is built on that property (a store that "performed" while a
    // stale copy was still readable elsewhere violates sequential
    // consistency), and real totally-ordered trees engineer their
    // down paths to provide it. Skewed per-copy delivery only ever
    // worked by accident of per-hop event timing; cut-through
    // reservation made the skew wide enough to expose the race
    // (tests/test_random_coherence.cc soaks catch it immediately).
    // Per-link serialization and occupancy are still charged exactly
    // as before — only the visibility instant is aligned.
    const Tick ser = serialization(ordered);
    const int num_nodes = topo_->numNodes();
    headScratch_.resize(
        static_cast<std::size_t>(topo_->numVertices()));
    headScratch_[static_cast<std::size_t>(topo_->rootVertex())] =
        eq_.curTick();
    Tick latest = 0;
    for (const TreeEdge &e : down) {
        const Tick head = reserve(
            e.link, headScratch_[static_cast<std::size_t>(e.from)], ser);
        headScratch_[static_cast<std::size_t>(e.to)] = head;
        if (e.to < num_nodes)
            latest = std::max(latest, head + ser);
    }
    for (const TreeEdge &e : down) {
        if (e.to < num_nodes)
            scheduleDelivery(static_cast<NodeId>(e.to), slot, latest);
    }
    slotRelease(slot);
}

} // namespace tokensim
