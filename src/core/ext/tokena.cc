#include "core/ext/tokena.hh"

#include "sim/stats.hh"

namespace tokensim {

TokenACache::TokenACache(ProtoContext &ctx, NodeId id,
                         const ProtocolParams &params,
                         TokenAuditor *auditor, std::uint64_t seed,
                         TokenHolderSet &holders)
    : TokenBCache(ctx, id, params, auditor, seed, holders)
{
    tag_ = strformat("tokena.%u", id);
}

void
TokenACache::sampleUtilization()
{
    const Tick now = ctx_.now();
    if (now < windowStart_ + params_.adaptiveWindow)
        return;
    const std::uint64_t byte_links =
        ctx_.net->traffic().totalByteLinks();
    const Tick elapsed = now - windowStart_;
    // Fraction of aggregate link capacity consumed in the window:
    // byte-links x (ticks per byte) / (links x elapsed ticks).
    const double ticks_per_byte =
        static_cast<double>(ctx_.net->serializationTicks(1));
    const double capacity =
        static_cast<double>(ctx_.net->topology().links().size()) *
        static_cast<double>(elapsed);
    utilization_ = capacity > 0
        ? static_cast<double>(byte_links - windowStartByteLinks_) *
              ticks_per_byte / capacity
        : 0.0;
    windowStart_ = now;
    windowStartByteLinks_ = byte_links;
}

void
TokenACache::issueTransient(Addr addr, const Transaction &trans,
                            bool reissue)
{
    if (reissue) {
        // The fallback stays a broadcast regardless of mode: it must
        // reach every holder.
        TokenBCache::issueTransient(addr, trans, reissue);
        return;
    }

    sampleUtilization();
    if (utilization_ < params_.adaptiveThreshold) {
        ++broadcasts_;
        TokenBCache::issueTransient(addr, trans, reissue);
        return;
    }

    // Bandwidth-scarce mode: TokenD-style unicast to the home, whose
    // soft state redirects toward the probable holders.
    ++unicasts_;
    Message msg;
    msg.type = trans.req.op == MemOp::store ? MsgType::getM
                                            : MsgType::getS;
    msg.cls = MsgClass::request;
    msg.dstUnit = Unit::memory;
    msg.addr = addr;
    msg.dest = ctx_.home(addr);
    msg.requester = id_;
    sendAfter(ctx_.ctrlLatency, msg);
}

} // namespace tokensim
