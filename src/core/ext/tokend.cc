#include "core/ext/tokend.hh"

namespace tokensim {

void
TokenDCache::issueTransient(Addr addr, const Transaction &trans,
                            bool reissue)
{
    Message msg;
    msg.type = trans.req.op == MemOp::store ? MsgType::getM
                                            : MsgType::getS;
    msg.cls = reissue ? MsgClass::reissue : MsgClass::request;
    msg.dstUnit = Unit::memory;
    msg.addr = addr;
    msg.dest = ctx_.home(addr);
    msg.requester = id_;
    if (reissue)
        ++stats_.reissueMessages;
    sendAfter(ctx_.ctrlLatency, msg);
}

std::optional<TokenDMemory::SoftView>
TokenDMemory::softState(Addr addr) const
{
    auto it = soft_.find(ctx_.blockAlign(addr));
    if (it == soft_.end())
        return std::nullopt;
    SoftView v;
    v.probableOwner = it->second.probableOwner;
    sharerPool_.forEach(it->second.probableSharers,
                        [&](NodeId s) { v.probableSharers.push_back(s); });
    return v;
}

void
TokenDMemory::handleTransient(const Message &msg)
{
    const Addr ba = msg.addr;
    const NodeId req = msg.requester;
    const bool exclusive = msg.type == MsgType::getM;

    // Memory responds from its own tokens exactly like TokenB.
    TokenBMemory::handleTransient(msg);

    // Soft-state redirection: forward the transient request to every
    // node predicted to hold tokens. The set must include the actual
    // owner for reads to succeed without a reissue, and the owner
    // token can migrate invisibly to the home (a dirty owner answers
    // a redirected read with everything) — but every owner is a past
    // requester, so redirecting to the whole remembered set keeps the
    // common case one-shot. The soft state is still only a hint;
    // stale entries merely cost a reissue. Targets go out in ascending
    // node order.
    SoftState &ss = soft_[ba];
    sharerPool_.copyTo(ss.probableSharers, targets_);
    const auto bit = [](NodeId n) { return std::uint64_t{1} << (n % 64); };
    if (ss.probableOwner != invalidNode)
        targets_[ss.probableOwner / 64] |= bit(ss.probableOwner);
    targets_[req / 64] &= ~bit(req);
    forEachNode(targets_.data(), targets_.size(), [&](NodeId t) {
        Message fwd = msg;
        fwd.src = id_;
        fwd.dest = t;
        fwd.dstUnit = Unit::cache;
        fwd.isBroadcast = false;
        sendAfter(ctx_.ctrlLatency, fwd);
    });

    // Update the prediction: an exclusive requester will soon hold
    // everything; a shared requester joins the holder set (and may
    // become the owner through a migratory handoff).
    if (exclusive) {
        ss.probableOwner = req;
        sharerPool_.clear(ss.probableSharers);
    } else {
        sharerPool_.insert(ss.probableSharers, req);
        if (ss.probableOwner == invalidNode)
            ss.probableOwner = req;
        // Soft state, not a full map: bound the remembered set and
        // let reissues repopulate it after a reset.
        if (sharerPool_.count(ss.probableSharers) > 32)
            sharerPool_.clear(ss.probableSharers);
    }
}

} // namespace tokensim
