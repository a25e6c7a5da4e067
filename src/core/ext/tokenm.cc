#include "core/ext/tokenm.hh"

#include "sim/stats.hh"

namespace tokensim {

TokenMCache::TokenMCache(ProtoContext &ctx, NodeId id,
                         const ProtocolParams &params,
                         TokenAuditor *auditor, std::uint64_t seed,
                         TokenHolderSet &holders)
    : TokenBCache(ctx, id, params, auditor, seed, holders),
      predictor_(params.predictorEntries, ctx.blockBytes,
                 ctx.numNodes)
{
    tag_ = strformat("tokenm.%u", id);
}

void
TokenMCache::handleMessage(const Message &msg)
{
    // Train the destination-set predictor on everything we observe:
    // a data-bearing token transfer means the sender was a holder; a
    // shared request means the requester is about to hold a token; an
    // exclusive request means the requester is about to hold *all*
    // tokens (so previous holders drop out of the set).
    switch (msg.type) {
      case MsgType::tokenTransfer:
        if (msg.src != id_ && msg.hasData)
            predictor_.train(msg.addr, msg.src);
        break;
      case MsgType::getS:
        if (msg.requester != id_)
            predictor_.train(msg.addr, msg.requester);
        break;
      case MsgType::getM:
        if (msg.requester != id_)
            predictor_.trainExclusive(msg.addr, msg.requester);
        break;
      default:
        break;
    }
    TokenBCache::handleMessage(msg);
}

void
TokenMCache::issueTransient(Addr addr, const Transaction &trans,
                            bool reissue)
{
    if (reissue) {
        // Mispredicts fall back to TokenB's broadcast, which is
        // guaranteed to reach every token holder.
        ++fallbacks_;
        TokenBCache::issueTransient(addr, trans, reissue);
        return;
    }

    Message msg;
    msg.type = trans.req.op == MemOp::store ? MsgType::getM
                                            : MsgType::getS;
    msg.cls = MsgClass::request;
    msg.dstUnit = Unit::cache;
    msg.addr = addr;
    msg.requester = id_;
    msg.src = id_;

    std::vector<NodeId> dests = predictor_.predict(addr);
    dests.push_back(ctx_.home(addr));   // memory may hold tokens
    ++multicasts_;
    multicastAfter(ctx_.ctrlLatency, msg, std::move(dests));
}

} // namespace tokensim
