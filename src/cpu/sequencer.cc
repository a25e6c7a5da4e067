#include "cpu/sequencer.hh"

#include <algorithm>
#include <cassert>

namespace tokensim {

Sequencer::Sequencer(ProtoContext &ctx, NodeId id,
                     CacheController *cache,
                     std::unique_ptr<Workload> workload,
                     const SequencerParams &params,
                     std::uint64_t op_budget, std::uint64_t seed)
    : ctx_(ctx),
      id_(id),
      cache_(cache),
      workload_(std::move(workload)),
      params_(params),
      opBudget_(op_budget),
      rng_(seed),
      l1_(params.l1)
{
    cache_->setCompletionCallback(
        [this](const ProcResponse &resp) { onComplete(resp); });
    cache_->setLineRemovedCallback(
        [this](Addr addr) { onLineRemoved(addr); });
}

void
Sequencer::reset(const SequencerParams &params,
                 std::unique_ptr<Workload> workload,
                 std::uint64_t op_budget, std::uint64_t seed)
{
    params_ = params;
    workload_ = std::move(workload);
    opBudget_ = op_budget;
    rng_ = Rng(seed);
    l1_.clear();
    busyBlocks_.clear();
    outstanding_ = 0;
    issueScheduled_ = false;
    nextIssueAllowed_ = 0;
    nextReqId_ = 1;
    issueLimit_ = ~std::uint64_t{0};
    issuedCtl_ = 0;
    pulledCtl_ = 0;
    completedCtl_ = 0;
    stalled_ = false;
    stalledOp_ = WorkloadOp{};
    milestone_ = 0;
    milestoneCounter_ = nullptr;
    stats_ = SequencerStats{};
}

void
Sequencer::start()
{
    wakeIssuer(ctx_.now() + 1);
}

void
Sequencer::wakeIssuer(Tick when)
{
    if (issueScheduled_)
        return;
    issueScheduled_ = true;
    ctx_.eq->schedule(when, [this]() {
        issueScheduled_ = false;
        tryIssue();
    });
}

void
Sequencer::tryIssue()
{
    while (outstanding_ < params_.maxOutstanding &&
           issuedCtl_ < opBudget_ && issuedCtl_ < issueLimit_) {
        // Think time paces issues: non-memory work between ops.
        if (ctx_.now() < nextIssueAllowed_) {
            wakeIssuer(nextIssueAllowed_);
            return;
        }

        WorkloadOp wop;
        if (stalled_) {
            wop = stalledOp_;
            stalled_ = false;
        } else {
            wop = workload_->next();
            ++pulledCtl_;
        }

        const Addr ba = ctx_.blockAlign(wop.addr);
        if (busyBlocks_.count(ba)) {
            // Same-block conflict: hold this op until the in-flight
            // one completes (the protocols rely on one outstanding
            // operation per block per processor).
            stalled_ = true;
            stalledOp_ = wop;
            return;   // a completion will wake us
        }

        ++issuedCtl_;
        ++stats_.opsIssued;
        if (wop.endsTransaction)
            ++stats_.transactions;
        const Tick think = std::max<Tick>(
            1, rng_.geometric(
                   1.0 / static_cast<double>(params_.thinkMean)));
        nextIssueAllowed_ = ctx_.now() + think;

        // L1 filter: loads that hit complete locally at L1 latency.
        if (params_.l1Enabled && wop.op == MemOp::load) {
            if (l1_.touch(ba)) {
                ++stats_.l1Hits;
                ++outstanding_;
                busyBlocks_.insert(ba);
                ctx_.eq->scheduleIn(params_.l1.latency, [this, ba]() {
                    busyBlocks_.erase(ba);
                    --outstanding_;
                    noteCompleted();
                    stats_.opLatency.add(
                        static_cast<double>(params_.l1.latency));
                    wakeIssuer(ctx_.now() + 1);
                });
                continue;
            }
        }

        // Stores write through; load misses go to the L2 controller.
        ++stats_.l2Accesses;
        ++outstanding_;
        busyBlocks_.insert(ba);
        ProcRequest req;
        req.op = wop.op;
        req.addr = wop.addr;
        req.reqId = nextReqId_++;
        if (wop.op == MemOp::store) {
            // The modeled store value: unique per (node, request).
            req.storeValue =
                (std::uint64_t{id_} << 48) ^ req.reqId;
        }
        if (issueObserver_)
            issueObserver_(id_, req);
        cache_->request(req);
    }
}

void
Sequencer::onComplete(const ProcResponse &resp)
{
    const Addr ba = ctx_.blockAlign(resp.addr);
    assert(busyBlocks_.count(ba));
    busyBlocks_.erase(ba);
    --outstanding_;
    noteCompleted();
    stats_.opLatency.add(
        static_cast<double>(resp.completedAt - resp.issuedAt));
    if (observer_)
        observer_(id_, resp);

    if (params_.l1Enabled) {
        // Fill/refresh the L1 copy (inclusive with the L2).
        if (resp.op == MemOp::load) {
            L1Line *line = l1_.find(ba);
            if (!line) {
                CacheArray<L1Line>::Victim victim;
                line = l1_.allocate(ba, &victim);
                // L1 victims need no action: the L2 is inclusive.
            }
            line->data = resp.value;
        } else if (L1Line *line = l1_.find(ba)) {
            line->data = resp.value;
        }
    }

    wakeIssuer(ctx_.now() + 1);
}

void
Sequencer::onLineRemoved(Addr addr)
{
    if (!params_.l1Enabled)
        return;
    if (l1_.find(addr))
        l1_.invalidate(addr);
}

void
Sequencer::fastForward(std::uint64_t n, FunctionalEnv &env)
{
    assert(outstanding_ == 0 && busyBlocks_.empty() &&
           "fast-forward requires a drained system");
    opBudget_ += n;
    for (std::uint64_t i = 0; i < n; ++i) {
        WorkloadOp wop;
        if (stalled_) {
            wop = stalledOp_;
            stalled_ = false;
        } else {
            wop = workload_->next();
            ++pulledCtl_;
        }
        ++issuedCtl_;

        const Addr ba = ctx_.blockAlign(wop.addr);
        // The L1 filter applies functionally too: a load hit never
        // reaches the protocol in detailed mode, so it must not warm
        // protocol state here either (and it consumes no request id).
        if (params_.l1Enabled && wop.op == MemOp::load &&
            l1_.touch(ba)) {
            ++completedCtl_;
            continue;
        }

        ProcRequest req;
        req.op = wop.op;
        req.addr = wop.addr;
        req.reqId = nextReqId_++;
        if (wop.op == MemOp::store)
            req.storeValue = (std::uint64_t{id_} << 48) ^ req.reqId;
        const std::uint64_t v = cache_->applyFunctional(req, env);

        if (params_.l1Enabled) {
            // Mirror onComplete: loads fill, stores refresh in place.
            // A load only reaches here when the touch() above missed,
            // and nothing below it inserts into this L1 (functional
            // evictions only remove), so the fill needs no re-probe.
            if (wop.op == MemOp::load) {
                CacheArray<L1Line>::Victim victim;
                l1_.allocate(ba, &victim)->data = v;
            } else if (L1Line *line = l1_.find(ba)) {
                line->data = v;
            }
        }
        ++completedCtl_;
    }
}

void
Sequencer::adoptWarmProgress(std::uint64_t warm_ops)
{
    assert(issuedCtl_ == 0 && completedCtl_ == 0 && pulledCtl_ == 0 &&
           "warm progress must be adopted by a freshly reset sequencer");
    opBudget_ += warm_ops;
    pulledCtl_ = warm_ops;
    issuedCtl_ = warm_ops;
    completedCtl_ = warm_ops;
    workload_->skip(warm_ops);
}

std::vector<Addr>
Sequencer::busyBlocks() const
{
    std::vector<Addr> out;
    out.reserve(busyBlocks_.size());
    busyBlocks_.forEach([&out](Addr a) { out.push_back(a); });
    std::sort(out.begin(), out.end());
    return out;
}

void
Sequencer::encodeWarmState(WireWriter &w) const
{
    if (outstanding_ != 0 || stalled_ || !busyBlocks_.empty())
        throw WireError("sequencer has operations in flight");
    w.varint(nextReqId_);
    l1_.encodeWays(w, [](WireWriter &out, const L1Line &line) {
        out.varint(line.data);
    });
    putStructEnd(w);
}

void
Sequencer::decodeWarmState(WireReader &r)
{
    nextReqId_ = r.varint("sequencer nextReqId");
    if (nextReqId_ == 0)
        throw WireError("sequencer nextReqId must be nonzero");
    l1_.decodeWays(r, [](WireReader &in) {
        L1Line line;
        line.data = in.varint("l1 line data");
        return line;
    });
    checkStructEnd(r, "sequencer warm state");
}

} // namespace tokensim
