/**
 * @file
 * Per-layer host-time tracing for the traced benchmark run.
 *
 * Spans are recorded from outside the library, around the calls the
 * benchmark makes into each layer and around two forwarding wrappers
 * it installs through public seams:
 *   - TimedEndpoint wraps a Node and is attached in its place through
 *     Network::attach, so every controller delivery (including the
 *     sends its handlers issue) becomes a proto.deliver span;
 *   - TimedWorkload wraps a generator and is installed through
 *     SystemConfig::workloadFactory, so every next()/skip() becomes a
 *     workload.next span.
 *
 * Aggregates (count, inclusive time, time covered by child spans) are
 * kept for every span; the first spans are also kept in memory and
 * written out at the end as Chrome trace-event JSON. Spans of one miss
 * share an identifier: the block address and the requesting node.
 */

#ifndef TOKENSIM_PERFBENCH_LAYER_TRACE_HH
#define TOKENSIM_PERFBENCH_LAYER_TRACE_HH

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "harness/system.hh"
#include "net/message.hh"
#include "workload/workload.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Nanoseconds between two steady-clock points. */
inline double
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

/** Every span kind the benchmark records. */
enum class Layer : std::uint8_t
{
    construct,    ///< System constructor
    reset,        ///< System::reset
    fastForward,  ///< System::fastForward
    warmup,       ///< detailed warm-up (event loop up to the edge)
    window,       ///< measured window (event loop after the edge)
    run,          ///< System::run (opaque: sweep shards)
    results,      ///< System::results
    merge,        ///< aggregateResults
    deliver,      ///< Node::deliver through TimedEndpoint
    workload,     ///< Workload::next/skip through TimedWorkload
};

constexpr std::size_t numLayers = 10;

inline const char *
layerName(Layer l)
{
    static const char *const names[numLayers] = {
        "harness.construct", "harness.reset", "harness.fast_forward",
        "harness.warmup", "harness.window", "harness.run",
        "harness.results", "harness.merge", "proto.deliver",
        "workload.next"};
    return names[static_cast<std::size_t>(l)];
}

/** Count, inclusive time, and time covered by direct children. */
struct SpanTotals
{
    std::uint64_t count = 0;
    double totalNs = 0;
    double childNs = 0;

    double selfNs() const { return totalNs - childNs; }
};

/** Span time net of a per-span clock floor (Tracer::floorNs). */
inline double
netNs(const SpanTotals &t, double floor_ns)
{
    return t.totalNs - static_cast<double>(t.count) * floor_ns;
}

/** All aggregates; subtract two snapshots to get one interval. */
struct TraceTotals
{
    std::array<SpanTotals, numLayers> layer{};
    std::array<SpanTotals, tokensim::numMsgClasses> deliverByClass{};

    const SpanTotals &of(Layer l) const
    {
        return layer[static_cast<std::size_t>(l)];
    }

    TraceTotals
    operator-(const TraceTotals &o) const
    {
        TraceTotals d = *this;
        const auto sub = [](SpanTotals &a, const SpanTotals &b) {
            a.count -= b.count;
            a.totalNs -= b.totalNs;
            a.childNs -= b.childNs;
        };
        for (std::size_t i = 0; i < numLayers; ++i)
            sub(d.layer[i], o.layer[i]);
        for (std::size_t i = 0; i < tokensim::numMsgClasses; ++i)
            sub(d.deliverByClass[i], o.deliverByClass[i]);
        return d;
    }
};

/** In-memory span recorder (single-threaded). */
class Tracer
{
  public:
    /**
     * @param keep how many spans to keep for the Chrome trace file:
     * every harness span, plus the first deliver/workload spans after
     * keepLeaves() is called (the measured window's, not the
     * fast-forward's).
     */
    explicit Tracer(std::size_t keep) : origin_(Clock::now()), keep_(keep)
    {
        kept_.reserve(keep);
        stack_.reserve(16);
        std::vector<double> d(1001);
        for (double &x : d) {
            const Clock::time_point a = Clock::now();
            x = nsBetween(a, Clock::now());
        }
        std::nth_element(d.begin(), d.begin() + 500, d.end());
        floorNs_ = d[500];
    }

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Open a span; @p addr/@p node identify the miss (0/-1: none). */
    void
    begin(Layer l, tokensim::Addr addr = 0, std::int32_t node = -1,
          std::uint8_t type = 0, std::uint8_t cls = 0)
    {
        Open o;
        o.layer = l;
        o.cls = cls;
        o.start = Clock::now();
        const bool leaf = l == Layer::deliver || l == Layer::workload;
        if (kept_.size() < keep_ && (keepLeaves_ || !leaf)) {
            o.kept = static_cast<std::int32_t>(kept_.size());
            Span s;
            s.layer = l;
            s.type = type;
            s.node = node;
            s.addr = addr;
            s.parent = stack_.empty() ? -1 : stack_.back().kept;
            s.startNs = nsBetween(origin_, o.start);
            kept_.push_back(s);
        }
        stack_.push_back(o);
    }

    /** Close the innermost open span. */
    void
    end()
    {
        const Clock::time_point now = Clock::now();
        const Open o = stack_.back();
        stack_.pop_back();
        const double dur = nsBetween(o.start, now);
        SpanTotals &t = totals_.layer[static_cast<std::size_t>(o.layer)];
        ++t.count;
        t.totalNs += dur;
        t.childNs += o.childNs;
        if (o.layer == Layer::deliver) {
            SpanTotals &c = totals_.deliverByClass[o.cls];
            ++c.count;
            c.totalNs += dur;
            c.childNs += o.childNs;
        }
        if (!stack_.empty())
            stack_.back().childNs += dur;
        if (o.kept >= 0)
            kept_[static_cast<std::size_t>(o.kept)].durNs = dur;
    }

    /** Set the miss address of the innermost open span (a workload
     *  span learns its address only when next() returns). */
    void
    annotate(tokensim::Addr addr)
    {
        const std::int32_t k = stack_.back().kept;
        if (k >= 0)
            kept_[static_cast<std::size_t>(k)].addr = addr;
    }

    /** Start keeping deliver/workload spans for the trace file. */
    void keepLeaves() { keepLeaves_ = true; }

    const TraceTotals &totals() const { return totals_; }

    /**
     * What an empty span measures (the clock read's own latency, the
     * median of back-to-back reads). Per-call costs subtract it once
     * per span: see netNs().
     */
    double floorNs() const { return floorNs_; }

    /** Write the kept spans as Chrome trace-event JSON. */
    bool
    writeChromeTrace(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "{\"traceEvents\":[\n");
        for (std::size_t i = 0; i < kept_.size(); ++i) {
            const Span &s = kept_[i];
            std::string name = layerName(s.layer);
            if (s.layer == Layer::deliver) {
                name += '.';
                name += tokensim::msgTypeName(
                    static_cast<tokensim::MsgType>(s.type));
            }
            std::fprintf(f,
                         "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                         "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                         "\"args\":{\"span\":%zu,\"parent\":%d",
                         i ? "," : "", name.c_str(),
                         name.substr(0, name.find('.')).c_str(),
                         s.startNs / 1e3, s.durNs / 1e3,
                         s.node < 0 ? 0 : s.node + 1, i, s.parent);
            if (s.node >= 0) {
                std::fprintf(f, ",\"miss\":\"0x%" PRIx64 "@%d\"",
                             static_cast<std::uint64_t>(s.addr), s.node);
            }
            std::fprintf(f, "}}\n");
        }
        std::fprintf(f, "]}\n");
        return std::fclose(f) == 0;
    }

  private:
    struct Open
    {
        Layer layer = Layer::run;
        std::uint8_t cls = 0;
        std::int32_t kept = -1;
        Clock::time_point start;
        double childNs = 0;
    };

    struct Span
    {
        Layer layer = Layer::run;
        std::uint8_t type = 0;
        std::int32_t node = -1;
        tokensim::Addr addr = 0;
        std::int32_t parent = -1;
        double startNs = 0;
        double durNs = 0;
    };

    Clock::time_point origin_;
    double floorNs_ = 0;
    std::size_t keep_;
    bool keepLeaves_ = false;
    std::vector<Open> stack_;
    std::vector<Span> kept_;
    TraceTotals totals_;
};

/** RAII span over a harness call; a null tracer records nothing. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *t, Layer l) : t_(t)
    {
        if (t_)
            t_->begin(l);
    }
    ~ScopedSpan()
    {
        if (t_)
            t_->end();
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer *t_;
};

/**
 * A Node wrapped in a proto.deliver span. Built from the System's
 * public accessors and attached in place of the System's own Node;
 * the System keeps its Node alive, unused, until it is destroyed.
 */
class TimedEndpoint : public tokensim::NetworkEndpoint
{
  public:
    TimedEndpoint(tokensim::System &sys, tokensim::NodeId id, Tracer &t)
        : node_(sys.ctx(), id, &sys.cache(id), &sys.memory(id)), t_(t)
    {}

    void
    deliver(const tokensim::Message &msg) override
    {
        const tokensim::NodeId who =
            msg.requester != tokensim::invalidNode ? msg.requester
                                                   : msg.src;
        t_.begin(Layer::deliver, msg.addr, static_cast<std::int32_t>(who),
                 static_cast<std::uint8_t>(msg.type),
                 static_cast<std::uint8_t>(msg.cls));
        node_.deliver(msg);
        t_.end();
    }

  private:
    tokensim::Node node_;
    Tracer &t_;
};

/** Attach a TimedEndpoint for every node of @p sys. */
inline std::vector<std::unique_ptr<TimedEndpoint>>
attachTimedEndpoints(tokensim::System &sys, Tracer &t)
{
    std::vector<std::unique_ptr<TimedEndpoint>> eps;
    for (int i = 0; i < sys.numNodes(); ++i) {
        const auto id = static_cast<tokensim::NodeId>(i);
        eps.push_back(std::make_unique<TimedEndpoint>(sys, id, t));
        sys.net().attach(id, eps.back().get());
    }
    return eps;
}

/** A workload generator wrapped in workload.next spans. */
class TimedWorkload : public tokensim::Workload
{
  public:
    TimedWorkload(std::unique_ptr<tokensim::Workload> inner,
                  tokensim::NodeId node, Tracer &t)
        : inner_(std::move(inner)), node_(node), t_(t)
    {}

    tokensim::WorkloadOp
    next() override
    {
        t_.begin(Layer::workload, 0, static_cast<std::int32_t>(node_));
        const tokensim::WorkloadOp op = inner_->next();
        t_.annotate(op.addr);
        t_.end();
        return op;
    }

    void
    skip(std::uint64_t n) override
    {
        t_.begin(Layer::workload, 0, static_cast<std::int32_t>(node_));
        inner_->skip(n);
        t_.end();
    }

    std::string name() const override { return inner_->name(); }

  private:
    std::unique_ptr<tokensim::Workload> inner_;
    tokensim::NodeId node_;
    Tracer &t_;
};

} // namespace perfbench

#endif // TOKENSIM_PERFBENCH_LAYER_TRACE_HH
