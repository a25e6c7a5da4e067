/**
 * @file
 * Unit tests for the tree and torus topologies: route lengths,
 * Figure 1's latency claims (four crossings on the tree, two on
 * average for the 4x4 torus), broadcast-tree structure, multicast
 * pruning, and byte-for-byte fingerprints of every route and tree.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "net/topology.hh"
#include "sim/random.hh"

namespace tokensim {
namespace {

/** Edges of broadcastTree(s) that markMulticast() marks needed. */
std::vector<TreeEdge>
multicastEdges(const Topology &t, NodeId s,
               const std::vector<NodeId> &dests)
{
    std::vector<std::uint8_t> want(
        static_cast<std::size_t>(t.numNodes()), 0);
    for (NodeId d : dests)
        want[d] = d != s;
    const Tree &tree = t.broadcastTree(s);
    std::vector<std::uint8_t> bits(tree.size());
    const std::size_t n = t.markMulticast(s, want.data(), bits.data());
    std::vector<TreeEdge> edges;
    for (std::size_t i = 0; i < tree.size(); ++i) {
        if (bits[i] & edgeNeeded)
            edges.push_back(tree[i]);
    }
    EXPECT_EQ(edges.size(), n);
    return edges;
}

TEST(TreeTopology, EveryUnicastIsFourCrossings)
{
    TreeTopology t(16, 4);
    for (NodeId s = 0; s < 16; ++s) {
        for (NodeId d = 0; d < 16; ++d) {
            if (s == d)
                continue;
            EXPECT_EQ(t.hops(s, d), 4) << "s=" << s << " d=" << d;
        }
    }
    EXPECT_DOUBLE_EQ(t.averageHops(), 4.0);
}

TEST(TreeTopology, SwitchCount)
{
    // 16 procs, fan-out 4: 4 in-switches + root + 4 out-switches.
    TreeTopology t(16, 4);
    EXPECT_EQ(t.numNodes(), 16);
    EXPECT_EQ(t.numVertices(), 16 + 9);
    EXPECT_TRUE(t.totallyOrdered());
    EXPECT_GE(t.rootVertex(), 16);
}

TEST(TreeTopology, RouteClimbsThroughRoot)
{
    TreeTopology t(16, 4);
    const auto &r = t.route(0, 15);
    ASSERT_EQ(r.size(), 4u);
    // Second link must end at the root.
    EXPECT_EQ(t.links()[r[1]].to, t.rootVertex());
    EXPECT_EQ(t.links()[r[2]].from, t.rootVertex());
}

TEST(TreeTopology, DownTreeReachesEveryNode)
{
    TreeTopology t(16, 4);
    std::set<int> reached;
    for (const TreeEdge &e : t.downTree()) {
        if (e.to < t.numNodes())
            reached.insert(e.to);
    }
    EXPECT_EQ(reached.size(), 16u);
    // 4 root->out links + 16 out->proc links.
    EXPECT_EQ(t.downTree().size(), 20u);
}

TEST(TreeTopology, RouteToRootMatchesPrefix)
{
    TreeTopology t(16, 4);
    for (NodeId s = 0; s < 16; ++s) {
        const auto &up = t.routeToRoot(s);
        ASSERT_EQ(up.size(), 2u);
        EXPECT_EQ(t.links()[up[1]].to, t.rootVertex());
        // The up-path is the prefix of any unicast route.
        const auto &r = t.route(s, (s + 1) % 16);
        EXPECT_EQ(r[0], up[0]);
        EXPECT_EQ(r[1], up[1]);
    }
}

TEST(TreeTopology, OddNodeCounts)
{
    TreeTopology t(6, 4);   // two groups
    EXPECT_EQ(t.numVertices(), 6 + 2 * 2 + 1);
    for (NodeId s = 0; s < 6; ++s) {
        for (NodeId d = 0; d < 6; ++d) {
            if (s != d) {
                EXPECT_EQ(t.hops(s, d), 4);
            }
        }
    }
}

TEST(TorusTopology, AverageHopsMatchesFigure1)
{
    // Figure 1b: the 4x4 torus averages two link crossings.
    TorusTopology t(4, 4);
    EXPECT_FALSE(t.totallyOrdered());
    // Distances in a 4-ring: 0,1,2,1 -> mean over x and y offsets
    // excluding (0,0): (sum over all 16 pairs of dx+dy) / 15.
    // sum_dx over 4 values = 4, so total = 4*4 + 4*4 = 32; 32/15.
    EXPECT_NEAR(t.averageHops(), 32.0 / 15.0, 1e-9);
}

TEST(TorusTopology, HopsAreShortestWrapDistance)
{
    TorusTopology t(4, 4);
    // Node 0 = (0,0); node 3 = (3,0) is one wrap-hop away.
    EXPECT_EQ(t.hops(0, 3), 1);
    // (2,2) from (0,0): 2 + 2.
    EXPECT_EQ(t.hops(0, 10), 4);
    // Symmetry.
    for (NodeId s = 0; s < 16; ++s) {
        for (NodeId d = 0; d < 16; ++d) {
            if (s != d) {
                EXPECT_EQ(t.hops(s, d), t.hops(d, s));
            }
        }
    }
}

TEST(TorusTopology, LinkCount)
{
    // 4x4 bidirectional torus: 4 directed links per node.
    TorusTopology t(4, 4);
    EXPECT_EQ(t.links().size(), 16u * 4u);
}

TEST(TorusTopology, BroadcastTreeSpansAllNodesOnce)
{
    TorusTopology t(4, 4);
    for (NodeId s = 0; s < 16; ++s) {
        const auto &edges = t.broadcastTree(s);
        // A spanning tree reaching 15 other nodes uses exactly 15
        // links (each link carries one copy - bandwidth-efficient
        // multicast).
        EXPECT_EQ(edges.size(), 15u);
        std::set<int> reached;
        std::set<int> visited{static_cast<int>(s)};
        for (const TreeEdge &e : edges) {
            // Forward order: parent reached before child.
            EXPECT_TRUE(visited.count(e.from));
            visited.insert(e.to);
            EXPECT_FALSE(reached.count(e.to)) << "duplicate delivery";
            reached.insert(e.to);
        }
        EXPECT_EQ(reached.size(), 15u);
    }
}

TEST(TorusTopology, MulticastTreePrunes)
{
    TorusTopology t(4, 4);
    const std::vector<NodeId> dests{1, 2};
    const auto edges = multicastEdges(t, 0, dests);
    // Destinations 1=(1,0) and 2=(2,0) share the first row link.
    EXPECT_EQ(edges.size(), 2u);
}

TEST(TorusTopology, MulticastToAllEqualsBroadcast)
{
    TorusTopology t(4, 4);
    std::vector<NodeId> all;
    for (NodeId n = 0; n < 16; ++n)
        all.push_back(n);
    EXPECT_EQ(multicastEdges(t, 3, all).size(),
              t.broadcastTree(3).size());
}

TEST(TorusTopology, RectangularShapes)
{
    TorusTopology t(4, 2);   // 8 nodes
    EXPECT_EQ(t.numNodes(), 8);
    for (NodeId s = 0; s < 8; ++s)
        EXPECT_EQ(t.broadcastTree(s).size(), 7u);
}

TEST(TorusTopology, MakeSquareFactorsNodeCount)
{
    std::unique_ptr<TorusTopology> t4(TorusTopology::makeSquare(4));
    EXPECT_EQ(t4->kx() * t4->ky(), 4);
    std::unique_ptr<TorusTopology> t8(TorusTopology::makeSquare(8));
    EXPECT_EQ(t8->kx() * t8->ky(), 8);
    std::unique_ptr<TorusTopology> t64(TorusTopology::makeSquare(64));
    EXPECT_EQ(t64->kx(), 8);
    EXPECT_EQ(t64->ky(), 8);
}

TEST(TorusTopology, BroadcastCostGrowsLinearlyUnicastAsSqrtN)
{
    // Footnote 4 / Question 5: broadcast cost on a torus is Theta(n)
    // link crossings while unicast grows as Theta(sqrt n) - the root
    // of TokenB's bandwidth scaling limit.
    std::unique_ptr<TorusTopology> small(TorusTopology::makeSquare(16));
    std::unique_ptr<TorusTopology> big(TorusTopology::makeSquare(64));
    EXPECT_EQ(small->broadcastTree(0).size(), 15u);
    EXPECT_EQ(big->broadcastTree(0).size(), 63u);
    EXPECT_NEAR(big->averageHops() / small->averageHops(), 2.0, 0.15);
}

TEST(TopologyFactory, ByName)
{
    std::unique_ptr<Topology> tree(makeTopology("tree", 16));
    EXPECT_TRUE(tree->totallyOrdered());
    std::unique_ptr<Topology> torus(makeTopology("torus", 16));
    EXPECT_FALSE(torus->totallyOrdered());
    EXPECT_THROW(makeTopology("ring", 16), std::invalid_argument);
}

// ---------------------------------------------------------------------
// Kilonode smokes: the structural invariants must hold at the 1024-
// node tier the multi-tenant sweeps run at, not just at 4x4.
// ---------------------------------------------------------------------

TEST(TorusTopology, KilonodeSquareBroadcastAndHops)
{
    std::unique_ptr<TorusTopology> t(TorusTopology::makeSquare(1024));
    EXPECT_EQ(t->kx(), 32);
    EXPECT_EQ(t->ky(), 32);
    // Shortest wrap distance caps at kx/2 + ky/2.
    for (NodeId d : {NodeId{1}, NodeId{31}, NodeId{512},
                     NodeId{1023}}) {
        EXPECT_LE(t->hops(0, d), 32);
        EXPECT_GE(t->hops(0, d), 1);
    }
    // Spanning broadcast from a few scattered roots.
    for (NodeId s : {NodeId{0}, NodeId{511}, NodeId{1023}}) {
        const auto &edges = t->broadcastTree(s);
        ASSERT_EQ(edges.size(), 1023u);
        std::set<int> reached;
        for (const TreeEdge &e : edges)
            reached.insert(e.to);
        EXPECT_EQ(reached.size(), 1023u);
        EXPECT_FALSE(reached.count(static_cast<int>(s)));
    }
}

TEST(TreeTopology, KilonodeTreeStaysOrderedWithUniformDepth)
{
    TreeTopology t(1024, 4);
    EXPECT_TRUE(t.totallyOrdered());
    EXPECT_EQ(t.numNodes(), 1024);
    // Every unicast between distinct nodes still climbs through the
    // ordering root in a bounded number of crossings.
    int max_hops = 0;
    for (NodeId d : {NodeId{1}, NodeId{255}, NodeId{256},
                     NodeId{1023}}) {
        max_hops = std::max(max_hops, t.hops(0, d));
        EXPECT_GE(t.hops(0, d), 2);
    }
    EXPECT_LE(max_hops, 12);
    std::set<int> reached;
    for (const TreeEdge &e : t.downTree()) {
        if (e.to < t.numNodes())
            reached.insert(e.to);
    }
    EXPECT_EQ(reached.size(), 1024u);
}

// ---------------------------------------------------------------------
// Fingerprints. Every link, route, broadcast tree (edge, from, to,
// depth and child order), down tree and climb to the root, hashed with
// FNV-1a over 32-bit little-endian words. The constants pin the
// routing the simulator's golden digests were recorded on: any change
// to link numbering, route choice or tree order shows up here first.
// ---------------------------------------------------------------------

struct Fnv
{
    std::uint64_t h = 14695981039346656037ull;

    void
    add(std::uint64_t word)
    {
        const auto v = static_cast<std::uint32_t>(word);
        for (int i = 0; i < 4; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    }

    /** A length-prefixed list (a path, or a child list). */
    void
    add(Span<std::uint32_t> list)
    {
        add(list.size());
        for (std::uint32_t v : list)
            add(v);
    }

    void
    add(const Tree &tree)
    {
        add(tree.size());
        for (std::size_t i = 0; i < tree.size(); ++i) {
            const TreeEdge &e = tree[i];
            add(e.link);
            add(static_cast<std::uint32_t>(e.from));
            add(static_cast<std::uint32_t>(e.to));
            add(static_cast<std::uint32_t>(e.depth));
            add(tree.children(i));
        }
    }
};

struct Fingerprint
{
    std::string shape;
    std::uint64_t links, routes, trees, down, toRoot;
};

Fingerprint
fingerprint(const std::string &shape, const Topology &t)
{
    Fnv links, routes, trees, down, to_root;
    links.add(t.links().size());
    for (const LinkDesc &l : t.links()) {
        links.add(static_cast<std::uint32_t>(l.from));
        links.add(static_cast<std::uint32_t>(l.to));
    }
    const auto n = static_cast<NodeId>(t.numNodes());
    for (NodeId s = 0; s < n; ++s) {
        for (NodeId d = 0; d < n; ++d)
            routes.add(t.route(s, d));
        trees.add(t.broadcastTree(s));
        to_root.add(t.routeToRoot(s));
    }
    down.add(t.downTree());
    return {shape, links.h, routes.h, trees.h, down.h, to_root.h};
}

TEST(TopologyFingerprint, RoutesAndTreesAreByteIdentical)
{
    const Fingerprint expect[] = {
        {"torus1x1", 0x4d25767f9dce13f5ull, 0x4d25767f9dce13f5ull,
         0x4d25767f9dce13f5ull, 0x4d25767f9dce13f5ull,
         0x4d25767f9dce13f5ull},
        {"torus1x7", 0xc260887b172a445bull, 0xa0826ad25fdcca45ull,
         0x1978d3d5d39a2ac2ull, 0x4d25767f9dce13f5ull,
         0x17d9c15239d081d5ull},
        {"torus2x2", 0xfa337360d727f1fdull, 0x5b99bf78696622a5ull,
         0xe77de5fe5ad42185ull, 0x4d25767f9dce13f5ull,
         0x88201fb960ff6465ull},
        {"torus3x5", 0xab22ed5f1d0ab189ull, 0x5767b61ebfa3b655ull,
         0xd28853cb9089d10bull, 0x4d25767f9dce13f5ull,
         0xf87b38c6cf34ac55ull},
        {"torus8x8", 0xb34c19acb42e134aull, 0x25190e770b6c5025ull,
         0xefc5656ed233e665ull, 0x4d25767f9dce13f5ull,
         0xd80ac658736bb725ull},
        {"torus16x16", 0xad6d113fd0086949ull, 0x244bf764e307f325ull,
         0x7715397c69c03ae5ull, 0x4d25767f9dce13f5ull,
         0x51d88627df287325ull},
        {"torus32x32", 0xc593e2aba47f6285ull, 0x75a612085d16d6a5ull,
         0x3725073c425d0775ull, 0x4d25767f9dce13f5ull,
         0xb93a0c83ce3b6325ull},
        {"tree16", 0x18cf1e7eae580511ull, 0x9e9260d028002565ull,
         0xdd7a63dca728cea5ull, 0xbcedca6e49c9530dull,
         0x5363bc01c5bc5725ull},
        {"tree64", 0x90305c0b5acc3845ull, 0x1bfb56fca93c0625ull,
         0xfc2e7eec2a599b65ull, 0x6ded2cb628b3c715ull,
         0x24d5eb9da0f7e325ull},
    };
    for (const Fingerprint &want : expect) {
        std::unique_ptr<Topology> t;
        int kx = 0, ky = 0, n = 0;
        if (std::sscanf(want.shape.c_str(), "torus%dx%d", &kx, &ky) == 2)
            t = std::make_unique<TorusTopology>(kx, ky);
        else if (std::sscanf(want.shape.c_str(), "tree%d", &n) == 1)
            t = std::make_unique<TreeTopology>(n);
        ASSERT_TRUE(t) << want.shape;
        const Fingerprint got = fingerprint(want.shape, *t);
        EXPECT_EQ(got.links, want.links) << want.shape;
        EXPECT_EQ(got.routes, want.routes) << want.shape;
        EXPECT_EQ(got.trees, want.trees) << want.shape;
        EXPECT_EQ(got.down, want.down) << want.shape;
        EXPECT_EQ(got.toRoot, want.toRoot) << want.shape;
    }
}

/**
 * Reference multicast tree: the union of the unicast routes from @p s
 * to @p dests, each link once at its depth, in (depth, link) order.
 */
std::vector<TreeEdge>
unionOfRoutes(const Topology &t, NodeId s,
              const std::vector<NodeId> &dests)
{
    std::vector<int> depth_of(t.links().size(), -1);
    for (NodeId d : dests) {
        const Span<LinkId> r = t.route(s, d);
        for (std::size_t i = 0; i < r.size(); ++i) {
            EXPECT_TRUE(depth_of[r[i]] < 0 ||
                        depth_of[r[i]] == static_cast<int>(i));
            depth_of[r[i]] = static_cast<int>(i);
        }
    }
    std::vector<TreeEdge> edges;
    for (LinkId l = 0; l < t.links().size(); ++l) {
        if (depth_of[l] >= 0) {
            edges.push_back(TreeEdge{l, t.links()[l].from,
                                     t.links()[l].to, depth_of[l]});
        }
    }
    std::stable_sort(edges.begin(), edges.end(),
                     [](const TreeEdge &a, const TreeEdge &b) {
                         return a.depth < b.depth;
                     });
    return edges;
}

TEST(TopologyMulticast, MaskedWalkVisitsExactlyTheRouteUnion)
{
    // Random destination sets on every shape: the per-hop walk the
    // network runs (roots, then each needed edge's needed children)
    // must cross exactly the route-union edges, each after its
    // parent, deliver exactly to the wanted nodes, and fork exactly
    // where a needed child exists.
    std::vector<std::unique_ptr<Topology>> shapes;
    shapes.emplace_back(new TorusTopology(1, 7));
    shapes.emplace_back(new TorusTopology(2, 2));
    shapes.emplace_back(new TorusTopology(3, 5));
    shapes.emplace_back(new TorusTopology(8, 8));
    shapes.emplace_back(new TreeTopology(16));
    shapes.emplace_back(new TreeTopology(22, 3));
    Rng rng(7);
    for (const auto &t : shapes) {
        const auto n = static_cast<NodeId>(t->numNodes());
        for (int trial = 0; trial < 200; ++trial) {
            const auto s = static_cast<NodeId>(rng.next() % n);
            std::vector<NodeId> dests;
            std::vector<std::uint8_t> want(n, 0);
            const std::uint64_t k = 1 + rng.next() % n;
            for (std::uint64_t j = 0; j < k; ++j) {
                const auto d = static_cast<NodeId>(rng.next() % n);
                if (d != s && !want[d]) {
                    want[d] = 1;
                    dests.push_back(d);
                }
            }
            const Tree &tree = t->broadcastTree(s);
            std::vector<std::uint8_t> bits(tree.size(), 0xff);
            const std::size_t needed =
                t->markMulticast(s, want.data(), bits.data());

            // Walk as the network does, level by level.
            std::vector<std::uint32_t> walk, frontier;
            for (std::uint32_t i : tree.rootEdges()) {
                if (bits[i] & edgeNeeded)
                    frontier.push_back(i);
            }
            std::set<int> delivered;
            while (!frontier.empty()) {
                std::vector<std::uint32_t> next;
                for (std::uint32_t i : frontier) {
                    walk.push_back(i);
                    const TreeEdge &e = tree[i];
                    if (bits[i] & edgeDelivers) {
                        EXPECT_LT(e.to, t->numNodes());
                        delivered.insert(e.to);
                    }
                    bool kid_needed = false;
                    for (std::uint32_t c : tree.children(i)) {
                        EXPECT_EQ(tree[c].from, e.to);
                        if (bits[c] & edgeNeeded) {
                            kid_needed = true;
                            next.push_back(c);
                        }
                    }
                    EXPECT_EQ(kid_needed,
                              (bits[i] & edgeForks) != 0);
                }
                frontier.swap(next);
            }
            std::sort(walk.begin(), walk.end());
            ASSERT_EQ(walk.size(), needed);

            const std::vector<TreeEdge> ref = unionOfRoutes(*t, s, dests);
            ASSERT_EQ(ref.size(), needed) << t->name() << " s=" << s;
            for (std::size_t j = 0; j < ref.size(); ++j) {
                const TreeEdge &e = tree[walk[j]];
                EXPECT_EQ(e.link, ref[j].link);
                EXPECT_EQ(e.depth, ref[j].depth);
            }
            EXPECT_EQ(delivered,
                      std::set<int>(dests.begin(), dests.end()));
        }
    }
}

} // namespace
} // namespace tokensim
