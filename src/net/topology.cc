#include "net/topology.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "sim/stats.hh"

namespace tokensim {

Tree::Tree(std::vector<TreeEdge> e, int root, int num_nodes,
           int num_vertices)
    : edges(std::move(e)), childOff(edges.size() + 1, 0),
      child(edges.size()), marks(edges.size(), edgeNeeded)
{
    // edge_to[v]: the edge reaching vertex v. Forward order puts every
    // parent before its children, so one pass counts the children.
    std::vector<std::uint32_t> edge_to(
        static_cast<std::size_t>(num_vertices));
    std::uint32_t roots = 0;
    for (std::uint32_t i = 0; i < edges.size(); ++i) {
        const TreeEdge &te = edges[i];
        edge_to[static_cast<std::size_t>(te.to)] = i;
        if (te.to < num_nodes)
            marks[i] |= edgeDelivers;
        if (te.from == root) {
            assert(roots == i && "root edges come first");
            child[roots++] = i;
        } else {
            const std::uint32_t p = edge_to[static_cast<std::size_t>(te.from)];
            ++childOff[p + 1];
            marks[p] |= edgeForks;
        }
    }
    childOff[0] = roots;
    for (std::size_t i = 0; i < edges.size(); ++i)
        childOff[i + 1] += childOff[i];
    std::vector<std::uint32_t> next(childOff.begin(), childOff.end() - 1);
    for (std::uint32_t i = roots; i < edges.size(); ++i)
        child[next[edge_to[static_cast<std::size_t>(edges[i].from)]]++] = i;
}

LinkId
Topology::addLink(int from, int to)
{
    assert(from >= 0 && from < numVertices_);
    assert(to >= 0 && to < numVertices_);
    links_.push_back(LinkDesc{from, to});
    return static_cast<LinkId>(links_.size() - 1);
}

double
Topology::averageHops() const
{
    // Routes from a node to itself are empty.
    const double pairs = static_cast<double>(numNodes_) * (numNodes_ - 1);
    return pairs > 0 ? static_cast<double>(routes_.linkCount()) / pairs
                     : 0.0;
}

void
Topology::buildBroadcastTrees()
{
    // depth_of[l]: link l's depth in the current source's tree, or -1.
    // A route visits each vertex once, so depths stay below the
    // vertex count.
    std::vector<int> depth_of(links_.size(), -1);
    std::vector<std::uint32_t> at_depth(
        static_cast<std::size_t>(numVertices_));
    bcastTrees_.reserve(static_cast<std::size_t>(numNodes_));
    for (NodeId s = 0; s < static_cast<NodeId>(numNodes_); ++s) {
        // The tree is the union of s's routes. Routes are prefix-
        // consistent, so each route is walked back only to its first
        // link already in the tree: the rest of its prefix is too.
        std::size_t n = 0;
        for (NodeId d = 0; d < static_cast<NodeId>(numNodes_); ++d) {
            const Span<LinkId> r = route(s, d);
            std::size_t i = r.size();
            for (; i > 0 && depth_of[r[i - 1]] < 0; --i, ++n) {
                depth_of[r[i - 1]] = static_cast<int>(i - 1);
                ++at_depth[i - 1];
            }
            assert(i == 0 || depth_of[r[i - 1]] == static_cast<int>(i - 1));
        }
        // Counting sort by depth; scanning links in id order keeps
        // each depth's links in increasing id order.
        std::uint32_t start = 0;
        for (std::uint32_t &c : at_depth)
            start += std::exchange(c, start);
        std::vector<TreeEdge> edges(n);
        for (LinkId l = 0; l < links_.size(); ++l) {
            if (depth_of[l] < 0)
                continue;
            const auto depth = static_cast<std::size_t>(depth_of[l]);
            edges[at_depth[depth]++] =
                TreeEdge{l, links_[l].from, links_[l].to, depth_of[l]};
            depth_of[l] = -1;
        }
        std::fill(at_depth.begin(), at_depth.end(), 0);
        bcastTrees_.emplace_back(std::move(edges), static_cast<int>(s),
                                 numNodes_, numVertices_);
    }
}

std::size_t
Topology::markMulticast(NodeId s, const std::uint8_t *want,
                        std::uint8_t *bits) const
{
    // One reverse pass: children follow their parent in forward
    // order, so each edge's children are marked before it is.
    const Tree &tree = broadcastTree(s);
    std::size_t needed = 0;
    for (std::size_t i = tree.size(); i-- > 0;) {
        const int to = tree[i].to;
        std::uint8_t b = to < numNodes_ && want[to] ? edgeDelivers : 0;
        for (std::uint32_t c : tree.children(i)) {
            if (bits[c] & edgeNeeded) {
                b |= edgeForks;
                break;
            }
        }
        if (b) {
            b |= edgeNeeded;
            ++needed;
        }
        bits[i] = b;
    }
    return needed;
}

// ---------------------------------------------------------------------
// TreeTopology
// ---------------------------------------------------------------------

TreeTopology::TreeTopology(int num_nodes, int fanout)
    : fanout_(fanout)
{
    if (num_nodes < 1)
        throw std::invalid_argument("tree topology needs >= 1 node");
    if (fanout < 1)
        throw std::invalid_argument("tree fanout must be >= 1");

    const int groups = (num_nodes + fanout - 1) / fanout;
    // Vertices: procs, incoming switches, root, outgoing switches.
    const int in_base = num_nodes;
    root_ = num_nodes + groups;
    const int out_base = root_ + 1;
    numNodes_ = num_nodes;
    numVertices_ = num_nodes + 2 * groups + 1;

    std::vector<LinkId> up1(num_nodes), up2(groups);
    std::vector<LinkId> down1(groups), down2(num_nodes);
    for (int p = 0; p < num_nodes; ++p)
        up1[p] = addLink(p, in_base + p / fanout);
    for (int g = 0; g < groups; ++g)
        up2[g] = addLink(in_base + g, root_);
    for (int g = 0; g < groups; ++g)
        down1[g] = addLink(root_, out_base + g);
    for (int p = 0; p < num_nodes; ++p)
        down2[p] = addLink(out_base + p / fanout, p);

    const auto n = static_cast<std::size_t>(num_nodes);
    routes_.reserve(n * n, 4 * n * (n - 1));
    for (int s = 0; s < num_nodes; ++s) {
        for (int d = 0; d < num_nodes; ++d) {
            const LinkId r[] = {up1[s], up2[s / fanout],
                                down1[d / fanout], down2[d]};
            routes_.add({r, s != d ? 4u : 0u});
        }
    }

    toRoot_.reserve(n, 2 * n);
    for (int p = 0; p < num_nodes; ++p) {
        const LinkId r[] = {up1[p], up2[p / fanout]};
        toRoot_.add({r, 2});
    }

    std::vector<TreeEdge> down;
    for (int g = 0; g < groups; ++g)
        down.push_back(TreeEdge{down1[g], root_, out_base + g, 0});
    for (int p = 0; p < num_nodes; ++p)
        down.push_back(TreeEdge{down2[p], out_base + p / fanout, p, 1});
    downTree_ = Tree(std::move(down), root_, num_nodes, numVertices_);

    buildBroadcastTrees();
}

std::string
TreeTopology::name() const
{
    return strformat("tree%d(fanout=%d)", numNodes_, fanout_);
}

// ---------------------------------------------------------------------
// TorusTopology
// ---------------------------------------------------------------------

int
TorusTopology::ringDelta(int a, int b, int k)
{
    int d = (b - a) % k;
    if (d < 0)
        d += k;
    // Take the shorter way around; ties go the positive direction.
    return d <= k / 2 ? d : d - k;
}

TorusTopology::TorusTopology(int kx, int ky)
    : kx_(kx), ky_(ky)
{
    if (kx < 1 || ky < 1)
        throw std::invalid_argument("torus dimensions must be >= 1");

    const int n = kx * ky;
    numNodes_ = numVertices_ = n;

    // One directed link to each distinct neighbor in each dimension,
    // created vertex by vertex in +x, -x, +y, -y order. step[v][dir]
    // is the link leaving v in that direction; in a 2-ring both
    // directions reach the same neighbor over one shared link.
    enum { px, mx, py, my };
    std::vector<LinkId> step(static_cast<std::size_t>(n) * 4);
    for (int y = 0; y < ky; ++y) {
        for (int x = 0; x < kx; ++x) {
            const int v = vertexAt(x, y);
            LinkId *out = &step[static_cast<std::size_t>(v) * 4];
            if (kx > 1) {
                out[px] = addLink(v, vertexAt((x + 1) % kx, y));
                out[mx] = kx == 2
                    ? out[px] : addLink(v, vertexAt((x + kx - 1) % kx, y));
            }
            if (ky > 1) {
                out[py] = addLink(v, vertexAt(x, (y + 1) % ky));
                out[my] = ky == 2
                    ? out[py] : addLink(v, vertexAt(x, (y + ky - 1) % ky));
            }
        }
    }

    // Dimension-order (X then Y) shortest-wrap routing. A route is
    // its X leg along the source's row, then its Y leg along the
    // destination's column; each source row's legs are walked once.
    std::vector<LinkId> leg;
    auto walk = [&](PathTable &legs, int v, int delta, int dir) {
        leg.clear();
        for (int i = 0; i < std::abs(delta); ++i) {
            leg.push_back(step[static_cast<std::size_t>(v) * 4 + dir +
                               (delta < 0)]);
            v = links_[leg.back()].to;
        }
        legs.add({leg.data(), leg.size()});
    };
    // Reserve the longest route for every pair: untouched pages of
    // the over-reservation cost no memory.
    const auto pairs = static_cast<std::size_t>(n) * n;
    routes_.reserve(pairs, pairs * static_cast<std::size_t>(kx / 2 + ky / 2));
    for (int sy = 0; sy < ky; ++sy) {
        PathTable x_legs;   // [sx * kx + dx]
        PathTable y_legs;   // [dx * ky + dy]
        for (int sx = 0; sx < kx; ++sx) {
            for (int dx = 0; dx < kx; ++dx)
                walk(x_legs, vertexAt(sx, sy), ringDelta(sx, dx, kx), px);
        }
        for (int dx = 0; dx < kx; ++dx) {
            for (int dy = 0; dy < ky; ++dy)
                walk(y_legs, vertexAt(dx, sy), ringDelta(sy, dy, ky), py);
        }
        for (int sx = 0; sx < kx; ++sx) {
            for (int dy = 0; dy < ky; ++dy) {
                for (int dx = 0; dx < kx; ++dx)
                    routes_.add(x_legs[sx * kx + dx], y_legs[dx * ky + dy]);
            }
        }
    }

    buildBroadcastTrees();
}

TorusTopology *
TorusTopology::makeSquare(int num_nodes)
{
    if (num_nodes < 1)
        throw std::invalid_argument("torus needs >= 1 node");
    int kx = static_cast<int>(std::sqrt(static_cast<double>(num_nodes)));
    while (kx > 1 && num_nodes % kx != 0)
        --kx;
    return new TorusTopology(kx, num_nodes / kx);
}

std::string
TorusTopology::name() const
{
    return strformat("torus%dx%d", kx_, ky_);
}

// ---------------------------------------------------------------------

Topology *
makeTopology(const std::string &kind, int num_nodes)
{
    if (kind == "tree")
        return new TreeTopology(num_nodes);
    if (kind == "torus")
        return TorusTopology::makeSquare(num_nodes);
    throw std::invalid_argument("unknown topology kind: " + kind);
}

} // namespace tokensim
