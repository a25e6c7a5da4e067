/**
 * @file
 * Interconnect topologies: the indirect totally-ordered broadcast tree
 * and the directly-connected unordered torus of the paper's Figure 1.
 *
 * A topology is a directed graph of vertices (the first numNodes()
 * vertices are the processor/memory nodes; the rest are switches) and
 * links. It precomputes, for every source/destination pair, the ordered
 * list of links a message crosses, and for every source the spanning
 * tree used for bandwidth-efficient multicast (each link carries one
 * copy of a broadcast, as with the tree-based multicast routing the
 * paper assumes from Duato et al.). Both live in flat arrays, built
 * with no per-route allocation.
 */

#ifndef TOKENSIM_NET_TOPOLOGY_HH
#define TOKENSIM_NET_TOPOLOGY_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace tokensim {

/** Index of a directed link within a topology. */
using LinkId = std::uint32_t;

/** Static description of one directed link. */
struct LinkDesc
{
    int from;   ///< source vertex
    int to;     ///< destination vertex
};

/** One edge of a (multicast) forwarding tree, in forward-order. */
struct TreeEdge
{
    LinkId link;   ///< the directed link crossed
    int from;      ///< parent vertex
    int to;        ///< child vertex
    int depth;     ///< link's position along the path from the source
};

/** Read-only view of a contiguous array (C++17 has no std::span). */
template <typename T>
class Span
{
  public:
    Span() = default;
    Span(const T *data, std::size_t size) : data_(data), size_(size) {}

    const T *begin() const { return data_; }
    const T *end() const { return data_ + size_; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    const T &operator[](std::size_t i) const { return data_[i]; }

  private:
    const T *data_ = nullptr;
    std::size_t size_ = 0;
};

/** Link paths stored back to back: one offsets and one links array. */
class PathTable
{
  public:
    /** Append the path made of @p head followed by @p tail. */
    void
    add(Span<LinkId> head, Span<LinkId> tail = {})
    {
        links_.insert(links_.end(), head.begin(), head.end());
        links_.insert(links_.end(), tail.begin(), tail.end());
        off_.push_back(links_.size());
    }

    void
    reserve(std::size_t paths, std::size_t links)
    {
        off_.reserve(paths + 1);
        links_.reserve(links);
    }

    /** Total links over all paths. */
    std::size_t linkCount() const { return links_.size(); }

    Span<LinkId>
    operator[](std::size_t i) const
    {
        return {links_.data() + off_[i], off_[i + 1] - off_[i]};
    }

  private:
    std::vector<std::size_t> off_{0};
    std::vector<LinkId> links_;
};

/** Per-edge fan-out marks (see Tree::marks, Topology::markMulticast). */
enum : std::uint8_t
{
    edgeNeeded = 1,     ///< the edge is crossed
    edgeDelivers = 2,   ///< the vertex it reaches takes a copy
    edgeForks = 4,      ///< some child edge is needed
};

/**
 * One forwarding tree in flat form: edges in forward order (by depth,
 * then link id), so a parent edge precedes its children. rootEdges()
 * lists the edges leaving the root and children(i) the edges leaving
 * the vertex edge i reaches, both in edge order.
 */
struct Tree
{
    Tree() = default;

    /** Index @p edges (forward order) of a tree rooted at @p root;
     *  vertices below @p num_nodes are nodes. */
    Tree(std::vector<TreeEdge> edges, int root, int num_nodes,
         int num_vertices);

    const TreeEdge *begin() const { return edges.data(); }
    const TreeEdge *end() const { return edges.data() + edges.size(); }
    std::size_t size() const { return edges.size(); }
    const TreeEdge &operator[](std::size_t i) const { return edges[i]; }

    Span<std::uint32_t>
    rootEdges() const
    {
        return {child.data(), childOff[0]};
    }

    Span<std::uint32_t>
    children(std::size_t i) const
    {
        return {child.data() + childOff[i], childOff[i + 1] - childOff[i]};
    }

    std::vector<TreeEdge> edges;
    /** CSR child lists: the root's children are child[0 ..
     *  childOff[0]), edge i's are child[childOff[i] .. childOff[i+1]). */
    std::vector<std::uint32_t> childOff{0};
    std::vector<std::uint32_t> child;
    /** Marks of a broadcast: every edge needed, every node served. */
    std::vector<std::uint8_t> marks;
};

/**
 * Abstract interconnect topology.
 *
 * Subclasses populate the vertex/link structure and the unicast route
 * table in their constructors; the base class derives broadcast trees
 * from the routes (valid because both topologies use prefix-consistent
 * deterministic routing).
 */
class Topology
{
  public:
    virtual ~Topology() = default;

    /** Number of endpoint nodes (vertices 0 .. numNodes()-1). */
    int numNodes() const { return numNodes_; }

    /** Total vertices including switches. */
    int numVertices() const { return numVertices_; }

    /** All directed links. */
    const std::vector<LinkDesc> &links() const { return links_; }

    /**
     * Ordered link ids crossed by a unicast from node @p s to node
     * @p d. Empty when s == d.
     */
    Span<LinkId>
    route(NodeId s, NodeId d) const
    {
        return routes_[s * static_cast<std::size_t>(numNodes_) + d];
    }

    /** Number of link crossings from @p s to @p d. */
    int hops(NodeId s, NodeId d) const
    {
        return static_cast<int>(route(s, d).size());
    }

    /** Mean link crossings over all distinct node pairs. */
    double averageHops() const;

    /**
     * Spanning tree reaching every node from @p s (the union of its
     * unicast routes). Used for broadcasts, and masked by
     * markMulticast() for multicasts.
     */
    const Tree &broadcastTree(NodeId s) const { return bcastTrees_[s]; }

    /**
     * Mark the edges of broadcastTree(@p s) that a multicast from
     * @p s to the nodes flagged in @p want (one byte per node) must
     * cross: @p bits[i] gets edge i's marks. An edge is needed iff its
     * subtree holds a wanted node, so the needed edges, in tree order,
     * are exactly the union of the unicast routes to the wanted nodes
     * in (depth, link) order (Section 7 destination-set multicast).
     * Returns the needed-edge count.
     */
    std::size_t markMulticast(NodeId s, const std::uint8_t *want,
                              std::uint8_t *bits) const;

    /**
     * True if broadcasts through this topology can be given a total
     * order observed identically by all nodes (required by traditional
     * snooping). Only the indirect tree provides this.
     */
    bool totallyOrdered() const { return root_ >= 0; }

    /** Vertex id of the ordering root; -1 if !totallyOrdered(). */
    int rootVertex() const { return root_; }

    /** Links from node @p s up to the ordering root (ordered). */
    Span<LinkId>
    routeToRoot(NodeId s) const
    {
        return root_ >= 0 ? toRoot_[s] : Span<LinkId>();
    }

    /**
     * Spanning tree from the ordering root down to every node (used
     * for the fan-out half of an ordered broadcast); empty if
     * !totallyOrdered().
     */
    const Tree &downTree() const { return downTree_; }

    /** Short description for reports, e.g. "torus4x4". */
    virtual std::string name() const = 0;

  protected:
    Topology() = default;

    /** Add a directed link and return its id. */
    LinkId addLink(int from, int to);

    /** Derive broadcast trees from the route table; call last. */
    void buildBroadcastTrees();

    int numNodes_ = 0;
    int numVertices_ = 0;
    std::vector<LinkDesc> links_;
    /** Unicast routes, indexed s * numNodes() + d, filled in order. */
    PathTable routes_;
    std::vector<Tree> bcastTrees_;
    /** Ordered topologies only: root vertex, climbs, fan-out tree. */
    int root_ = -1;
    PathTable toRoot_;
    Tree downTree_;
};

/**
 * The paper's Figure 1a: a two-level indirect broadcast tree with
 * fan-out @p fanout (default 4). Processors connect to incoming leaf
 * switches, which feed a single root switch, which feeds outgoing leaf
 * switches back to every processor. Every message crosses four links;
 * the root observes every broadcast and assigns the total order that
 * traditional snooping requires.
 */
class TreeTopology : public Topology
{
  public:
    explicit TreeTopology(int num_nodes, int fanout = 4);

    std::string name() const override;

  private:
    int fanout_;
};

/**
 * The paper's Figure 1b: a directly-connected two-dimensional
 * bidirectional torus (kx * ky nodes) with dimension-order (X then Y)
 * routing, taking the shorter wrap direction in each dimension. It is
 * glueless (no switch vertices) and provides no total order.
 */
class TorusTopology : public Topology
{
  public:
    TorusTopology(int kx, int ky);

    /** Square torus of n = k*k nodes. */
    static TorusTopology *makeSquare(int num_nodes);

    std::string name() const override;

    int kx() const { return kx_; }
    int ky() const { return ky_; }

  private:
    int vertexAt(int x, int y) const { return y * kx_ + x; }

    /**
     * Signed hop count in a ring of size k from a to b taking the
     * shorter direction (positive ties broken toward +).
     */
    static int ringDelta(int a, int b, int k);

    int kx_;
    int ky_;
};

/**
 * Factory helper: build a topology by name ("tree" or "torus") for
 * @p num_nodes nodes.
 */
Topology *makeTopology(const std::string &kind, int num_nodes);

} // namespace tokensim

#endif // TOKENSIM_NET_TOPOLOGY_HH
