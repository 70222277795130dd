// Package pg implements the Property Graph data model of Definition 2.1
// (Angles et al.): a directed multigraph G = (V, E, ρ, λ, σ) where every
// node and edge carries exactly one label (λ) and a partial map from
// property names to values (σ).
//
// The Graph type is an in-memory store with label and adjacency indexes
// sized for validation workloads: out- and in-edges are grouped per node
// and can be filtered by label without scanning E. Labels and property
// names are interned to dense Syms so compiled validators can replace
// string hashing with array indexing; an epoch counter versions every
// mutation so derived structures (bound validation programs, cached
// node enumerations) know when they are stale.
package pg

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"pgschema/internal/values"
)

// NodeID identifies a node in V. IDs are dense and start at 0.
type NodeID int

// EdgeID identifies an edge in E. IDs are dense and start at 0.
type EdgeID int

// Prop is one (name, value) entry of σ(o, ·). Sym is the graph-interned
// ID of Name; per-element property lists are kept sorted by Name.
type Prop struct {
	Sym   Sym
	Name  string
	Value values.Value
}

// node holds λ(v), σ(v, ·), and the adjacency lists for one node.
type node struct {
	label   Sym
	props   []Prop
	out     []EdgeID
	in      []EdgeID
	removed bool
}

// edge holds ρ(e), λ(e), and σ(e, ·) for one edge.
type edge struct {
	src, dst NodeID
	label    Sym
	props    []Prop
	removed  bool
}

// Graph is a mutable Property Graph. The zero value is an empty graph
// ready to use. Graph is not safe for concurrent mutation; concurrent
// readers are safe once mutation has stopped.
type Graph struct {
	nodes []node
	edges []edge

	syms  symbols
	epoch uint64
	// byLabel indexes the live-or-removed nodes of each label by the
	// label's Sym. Buckets exist only for syms that have been node
	// labels; lookups by string go through the intern table once instead
	// of hashing the label on every call.
	byLabel      [][]NodeID
	removedNodes int
	removedEdges int

	// snap caches the columnar Snapshot of the graph; it is keyed by
	// epoch, so mutations invalidate it lazily (the next Snapshot call
	// rebuilds) without mutators having to clear it.
	snap atomic.Pointer[Snapshot]

	// cold is non-nil while a loaded graph (streamed from CSV or opened
	// from a .pgsnap file) has not materialized its row store: readers
	// on the compiled validation/query path answer from this snapshot,
	// and writes and store-shaped reads go through ensureStore (see
	// cold.go). Atomic because concurrent readers may race one of them
	// inflating the store.
	cold      atomic.Pointer[Snapshot]
	storeOnce sync.Once

	// mapping is the file mapping a graph opened with OpenSnapshot
	// reads through; Close releases it.
	mapping *snapMapping
}

// New returns an empty Property Graph.
func New() *Graph { return &Graph{} }

// Epoch returns the graph's mutation counter. Every mutating call
// (adding/removing elements, relabeling, setting/deleting properties)
// increments it, so a structure derived from the graph at epoch k is
// valid exactly while Epoch() == k.
func (g *Graph) Epoch() uint64 { return g.epoch }

// SymCount returns the number of interned symbols; valid Syms are
// exactly [0, SymCount()).
func (g *Graph) SymCount() int { return len(g.syms.names) }

// Sym returns the interned Sym for name, or (NoSym, false) if the graph
// has never seen it as a label or property name.
func (g *Graph) Sym(name string) (Sym, bool) {
	if s, ok := g.syms.lookup(name); ok {
		return s, true
	}
	return NoSym, false
}

// SymName returns the string a valid Sym was interned from.
func (g *Graph) SymName(s Sym) string { return g.syms.names[s] }

// labelBucket returns the byLabel bucket for a label Sym, growing the
// index when the sym is new.
func (g *Graph) labelBucket(s Sym) *[]NodeID {
	for int(s) >= len(g.byLabel) {
		g.byLabel = append(g.byLabel, nil)
	}
	return &g.byLabel[s]
}

// AddNode adds a node with label λ(v) = label and returns its ID.
func (g *Graph) AddNode(label string) NodeID {
	return g.addNodeSym(g.syms.intern(label))
}

// addNodeSym is AddNode for a pre-interned label Sym — bulk loaders
// intern each header or label string once and skip per-row hashing.
func (g *Graph) addNodeSym(label Sym) NodeID {
	g.ensureStore()
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, node{label: label})
	b := g.labelBucket(label)
	*b = append(*b, id)
	g.epoch++
	return id
}

// AddEdge adds an edge e with ρ(e) = (src, dst) and λ(e) = label.
func (g *Graph) AddEdge(src, dst NodeID, label string) (EdgeID, error) {
	return g.addEdgeSym(src, dst, g.syms.intern(label))
}

// addEdgeSym is AddEdge for a pre-interned label Sym.
func (g *Graph) addEdgeSym(src, dst NodeID, label Sym) (EdgeID, error) {
	g.ensureStore()
	if !g.validNode(src) {
		return 0, fmt.Errorf("pg: AddEdge: invalid source node %d", src)
	}
	if !g.validNode(dst) {
		return 0, fmt.Errorf("pg: AddEdge: invalid target node %d", dst)
	}
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, edge{src: src, dst: dst, label: label})
	g.nodes[src].out = append(g.nodes[src].out, id)
	g.nodes[dst].in = append(g.nodes[dst].in, id)
	g.epoch++
	return id, nil
}

// MustAddEdge is AddEdge for known-valid endpoints; it panics on error.
func (g *Graph) MustAddEdge(src, dst NodeID, label string) EdgeID {
	id, err := g.AddEdge(src, dst, label)
	if err != nil {
		panic(err)
	}
	return id
}

func (g *Graph) validNode(id NodeID) bool {
	if c := g.cold.Load(); c != nil {
		return id >= 0 && int(id) < len(c.nodeLabels) && c.nodeLabels[id] != NoSym
	}
	return id >= 0 && int(id) < len(g.nodes) && !g.nodes[id].removed
}

func (g *Graph) validEdge(id EdgeID) bool {
	if c := g.cold.Load(); c != nil {
		return id >= 0 && int(id) < len(c.edgeLabels) && c.edgeLabels[id] != NoSym
	}
	return id >= 0 && int(id) < len(g.edges) && !g.edges[id].removed
}

// NumNodes returns |V|.
func (g *Graph) NumNodes() int {
	if c := g.cold.Load(); c != nil {
		return c.liveNodes
	}
	return len(g.nodes) - g.removedNodes
}

// NumEdges returns |E|.
func (g *Graph) NumEdges() int {
	if c := g.cold.Load(); c != nil {
		return c.liveEdges
	}
	return len(g.edges) - g.removedEdges
}

// NodeBound returns the exclusive upper bound of node IDs ever
// allocated, including removed ones. Hot loops iterate id ∈ [0,
// NodeBound()) and skip !HasNode(id) instead of materializing Nodes().
func (g *Graph) NodeBound() int {
	if c := g.cold.Load(); c != nil {
		return len(c.nodeLabels)
	}
	return len(g.nodes)
}

// EdgeBound returns the exclusive upper bound of edge IDs ever
// allocated, including removed ones.
func (g *Graph) EdgeBound() int {
	if c := g.cold.Load(); c != nil {
		return len(c.edgeLabels)
	}
	return len(g.edges)
}

// Nodes returns the IDs of all nodes in insertion order.
func (g *Graph) Nodes() []NodeID {
	g.ensureStore()
	out := make([]NodeID, 0, g.NumNodes())
	for i := range g.nodes {
		if !g.nodes[i].removed {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// Edges returns the IDs of all edges in insertion order.
func (g *Graph) Edges() []EdgeID {
	g.ensureStore()
	out := make([]EdgeID, 0, g.NumEdges())
	for i := range g.edges {
		if !g.edges[i].removed {
			out = append(out, EdgeID(i))
		}
	}
	return out
}

// HasNode reports whether id is a live node.
func (g *Graph) HasNode(id NodeID) bool { return g.validNode(id) }

// HasEdge reports whether id is a live edge.
func (g *Graph) HasEdge(id EdgeID) bool { return g.validEdge(id) }

// NodeLabel returns λ(v).
func (g *Graph) NodeLabel(id NodeID) string {
	if c := g.cold.Load(); c != nil {
		if ls := c.nodeLabels[id]; ls != NoSym {
			return g.syms.names[ls]
		}
		return "" // tombstone: a mapped snapshot keeps no removed label
	}
	return g.syms.names[g.nodes[id].label]
}

// EdgeLabel returns λ(e).
func (g *Graph) EdgeLabel(id EdgeID) string {
	if c := g.cold.Load(); c != nil {
		if ls := c.edgeLabels[id]; ls != NoSym {
			return g.syms.names[ls]
		}
		return ""
	}
	return g.syms.names[g.edges[id].label]
}

// NodeLabelSym returns λ(v) as an interned Sym.
func (g *Graph) NodeLabelSym(id NodeID) Sym {
	if c := g.cold.Load(); c != nil {
		if ls := c.nodeLabels[id]; ls != NoSym {
			return ls
		}
		return 0
	}
	return g.nodes[id].label
}

// EdgeLabelSym returns λ(e) as an interned Sym.
func (g *Graph) EdgeLabelSym(id EdgeID) Sym {
	if c := g.cold.Load(); c != nil {
		if ls := c.edgeLabels[id]; ls != NoSym {
			return ls
		}
		return 0
	}
	return g.edges[id].label
}

// Endpoints returns ρ(e) = (src, dst).
func (g *Graph) Endpoints(id EdgeID) (src, dst NodeID) {
	if c := g.cold.Load(); c != nil {
		return c.edgeSrc[id], c.edgeDst[id]
	}
	e := &g.edges[id]
	return e.src, e.dst
}

// SetNodeLabel relabels a node, maintaining the label index.
func (g *Graph) SetNodeLabel(id NodeID, label string) {
	g.ensureStore()
	n := &g.nodes[id]
	ls := g.syms.intern(label)
	if n.label == ls {
		return
	}
	g.byLabel[n.label] = removeID(g.byLabel[n.label], id)
	n.label = ls
	b := g.labelBucket(ls)
	*b = append(*b, id)
	g.epoch++
}

// SetEdgeLabel relabels an edge.
func (g *Graph) SetEdgeLabel(id EdgeID, label string) {
	g.ensureStore()
	g.edges[id].label = g.syms.intern(label)
	g.epoch++
}

// SetNodeProp sets σ(v, name) = v.
func (g *Graph) SetNodeProp(id NodeID, name string, v values.Value) {
	g.ensureStore()
	n := &g.nodes[id]
	n.props = setProp(n.props, Prop{Sym: g.syms.intern(name), Name: name, Value: v})
	g.epoch++
}

// SetEdgeProp sets σ(e, name) = v.
func (g *Graph) SetEdgeProp(id EdgeID, name string, v values.Value) {
	g.ensureStore()
	e := &g.edges[id]
	e.props = setProp(e.props, Prop{Sym: g.syms.intern(name), Name: name, Value: v})
	g.epoch++
}

// setNodePropsSorted installs the full property list of a node that has
// none yet: props must be sorted by Name with distinct names, and the
// graph takes ownership of the slice. Bulk loaders use it to skip the
// per-property sorted insertion and bump the epoch once per node.
func (g *Graph) setNodePropsSorted(id NodeID, props []Prop) {
	g.nodes[id].props = props
	g.epoch++
}

// setEdgePropsSorted is setNodePropsSorted for an edge.
func (g *Graph) setEdgePropsSorted(id EdgeID, props []Prop) {
	g.edges[id].props = props
	g.epoch++
}

// DeleteNodeProp removes (v, name) from dom(σ).
func (g *Graph) DeleteNodeProp(id NodeID, name string) {
	g.ensureStore()
	g.nodes[id].props = delProp(g.nodes[id].props, name)
	g.epoch++
}

// DeleteEdgeProp removes (e, name) from dom(σ).
func (g *Graph) DeleteEdgeProp(id EdgeID, name string) {
	g.ensureStore()
	g.edges[id].props = delProp(g.edges[id].props, name)
	g.epoch++
}

// setProp inserts or overwrites an entry, keeping props sorted by Name.
func setProp(props []Prop, p Prop) []Prop {
	i := sort.Search(len(props), func(i int) bool { return props[i].Name >= p.Name })
	if i < len(props) && props[i].Name == p.Name {
		props[i].Value = p.Value
		return props
	}
	props = append(props, Prop{})
	copy(props[i+1:], props[i:])
	props[i] = p
	return props
}

func delProp(props []Prop, name string) []Prop {
	i := sort.Search(len(props), func(i int) bool { return props[i].Name >= name })
	if i < len(props) && props[i].Name == name {
		return append(props[:i], props[i+1:]...)
	}
	return props
}

func getProp(props []Prop, name string) (values.Value, bool) {
	i := sort.Search(len(props), func(i int) bool { return props[i].Name >= name })
	if i < len(props) && props[i].Name == name {
		return props[i].Value, true
	}
	return values.Value{}, false
}

// NodeProp returns σ(v, name) and whether (v, name) ∈ dom(σ).
func (g *Graph) NodeProp(id NodeID, name string) (values.Value, bool) {
	if c := g.cold.Load(); c != nil {
		s, ok := g.syms.lookup(name)
		if !ok {
			return values.Value{}, false
		}
		return c.NodePropBySym(id, s)
	}
	return getProp(g.nodes[id].props, name)
}

// EdgeProp returns σ(e, name) and whether (e, name) ∈ dom(σ).
func (g *Graph) EdgeProp(id EdgeID, name string) (values.Value, bool) {
	if c := g.cold.Load(); c != nil {
		s, ok := g.syms.lookup(name)
		if !ok {
			return values.Value{}, false
		}
		return c.EdgePropBySym(id, s)
	}
	return getProp(g.edges[id].props, name)
}

// NodePropBySym returns σ(v, name) for an interned property name.
// Passing NoSym (or a Sym never used as one of this node's property
// names) reports false.
func (g *Graph) NodePropBySym(id NodeID, s Sym) (values.Value, bool) {
	if c := g.cold.Load(); c != nil {
		return c.NodePropBySym(id, s)
	}
	for i := range g.nodes[id].props {
		if g.nodes[id].props[i].Sym == s {
			return g.nodes[id].props[i].Value, true
		}
	}
	return values.Value{}, false
}

// EdgePropBySym returns σ(e, name) for an interned property name.
func (g *Graph) EdgePropBySym(id EdgeID, s Sym) (values.Value, bool) {
	if c := g.cold.Load(); c != nil {
		return c.EdgePropBySym(id, s)
	}
	for i := range g.edges[id].props {
		if g.edges[id].props[i].Sym == s {
			return g.edges[id].props[i].Value, true
		}
	}
	return values.Value{}, false
}

// NodeProps returns the node's properties sorted by name. The slice is
// shared with the graph: callers must not mutate it, and it is
// invalidated by the next mutation of this node's properties.
func (g *Graph) NodeProps(id NodeID) []Prop {
	g.ensureStore()
	return g.nodes[id].props
}

// EdgeProps returns the edge's properties sorted by name, shared with
// the graph under the same contract as NodeProps.
func (g *Graph) EdgeProps(id EdgeID) []Prop {
	g.ensureStore()
	return g.edges[id].props
}

// NodePropNames returns the sorted property names defined on the node.
func (g *Graph) NodePropNames(id NodeID) []string {
	g.ensureStore()
	return propNames(g.nodes[id].props)
}

// EdgePropNames returns the sorted property names defined on the edge.
func (g *Graph) EdgePropNames(id EdgeID) []string {
	g.ensureStore()
	return propNames(g.edges[id].props)
}

func propNames(props []Prop) []string {
	if len(props) == 0 {
		return nil
	}
	out := make([]string, len(props))
	for i := range props {
		out[i] = props[i].Name
	}
	return out
}

// NodesLabeled returns the IDs of all live nodes with λ(v) = label.
func (g *Graph) NodesLabeled(label string) []NodeID {
	ls, ok := g.syms.lookup(label)
	if !ok {
		return nil
	}
	return g.nodesLabeledSym(ls)
}

// nodesLabeledSym is NodesLabeled for a pre-interned label Sym.
func (g *Graph) nodesLabeledSym(ls Sym) []NodeID {
	if c := g.cold.Load(); c != nil {
		// The snapshot's label lists hold only live nodes; copy under
		// the same fresh-slice contract as the store path.
		return append([]NodeID(nil), c.LabelNodes(ls)...)
	}
	if int(ls) >= len(g.byLabel) {
		return nil
	}
	ids := g.byLabel[ls]
	out := make([]NodeID, 0, len(ids))
	for _, id := range ids {
		if !g.nodes[id].removed {
			out = append(out, id)
		}
	}
	return out
}

// OutEdges returns the live outgoing edges of the node.
func (g *Graph) OutEdges(id NodeID) []EdgeID {
	g.ensureStore()
	return g.liveEdges(g.nodes[id].out)
}

// InEdges returns the live incoming edges of the node.
func (g *Graph) InEdges(id NodeID) []EdgeID {
	g.ensureStore()
	return g.liveEdges(g.nodes[id].in)
}

// OutEdgesRaw returns the node's outgoing edge list including removed
// edges (tombstones), shared with the graph. Hot loops filter with
// HasEdge instead of allocating a live copy.
func (g *Graph) OutEdgesRaw(id NodeID) []EdgeID {
	if c := g.cold.Load(); c != nil {
		return c.OutEdgesOf(id) // cold rows are live-only, read-only
	}
	return g.nodes[id].out
}

// InEdgesRaw returns the node's incoming edge list including removed
// edges, shared with the graph.
func (g *Graph) InEdgesRaw(id NodeID) []EdgeID {
	if c := g.cold.Load(); c != nil {
		return c.InEdgesOf(id)
	}
	return g.nodes[id].in
}

func (g *Graph) liveEdges(ids []EdgeID) []EdgeID {
	out := make([]EdgeID, 0, len(ids))
	for _, id := range ids {
		if !g.edges[id].removed {
			out = append(out, id)
		}
	}
	return out
}

// OutEdgesLabeled returns the node's live outgoing edges with λ(e) = label.
func (g *Graph) OutEdgesLabeled(id NodeID, label string) []EdgeID {
	g.ensureStore()
	ls, ok := g.syms.lookup(label)
	if !ok {
		return nil
	}
	var out []EdgeID
	for _, eid := range g.nodes[id].out {
		if e := &g.edges[eid]; !e.removed && e.label == ls {
			out = append(out, eid)
		}
	}
	return out
}

// InEdgesLabeled returns the node's live incoming edges with λ(e) = label.
func (g *Graph) InEdgesLabeled(id NodeID, label string) []EdgeID {
	g.ensureStore()
	ls, ok := g.syms.lookup(label)
	if !ok {
		return nil
	}
	var out []EdgeID
	for _, eid := range g.nodes[id].in {
		if e := &g.edges[eid]; !e.removed && e.label == ls {
			out = append(out, eid)
		}
	}
	return out
}

// OutDegreeLabeled counts the node's live outgoing edges with the label.
func (g *Graph) OutDegreeLabeled(id NodeID, label string) int {
	g.ensureStore()
	ls, ok := g.syms.lookup(label)
	if !ok {
		return 0
	}
	n := 0
	for _, eid := range g.nodes[id].out {
		if e := &g.edges[eid]; !e.removed && e.label == ls {
			n++
		}
	}
	return n
}

// RemoveEdge deletes an edge. The ID is never reused.
func (g *Graph) RemoveEdge(id EdgeID) {
	g.ensureStore()
	if !g.validEdge(id) {
		return
	}
	g.edges[id].removed = true
	g.removedEdges++
	g.epoch++
}

// RemoveNode deletes a node together with all its incident edges.
func (g *Graph) RemoveNode(id NodeID) {
	g.ensureStore()
	if !g.validNode(id) {
		return
	}
	for _, eid := range g.nodes[id].out {
		g.RemoveEdge(eid)
	}
	for _, eid := range g.nodes[id].in {
		g.RemoveEdge(eid)
	}
	n := &g.nodes[id]
	n.removed = true
	g.removedNodes++
	g.byLabel[n.label] = removeID(g.byLabel[n.label], id)
	g.epoch++
}

func removeID(ids []NodeID, id NodeID) []NodeID {
	for i, x := range ids {
		if x == id {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
}

// Labels returns the distinct node labels present in the graph, sorted.
func (g *Graph) Labels() []string {
	if c := g.cold.Load(); c != nil {
		return g.coldLabels(c)
	}
	var out []string
	for s, ids := range g.byLabel {
		live := false
		for _, id := range ids {
			if !g.nodes[id].removed {
				live = true
				break
			}
		}
		if live {
			out = append(out, g.syms.names[s])
		}
	}
	sort.Strings(out)
	return out
}

// Clone returns a deep copy of the graph. Property values are immutable
// and shared; property lists and adjacency lists are copied. Syms and
// the epoch carry over, so structures bound to the original at the
// current epoch describe the clone equally well until either side
// mutates.
func (g *Graph) Clone() *Graph {
	g.ensureStore()
	c := &Graph{
		nodes:        make([]node, len(g.nodes)),
		edges:        make([]edge, len(g.edges)),
		syms:         g.syms.clone(),
		epoch:        g.epoch,
		byLabel:      make([][]NodeID, len(g.byLabel)),
		removedNodes: g.removedNodes,
		removedEdges: g.removedEdges,
	}
	for i, n := range g.nodes {
		cp := n
		cp.props = append([]Prop(nil), n.props...)
		cp.out = append([]EdgeID(nil), n.out...)
		cp.in = append([]EdgeID(nil), n.in...)
		c.nodes[i] = cp
	}
	for i, e := range g.edges {
		cp := e
		cp.props = append([]Prop(nil), e.props...)
		c.edges[i] = cp
	}
	for s, ids := range g.byLabel {
		if ids != nil {
			c.byLabel[s] = append([]NodeID(nil), ids...)
		}
	}
	return c
}
