// Package pg implements the Property Graph data model of Definition 2.1
// (Angles et al.): a directed multigraph G = (V, E, ρ, λ, σ) where every
// node and edge carries exactly one label (λ) and a partial map from
// property names to values (σ).
//
// A Graph is one immutable columnar Snapshot (labels, CSR adjacency,
// flattened property rows; heap-allocated or mapped from a .pgsnap
// file) plus a small overlay of the writes made since it: the rows of
// the elements a write touched, appended elements, and tombstones.
// Point readers consult the overlay first and the snapshot otherwise;
// Snapshot folds the overlay into a new immutable snapshot, which
// validation and queries scan. Labels and property names are interned
// to dense Syms so compiled validators can replace string hashing with
// array indexing; an epoch counter versions every mutation so derived
// structures (bound validation programs, cached snapshots) know when
// they are stale.
package pg

import (
	"fmt"
	"slices"
	"sort"
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

// Graph is a mutable Property Graph. Graph is not safe for concurrent
// mutation; concurrent readers (Snapshot included) are safe once
// mutation has stopped.
type Graph struct {
	syms  symbols
	epoch uint64

	// base is the immutable snapshot the graph's unwritten rows are
	// read from; ov holds the writes made since base (nil when there
	// are none, in which case base is at the current epoch).
	base *Snapshot
	ov   *overlay

	// snap caches the snapshot of the current state, keyed by epoch:
	// base itself when ov is nil, else the latest fold of base and ov.
	snap atomic.Pointer[Snapshot]

	// mapping is the file mapping a graph opened with OpenSnapshot
	// reads through; Close releases it.
	mapping *snapMapping
}

// overlay is the writes made to a graph since its base snapshot. Rows
// are owned by the overlay (never aliased with a snapshot), so writes
// edit them in place.
type overlay struct {
	// nodeBase and edgeBase are the base's bounds: appended elements
	// take ids from there and live in newNodes/newEdges.
	nodeBase, edgeBase int
	newNodes           []nodeRow
	newEdges           []edgeRow
	// nodes and edges hold the current rows of base elements a write
	// reached: a node whose label, properties or existence changed
	// (touched) or only whose adjacency did; an edge that was
	// re-propertied, relabeled or removed.
	nodes map[NodeID]*nodeRow
	edges map[EdgeID]*edgeRow

	liveNodes, liveEdges int
	// labels holds the label syms whose node extent a relabel or a
	// removal changed, including former labels.
	labels map[Sym]struct{}

	nodesAdded, nodesRelabeled, nodesRemoved bool
	edgesAdded, edgesRelabeled, edgesRemoved bool
	nodePropOps, edgePropOps                 bool // a property row of a pre-existing element changed
}

// nodeRow is λ(v), σ(v, ·) sorted by name, and v's live adjacency in
// edge-id order. A removed node has label NoSym and empty rows.
type nodeRow struct {
	label   Sym
	touched bool // label, properties or existence written (base rows)
	props   []Prop
	out, in []EdgeID
}

// edgeRow is ρ(e), λ(e) and σ(e, ·). A removed edge keeps its
// endpoints and has label NoSym and no properties.
type edgeRow struct {
	src, dst NodeID
	label    Sym
	props    []Prop
}

func newOverlay(base *Snapshot) *overlay {
	return &overlay{
		nodeBase:  base.NodeBound(),
		edgeBase:  base.EdgeBound(),
		nodes:     make(map[NodeID]*nodeRow),
		edges:     make(map[EdgeID]*edgeRow),
		liveNodes: base.liveNodes,
		liveEdges: base.liveEdges,
		labels:    make(map[Sym]struct{}),
	}
}

// emptySnapshot is the base of a graph built through the mutation API.
func emptySnapshot() *Snapshot { return &Snapshot{idx: newSnapIndexes()} }

// New returns an empty Property Graph.
func New() *Graph { return newLoadedGraph(emptySnapshot(), symbols{}, nil) }

// newLoadedGraph returns a graph that is the sealed snapshot s, with
// the given symbol table and file mapping (nil for heap snapshots). Both
// loaders — the streaming CSV loader and the .pgsnap opener — return
// one, so a loaded graph that is only validated and queried never holds
// more than its snapshot.
func newLoadedGraph(s *Snapshot, syms symbols, m *snapMapping) *Graph {
	g := &Graph{syms: syms, epoch: s.epoch, base: s, mapping: m}
	g.snap.Store(s)
	return g
}

// Close releases the file mapping behind a graph opened with
// OpenSnapshot (a no-op for ordinary graphs, and on platforms without
// mmap). After Close, the graph and everything derived from it —
// snapshots, clones, property values, validation results still holding
// its strings — must not be used: their storage may alias the unmapped
// file. Long-lived processes can simply never call Close and let
// process exit unmap.
func (g *Graph) Close() error {
	m := g.mapping
	g.mapping = nil
	return m.close()
}

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

// ovNode returns node id's overlay row, nil when the base answers.
func (g *Graph) ovNode(id NodeID) *nodeRow {
	ov := g.ov
	if ov == nil {
		return nil
	}
	if i := int(id) - ov.nodeBase; i >= 0 {
		return &ov.newNodes[i]
	}
	return ov.nodes[id]
}

// ovEdge returns edge id's overlay row, nil when the base answers.
func (g *Graph) ovEdge(id EdgeID) *edgeRow {
	ov := g.ov
	if ov == nil {
		return nil
	}
	if i := int(id) - ov.edgeBase; i >= 0 {
		return &ov.newEdges[i]
	}
	return ov.edges[id]
}

// writable returns the overlay writes go to. When a Snapshot call has
// already folded the pending writes, it first makes that fold the base,
// so the overlay only ever holds writes no snapshot has seen.
func (g *Graph) writable() *overlay {
	if s := g.snap.Load(); s != nil && s.epoch == g.epoch && s != g.base {
		g.base, g.ov = s, nil
	}
	if g.ov == nil {
		g.ov = newOverlay(g.base)
	}
	return g.ov
}

// settle folds the pending overlay into the base and returns the base.
func (g *Graph) settle() *Snapshot {
	s := g.Snapshot()
	g.base, g.ov = s, nil
	return s
}

// writeNode returns node id's overlay row for writing, copying a base
// node's row into the overlay on its first write.
func (g *Graph) writeNode(id NodeID) *nodeRow {
	ov := g.writable()
	if i := int(id) - ov.nodeBase; i >= 0 {
		return &ov.newNodes[i]
	}
	r := ov.nodes[id]
	if r == nil {
		b := g.base
		r = &nodeRow{
			label: b.NodeLabelSym(id),
			props: slices.Clone(b.NodePropsOf(id)),
			out:   slices.Clone(b.OutEdgesOf(id)),
			in:    slices.Clone(b.InEdgesOf(id)),
		}
		ov.nodes[id] = r
	}
	return r
}

// writeEdge is writeNode for edges.
func (g *Graph) writeEdge(id EdgeID) *edgeRow {
	ov := g.writable()
	if i := int(id) - ov.edgeBase; i >= 0 {
		return &ov.newEdges[i]
	}
	r := ov.edges[id]
	if r == nil {
		b := g.base
		r = &edgeRow{
			src:   b.edgeSrc.at(int(id)),
			dst:   b.edgeDst.at(int(id)),
			label: b.EdgeLabelSym(id),
			props: slices.Clone(b.EdgePropsOf(id)),
		}
		ov.edges[id] = r
	}
	return r
}

// AddNode adds a node with label λ(v) = label and returns its ID.
func (g *Graph) AddNode(label string) NodeID {
	return g.addNodeSym(g.syms.intern(label))
}

// addNodeSym is AddNode for a pre-interned label Sym — bulk loaders
// intern each header or label string once and skip per-row hashing.
func (g *Graph) addNodeSym(label Sym) NodeID {
	ov := g.writable()
	id := NodeID(ov.nodeBase + len(ov.newNodes))
	ov.newNodes = append(ov.newNodes, nodeRow{label: label})
	ov.liveNodes++
	ov.nodesAdded = true
	g.epoch++
	return id
}

// AddEdge adds an edge e with ρ(e) = (src, dst) and λ(e) = label.
func (g *Graph) AddEdge(src, dst NodeID, label string) (EdgeID, error) {
	return g.addEdgeSym(src, dst, g.syms.intern(label))
}

// addEdgeSym is AddEdge for a pre-interned label Sym.
func (g *Graph) addEdgeSym(src, dst NodeID, label Sym) (EdgeID, error) {
	if !g.validNode(src) {
		return 0, fmt.Errorf("pg: AddEdge: invalid source node %d", src)
	}
	if !g.validNode(dst) {
		return 0, fmt.Errorf("pg: AddEdge: invalid target node %d", dst)
	}
	ov := g.writable()
	id := EdgeID(ov.edgeBase + len(ov.newEdges))
	ov.newEdges = append(ov.newEdges, edgeRow{src: src, dst: dst, label: label})
	s := g.writeNode(src)
	s.out = append(s.out, id)
	d := g.writeNode(dst)
	d.in = append(d.in, id)
	ov.liveEdges++
	ov.edgesAdded = true
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
	return id >= 0 && int(id) < g.NodeBound() && g.NodeLabelSym(id) != NoSym
}

func (g *Graph) validEdge(id EdgeID) bool {
	return id >= 0 && int(id) < g.EdgeBound() && g.EdgeLabelSym(id) != NoSym
}

// NumNodes returns |V|.
func (g *Graph) NumNodes() int {
	if g.ov != nil {
		return g.ov.liveNodes
	}
	return g.base.liveNodes
}

// NumEdges returns |E|.
func (g *Graph) NumEdges() int {
	if g.ov != nil {
		return g.ov.liveEdges
	}
	return g.base.liveEdges
}

// NodeBound returns the exclusive upper bound of node IDs ever
// allocated, including removed ones. Hot loops iterate id ∈ [0,
// NodeBound()) and skip !HasNode(id) instead of materializing Nodes().
func (g *Graph) NodeBound() int {
	if ov := g.ov; ov != nil {
		return ov.nodeBase + len(ov.newNodes)
	}
	return g.base.NodeBound()
}

// EdgeBound returns the exclusive upper bound of edge IDs ever
// allocated, including removed ones.
func (g *Graph) EdgeBound() int {
	if ov := g.ov; ov != nil {
		return ov.edgeBase + len(ov.newEdges)
	}
	return g.base.EdgeBound()
}

// Nodes returns the IDs of all nodes in insertion order.
func (g *Graph) Nodes() []NodeID {
	out := make([]NodeID, 0, g.NumNodes())
	for v := range NodeID(g.NodeBound()) {
		if g.NodeLabelSym(v) != NoSym {
			out = append(out, v)
		}
	}
	return out
}

// Edges returns the IDs of all edges in insertion order.
func (g *Graph) Edges() []EdgeID {
	out := make([]EdgeID, 0, g.NumEdges())
	for e := range EdgeID(g.EdgeBound()) {
		if g.EdgeLabelSym(e) != NoSym {
			out = append(out, e)
		}
	}
	return out
}

// HasNode reports whether id is a live node.
func (g *Graph) HasNode(id NodeID) bool { return g.validNode(id) }

// HasEdge reports whether id is a live edge.
func (g *Graph) HasEdge(id EdgeID) bool { return g.validEdge(id) }

// NodeLabel returns λ(v), or "" for a removed node.
func (g *Graph) NodeLabel(id NodeID) string {
	if ls := g.NodeLabelSym(id); ls != NoSym {
		return g.syms.names[ls]
	}
	return ""
}

// EdgeLabel returns λ(e), or "" for a removed edge.
func (g *Graph) EdgeLabel(id EdgeID) string {
	if ls := g.EdgeLabelSym(id); ls != NoSym {
		return g.syms.names[ls]
	}
	return ""
}

// NodeLabelSym returns λ(v) as an interned Sym, or NoSym for a removed
// node.
func (g *Graph) NodeLabelSym(id NodeID) Sym {
	if r := g.ovNode(id); r != nil {
		return r.label
	}
	return g.base.NodeLabelSym(id)
}

// EdgeLabelSym returns λ(e) as an interned Sym, or NoSym for a removed
// edge.
func (g *Graph) EdgeLabelSym(id EdgeID) Sym {
	if r := g.ovEdge(id); r != nil {
		return r.label
	}
	return g.base.EdgeLabelSym(id)
}

// Endpoints returns ρ(e) = (src, dst); a removed edge keeps its
// endpoints.
func (g *Graph) Endpoints(id EdgeID) (src, dst NodeID) {
	if r := g.ovEdge(id); r != nil {
		return r.src, r.dst
	}
	return g.base.Endpoints(id)
}

// SetNodeLabel relabels a live node; on a removed node it does nothing.
func (g *Graph) SetNodeLabel(id NodeID, label string) {
	g.relabel(id, g.syms.intern(label))
}

// relabel sets λ(v) = ls; relabeling to the current label, or a removed
// node, is no write.
func (g *Graph) relabel(id NodeID, ls Sym) {
	if !g.validNode(id) || g.NodeLabelSym(id) == ls {
		return
	}
	r := g.writeNode(id)
	ov := g.ov
	ov.labels[r.label] = struct{}{}
	ov.labels[ls] = struct{}{}
	ov.nodesRelabeled = true
	r.label, r.touched = ls, true
	g.epoch++
}

// SetEdgeLabel relabels a live edge; on a removed edge it does nothing.
func (g *Graph) SetEdgeLabel(id EdgeID, label string) {
	if !g.validEdge(id) {
		return
	}
	r := g.writeEdge(id)
	r.label = g.syms.intern(label)
	g.ov.edgesRelabeled = true
	g.epoch++
}

// SetNodeProp sets σ(v, name) = v on a live node; on a removed node it
// does nothing.
func (g *Graph) SetNodeProp(id NodeID, name string, v values.Value) {
	if !g.validNode(id) {
		return
	}
	r := g.writeNode(id)
	r.props = setProp(r.props, Prop{Sym: g.syms.intern(name), Name: name, Value: v})
	r.touched = true
	g.ov.nodePropOps = true
	g.epoch++
}

// SetEdgeProp sets σ(e, name) = v on a live edge; on a removed edge it
// does nothing.
func (g *Graph) SetEdgeProp(id EdgeID, name string, v values.Value) {
	if !g.validEdge(id) {
		return
	}
	r := g.writeEdge(id)
	r.props = setProp(r.props, Prop{Sym: g.syms.intern(name), Name: name, Value: v})
	g.ov.edgePropOps = true
	g.epoch++
}

// setNodePropsSorted installs the full property list of a node that has
// none yet: props must be sorted by Name with distinct names, and the
// graph takes ownership of the slice. Bulk loaders use it to skip the
// per-property sorted insertion and bump the epoch once per node.
func (g *Graph) setNodePropsSorted(id NodeID, props []Prop) {
	g.writeNode(id).props = props
	g.ov.nodePropOps = true
	g.epoch++
}

// setEdgePropsSorted is setNodePropsSorted for an edge.
func (g *Graph) setEdgePropsSorted(id EdgeID, props []Prop) {
	g.writeEdge(id).props = props
	g.ov.edgePropOps = true
	g.epoch++
}

// DeleteNodeProp removes (v, name) from dom(σ). Deleting a property
// the node does not hold (or any property of a removed node) does
// nothing and leaves the epoch alone.
func (g *Graph) DeleteNodeProp(id NodeID, name string) {
	if g.deleteNodeProp(id, name) {
		g.epoch++
	}
}

// deleteNodeProp removes (v, name) without an epoch bump, reporting
// whether the property existed.
func (g *Graph) deleteNodeProp(id NodeID, name string) bool {
	if _, ok := g.NodeProp(id, name); !ok {
		return false
	}
	r := g.writeNode(id)
	r.props = delProp(r.props, name)
	r.touched = true
	g.ov.nodePropOps = true
	return true
}

// DeleteEdgeProp removes (e, name) from dom(σ), like DeleteNodeProp.
func (g *Graph) DeleteEdgeProp(id EdgeID, name string) {
	if g.deleteEdgeProp(id, name) {
		g.epoch++
	}
}

func (g *Graph) deleteEdgeProp(id EdgeID, name string) bool {
	if _, ok := g.EdgeProp(id, name); !ok {
		return false
	}
	r := g.writeEdge(id)
	r.props = delProp(r.props, name)
	g.ov.edgePropOps = true
	return true
}

// setProp inserts or overwrites an entry, keeping props sorted by Name.
func setProp(props []Prop, p Prop) []Prop {
	i := sort.Search(len(props), func(i int) bool { return props[i].Name >= p.Name })
	if i < len(props) && props[i].Name == p.Name {
		props[i].Value = p.Value
		return props
	}
	return slices.Insert(props, i, p)
}

func delProp(props []Prop, name string) []Prop {
	i := sort.Search(len(props), func(i int) bool { return props[i].Name >= name })
	if i < len(props) && props[i].Name == name {
		return slices.Delete(props, i, i+1)
	}
	return props
}

// NodeProp returns σ(v, name) and whether (v, name) ∈ dom(σ).
func (g *Graph) NodeProp(id NodeID, name string) (values.Value, bool) {
	s, ok := g.syms.lookup(name)
	if !ok {
		return values.Value{}, false
	}
	return g.NodePropBySym(id, s)
}

// EdgeProp returns σ(e, name) and whether (e, name) ∈ dom(σ).
func (g *Graph) EdgeProp(id EdgeID, name string) (values.Value, bool) {
	s, ok := g.syms.lookup(name)
	if !ok {
		return values.Value{}, false
	}
	return g.EdgePropBySym(id, s)
}

// NodePropBySym returns σ(v, name) for an interned property name.
// Passing NoSym (or a Sym never used as one of this node's property
// names) reports false.
func (g *Graph) NodePropBySym(id NodeID, s Sym) (values.Value, bool) {
	if r := g.ovNode(id); r != nil {
		return propBySym(r.props, s)
	}
	return g.base.NodePropBySym(id, s)
}

// EdgePropBySym returns σ(e, name) for an interned property name.
func (g *Graph) EdgePropBySym(id EdgeID, s Sym) (values.Value, bool) {
	if r := g.ovEdge(id); r != nil {
		return propBySym(r.props, s)
	}
	return g.base.EdgePropBySym(id, s)
}

func propBySym(props []Prop, s Sym) (values.Value, bool) {
	for i := range props {
		if props[i].Sym == s {
			return props[i].Value, true
		}
	}
	return values.Value{}, false
}

// NodeProps returns the node's properties sorted by name. The slice may
// be shared with the graph: callers must not mutate it, and it is
// invalidated by the next mutation of this node's properties.
func (g *Graph) NodeProps(id NodeID) []Prop {
	if r := g.ovNode(id); r != nil {
		return r.props
	}
	return g.base.NodePropsOf(id)
}

// EdgeProps returns the edge's properties sorted by name, under the
// same contract as NodeProps.
func (g *Graph) EdgeProps(id EdgeID) []Prop {
	if r := g.ovEdge(id); r != nil {
		return r.props
	}
	return g.base.EdgePropsOf(id)
}

// NodePropNames returns the sorted property names defined on the node.
func (g *Graph) NodePropNames(id NodeID) []string {
	return propNames(g.NodeProps(id))
}

// EdgePropNames returns the sorted property names defined on the edge.
func (g *Graph) EdgePropNames(id EdgeID) []string {
	return propNames(g.EdgeProps(id))
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

// NodesLabeled returns the IDs of all live nodes with λ(v) = label, in
// ascending order.
func (g *Graph) NodesLabeled(label string) []NodeID {
	ls, ok := g.syms.lookup(label)
	if !ok {
		return nil
	}
	if s := g.snap.Load(); s != nil && s.epoch == g.epoch {
		return slices.Clone(s.LabelNodes(ls))
	}
	// Pending writes no snapshot has folded yet (a graph being built
	// through the mutation API): one scan, instead of a fold per call.
	var out []NodeID
	for v := range NodeID(g.NodeBound()) {
		if g.NodeLabelSym(v) == ls {
			out = append(out, v)
		}
	}
	return out
}

// OutEdges returns the live outgoing edges of the node, in edge-id
// order, as a fresh slice.
func (g *Graph) OutEdges(id NodeID) []EdgeID {
	raw := g.OutEdgesRaw(id)
	return append(make([]EdgeID, 0, len(raw)), raw...)
}

// InEdges returns the live incoming edges of the node as a fresh slice.
func (g *Graph) InEdges(id NodeID) []EdgeID {
	raw := g.InEdgesRaw(id)
	return append(make([]EdgeID, 0, len(raw)), raw...)
}

// OutEdgesRaw returns the node's live outgoing edges in edge-id order,
// shared with the graph: callers must not mutate it, and it is
// invalidated by the next mutation.
func (g *Graph) OutEdgesRaw(id NodeID) []EdgeID {
	if r := g.ovNode(id); r != nil {
		return r.out
	}
	return g.base.OutEdgesOf(id)
}

// InEdgesRaw returns the node's live incoming edges, shared with the
// graph under the same contract as OutEdgesRaw.
func (g *Graph) InEdgesRaw(id NodeID) []EdgeID {
	if r := g.ovNode(id); r != nil {
		return r.in
	}
	return g.base.InEdgesOf(id)
}

// OutEdgesLabeled returns the node's live outgoing edges with λ(e) = label.
func (g *Graph) OutEdgesLabeled(id NodeID, label string) []EdgeID {
	return g.edgesLabeled(g.OutEdgesRaw(id), label)
}

// InEdgesLabeled returns the node's live incoming edges with λ(e) = label.
func (g *Graph) InEdgesLabeled(id NodeID, label string) []EdgeID {
	return g.edgesLabeled(g.InEdgesRaw(id), label)
}

func (g *Graph) edgesLabeled(ids []EdgeID, label string) []EdgeID {
	ls, ok := g.syms.lookup(label)
	if !ok {
		return nil
	}
	var out []EdgeID
	for _, e := range ids {
		if g.EdgeLabelSym(e) == ls {
			out = append(out, e)
		}
	}
	return out
}

// OutDegreeLabeled counts the node's live outgoing edges with the label.
func (g *Graph) OutDegreeLabeled(id NodeID, label string) int {
	return len(g.OutEdgesLabeled(id, label))
}

// RemoveEdge deletes an edge. The ID is never reused.
func (g *Graph) RemoveEdge(id EdgeID) {
	if !g.validEdge(id) {
		return
	}
	r := g.writeEdge(id)
	src := g.writeNode(r.src)
	src.out = without(src.out, id)
	dst := g.writeNode(r.dst)
	dst.in = without(dst.in, id)
	ov := g.ov
	if len(r.props) > 0 {
		ov.edgePropOps = true
	}
	r.label, r.props = NoSym, nil
	ov.liveEdges--
	ov.edgesRemoved = true
	g.epoch++
}

func without(list []EdgeID, id EdgeID) []EdgeID {
	i := slices.Index(list, id)
	return slices.Delete(list, i, i+1)
}

// RemoveNode deletes a node together with all its incident edges.
func (g *Graph) RemoveNode(id NodeID) {
	if !g.validNode(id) {
		return
	}
	for _, e := range slices.Clone(g.OutEdgesRaw(id)) {
		g.RemoveEdge(e)
	}
	for _, e := range slices.Clone(g.InEdgesRaw(id)) {
		g.RemoveEdge(e)
	}
	r := g.writeNode(id)
	ov := g.ov
	ov.labels[r.label] = struct{}{}
	if len(r.props) > 0 {
		ov.nodePropOps = true
	}
	r.label, r.props, r.touched = NoSym, nil, true
	ov.liveNodes--
	ov.nodesRemoved = true
	g.epoch++
}

// Labels returns the distinct node labels present in the graph, sorted.
func (g *Graph) Labels() []string {
	s := g.Snapshot()
	var out []string
	for sym := range s.symNames {
		if len(s.LabelNodes(Sym(sym))) > 0 {
			out = append(out, g.syms.names[sym])
		}
	}
	sort.Strings(out)
	return out
}

// Clone returns an independent copy of the graph. The clone shares the
// graph's immutable snapshot (folding pending writes first) and writes
// into its own overlay, so either side can mutate without the other
// seeing it. Syms and the epoch carry over, so structures bound to the
// original at the current epoch describe the clone equally well until
// either side mutates. A clone of a mapped graph reads the same
// mapping: it must not be used after the original's Close.
func (g *Graph) Clone() *Graph {
	s := g.Snapshot()
	c := &Graph{syms: g.syms.clone(), epoch: g.epoch, base: s}
	c.snap.Store(s)
	return c
}
