package pg

import (
	"fmt"
	"maps"
	"slices"

	"pgschema/internal/values"
)

// This file implements the transactional mutation surface: a Delta
// describes a batch of graph mutations, Graph.Apply installs all of
// them or none, and the returned Undo can revert the batch. Apply is
// the write path the HTTP server exposes; single-element mutators on
// Graph remain available for code that owns the graph outright.

// NewNodeRef encodes a reference to the i-th entry of Delta.AddNodes
// for use inside the same Delta (e.g. as an AddEdgeSpec endpoint or a
// RelabelSpec target). References are negative and therefore disjoint
// from real node IDs.
func NewNodeRef(i int) NodeID { return NodeID(-(i + 1)) }

// NewEdgeRef encodes a reference to the i-th entry of Delta.AddEdges,
// usable wherever the Delta names an EdgeID.
func NewEdgeRef(i int) EdgeID { return EdgeID(-(i + 1)) }

// PropEntry is one (name, value) pair of an element created by a Delta.
type PropEntry struct {
	Name  string
	Value values.Value
}

// AddNodeSpec creates a node with λ(v) = Label and the given properties.
type AddNodeSpec struct {
	Label string
	Props []PropEntry
}

// AddEdgeSpec creates an edge. Src and Dst may be existing node IDs or
// NewNodeRef references to nodes created by the same Delta.
type AddEdgeSpec struct {
	Src, Dst NodeID
	Label    string
	Props    []PropEntry
}

// RelabelSpec changes λ(v) of an existing (or same-Delta) node.
type RelabelSpec struct {
	Node  NodeID
	Label string
}

// NodePropSpec sets σ(v, Name) = Value.
type NodePropSpec struct {
	Node  NodeID
	Name  string
	Value values.Value
}

// NodePropDelSpec removes (v, Name) from dom(σ).
type NodePropDelSpec struct {
	Node NodeID
	Name string
}

// EdgePropSpec sets σ(e, Name) = Value.
type EdgePropSpec struct {
	Edge  EdgeID
	Name  string
	Value values.Value
}

// EdgePropDelSpec removes (e, Name) from dom(σ).
type EdgePropDelSpec struct {
	Edge EdgeID
	Name string
}

// Delta is a batch of graph mutations applied atomically by
// Graph.Apply. The groups are applied in field order: nodes are
// created first (so AddEdges and every later group may reference them
// via NewNodeRef), then edges, relabels, property writes, property
// deletes, and finally removals. RemoveNodes also removes the nodes'
// live incident edges, exactly like Graph.RemoveNode.
type Delta struct {
	AddNodes     []AddNodeSpec
	AddEdges     []AddEdgeSpec
	RelabelNodes []RelabelSpec
	SetNodeProps []NodePropSpec
	DelNodeProps []NodePropDelSpec
	SetEdgeProps []EdgePropSpec
	DelEdgeProps []EdgePropDelSpec
	RemoveEdges  []EdgeID
	RemoveNodes  []NodeID
}

// Empty reports whether the delta holds no mutations at all.
func (d *Delta) Empty() bool {
	return len(d.AddNodes) == 0 && len(d.AddEdges) == 0 &&
		len(d.RelabelNodes) == 0 && len(d.SetNodeProps) == 0 &&
		len(d.DelNodeProps) == 0 && len(d.SetEdgeProps) == 0 &&
		len(d.DelEdgeProps) == 0 && len(d.RemoveEdges) == 0 &&
		len(d.RemoveNodes) == 0
}

// Touched summarizes which elements a Delta changed, in the vocabulary
// incremental revalidation consumes: node IDs whose label, properties,
// or existence changed; edge IDs added, removed (including via node
// removal), or re-propertied; and the labels whose node extent changed
// — including the former labels of relabeled and removed nodes, which
// are no longer discoverable from the node alone.
type Touched struct {
	Nodes  []NodeID
	Edges  []EdgeID
	Labels []string
}

// Undo reverts one successful Apply. It also carries the apply's
// outcome metadata: the IDs of created elements and the Touched
// summary that feeds incremental revalidation.
type Undo struct {
	g        *Graph
	before   uint64    // epoch when Apply started
	after    uint64    // epoch when Apply returned
	old      *Snapshot // the graph's snapshot when Apply started
	newNodes []NodeID
	newEdges []EdgeID
	touched  Touched
	done     bool
}

// NewNodes returns the IDs assigned to Delta.AddNodes, in order.
func (u *Undo) NewNodes() []NodeID { return u.newNodes }

// NewEdges returns the IDs assigned to Delta.AddEdges, in order.
func (u *Undo) NewEdges() []EdgeID { return u.newEdges }

// Touched returns the summary of elements the apply changed.
func (u *Undo) Touched() Touched { return u.touched }

// Epoch returns the graph epoch right after the apply.
func (u *Undo) Epoch() uint64 { return u.after }

// Undo reverts the applied delta by re-installing the snapshot the
// apply started from. It fails if the graph has been mutated since
// Apply returned or if the undo already ran. Undoing is itself a
// mutation: the epoch moves forward — it never rewinds, so structures
// cached against the applied epoch can never be confused with the
// restored state. Symbols the apply interned stay interned.
func (u *Undo) Undo() error {
	if u.done {
		return fmt.Errorf("pg: Undo: already undone")
	}
	g := u.g
	if g.epoch != u.after {
		return fmt.Errorf("pg: Undo: graph mutated since Apply (epoch %d, want %d)", g.epoch, u.after)
	}
	g.epoch++
	u.done = true
	// The old snapshot describes the restored content; re-stamp it with
	// the new epoch (snapshots are immutable, so take a shallow copy).
	restamped := *u.old
	restamped.epoch = g.epoch
	g.base, g.ov = &restamped, nil
	g.snap.Store(&restamped)
	return nil
}

// Apply installs the delta atomically: either every mutation is
// applied and a non-nil Undo is returned, or the graph is left exactly
// as it was (same content, same epoch, same symbols) and an error
// describes the first offending mutation. Apply folds any pending
// writes first, applies the delta into a fresh overlay, and folds that
// eagerly, so the next validation reads a ready snapshot.
//
// Apply is not safe for concurrent use with other mutations or with
// readers; callers serialize writes (the HTTP server holds its writer
// lock across Apply).
func (g *Graph) Apply(d Delta) (*Undo, error) {
	g.settle()
	u, err := g.apply(d)
	if err != nil {
		return nil, err
	}
	if g.ov != nil {
		// The overlay holds only this delta here; log replay, which
		// applies many records into one overlay, never summarizes it.
		u.touched = g.ov.touched(g)
	}
	g.settle()
	return u, nil
}

// apply applies the delta into the graph's overlay without folding it:
// log replay folds many applies at once (see ReplayLog). Undo needs the
// apply to start with no pending overlay. A failed apply drops the
// overlay and forgets the symbols it interned; started on a fresh
// overlay (as Apply does), that leaves the graph exactly as it was.
func (g *Graph) apply(d Delta) (*Undo, error) {
	u := &Undo{g: g, before: g.epoch}
	if g.ov == nil {
		u.old = g.base
	}
	syms := len(g.syms.names)
	if err := g.applyAll(d, u); err != nil {
		g.ov = nil
		g.epoch = u.before
		g.syms.truncate(syms)
		return nil, err
	}
	u.after = g.epoch
	return u, nil
}

func (g *Graph) applyAll(d Delta, u *Undo) error {
	for i, an := range d.AddNodes {
		id := g.addNodeSym(g.syms.intern(an.Label))
		u.newNodes = append(u.newNodes, id)
		for _, p := range an.Props {
			if err := g.applySetNodeProp(id, p.Name, p.Value); err != nil {
				return fmt.Errorf("pg: Apply: AddNodes[%d]: %v", i, err)
			}
		}
	}
	for i, ae := range d.AddEdges {
		src, err := u.resolveNode(ae.Src)
		if err != nil {
			return fmt.Errorf("pg: Apply: AddEdges[%d]: source: %v", i, err)
		}
		dst, err := u.resolveNode(ae.Dst)
		if err != nil {
			return fmt.Errorf("pg: Apply: AddEdges[%d]: target: %v", i, err)
		}
		id, err := g.addEdgeSym(src, dst, g.syms.intern(ae.Label))
		if err != nil {
			return fmt.Errorf("pg: Apply: AddEdges[%d]: %v", i, err)
		}
		u.newEdges = append(u.newEdges, id)
		for _, p := range ae.Props {
			if err := g.applySetEdgeProp(id, p.Name, p.Value); err != nil {
				return fmt.Errorf("pg: Apply: AddEdges[%d]: %v", i, err)
			}
		}
	}
	for i, rl := range d.RelabelNodes {
		id, err := u.resolveNode(rl.Node)
		if err != nil {
			return fmt.Errorf("pg: Apply: RelabelNodes[%d]: %v", i, err)
		}
		g.relabel(id, g.syms.intern(rl.Label))
	}
	for i, sp := range d.SetNodeProps {
		id, err := u.resolveNode(sp.Node)
		if err != nil {
			return fmt.Errorf("pg: Apply: SetNodeProps[%d]: %v", i, err)
		}
		if err := g.applySetNodeProp(id, sp.Name, sp.Value); err != nil {
			return fmt.Errorf("pg: Apply: SetNodeProps[%d]: %v", i, err)
		}
	}
	for i, dp := range d.DelNodeProps {
		id, err := u.resolveNode(dp.Node)
		if err != nil {
			return fmt.Errorf("pg: Apply: DelNodeProps[%d]: %v", i, err)
		}
		if g.deleteNodeProp(id, dp.Name) {
			g.epoch++
		}
	}
	for i, sp := range d.SetEdgeProps {
		id, err := u.resolveEdge(sp.Edge)
		if err != nil {
			return fmt.Errorf("pg: Apply: SetEdgeProps[%d]: %v", i, err)
		}
		if err := g.applySetEdgeProp(id, sp.Name, sp.Value); err != nil {
			return fmt.Errorf("pg: Apply: SetEdgeProps[%d]: %v", i, err)
		}
	}
	for i, dp := range d.DelEdgeProps {
		id, err := u.resolveEdge(dp.Edge)
		if err != nil {
			return fmt.Errorf("pg: Apply: DelEdgeProps[%d]: %v", i, err)
		}
		if g.deleteEdgeProp(id, dp.Name) {
			g.epoch++
		}
	}
	for i, re := range d.RemoveEdges {
		id, err := u.resolveEdge(re)
		if err != nil {
			return fmt.Errorf("pg: Apply: RemoveEdges[%d]: %v", i, err)
		}
		g.RemoveEdge(id)
	}
	for i, rn := range d.RemoveNodes {
		id, err := u.resolveNode(rn)
		if err != nil {
			return fmt.Errorf("pg: Apply: RemoveNodes[%d]: %v", i, err)
		}
		g.RemoveNode(id)
	}
	return nil
}

func (g *Graph) applySetNodeProp(id NodeID, name string, v values.Value) error {
	if name == "" {
		return fmt.Errorf("empty property name")
	}
	g.SetNodeProp(id, name, v)
	return nil
}

func (g *Graph) applySetEdgeProp(id EdgeID, name string, v values.Value) error {
	if name == "" {
		return fmt.Errorf("empty property name")
	}
	g.SetEdgeProp(id, name, v)
	return nil
}

// resolveNode maps a NodeID or NewNodeRef to a live node of the
// graph mid-apply.
func (u *Undo) resolveNode(id NodeID) (NodeID, error) {
	if id < 0 {
		i := int(-id) - 1
		if i >= len(u.newNodes) {
			return 0, fmt.Errorf("new-node reference %d out of range (delta adds %d nodes)", id, len(u.newNodes))
		}
		return u.newNodes[i], nil
	}
	if !u.g.validNode(id) {
		return 0, fmt.Errorf("node %d is not a live node", id)
	}
	return id, nil
}

// resolveEdge maps an EdgeID or NewEdgeRef to a live edge.
func (u *Undo) resolveEdge(id EdgeID) (EdgeID, error) {
	if id < 0 {
		i := int(-id) - 1
		if i >= len(u.newEdges) {
			return 0, fmt.Errorf("new-edge reference %d out of range (delta adds %d edges)", id, len(u.newEdges))
		}
		return u.newEdges[i], nil
	}
	if !u.g.validEdge(id) {
		return 0, fmt.Errorf("edge %d is not a live edge", id)
	}
	return id, nil
}

// touched summarizes the overlay as a Touched: the written base nodes
// (not those whose adjacency alone changed) and every appended node,
// every written and appended edge, and the labels a relabel or removal
// changed plus those of the live appended nodes.
func (ov *overlay) touched(g *Graph) Touched {
	var t Touched
	for v, r := range ov.nodes {
		if r.touched {
			t.Nodes = append(t.Nodes, v)
		}
	}
	slices.Sort(t.Nodes)
	for i := range ov.newNodes {
		t.Nodes = append(t.Nodes, NodeID(ov.nodeBase+i))
	}
	for e := range ov.edges {
		t.Edges = append(t.Edges, e)
	}
	slices.Sort(t.Edges)
	for i := range ov.newEdges {
		t.Edges = append(t.Edges, EdgeID(ov.edgeBase+i))
	}
	labels := maps.Clone(ov.labels)
	for i := range ov.newNodes {
		if ls := ov.newNodes[i].label; ls != NoSym {
			labels[ls] = struct{}{}
		}
	}
	for ls := range labels {
		t.Labels = append(t.Labels, g.syms.names[ls])
	}
	slices.Sort(t.Labels)
	return t
}
