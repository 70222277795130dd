package pg

import (
	"fmt"
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

type undoKind uint8

const (
	undoAddNode undoKind = iota
	undoAddEdge
	undoRelabel
	undoNodeProp
	undoEdgeProp
	undoRemoveEdge
	undoRemoveNode
)

// undoStep records how to revert one primitive mutation. Steps are
// replayed in reverse, so "append" mutations undo by popping the last
// element and positional removals undo by re-inserting at the recorded
// position.
type undoStep struct {
	kind undoKind
	node NodeID
	edge EdgeID
	sym  Sym    // undoRelabel, undoRemoveNode: label whose bucket changed
	pos  int    // undoRelabel, undoRemoveNode: byLabel position to restore
	name string // undoNodeProp, undoEdgeProp: property name
	val  values.Value
	had  bool // property steps: the property existed before the change
}

// Undo reverts one successful Apply. It also carries the apply's
// outcome metadata: the IDs of created elements and the Touched
// summary that feeds incremental revalidation.
type Undo struct {
	g        *Graph
	before   uint64 // epoch when Apply started
	after    uint64 // epoch when Apply returned
	steps    []undoStep
	newNodes []NodeID
	newEdges []EdgeID
	touched  Touched
	oldSnap  *Snapshot // pre-apply snapshot, when one was cached
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

// Undo reverts the applied delta. It fails if the graph has been
// mutated since Apply returned (the undo log only describes the state
// Apply left behind) or if the undo already ran. Undoing is itself a
// mutation: the epoch moves forward — it never rewinds, so structures
// cached against the applied epoch can never be confused with the
// restored state.
func (u *Undo) Undo() error {
	if u.done {
		return fmt.Errorf("pg: Undo: already undone")
	}
	if u.g.epoch != u.after {
		return fmt.Errorf("pg: Undo: graph mutated since Apply (epoch %d, want %d)", u.g.epoch, u.after)
	}
	u.g.replayUndo(u.steps)
	u.g.epoch++
	u.done = true
	if u.oldSnap != nil {
		// The pre-apply snapshot describes the restored content; re-stamp
		// it with the new epoch (snapshots are immutable, so take a
		// shallow copy) and reinstall it.
		restamped := *u.oldSnap
		restamped.epoch = u.g.epoch
		u.g.snap.Store(&restamped)
	}
	return nil
}

// replayUndo reverts the recorded steps in reverse order, mutating the
// graph structures directly without epoch bumps (callers account for
// the epoch once).
func (g *Graph) replayUndo(steps []undoStep) {
	g.ensureStore()
	for i := len(steps) - 1; i >= 0; i-- {
		st := &steps[i]
		switch st.kind {
		case undoAddNode:
			n := &g.nodes[st.node]
			b := &g.byLabel[n.label]
			*b = (*b)[:len(*b)-1]
			g.nodes = g.nodes[:len(g.nodes)-1]
		case undoAddEdge:
			e := &g.edges[st.edge]
			srcOut := &g.nodes[e.src].out
			*srcOut = (*srcOut)[:len(*srcOut)-1]
			dstIn := &g.nodes[e.dst].in
			*dstIn = (*dstIn)[:len(*dstIn)-1]
			g.edges = g.edges[:len(g.edges)-1]
		case undoRelabel:
			n := &g.nodes[st.node]
			b := &g.byLabel[n.label]
			*b = (*b)[:len(*b)-1]
			n.label = st.sym
			g.byLabel[st.sym] = insertID(g.byLabel[st.sym], st.pos, st.node)
		case undoNodeProp:
			n := &g.nodes[st.node]
			if st.had {
				n.props = setProp(n.props, Prop{Sym: g.syms.intern(st.name), Name: st.name, Value: st.val})
			} else {
				n.props = delProp(n.props, st.name)
			}
		case undoEdgeProp:
			e := &g.edges[st.edge]
			if st.had {
				e.props = setProp(e.props, Prop{Sym: g.syms.intern(st.name), Name: st.name, Value: st.val})
			} else {
				e.props = delProp(e.props, st.name)
			}
		case undoRemoveEdge:
			g.edges[st.edge].removed = false
			g.removedEdges--
		case undoRemoveNode:
			g.nodes[st.node].removed = false
			g.removedNodes--
			g.byLabel[st.sym] = insertID(g.byLabel[st.sym], st.pos, st.node)
		}
	}
}

func insertID(ids []NodeID, pos int, id NodeID) []NodeID {
	ids = append(ids, 0)
	copy(ids[pos+1:], ids[pos:])
	ids[pos] = id
	return ids
}

func indexOfID(ids []NodeID, id NodeID) int {
	for i, x := range ids {
		if x == id {
			return i
		}
	}
	return -1
}

// changeSet records what one or more applies changed: the Touched
// accumulators plus the column-level change flags that drive the
// snapshot patch.
type changeSet struct {
	tNodes  map[NodeID]struct{}
	tEdges  map[EdgeID]struct{}
	tLabels map[string]struct{}

	nodesAdded     bool
	edgesAdded     bool
	edgesRemoved   bool
	nodesRelabeled bool
	nodesRemoved   bool
	nodePropOps    bool // property row of a pre-existing node changed
	edgePropOps    bool
}

func newChangeSet() changeSet {
	return changeSet{
		tNodes:  make(map[NodeID]struct{}),
		tEdges:  make(map[EdgeID]struct{}),
		tLabels: make(map[string]struct{}),
	}
}

// merge folds o into c, so one patch can cover several applies.
func (c *changeSet) merge(o *changeSet) {
	for id := range o.tNodes {
		c.tNodes[id] = struct{}{}
	}
	for id := range o.tEdges {
		c.tEdges[id] = struct{}{}
	}
	for l := range o.tLabels {
		c.tLabels[l] = struct{}{}
	}
	c.nodesAdded = c.nodesAdded || o.nodesAdded
	c.edgesAdded = c.edgesAdded || o.edgesAdded
	c.edgesRemoved = c.edgesRemoved || o.edgesRemoved
	c.nodesRelabeled = c.nodesRelabeled || o.nodesRelabeled
	c.nodesRemoved = c.nodesRemoved || o.nodesRemoved
	c.nodePropOps = c.nodePropOps || o.nodePropOps
	c.edgePropOps = c.edgePropOps || o.edgePropOps
}

// applyState accumulates the bookkeeping of one Apply run.
type applyState struct {
	u *Undo
	changeSet
}

// Apply installs the delta atomically: either every mutation is
// applied and a non-nil Undo is returned, or the graph is left exactly
// as it was (same content, same epoch) and an error describes the
// first offending mutation. On success the epoch has advanced and, if
// a snapshot of the pre-apply state was cached, a patched snapshot of
// the new state is installed so the next validation does not pay a
// full columnar rebuild.
//
// Apply is not safe for concurrent use with other mutations or with
// readers; callers serialize writes (the HTTP server holds its writer
// lock across Apply).
func (g *Graph) Apply(d Delta) (*Undo, error) {
	u, st, err := g.apply(d)
	if err != nil {
		return nil, err
	}
	if u.after != u.before {
		if old := g.snap.Load(); old != nil && old.epoch == u.before {
			u.oldSnap = old
			if patched := g.patchSnapshot(old, st.patchPlan(g)); patched != nil {
				g.snap.Store(patched)
			}
		}
	}
	return u, nil
}

// apply is Apply without the snapshot patch: log replay folds many
// applies into one patch at the end (see ReplayLog). A failed apply
// also forgets the symbols it interned, so the graph is left exactly
// as it was.
func (g *Graph) apply(d Delta) (*Undo, *applyState, error) {
	g.ensureStore()
	st := &applyState{u: &Undo{g: g, before: g.epoch}, changeSet: newChangeSet()}
	syms, buckets := len(g.syms.names), len(g.byLabel)
	if err := g.applyAll(d, st); err != nil {
		g.replayUndo(st.u.steps)
		g.epoch = st.u.before
		g.syms.truncate(syms)
		g.byLabel = g.byLabel[:buckets]
		return nil, nil, err
	}
	u := st.u
	u.after = g.epoch
	u.touched = st.finishTouched()
	return u, st, nil
}

func (g *Graph) applyAll(d Delta, st *applyState) error {
	u := st.u
	for i, an := range d.AddNodes {
		id := g.addNodeSym(g.syms.intern(an.Label))
		u.steps = append(u.steps, undoStep{kind: undoAddNode, node: id})
		u.newNodes = append(u.newNodes, id)
		st.tNodes[id] = struct{}{}
		st.tLabels[an.Label] = struct{}{}
		st.nodesAdded = true
		for _, p := range an.Props {
			if err := g.applySetNodeProp(id, p.Name, p.Value, st); err != nil {
				return fmt.Errorf("pg: Apply: AddNodes[%d]: %v", i, err)
			}
		}
	}
	for i, ae := range d.AddEdges {
		src, err := st.resolveNode(ae.Src)
		if err != nil {
			return fmt.Errorf("pg: Apply: AddEdges[%d]: source: %v", i, err)
		}
		dst, err := st.resolveNode(ae.Dst)
		if err != nil {
			return fmt.Errorf("pg: Apply: AddEdges[%d]: target: %v", i, err)
		}
		id, err := g.addEdgeSym(src, dst, g.syms.intern(ae.Label))
		if err != nil {
			return fmt.Errorf("pg: Apply: AddEdges[%d]: %v", i, err)
		}
		u.steps = append(u.steps, undoStep{kind: undoAddEdge, edge: id})
		u.newEdges = append(u.newEdges, id)
		st.tEdges[id] = struct{}{}
		st.edgesAdded = true
		for _, p := range ae.Props {
			if err := g.applySetEdgeProp(id, p.Name, p.Value, st); err != nil {
				return fmt.Errorf("pg: Apply: AddEdges[%d]: %v", i, err)
			}
		}
	}
	for i, rl := range d.RelabelNodes {
		id, err := st.resolveNode(rl.Node)
		if err != nil {
			return fmt.Errorf("pg: Apply: RelabelNodes[%d]: %v", i, err)
		}
		n := &g.nodes[id]
		ls := g.syms.intern(rl.Label)
		if n.label == ls {
			continue
		}
		prev := n.label
		pos := indexOfID(g.byLabel[prev], id)
		u.steps = append(u.steps, undoStep{kind: undoRelabel, node: id, sym: prev, pos: pos})
		st.tNodes[id] = struct{}{}
		st.tLabels[g.syms.names[prev]] = struct{}{}
		st.tLabels[rl.Label] = struct{}{}
		st.nodesRelabeled = true
		g.byLabel[prev] = removeID(g.byLabel[prev], id)
		n.label = ls
		b := g.labelBucket(ls)
		*b = append(*b, id)
		g.epoch++
	}
	for i, sp := range d.SetNodeProps {
		id, err := st.resolveNode(sp.Node)
		if err != nil {
			return fmt.Errorf("pg: Apply: SetNodeProps[%d]: %v", i, err)
		}
		if err := g.applySetNodeProp(id, sp.Name, sp.Value, st); err != nil {
			return fmt.Errorf("pg: Apply: SetNodeProps[%d]: %v", i, err)
		}
	}
	for i, dp := range d.DelNodeProps {
		id, err := st.resolveNode(dp.Node)
		if err != nil {
			return fmt.Errorf("pg: Apply: DelNodeProps[%d]: %v", i, err)
		}
		prev, had := getProp(g.nodes[id].props, dp.Name)
		if had {
			u.steps = append(u.steps, undoStep{kind: undoNodeProp, node: id, name: dp.Name, val: prev, had: true})
			g.nodes[id].props = delProp(g.nodes[id].props, dp.Name)
			g.epoch++
			st.markNodePropChange(id)
		}
	}
	for i, sp := range d.SetEdgeProps {
		id, err := st.resolveEdge(sp.Edge)
		if err != nil {
			return fmt.Errorf("pg: Apply: SetEdgeProps[%d]: %v", i, err)
		}
		if err := g.applySetEdgeProp(id, sp.Name, sp.Value, st); err != nil {
			return fmt.Errorf("pg: Apply: SetEdgeProps[%d]: %v", i, err)
		}
	}
	for i, dp := range d.DelEdgeProps {
		id, err := st.resolveEdge(dp.Edge)
		if err != nil {
			return fmt.Errorf("pg: Apply: DelEdgeProps[%d]: %v", i, err)
		}
		prev, had := getProp(g.edges[id].props, dp.Name)
		if had {
			u.steps = append(u.steps, undoStep{kind: undoEdgeProp, edge: id, name: dp.Name, val: prev, had: true})
			g.edges[id].props = delProp(g.edges[id].props, dp.Name)
			g.epoch++
			st.markEdgePropChange(id)
		}
	}
	for i, re := range d.RemoveEdges {
		id, err := st.resolveEdge(re)
		if err != nil {
			return fmt.Errorf("pg: Apply: RemoveEdges[%d]: %v", i, err)
		}
		g.applyRemoveEdge(id, st)
	}
	for i, rn := range d.RemoveNodes {
		id, err := st.resolveNode(rn)
		if err != nil {
			return fmt.Errorf("pg: Apply: RemoveNodes[%d]: %v", i, err)
		}
		for _, eid := range g.nodes[id].out {
			if g.validEdge(eid) {
				g.applyRemoveEdge(eid, st)
			}
		}
		for _, eid := range g.nodes[id].in {
			if g.validEdge(eid) {
				g.applyRemoveEdge(eid, st)
			}
		}
		n := &g.nodes[id]
		pos := indexOfID(g.byLabel[n.label], id)
		u.steps = append(u.steps, undoStep{kind: undoRemoveNode, node: id, sym: n.label, pos: pos})
		st.tNodes[id] = struct{}{}
		st.tLabels[g.syms.names[n.label]] = struct{}{}
		st.nodesRemoved = true
		if len(n.props) > 0 {
			st.nodePropOps = true
		}
		g.byLabel[n.label] = removeID(g.byLabel[n.label], id)
		n.removed = true
		g.removedNodes++
		g.epoch++
	}
	return nil
}

func (g *Graph) applySetNodeProp(id NodeID, name string, v values.Value, st *applyState) error {
	if name == "" {
		return fmt.Errorf("empty property name")
	}
	prev, had := getProp(g.nodes[id].props, name)
	st.u.steps = append(st.u.steps, undoStep{kind: undoNodeProp, node: id, name: name, val: prev, had: had})
	n := &g.nodes[id]
	n.props = setProp(n.props, Prop{Sym: g.syms.intern(name), Name: name, Value: v})
	g.epoch++
	st.markNodePropChange(id)
	return nil
}

func (g *Graph) applySetEdgeProp(id EdgeID, name string, v values.Value, st *applyState) error {
	if name == "" {
		return fmt.Errorf("empty property name")
	}
	prev, had := getProp(g.edges[id].props, name)
	st.u.steps = append(st.u.steps, undoStep{kind: undoEdgeProp, edge: id, name: name, val: prev, had: had})
	e := &g.edges[id]
	e.props = setProp(e.props, Prop{Sym: g.syms.intern(name), Name: name, Value: v})
	g.epoch++
	st.markEdgePropChange(id)
	return nil
}

func (g *Graph) applyRemoveEdge(id EdgeID, st *applyState) {
	st.u.steps = append(st.u.steps, undoStep{kind: undoRemoveEdge, edge: id})
	st.tEdges[id] = struct{}{}
	st.edgesRemoved = true
	if len(g.edges[id].props) > 0 {
		st.edgePropOps = true
	}
	g.edges[id].removed = true
	g.removedEdges++
	g.epoch++
}

func (c *changeSet) markNodePropChange(id NodeID) {
	c.tNodes[id] = struct{}{}
	c.nodePropOps = true
}

func (c *changeSet) markEdgePropChange(id EdgeID) {
	c.tEdges[id] = struct{}{}
	c.edgePropOps = true
}

// resolveNode maps a NodeID or NewNodeRef to a live node of the
// graph mid-apply.
func (st *applyState) resolveNode(id NodeID) (NodeID, error) {
	if id < 0 {
		i := int(-id) - 1
		if i >= len(st.u.newNodes) {
			return 0, fmt.Errorf("new-node reference %d out of range (delta adds %d nodes)", id, len(st.u.newNodes))
		}
		return st.u.newNodes[i], nil
	}
	if !st.u.g.validNode(id) {
		return 0, fmt.Errorf("node %d is not a live node", id)
	}
	return id, nil
}

// resolveEdge maps an EdgeID or NewEdgeRef to a live edge.
func (st *applyState) resolveEdge(id EdgeID) (EdgeID, error) {
	if id < 0 {
		i := int(-id) - 1
		if i >= len(st.u.newEdges) {
			return 0, fmt.Errorf("new-edge reference %d out of range (delta adds %d edges)", id, len(st.u.newEdges))
		}
		return st.u.newEdges[i], nil
	}
	if !st.u.g.validEdge(id) {
		return 0, fmt.Errorf("edge %d is not a live edge", id)
	}
	return id, nil
}

func (c *changeSet) finishTouched() Touched {
	t := Touched{}
	if len(c.tNodes) > 0 {
		t.Nodes = make([]NodeID, 0, len(c.tNodes))
		for id := range c.tNodes {
			t.Nodes = append(t.Nodes, id)
		}
		slices.Sort(t.Nodes)
	}
	if len(c.tEdges) > 0 {
		t.Edges = make([]EdgeID, 0, len(c.tEdges))
		for id := range c.tEdges {
			t.Edges = append(t.Edges, id)
		}
		slices.Sort(t.Edges)
	}
	if len(c.tLabels) > 0 {
		t.Labels = make([]string, 0, len(c.tLabels))
		for l := range c.tLabels {
			t.Labels = append(t.Labels, l)
		}
		slices.Sort(t.Labels)
	}
	return t
}

// patchPlan derives the snapshot patch inputs: per-column change flags
// plus the sorted dirty element lists. Dirty nodes include the
// endpoints of every dirty edge, because those nodes' adjacency rows
// changed even if the nodes themselves did not. Ids at or past the
// graph's current bounds are skipped: they name additions that a later
// undo in the same change set popped again.
func (c *changeSet) patchPlan(g *Graph) patchPlan {
	nn, ne := len(g.nodes), len(g.edges)
	nodeSet := make(map[NodeID]struct{}, len(c.tNodes)+2*len(c.tEdges))
	for id := range c.tNodes {
		if int(id) < nn {
			nodeSet[id] = struct{}{}
		}
	}
	edgeDirty := make([]EdgeID, 0, len(c.tEdges))
	for id := range c.tEdges {
		if int(id) < ne {
			e := &g.edges[id]
			nodeSet[e.src] = struct{}{}
			nodeSet[e.dst] = struct{}{}
			edgeDirty = append(edgeDirty, id)
		}
	}
	slices.Sort(edgeDirty)
	labels := make(map[Sym]struct{}, len(c.tLabels)+len(c.tNodes))
	for l := range c.tLabels {
		if sym, ok := g.syms.lookup(l); ok {
			labels[sym] = struct{}{}
		}
	}
	for id := range c.tNodes {
		if int(id) < nn {
			labels[g.nodes[id].label] = struct{}{}
		}
	}
	p := patchPlan{
		touchedLabels:        labels,
		nodeDirty:            make([]NodeID, 0, len(nodeSet)),
		edgeDirty:            edgeDirty,
		nodeLabelsChanged:    c.nodesAdded || c.nodesRelabeled || c.nodesRemoved,
		nodeAdjChanged:       c.nodesAdded || c.edgesAdded || c.edgesRemoved,
		nodePropsChanged:     c.nodesAdded || c.nodePropOps,
		edgeLabelsChanged:    c.edgesAdded || c.edgesRemoved,
		edgeEndpointsChanged: c.edgesAdded,
		edgePropsChanged:     c.edgesAdded || c.edgePropOps,
	}
	for id := range nodeSet {
		p.nodeDirty = append(p.nodeDirty, id)
	}
	slices.Sort(p.nodeDirty)
	return p
}
