package pg

import (
	"maps"
	"slices"

	"pgschema/internal/values"
)

// The fold: Snapshot derives the snapshot of the graph's current state
// from its base and the overlay of writes made since. The overlay names
// exactly the rows that changed, so columns no write touched are shared
// outright (slice aliasing is safe — snapshots are immutable) and
// touched columns are rebuilt with bulk segment copies between dirty
// rows: the cost is memcpy bandwidth plus O(dirty) row rebuilds. A graph
// built through the mutation API folds onto an empty base, where every
// row is appended. The fold only reads the graph, so concurrent readers
// may run it.

// patchPlan describes what the overlay changed, at the granularity the
// fold needs: sorted dirty element lists (nodeDirty includes the
// endpoints of dirty edges — their adjacency rows moved — and both
// lists end with every appended element) and one flag per snapshot
// column group.
type patchPlan struct {
	nodeDirty []NodeID
	edgeDirty []EdgeID
	// touchedLabels holds the label syms whose nodes' existence, label
	// or properties changed: the key indexes over them are patched, all
	// others carried over as they are.
	touchedLabels map[Sym]struct{}
	// nodePropRows and edgePropRows are the lengths of the folded
	// property columns.
	nodePropRows, edgePropRows int

	nodeLabelsChanged    bool
	nodeAdjChanged       bool
	nodePropsChanged     bool
	edgeLabelsChanged    bool
	edgeEndpointsChanged bool
	edgePropsChanged     bool
}

// patchFraction caps how far a patched key index may drift from its
// from-scratch base: one whose overrides outgrow 1/8 of the base's
// buckets folds (the next reader rebuilds it).
const patchFraction = 8

// plan derives the fold's inputs from the overlay over base.
func (ov *overlay) plan(base *Snapshot) patchPlan {
	p := patchPlan{
		touchedLabels:        maps.Clone(ov.labels),
		nodePropRows:         int(base.nodePropOff[ov.nodeBase]),
		edgePropRows:         int(base.edgePropOff[ov.edgeBase]),
		nodeLabelsChanged:    ov.nodesAdded || ov.nodesRelabeled || ov.nodesRemoved,
		nodeAdjChanged:       ov.nodesAdded || ov.edgesAdded || ov.edgesRemoved,
		nodePropsChanged:     ov.nodesAdded || ov.nodePropOps,
		edgeLabelsChanged:    ov.edgesAdded || ov.edgesRemoved || ov.edgesRelabeled,
		edgeEndpointsChanged: ov.edgesAdded,
		edgePropsChanged:     ov.edgesAdded || ov.edgePropOps,
	}
	nodeSet := make(map[NodeID]struct{}, len(ov.nodes)+2*len(ov.edges))
	for v, r := range ov.nodes {
		nodeSet[v] = struct{}{}
		p.nodePropRows += len(r.props) - base.NodePropCount(v)
		if r.touched && r.label != NoSym {
			p.touchedLabels[r.label] = struct{}{}
		}
	}
	p.edgeDirty = make([]EdgeID, 0, len(ov.edges)+len(ov.newEdges))
	for e, r := range ov.edges {
		nodeSet[r.src] = struct{}{}
		nodeSet[r.dst] = struct{}{}
		lo, hi := base.EdgePropRow(e)
		p.edgePropRows += len(r.props) - (hi - lo)
		p.edgeDirty = append(p.edgeDirty, e)
	}
	slices.Sort(p.edgeDirty)
	p.nodeDirty = make([]NodeID, 0, len(nodeSet)+len(ov.newNodes))
	for v := range nodeSet {
		p.nodeDirty = append(p.nodeDirty, v)
	}
	slices.Sort(p.nodeDirty)
	for i := range ov.newNodes {
		p.nodeDirty = append(p.nodeDirty, NodeID(ov.nodeBase+i))
		p.nodePropRows += len(ov.newNodes[i].props)
		if ls := ov.newNodes[i].label; ls != NoSym {
			p.touchedLabels[ls] = struct{}{}
		}
	}
	for i := range ov.newEdges {
		p.edgeDirty = append(p.edgeDirty, EdgeID(ov.edgeBase+i))
		p.edgePropRows += len(ov.newEdges[i].props)
	}
	return p
}

// fold returns the snapshot of the graph's current state: its base with
// the pending overlay folded in. It always succeeds: a record-backed
// base whose overflow arena has outgrown usefulness after many
// generations — or that meets a value the record form cannot encode —
// re-bases onto heap property columns first.
func (g *Graph) fold() *Snapshot {
	base, ov := g.base, g.ov
	if ov == nil {
		ov = newOverlay(base) // an epoch bump with no write: share every column
	}
	p := ov.plan(base)
	if base.recBacked && (p.nodePropsChanged || p.edgePropsChanged) &&
		len(base.propOver) > 1<<20 && len(base.propOver) > len(base.propArena)/4 {
		base = base.onHeap()
	}
	if s := g.patch(base, ov, &p); s != nil {
		return s
	}
	return g.patch(base.onHeap(), ov, &p)
}

// onHeap returns s with its property rows read into heap columns
// through NodePropAt/EdgePropAt; every other column is shared.
func (s *Snapshot) onHeap() *Snapshot {
	if !s.recBacked {
		return s
	}
	h := *s
	h.recBacked = false
	h.nodeProps = make([]Prop, len(s.nodePropRecs))
	for i := range h.nodeProps {
		h.nodeProps[i] = s.NodePropAt(i)
	}
	h.edgeProps = make([]Prop, len(s.edgePropRecs))
	for i := range h.edgeProps {
		h.edgeProps[i] = s.EdgePropAt(i)
	}
	h.nodePropRecs, h.edgePropRecs = nil, nil
	h.propArena, h.propOver, h.propLists = nil, nil, nil
	return &h
}

// patch builds the folded snapshot from old under plan p, reading dirty
// rows through the graph's point readers (overlay first, then base). It
// returns nil only when a record-backed old meets a value the record
// form cannot encode.
func (g *Graph) patch(old *Snapshot, ov *overlay, p *patchPlan) *Snapshot {
	nn, ne := ov.nodeBase+len(ov.newNodes), ov.edgeBase+len(ov.newEdges)
	s := &Snapshot{
		epoch:     g.epoch,
		liveNodes: ov.liveNodes,
		liveEdges: ov.liveEdges,
		symNames:  g.cappedSymNames(),
		mapping:   old.mapping,
	}
	if old.recBacked {
		// Folding onto a mapped snapshot keeps the record
		// representation: clean rows stay aliased to the mapping, dirty
		// rows re-encode into a private overflow arena (copied fresh per
		// fold so the old snapshot, which Undo may retain, stays
		// immutable).
		s.recBacked = true
		s.propArena = old.propArena
		s.propOver = old.propOver
		s.propLists = old.propLists
		if p.nodePropsChanged || p.edgePropsChanged {
			over := make([]byte, len(old.propOver), len(old.propOver)+4096)
			copy(over, old.propOver)
			s.propOver = over
			s.propLists = append([]values.Value(nil), old.propLists...)
		}
	}

	s.nodeLabels = old.nodeLabels
	if p.nodeLabelsChanged {
		s.nodeLabels = make([]Sym, nn)
		copy(s.nodeLabels, old.nodeLabels)
		for _, v := range p.nodeDirty {
			s.nodeLabels[v] = g.NodeLabelSym(v)
		}
	}

	s.edgeLabels = old.edgeLabels
	if p.edgeLabelsChanged || p.edgeEndpointsChanged {
		s.edgeLabels = make([]Sym, ne)
		copy(s.edgeLabels, old.edgeLabels)
		for _, e := range p.edgeDirty {
			s.edgeLabels[e] = g.EdgeLabelSym(e)
		}
	}

	s.edgeSrc, s.edgeDst = old.edgeSrc, old.edgeDst
	if p.edgeEndpointsChanged {
		s.edgeSrc = make([]NodeID, ne)
		copy(s.edgeSrc, old.edgeSrc)
		s.edgeDst = make([]NodeID, ne)
		copy(s.edgeDst, old.edgeDst)
		for _, e := range p.edgeDirty {
			s.edgeSrc[e], s.edgeDst[e] = g.Endpoints(e)
		}
	}

	s.outOff, s.outEdges = old.outOff, old.outEdges
	s.inOff, s.inEdges = old.inOff, old.inEdges
	if p.nodeAdjChanged {
		s.outOff, s.outEdges = patchRows(old.outOff, old.outEdges, p.nodeDirty, nn, ov.liveEdges,
			func(v int, list []EdgeID) []EdgeID { return append(list, g.OutEdgesRaw(NodeID(v))...) })
		s.inOff, s.inEdges = patchRows(old.inOff, old.inEdges, p.nodeDirty, nn, ov.liveEdges,
			func(v int, list []EdgeID) []EdgeID { return append(list, g.InEdgesRaw(NodeID(v))...) })
	}

	nodeRow := func(v int) []Prop { return g.NodeProps(NodeID(v)) }
	edgeRow := func(e int) []Prop { return g.EdgeProps(EdgeID(e)) }

	s.nodePropOff, s.nodeProps, s.nodePropRecs = old.nodePropOff, old.nodeProps, old.nodePropRecs
	s.nodePropSet = old.nodePropSet
	if p.nodePropsChanged {
		if old.recBacked {
			var ok bool
			if s.nodePropOff, s.nodePropRecs, ok = patchRecs(s, old.nodePropOff, old.nodePropRecs, p.nodeDirty, nn, p.nodePropRows, nodeRow); !ok {
				return nil
			}
		} else {
			s.nodePropOff, s.nodeProps = patchRows(old.nodePropOff, old.nodeProps, p.nodeDirty, nn, p.nodePropRows, appendRow(nodeRow))
		}
		s.nodePropSet = g.patchPropSets(old.nodePropSet, p.nodeDirty, len(old.nodeLabels), nn)
	}

	s.edgePropOff, s.edgeProps, s.edgePropRecs = old.edgePropOff, old.edgeProps, old.edgePropRecs
	if p.edgePropsChanged {
		if old.recBacked {
			var ok bool
			if s.edgePropOff, s.edgePropRecs, ok = patchRecs(s, old.edgePropOff, old.edgePropRecs, p.edgeDirty, ne, p.edgePropRows, edgeRow); !ok {
				return nil
			}
		} else {
			s.edgePropOff, s.edgeProps = patchRows(old.edgePropOff, old.edgeProps, p.edgeDirty, ne, p.edgePropRows, appendRow(edgeRow))
		}
	}

	s.idx = old.idx.patchIndexes(old, s, p)
	return s
}

// patchRows rebuilds one flattened column — per-element offsets over a
// flat row array of size rows in all — for a new bound of n elements.
// Rows of clean pre-existing elements are copied in bulk segments
// between dirty ones (their contents are unchanged); rebuild appends
// the current row of a dirty element, or of one past the old bound,
// and returns the grown array.
func patchRows[T any, ID ~int](oldOff []uint32, oldRows []T, dirty []ID, n, size int, rebuild func(i int, rows []T) []T) ([]uint32, []T) {
	oldN := len(oldOff) - 1
	off := make([]uint32, n+1)
	rows := make([]T, 0, size)

	put := func(i int) {
		rows = rebuild(i, rows)
		off[i+1] = uint32(len(rows))
	}
	copySeg := func(from, to int) {
		if from >= to {
			return
		}
		shift := off[from] - oldOff[from]
		rows = append(rows, oldRows[oldOff[from]:oldOff[to]]...)
		if shift == 0 {
			copy(off[from+1:to+1], oldOff[from+1:to+1])
		} else {
			for k := from; k < to; k++ {
				off[k+1] = oldOff[k+1] + shift
			}
		}
	}

	prev := 0
	for _, d := range dirty {
		i := int(d)
		if i >= oldN {
			break
		}
		copySeg(prev, i)
		put(i)
		prev = i + 1
	}
	copySeg(prev, oldN)
	for i := oldN; i < n; i++ {
		put(i)
	}
	return off, rows
}

// appendRow adapts a row getter to patchRows' rebuild callback for
// heap property rows.
func appendRow(row func(int) []Prop) func(int, []Prop) []Prop {
	return func(i int, rows []Prop) []Prop { return append(rows, row(i)...) }
}

// patchRecs is patchRows over a record-backed property column: clean
// record rows are bulk-copied (their arena-0 payloads stay valid —
// they point into the shared mapped arena), dirty rows re-encode into
// the folded snapshot's private overflow arena and list table. Returns
// ok=false when a value cannot be encoded.
func patchRecs[ID ~int](s *Snapshot, oldOff []uint32, oldRecs []propRec, dirty []ID, n, size int, row func(int) []Prop) ([]uint32, []propRec, bool) {
	enc := recEncoder{arenaID: 1, arena: s.propOver, lists: s.propLists}
	encOK := true
	off, recs := patchRows(oldOff, oldRecs, dirty, n, size, func(i int, recs []propRec) []propRec {
		enc.recs = recs
		if err := enc.addAll(row(i)); err != nil {
			encOK = false
		}
		return enc.recs
	})
	s.propOver = enc.arena
	s.propLists = enc.lists
	return off, recs, encOK
}

// patchPropSets re-derives the per-sym property presence bitsets: copy
// every old set into word arrays sized for the new node bound, clear
// the dirty pre-existing nodes' bits everywhere, then re-set bits from
// the dirty live nodes' current property lists. Syms interned since the
// old snapshot get entries lazily, exactly like a fresh build.
func (g *Graph) patchPropSets(old [][]uint64, dirty []NodeID, oldNN, nn int) [][]uint64 {
	words := (nn + 63) / 64
	sets := make([][]uint64, len(g.syms.names))
	for sym, set := range old {
		if set == nil {
			continue
		}
		ns := make([]uint64, words)
		copy(ns, set)
		sets[sym] = ns
	}
	for _, d := range dirty {
		if int(d) >= oldNN {
			break // appended nodes start with no bits
		}
		w, bit := int(d)>>6, uint64(1)<<(uint(d)&63)
		for _, set := range sets {
			if set != nil {
				set[w] &^= bit
			}
		}
	}
	for _, d := range dirty {
		if g.NodeLabelSym(d) == NoSym {
			continue
		}
		w, bit := int(d)>>6, uint64(1)<<(uint(d)&63)
		for _, p := range g.NodeProps(d) {
			set := sets[p.Sym]
			if set == nil {
				set = make([]uint64, words)
				sets[p.Sym] = set
			}
			set[w] |= bit
		}
	}
	return sets
}
