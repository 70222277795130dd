package pg

import "pgschema/internal/values"

// Snapshot patching: Apply knows exactly which elements a delta
// touched, so instead of paying the O(V+E) columnar rebuild on the
// next Snapshot() call, it derives the new snapshot from the old one.
// Columns a delta did not touch are shared outright (slice aliasing is
// safe — snapshots are immutable); touched columns are rebuilt with
// bulk segment copies between dirty elements, so the cost is memcpy
// bandwidth plus O(dirty) row rebuilds rather than a per-element walk
// of the mutable store.

// patchPlan describes what an applied delta changed, at the
// granularity the patch needs: sorted dirty element lists (nodeDirty
// includes the endpoints of dirty edges — their adjacency rows moved)
// and one flag per snapshot column group.
type patchPlan struct {
	nodeDirty []NodeID
	edgeDirty []EdgeID
	// touchedLabels holds the label syms whose nodes' existence, label
	// or properties changed: the key indexes over them are patched, all
	// others carried over as they are.
	touchedLabels map[Sym]struct{}

	nodeLabelsChanged    bool
	nodeAdjChanged       bool
	nodePropsChanged     bool
	edgeLabelsChanged    bool
	edgeEndpointsChanged bool
	edgePropsChanged     bool
}

// patchFraction caps how much a patch may cover before it loses to a
// plain rebuild: a delta dirtying more than 1/8 of all elements gives
// up on the snapshot, and a key index whose overrides outgrow 1/8 of
// its base's buckets folds (the next reader rebuilds it).
const patchFraction = 8

// patchSnapshot builds the snapshot of the graph's current state from
// a snapshot of the pre-apply state. It returns nil when patching is
// not worthwhile (too many dirty elements relative to the graph); the
// caller then leaves the stale snapshot in place and the next
// Snapshot() call does a full rebuild.
func (g *Graph) patchSnapshot(old *Snapshot, p patchPlan) *Snapshot {
	nn, ne := len(g.nodes), len(g.edges)
	if (len(p.nodeDirty)+len(p.edgeDirty))*patchFraction > nn+ne {
		return nil
	}
	oldNN := len(old.nodeLabels)

	s := &Snapshot{
		epoch:     g.epoch,
		liveNodes: g.NumNodes(),
		liveEdges: g.NumEdges(),
		symNames:  g.cappedSymNames(),
	}
	if old.recBacked {
		// Patching a mapped snapshot keeps the record representation:
		// clean rows stay aliased to the mapping, dirty rows re-encode
		// into a private overflow arena (copied fresh per patch so the
		// old snapshot, which Undo may retain, stays immutable).
		s.recBacked = true
		s.propArena = old.propArena
		s.propOver = old.propOver
		s.propLists = old.propLists
		s.mapping = old.mapping
		if p.nodePropsChanged || p.edgePropsChanged {
			if len(old.propOver) > 1<<20 && len(old.propOver) > len(old.propArena)/4 {
				// The overflow arena has outgrown usefulness after many
				// patch generations; a full rebuild re-bases onto a
				// compact heap snapshot.
				return nil
			}
			over := make([]byte, len(old.propOver), len(old.propOver)+4096)
			copy(over, old.propOver)
			s.propOver = over
			s.propLists = append([]values.Value(nil), old.propLists...)
		}
	}

	if p.nodeLabelsChanged {
		s.nodeLabels = make([]Sym, nn)
		copy(s.nodeLabels, old.nodeLabels)
		for _, v := range p.nodeDirty {
			if g.nodes[v].removed {
				s.nodeLabels[v] = NoSym
			} else {
				s.nodeLabels[v] = g.nodes[v].label
			}
		}
	} else {
		s.nodeLabels = old.nodeLabels
	}

	if p.edgeLabelsChanged || p.edgeEndpointsChanged {
		s.edgeLabels = make([]Sym, ne)
		copy(s.edgeLabels, old.edgeLabels)
		for _, e := range p.edgeDirty {
			if g.edges[e].removed {
				s.edgeLabels[e] = NoSym
			} else {
				s.edgeLabels[e] = g.edges[e].label
			}
		}
	} else {
		s.edgeLabels = old.edgeLabels
	}

	if p.edgeEndpointsChanged {
		s.edgeSrc = make([]NodeID, ne)
		copy(s.edgeSrc, old.edgeSrc)
		s.edgeDst = make([]NodeID, ne)
		copy(s.edgeDst, old.edgeDst)
		for _, e := range p.edgeDirty {
			s.edgeSrc[e], s.edgeDst[e] = g.edges[e].src, g.edges[e].dst
		}
	} else {
		s.edgeSrc, s.edgeDst = old.edgeSrc, old.edgeDst
	}

	if p.nodeAdjChanged {
		s.outOff, s.outEdges = g.patchAdj(old.outOff, old.outEdges, p.nodeDirty, true)
		s.inOff, s.inEdges = g.patchAdj(old.inOff, old.inEdges, p.nodeDirty, false)
	} else {
		s.outOff, s.outEdges = old.outOff, old.outEdges
		s.inOff, s.inEdges = old.inOff, old.inEdges
	}

	if p.nodePropsChanged {
		if old.recBacked {
			var ok bool
			s.nodePropOff, s.nodePropRecs, ok = g.patchNodeRecs(s, old.nodePropOff, old.nodePropRecs, p.nodeDirty)
			if !ok {
				return nil
			}
		} else {
			s.nodePropOff, s.nodeProps = g.patchNodeProps(old.nodePropOff, old.nodeProps, p.nodeDirty)
		}
		s.nodePropSet = g.patchPropSets(old.nodePropSet, p.nodeDirty, oldNN)
	} else {
		s.nodePropOff, s.nodeProps = old.nodePropOff, old.nodeProps
		s.nodePropRecs = old.nodePropRecs
		s.nodePropSet = old.nodePropSet
	}

	if p.edgePropsChanged {
		if old.recBacked {
			var ok bool
			s.edgePropOff, s.edgePropRecs, ok = g.patchEdgeRecs(s, old.edgePropOff, old.edgePropRecs, p.edgeDirty)
			if !ok {
				return nil
			}
		} else {
			s.edgePropOff, s.edgeProps = g.patchEdgeProps(old.edgePropOff, old.edgeProps, p.edgeDirty)
		}
	} else {
		s.edgePropOff, s.edgeProps = old.edgePropOff, old.edgeProps
		s.edgePropRecs = old.edgePropRecs
	}

	s.idx = old.idx.patchIndexes(old, s, &p)
	return s
}

// patchNodeRecs is patchNodeProps for a record-backed column: clean
// record rows are bulk-copied (their arena-0 payloads stay valid —
// they point into the shared mapped arena), dirty rows re-encode from
// the store into the patched snapshot's private overflow arena and
// list table. Returns ok=false when a value cannot be encoded; the
// caller then falls back to a full rebuild.
func (g *Graph) patchNodeRecs(s *Snapshot, oldOff []uint32, oldRecs []propRec, dirty []NodeID) ([]uint32, []propRec, bool) {
	nn := len(g.nodes)
	oldNN := len(oldOff) - 1
	off := make([]uint32, nn+1)
	enc := recEncoder{arenaID: 1, arena: s.propOver, lists: s.propLists}
	enc.recs = make([]propRec, 0, len(oldRecs)+2*len(dirty))
	encOK := true

	rebuild := func(v int) {
		n := &g.nodes[v]
		if !n.removed {
			if err := enc.addAll(n.props); err != nil {
				encOK = false
			}
		}
		off[v+1] = uint32(len(enc.recs))
	}
	copySeg := func(from, to int) {
		if from >= to {
			return
		}
		shift := off[from] - oldOff[from]
		enc.recs = append(enc.recs, oldRecs[oldOff[from]:oldOff[to]]...)
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
		v := int(d)
		if v >= oldNN {
			break
		}
		copySeg(prev, v)
		rebuild(v)
		prev = v + 1
	}
	copySeg(prev, oldNN)
	for v := oldNN; v < nn; v++ {
		rebuild(v)
	}
	s.propOver = enc.arena
	s.propLists = enc.lists
	return off, enc.recs, encOK
}

// patchEdgeRecs is patchNodeRecs over the edge property rows.
func (g *Graph) patchEdgeRecs(s *Snapshot, oldOff []uint32, oldRecs []propRec, dirty []EdgeID) ([]uint32, []propRec, bool) {
	ne := len(g.edges)
	oldNE := len(oldOff) - 1
	off := make([]uint32, ne+1)
	enc := recEncoder{arenaID: 1, arena: s.propOver, lists: s.propLists}
	enc.recs = make([]propRec, 0, len(oldRecs)+2*len(dirty))
	encOK := true

	rebuild := func(e int) {
		ed := &g.edges[e]
		if !ed.removed {
			if err := enc.addAll(ed.props); err != nil {
				encOK = false
			}
		}
		off[e+1] = uint32(len(enc.recs))
	}
	copySeg := func(from, to int) {
		if from >= to {
			return
		}
		shift := off[from] - oldOff[from]
		enc.recs = append(enc.recs, oldRecs[oldOff[from]:oldOff[to]]...)
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
		e := int(d)
		if e >= oldNE {
			break
		}
		copySeg(prev, e)
		rebuild(e)
		prev = e + 1
	}
	copySeg(prev, oldNE)
	for e := oldNE; e < ne; e++ {
		rebuild(e)
	}
	s.propOver = enc.arena
	s.propLists = enc.lists
	return off, enc.recs, encOK
}

// patchAdj rebuilds one CSR direction. Rows of clean pre-existing
// nodes are copied in bulk segments (their contents are unchanged:
// every added or removed edge put both endpoints in dirty); rows of
// dirty nodes are re-derived from the mutable store; nodes past the
// old bound get fresh rows.
func (g *Graph) patchAdj(oldOff []uint32, oldList []EdgeID, dirty []NodeID, out bool) ([]uint32, []EdgeID) {
	nn := len(g.nodes)
	oldNN := len(oldOff) - 1
	off := make([]uint32, nn+1)
	list := make([]EdgeID, 0, len(oldList)+4*len(dirty))

	rebuild := func(v int) {
		n := &g.nodes[v]
		if !n.removed {
			raw := n.out
			if !out {
				raw = n.in
			}
			for _, e := range raw {
				if !g.edges[e].removed {
					list = append(list, e)
				}
			}
		}
		off[v+1] = uint32(len(list))
	}
	copySeg := func(from, to int) {
		if from >= to {
			return
		}
		shift := off[from] - oldOff[from]
		list = append(list, oldList[oldOff[from]:oldOff[to]]...)
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
		v := int(d)
		if v >= oldNN {
			break
		}
		copySeg(prev, v)
		rebuild(v)
		prev = v + 1
	}
	copySeg(prev, oldNN)
	for v := oldNN; v < nn; v++ {
		rebuild(v)
	}
	return off, list
}

// patchNodeProps rebuilds the flattened node property rows with the
// same segment strategy as patchAdj.
func (g *Graph) patchNodeProps(oldOff []uint32, oldProps []Prop, dirty []NodeID) ([]uint32, []Prop) {
	nn := len(g.nodes)
	oldNN := len(oldOff) - 1
	off := make([]uint32, nn+1)
	props := make([]Prop, 0, len(oldProps)+2*len(dirty))

	rebuild := func(v int) {
		n := &g.nodes[v]
		if !n.removed {
			props = append(props, n.props...)
		}
		off[v+1] = uint32(len(props))
	}
	copySeg := func(from, to int) {
		if from >= to {
			return
		}
		shift := off[from] - oldOff[from]
		props = append(props, oldProps[oldOff[from]:oldOff[to]]...)
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
		v := int(d)
		if v >= oldNN {
			break
		}
		copySeg(prev, v)
		rebuild(v)
		prev = v + 1
	}
	copySeg(prev, oldNN)
	for v := oldNN; v < nn; v++ {
		rebuild(v)
	}
	return off, props
}

// patchEdgeProps is patchNodeProps over the edge property rows.
func (g *Graph) patchEdgeProps(oldOff []uint32, oldProps []Prop, dirty []EdgeID) ([]uint32, []Prop) {
	ne := len(g.edges)
	oldNE := len(oldOff) - 1
	off := make([]uint32, ne+1)
	props := make([]Prop, 0, len(oldProps)+2*len(dirty))

	rebuild := func(e int) {
		ed := &g.edges[e]
		if !ed.removed {
			props = append(props, ed.props...)
		}
		off[e+1] = uint32(len(props))
	}
	copySeg := func(from, to int) {
		if from >= to {
			return
		}
		shift := off[from] - oldOff[from]
		props = append(props, oldProps[oldOff[from]:oldOff[to]]...)
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
		e := int(d)
		if e >= oldNE {
			break
		}
		copySeg(prev, e)
		rebuild(e)
		prev = e + 1
	}
	copySeg(prev, oldNE)
	for e := oldNE; e < ne; e++ {
		rebuild(e)
	}
	return off, props
}

// patchPropSets re-derives the per-sym property presence bitsets: copy
// every old set into word arrays sized for the new node bound, clear
// the dirty nodes' bits everywhere, then re-set bits from the dirty
// live nodes' current property lists. Syms interned since the old
// snapshot get entries lazily, exactly like a full build.
func (g *Graph) patchPropSets(old [][]uint64, dirty []NodeID, oldNN int) [][]uint64 {
	nn := len(g.nodes)
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
		w, bit := int(d)>>6, uint64(1)<<(uint(d)&63)
		for _, set := range sets {
			if set != nil {
				set[w] &^= bit
			}
		}
	}
	for _, d := range dirty {
		n := &g.nodes[d]
		if n.removed {
			continue
		}
		w, bit := int(d)>>6, uint64(1)<<(uint(d)&63)
		for i := range n.props {
			sym := n.props[i].Sym
			set := sets[sym]
			if set == nil {
				set = make([]uint64, words)
				sets[sym] = set
			}
			set[w] |= bit
		}
	}
	return sets
}
