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
		liveAdj := func(raw func(*node) []EdgeID) func(int, []EdgeID) []EdgeID {
			return func(v int, list []EdgeID) []EdgeID {
				if n := &g.nodes[v]; !n.removed {
					for _, e := range raw(n) {
						if !g.edges[e].removed {
							list = append(list, e)
						}
					}
				}
				return list
			}
		}
		s.outOff, s.outEdges = patchRows(old.outOff, old.outEdges, p.nodeDirty, nn, 4,
			liveAdj(func(n *node) []EdgeID { return n.out }))
		s.inOff, s.inEdges = patchRows(old.inOff, old.inEdges, p.nodeDirty, nn, 4,
			liveAdj(func(n *node) []EdgeID { return n.in }))
	} else {
		s.outOff, s.outEdges = old.outOff, old.outEdges
		s.inOff, s.inEdges = old.inOff, old.inEdges
	}

	// A dirty element's property row is its store row, or empty once
	// it is removed.
	nodeRow := func(v int) []Prop {
		if n := &g.nodes[v]; !n.removed {
			return n.props
		}
		return nil
	}
	edgeRow := func(e int) []Prop {
		if ed := &g.edges[e]; !ed.removed {
			return ed.props
		}
		return nil
	}

	if p.nodePropsChanged {
		if old.recBacked {
			var ok bool
			s.nodePropOff, s.nodePropRecs, ok = patchRecs(s, old.nodePropOff, old.nodePropRecs, p.nodeDirty, nn, nodeRow)
			if !ok {
				return nil
			}
		} else {
			s.nodePropOff, s.nodeProps = patchRows(old.nodePropOff, old.nodeProps, p.nodeDirty, nn, 2, appendRow(nodeRow))
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
			s.edgePropOff, s.edgePropRecs, ok = patchRecs(s, old.edgePropOff, old.edgePropRecs, p.edgeDirty, ne, edgeRow)
			if !ok {
				return nil
			}
		} else {
			s.edgePropOff, s.edgeProps = patchRows(old.edgePropOff, old.edgeProps, p.edgeDirty, ne, 2, appendRow(edgeRow))
		}
	} else {
		s.edgePropOff, s.edgeProps = old.edgePropOff, old.edgeProps
		s.edgePropRecs = old.edgePropRecs
	}

	s.idx = old.idx.patchIndexes(old, s, &p)
	return s
}

// patchRows rebuilds one flattened column — per-element offsets over a
// flat row array — for a new bound of n elements. Rows of clean
// pre-existing elements are copied in bulk segments between dirty ones
// (their contents are unchanged); rebuild appends the current row of a
// dirty element, or of one past the old bound, and returns the grown
// array. extra reserves room for that many rows per dirty element.
func patchRows[T any, ID ~int](oldOff []uint32, oldRows []T, dirty []ID, n, extra int, rebuild func(i int, rows []T) []T) ([]uint32, []T) {
	oldN := len(oldOff) - 1
	off := make([]uint32, n+1)
	rows := make([]T, 0, len(oldRows)+extra*len(dirty))

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
// they point into the shared mapped arena), dirty rows re-encode from
// the store into the patched snapshot's private overflow arena and list
// table. Returns ok=false when a value cannot be encoded; the caller
// then falls back to a full rebuild.
func patchRecs[ID ~int](s *Snapshot, oldOff []uint32, oldRecs []propRec, dirty []ID, n int, row func(int) []Prop) ([]uint32, []propRec, bool) {
	enc := recEncoder{arenaID: 1, arena: s.propOver, lists: s.propLists}
	encOK := true
	off, recs := patchRows(oldOff, oldRecs, dirty, n, 2, func(i int, recs []propRec) []propRec {
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
