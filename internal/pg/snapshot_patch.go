package pg

import (
	"maps"
	"slices"
)

// The fold: Snapshot derives the snapshot of the graph's current state
// from its base and the overlay of writes made since. The overlay names
// exactly the rows that changed, so columns no write touched are shared
// outright, and a touched column shares every chunk no dirty row falls
// in (column.go): the cost is one directory per touched column plus one
// chunk per dirty row. A graph built through the mutation API folds
// onto an empty base, where every row is appended. The fold only reads
// the graph, so concurrent readers may run it.

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
		if r.touched && r.label != NoSym {
			p.touchedLabels[r.label] = struct{}{}
		}
	}
	p.edgeDirty = make([]EdgeID, 0, len(ov.edges)+len(ov.newEdges))
	for e, r := range ov.edges {
		nodeSet[r.src] = struct{}{}
		nodeSet[r.dst] = struct{}{}
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
		if ls := ov.newNodes[i].label; ls != NoSym {
			p.touchedLabels[ls] = struct{}{}
		}
	}
	for i := range ov.newEdges {
		p.edgeDirty = append(p.edgeDirty, EdgeID(ov.edgeBase+i))
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

// onHeap returns s with its property rows decoded into heap columns,
// chunk by chunk; every other column is shared.
func (s *Snapshot) onHeap() *Snapshot {
	if !s.recBacked {
		return s
	}
	h := *s
	h.recBacked = false
	h.nodeProps, h.edgeProps = s.decodeRows(&s.nodeRecs), s.decodeRows(&s.edgeRecs)
	h.nodeRecs, h.edgeRecs = col[propRec]{}, col[propRec]{}
	h.propArena, h.propOver, h.overTip, h.propLists, h.listTip = nil, nil, nil, nil, nil
	return &h
}

func (s *Snapshot) decodeRows(recs *col[propRec]) col[Prop] {
	out := col[Prop]{n: recs.n, rows: recs.rows, chunks: make([]chunk[Prop], len(recs.chunks))}
	for i, ch := range recs.chunks {
		base := ch.off[0]
		off := make([]uint32, len(ch.off))
		for j, o := range ch.off {
			off[j] = o - base
		}
		data := make([]Prop, off[len(off)-1])
		for j := range data {
			data[j] = s.recProp(&ch.data[int(base)+j])
		}
		out.chunks[i] = chunk[Prop]{off: off, data: data}
	}
	return out
}

// patch builds the folded snapshot from old under plan p, reading dirty
// rows through the graph's point readers (overlay first, then base). It
// returns nil only when a record-backed old meets a value the record
// form cannot encode.
func (g *Graph) patch(old *Snapshot, ov *overlay, p *patchPlan) *Snapshot {
	nn, ne := ov.nodeBase+len(ov.newNodes), ov.edgeBase+len(ov.newEdges)
	s := *old // shares every column; the fold replaces the ones it touches
	s.epoch, s.liveNodes, s.liveEdges, s.symNames = g.epoch, ov.liveNodes, ov.liveEdges, g.cappedSymNames()
	if p.nodeLabelsChanged {
		s.nodeLabels = patchCol(old.nodeLabels, p.nodeDirty, nn, func(v int) Sym { return g.NodeLabelSym(NodeID(v)) })
	}
	if p.edgeLabelsChanged || p.edgeEndpointsChanged {
		s.edgeLabels = patchCol(old.edgeLabels, p.edgeDirty, ne, func(e int) Sym { return g.EdgeLabelSym(EdgeID(e)) })
	}
	if p.edgeEndpointsChanged {
		s.edgeSrc = patchCol(old.edgeSrc, p.edgeDirty, ne, func(e int) NodeID { src, _ := g.Endpoints(EdgeID(e)); return src })
		s.edgeDst = patchCol(old.edgeDst, p.edgeDirty, ne, func(e int) NodeID { _, dst := g.Endpoints(EdgeID(e)); return dst })
	}
	if p.nodeAdjChanged {
		s.out = patchRows(old.out, p.nodeDirty, nn, func(v int) []EdgeID { return g.OutEdgesRaw(NodeID(v)) }, appendRow[EdgeID])
		s.in = patchRows(old.in, p.nodeDirty, nn, func(v int) []EdgeID { return g.InEdgesRaw(NodeID(v)) }, appendRow[EdgeID])
	}
	if p.nodePropsChanged {
		s.nodePropSet = g.patchPropSets(old, p.nodeDirty)
	}
	nodeRow := func(v int) []Prop { return g.NodeProps(NodeID(v)) }
	edgeRow := func(e int) []Prop { return g.EdgeProps(EdgeID(e)) }
	if !old.recBacked {
		if p.nodePropsChanged {
			s.nodeProps = patchRows(old.nodeProps, p.nodeDirty, nn, nodeRow, appendRow[Prop])
		}
		if p.edgePropsChanged {
			s.edgeProps = patchRows(old.edgeProps, p.edgeDirty, ne, edgeRow, appendRow[Prop])
		}
	} else if p.nodePropsChanged || p.edgePropsChanged {
		// Clean record rows stay aliased (their arena-0 payloads point
		// into the shared mapped arena); dirty rows encode into the
		// overflow arena and list table, appended in place from their
		// tips.
		over, overClaimed := extend(old.propOver, old.overTip)
		lists, listsClaimed := extend(old.propLists, old.listTip)
		enc := recEncoder{arenaID: 1, arena: over, lists: lists}
		ok := true
		put := func(data []propRec, row []Prop) []propRec {
			enc.recs = data
			if err := enc.addAll(row); err != nil {
				ok = false
			}
			return enc.recs
		}
		if p.nodePropsChanged {
			s.nodeRecs = patchRows(old.nodeRecs, p.nodeDirty, nn, nodeRow, put)
		}
		if p.edgePropsChanged {
			s.edgeRecs = patchRows(old.edgeRecs, p.edgeDirty, ne, edgeRow, put)
		}
		if !ok {
			enc.arena, enc.lists = old.propOver, old.propLists // release the tips unmoved
		}
		s.propOver, s.overTip = enc.arena, settleTip(old.overTip, overClaimed, old.propOver, enc.arena)
		s.propLists, s.listTip = enc.lists, settleTip(old.listTip, listsClaimed, old.propLists, enc.lists)
		if !ok {
			return nil
		}
	}
	s.idx = old.idx.patchIndexes(old, &s, p)
	return &s
}

func appendRow[T any](data, row []T) []T { return append(data, row...) }

// patchPropSets re-derives the presence bitsets across the dirty nodes
// (ascending): every (node, sym) bit that differs between old's row and
// the node's current one flips, and only the word chunks holding a
// flipped bit are copied. Syms interned since old get sets lazily,
// exactly like a fresh build.
func (g *Graph) patchPropSets(old *Snapshot, dirty []NodeID) []col[uint64] {
	sets := make([]col[uint64], len(g.syms.names))
	copy(sets, old.nodePropSet)
	flips := make(map[Sym][]NodeID)
	has := func(props []Prop, p Sym) bool {
		return slices.ContainsFunc(props, func(q Prop) bool { return q.Sym == p })
	}
	for _, v := range dirty {
		var cur, was []Prop
		if g.NodeLabelSym(v) != NoSym {
			cur = g.NodeProps(v)
		}
		if int(v) < old.NodeBound() && old.NodeLabelSym(v) != NoSym {
			was = old.NodePropsOf(v)
		}
		for _, q := range cur {
			if !has(was, q.Sym) {
				flips[q.Sym] = append(flips[q.Sym], v)
			}
		}
		for _, q := range was {
			if !has(cur, q.Sym) {
				flips[q.Sym] = append(flips[q.Sym], v)
			}
		}
	}
	for sym, vs := range flips {
		var words []int
		var masks []uint64
		for _, v := range vs {
			w, bit := int(v)>>6, uint64(1)<<(uint(v)&63)
			if n := len(words); n > 0 && words[n-1] == w {
				masks[n-1] ^= bit
			} else {
				words, masks = append(words, w), append(masks, bit)
			}
		}
		set := sets[sym]
		sets[sym] = patchCol(set, words, max(set.n, words[len(words)-1]+1), func(w int) uint64 {
			i, _ := slices.BinarySearch(words, w)
			if w < set.n {
				return set.at(w) ^ masks[i]
			}
			return masks[i]
		})
	}
	return sets
}
