package pg

import "sort"

// Cold graph backing: a Graph returned by OpenSnapshot starts with no
// materialized node/edge store — just the mapped snapshot, the symbol
// table, and the epoch. Every reader a compiled validation program or
// query plan binds through (labels, sym lookups, per-label node lists,
// property-by-sym, the snapshot itself) answers straight from the
// mapped columns, so the load stays O(header). Store-shaped access —
// any mutation, or readers that expose the mutable store's shape
// (NodeProps, OutEdges, Clone, stats, serializers) — first inflates a
// private store from the snapshot, exactly once, copy-on-write: the
// mapping is never written through.

// ensureStore materializes the mutable store of a cold graph. It is a
// no-op for ordinary graphs. Safe under concurrent readers: the first
// caller inflates under the sync.Once, the rest wait.
func (g *Graph) ensureStore() {
	if g.cold.Load() == nil {
		return
	}
	g.storeOnce.Do(g.inflateStore)
}

func (g *Graph) inflateStore() {
	s := g.cold.Load()
	nn, ne := s.NodeBound(), s.EdgeBound()

	// Decode the flattened property rows once into private flat
	// columns, sub-sliced per element with capped capacity — the same
	// layout (and the same sharedCols contract) a sealed streamed
	// graph uses. Adjacency rows alias the snapshot's CSR columns,
	// capacity-capped: appends reallocate, and the first in-place
	// write goes through privatize.
	nProps := make([]Prop, int(s.nodePropOff[nn]))
	for i := range nProps {
		nProps[i] = s.recProp(s.nodePropRecs, i)
	}
	eProps := make([]Prop, int(s.edgePropOff[ne]))
	for i := range eProps {
		eProps[i] = s.recProp(s.edgePropRecs, i)
	}

	nodes := make([]node, nn)
	removedN := 0
	for v := 0; v < nn; v++ {
		ls := s.nodeLabels[v]
		pa, pb := s.nodePropOff[v], s.nodePropOff[v+1]
		oa, ob := s.outOff[v], s.outOff[v+1]
		ia, ib := s.inOff[v], s.inOff[v+1]
		nodes[v] = node{
			label: ls,
			props: nProps[pa:pb:pb],
			out:   s.outEdges[oa:ob:ob],
			in:    s.inEdges[ia:ib:ib],
		}
		if ls == NoSym {
			// Tombstone. The snapshot does not retain a removed node's
			// label or adjacency, so the inflated tombstone is bare —
			// equivalent for every live-element operation.
			nodes[v].removed = true
			nodes[v].label = 0
			removedN++
		}
	}
	edges := make([]edge, ne)
	removedE := 0
	for e := 0; e < ne; e++ {
		ls := s.edgeLabels[e]
		pa, pb := s.edgePropOff[e], s.edgePropOff[e+1]
		edges[e] = edge{
			src:   s.edgeSrc[e],
			dst:   s.edgeDst[e],
			label: ls,
			props: eProps[pa:pb:pb],
		}
		if ls == NoSym {
			edges[e].removed = true
			edges[e].label = 0
			removedE++
		}
	}

	byLabel := make([][]NodeID, len(g.syms.names))
	for v := 0; v < nn; v++ {
		if ls := s.nodeLabels[v]; ls != NoSym {
			byLabel[ls] = append(byLabel[ls], NodeID(v))
		}
	}

	g.nodes = nodes
	g.edges = edges
	g.byLabel = byLabel
	g.removedNodes = removedN
	g.removedEdges = removedE
	g.sharedCols = true
	g.cold.Store(nil)
}

func (g *Graph) coldLabels(s *Snapshot) []string {
	var out []string
	for sym := range s.symNames {
		if len(s.LabelNodes(Sym(sym))) > 0 {
			out = append(out, g.syms.names[sym])
		}
	}
	sort.Strings(out)
	return out
}

// Close releases the file mapping behind a graph opened with
// OpenSnapshot (a no-op for ordinary graphs, and on platforms without
// mmap). After Close, the graph and everything derived from it —
// snapshots, property values, validation results still holding its
// strings — must not be used: their storage may alias the unmapped
// file. Long-lived processes can simply never call Close and let
// process exit unmap.
func (g *Graph) Close() error {
	m := g.mapping
	g.mapping = nil
	return m.close()
}
