package pg

import "sort"

// A loaded graph is its snapshot until a write. Both loaders — the
// streaming CSV loader (ReadCSVStream) and the .pgsnap opener
// (OpenSnapshot) — return a graph built by newLoadedGraph: the sealed
// snapshot, the symbol table and the epoch, and no row store. Every
// reader a compiled validation program or query plan binds through
// (labels, sym lookups, per-label node lists, property-by-sym, raw
// adjacency, the snapshot itself) answers straight from the snapshot's
// columns, so a graph that is only validated and queried never holds a
// second copy of itself. A write — or a store-shaped reader (NodeProps,
// OutEdges, Clone, stats, serializers, the rule-by-rule test oracle) —
// first inflates a private row store from the snapshot, exactly once.
// The snapshot is never written through: it may be retained by Undo or
// a concurrent reader, and a mapped one aliases a read-only file.

// newLoadedGraph returns a graph that is the sealed snapshot s, with
// the given symbol table and file mapping (nil for heap snapshots).
func newLoadedGraph(s *Snapshot, syms symbols, m *snapMapping) *Graph {
	g := &Graph{syms: syms, epoch: s.epoch, mapping: m}
	g.snap.Store(s)
	g.cold.Store(s)
	return g
}

// HasRowStore reports whether the graph holds a row store: always for
// a graph built through the mutation API, and for a loaded graph only
// once a write (or a store-shaped reader) has inflated one.
func (g *Graph) HasRowStore() bool { return g.cold.Load() == nil }

// ensureStore materializes the row store of a loaded graph. It is a
// no-op once the store exists (and for graphs built through the
// mutation API, which never lack one). Safe under concurrent readers:
// the first caller inflates under the sync.Once, the rest wait.
func (g *Graph) ensureStore() {
	if g.cold.Load() == nil {
		return
	}
	g.storeOnce.Do(g.inflateStore)
}

// inflateStore builds the row store from the cold snapshot. Property
// rows are read through the snapshot accessors (a copy for a heap
// snapshot, a decode for a record-backed one) into one private flat
// array per element kind, sub-sliced per element with capped capacity,
// so in-place property writes never reach the snapshot. Adjacency rows
// alias the snapshot's CSR columns, capacity-capped: the row store only
// appends to an adjacency row (which then reallocates) or truncates
// what it appended, so it never writes through.
func (g *Graph) inflateStore() {
	s := g.cold.Load()
	nn, ne := s.NodeBound(), s.EdgeBound()

	nProps := make([]Prop, int(s.nodePropOff[nn]))
	for i := range nProps {
		nProps[i] = s.NodePropAt(i)
	}
	eProps := make([]Prop, int(s.edgePropOff[ne]))
	for i := range eProps {
		eProps[i] = s.EdgePropAt(i)
	}

	nodes := make([]node, nn)
	byLabel := make([][]NodeID, len(g.syms.names))
	removedN := 0
	for v := 0; v < nn; v++ {
		ls := s.nodeLabels[v]
		if ls == NoSym {
			// Tombstone. The snapshot does not retain a removed node's
			// label or adjacency, so the inflated tombstone is bare —
			// equivalent for every live-element operation.
			nodes[v].removed = true
			removedN++
			continue
		}
		pa, pb := s.nodePropOff[v], s.nodePropOff[v+1]
		oa, ob := s.outOff[v], s.outOff[v+1]
		ia, ib := s.inOff[v], s.inOff[v+1]
		nodes[v] = node{
			label: ls,
			props: nProps[pa:pb:pb],
			out:   s.outEdges[oa:ob:ob],
			in:    s.inEdges[ia:ib:ib],
		}
		byLabel[ls] = append(byLabel[ls], NodeID(v))
	}
	edges := make([]edge, ne)
	removedE := 0
	for e := 0; e < ne; e++ {
		edges[e] = edge{src: s.edgeSrc[e], dst: s.edgeDst[e]}
		if ls := s.edgeLabels[e]; ls != NoSym {
			pa, pb := s.edgePropOff[e], s.edgePropOff[e+1]
			edges[e].label = ls
			edges[e].props = eProps[pa:pb:pb]
		} else {
			edges[e].removed = true
			removedE++
		}
	}

	g.nodes = nodes
	g.edges = edges
	g.byLabel = byLabel
	g.removedNodes = removedN
	g.removedEdges = removedE
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
