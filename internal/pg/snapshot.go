package pg

import "pgschema/internal/values"

// Snapshot is an immutable columnar view of a Graph at one epoch, built
// for validation-scale scans: per-element label arrays, CSR-style
// adjacency (live edges only, grouped per node in edge-id order),
// flattened per-element property storage, and per-sym property-presence
// bitsets. Hot loops index flat arrays, which keeps a full node-or-edge
// pass inside a handful of contiguous allocations. It is also the
// graph's storage: a Graph is its base snapshot plus an overlay of
// later writes.
//
// A Snapshot shares property values (immutable) with the graph and with
// the snapshots folded from it; no slice it exposes is ever written. It
// describes the graph exactly while Graph.Epoch() == Epoch();
// Graph.Snapshot caches the latest fold, so repeated validation of an
// unchanged graph reuses one snapshot and any mutation invalidates it
// lazily on the next call.
type Snapshot struct {
	epoch uint64

	// nodeLabels[v] is λ(v), or NoSym when the node is removed;
	// edgeLabels[e] likewise for edges.
	nodeLabels col[Sym]
	edgeLabels col[Sym]

	// edgeSrc[e], edgeDst[e] are ρ(e), recorded for removed edges too
	// (tombstones keep their endpoints).
	edgeSrc col[NodeID]
	edgeDst col[NodeID]

	// CSR adjacency as row columns: row v of out holds the live
	// out-edges of node v in edge-id order; in mirrors it for incoming
	// edges.
	out col[EdgeID]
	in  col[EdgeID]

	// Property rows: row v of nodeProps is the sorted property list of
	// node v; edges mirror it.
	nodeProps col[Prop]
	edgeProps col[Prop]

	// nodePropSet[s] is a bitset over node IDs, one word per 64 nodes:
	// bit v is set iff the live node v defines a property named s.
	// Words past the set's length are zero, and the zero col stands for
	// a sym never used as a node property name, so presence checks cost
	// one word load.
	nodePropSet []col[uint64]

	// liveNodes/liveEdges are |V| and |E| at the snapshot's epoch
	// (bounds minus tombstones); symNames maps every Sym valid at that
	// epoch to its string, capacity-capped so the graph interning more
	// symbols later can never write through it.
	liveNodes int
	liveEdges int
	symNames  []string

	// Record-backed property storage (mapped snapshots, and folds of
	// them). When recBacked is set, nodeProps/edgeProps are empty and
	// the property rows live in nodeRecs/edgeRecs instead. propArena
	// holds textual payloads (read-only, typically aliasing the file
	// mapping); propOver is the private overflow arena folds encode new
	// strings into; propLists holds decoded list values indexed by
	// record payload. Folds append to propOver and propLists in place
	// from their tips (overTip, listTip; see tip).
	recBacked bool
	nodeRecs  col[propRec]
	edgeRecs  col[propRec]
	propArena []byte
	propOver  []byte
	overTip   *tip
	propLists []values.Value
	listTip   *tip

	// mapping keeps the file mapping this snapshot's columns alias
	// alive (and closeable); nil for heap snapshots.
	mapping *snapMapping

	// idx memoizes the derived per-label enumerations and key-bucket
	// indexes (snapindex.go). Every constructor sets it.
	idx *snapIndexes
}

// Snapshot returns the columnar view of the graph at its current epoch:
// the base itself when nothing was written since it, else the fold of
// the pending writes into it (computed once per epoch). Concurrent
// callers may race to fold; every fold is valid and the last store
// wins.
func (g *Graph) Snapshot() *Snapshot {
	if s := g.snap.Load(); s != nil && s.epoch == g.epoch {
		return s
	}
	s := g.fold()
	g.snap.Store(s)
	return s
}

// cappedSymNames returns the graph's Sym → name table capacity-capped:
// snapshots hold it so record decoding and serialization can recover
// names, and the cap ensures later interning appends reallocate instead
// of writing through the shared backing array.
func (g *Graph) cappedSymNames() []string {
	n := len(g.syms.names)
	return g.syms.names[:n:n]
}

// Epoch returns the graph epoch the snapshot was built at.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// MemoryFootprint estimates the bytes the snapshot's columns occupy: the
// label, endpoint, adjacency, offset, and property arrays plus the
// presence bitsets and (for record-backed snapshots) the value arenas.
// Each snapshot counts every chunk it reads, shared with other
// snapshots or not, from the columns' element and row totals, so the
// estimate reads no column byte. It is an accounting figure for cache
// budgets — property Values share storage with the graph and mapped
// columns are file-backed, so the number bounds rather than measures
// private heap use.
func (s *Snapshot) MemoryFootprint() int64 {
	const symSize = 4 // Sym is an int32
	n := int64(0)
	n += int64(s.nodeLabels.n+s.edgeLabels.n) * symSize
	n += int64(s.edgeSrc.n+s.edgeDst.n) * 8               // NodeID is an int64
	n += int64(3*(s.nodeLabels.n+1)+s.edgeLabels.n+1) * 4 // row offsets
	n += int64(s.out.rows+s.in.rows) * 8
	const propSize = 4 + 16 + 16 // Sym + string header + Value
	n += int64(s.nodeProps.rows+s.edgeProps.rows) * propSize
	n += int64(s.nodeRecs.rows+s.edgeRecs.rows) * propRecSize
	n += int64(len(s.propArena) + len(s.propOver))
	for i := range s.nodePropSet {
		n += int64(s.nodePropSet[i].n) * 8
	}
	for _, name := range s.symNames {
		n += int64(len(name)) + 16
	}
	return n
}

// NodeBound is the exclusive upper bound of node IDs, as in
// Graph.NodeBound.
func (s *Snapshot) NodeBound() int { return s.nodeLabels.n }

// EdgeBound is the exclusive upper bound of edge IDs.
func (s *Snapshot) EdgeBound() int { return s.edgeLabels.n }

// NodeLabelSym returns λ(v) as a Sym, or NoSym for a removed node.
func (s *Snapshot) NodeLabelSym(v NodeID) Sym { return s.nodeLabels.at(int(v)) }

// EdgeLabelSym returns λ(e) as a Sym, or NoSym for a removed edge.
func (s *Snapshot) EdgeLabelSym(e EdgeID) Sym { return s.edgeLabels.at(int(e)) }

// Endpoints returns ρ(e) = (src, dst).
func (s *Snapshot) Endpoints(e EdgeID) (src, dst NodeID) {
	return s.edgeSrc.at(int(e)), s.edgeDst.at(int(e))
}

// EdgeSource is the source of ρ(e), at half the column loads of
// Endpoints.
func (s *Snapshot) EdgeSource(e EdgeID) NodeID { return s.edgeSrc.at(int(e)) }

// EdgeTarget is the target of ρ(e).
func (s *Snapshot) EdgeTarget(e EdgeID) NodeID { return s.edgeDst.at(int(e)) }

// OutEdgesOf returns the live outgoing edges of v in edge-id order,
// shared with the snapshot (callers must not mutate).
func (s *Snapshot) OutEdgesOf(v NodeID) []EdgeID { return s.out.row(int(v)) }

// InEdgesOf returns the live incoming edges of v in edge-id order.
func (s *Snapshot) InEdgesOf(v NodeID) []EdgeID { return s.in.row(int(v)) }

// NodePropsOf returns the sorted property list of a live node. For a
// heap snapshot the slice is shared with the snapshot; a record-backed
// snapshot decodes a fresh slice. Hot loops use NodePropRows instead,
// which is allocation-free for both representations.
func (s *Snapshot) NodePropsOf(v NodeID) []Prop {
	if !s.recBacked {
		return s.nodeProps.row(int(v))
	}
	return s.decodeProps(s.nodeRecs.row(int(v)))
}

// EdgePropsOf returns the sorted property list of a live edge, under
// the same contract as NodePropsOf.
func (s *Snapshot) EdgePropsOf(e EdgeID) []Prop {
	if !s.recBacked {
		return s.edgeProps.row(int(e))
	}
	return s.decodeProps(s.edgeRecs.row(int(e)))
}

func (s *Snapshot) decodeProps(recs []propRec) []Prop {
	if len(recs) == 0 {
		return nil
	}
	out := make([]Prop, len(recs))
	for i := range out {
		out[i] = s.recProp(&recs[i])
	}
	return out
}

// PropRows is one chunk of a snapshot's node or edge property rows:
// the sorted property list of element (c<<ChunkShift)+j is the
// properties in the range Row(j), each read with At. Kernels that walk
// elements in id order fetch it once per chunk; reading rows through it
// works identically — and allocation-free — over heap and
// record-backed snapshots.
type PropRows struct {
	s     *Snapshot
	off   []uint32
	props []Prop    // heap snapshots
	recs  []propRec // record-backed snapshots
}

// NodePropRows returns chunk c of the node property rows.
func (s *Snapshot) NodePropRows(c int) PropRows { return s.propRows(&s.nodeProps, &s.nodeRecs, c) }

// EdgePropRows returns chunk c of the edge property rows.
func (s *Snapshot) EdgePropRows(c int) PropRows { return s.propRows(&s.edgeProps, &s.edgeRecs, c) }

func (s *Snapshot) propRows(props *col[Prop], recs *col[propRec], c int) PropRows {
	if s.recBacked {
		ch := &recs.chunks[c]
		return PropRows{s: s, off: ch.off, recs: ch.data}
	}
	ch := &props.chunks[c]
	return PropRows{s: s, off: ch.off, props: ch.data}
}

// Row returns the half-open range of element j's properties in the
// chunk, for At.
func (r *PropRows) Row(j int) (lo, hi int) { return int(r.off[j]), int(r.off[j+1]) }

// At returns property i of the chunk; i must come from a Row range.
func (r *PropRows) At(i int) Prop {
	if r.recs != nil {
		return r.s.recProp(&r.recs[i])
	}
	return r.props[i]
}

// NumNodes is |V| at the snapshot's epoch.
func (s *Snapshot) NumNodes() int { return s.liveNodes }

// NumEdges is |E| at the snapshot's epoch.
func (s *Snapshot) NumEdges() int { return s.liveEdges }

// Mapped reports whether the snapshot's columns alias a file mapping.
func (s *Snapshot) Mapped() bool { return s.mapping != nil }

// NodeLabelChunk exposes chunk c of the label column: the label Sym of
// nodes c<<ChunkShift onward, NoSym for removed ones; nil past the
// node bound. Shared with the snapshot — callers must treat it as
// read-only. Word-at-a-time kernels walk the column chunk by chunk
// instead of paying a bounds-checked method call per element.
func (s *Snapshot) NodeLabelChunk(c int) []Sym { return s.nodeLabels.chunkData(c) }

// EdgeLabelChunk is NodeLabelChunk for edges.
func (s *Snapshot) EdgeLabelChunk(c int) []Sym { return s.edgeLabels.chunkData(c) }

// OutEdgeChunk exposes chunk c of the out-adjacency: the live
// out-edges of node (c<<ChunkShift)+j are edges[off[j]:off[j+1]], in
// edge-id order. Shared — read-only.
func (s *Snapshot) OutEdgeChunk(c int) (off []uint32, edges []EdgeID) {
	ch := &s.out.chunks[c]
	return ch.off, ch.data
}

// InEdgeChunk is OutEdgeChunk for the in-adjacency.
func (s *Snapshot) InEdgeChunk(c int) (off []uint32, edges []EdgeID) {
	ch := &s.in.chunks[c]
	return ch.off, ch.data
}

// EndpointChunk exposes chunk c of the endpoint columns: the sources
// and targets of edges c<<ChunkShift onward. Shared — read-only.
func (s *Snapshot) EndpointChunk(c int) (src, dst []NodeID) {
	return s.edgeSrc.chunkData(c), s.edgeDst.chunkData(c)
}

// NodePropWordChunk exposes chunk c of the presence bitset of property
// name p as raw words: word j of the chunk covers nodes
// ((c<<ChunkShift)+j)*64 onward, and bit v&63 of a node's word is set
// iff live node v defines p. Words past the returned slice (nil when
// the sym was never used as a node property name) are zero. Shared
// with the snapshot — read-only.
func (s *Snapshot) NodePropWordChunk(p Sym, c int) []uint64 {
	if p < 0 || int(p) >= len(s.nodePropSet) {
		return nil
	}
	return s.nodePropSet[p].chunkData(c)
}

// OutDegree is the number of live outgoing edges of v.
func (s *Snapshot) OutDegree(v NodeID) int { return s.out.rowLen(int(v)) }

// NodePropCount is the number of properties of the live node v.
func (s *Snapshot) NodePropCount(v NodeID) int {
	if !s.recBacked {
		return s.nodeProps.rowLen(int(v))
	}
	return s.nodeRecs.rowLen(int(v))
}

// NodeHasProp reports whether the live node defines a property named p.
// NoSym (or a sym never used as a node property name) reports false.
func (s *Snapshot) NodeHasProp(v NodeID, p Sym) bool {
	if p < 0 || int(p) >= len(s.nodePropSet) {
		return false
	}
	set := &s.nodePropSet[p]
	w := int(v) >> 6
	return w < set.n && set.at(w)&(1<<(uint(v)&63)) != 0
}

// EdgePropBySym returns σ(e, p) for an interned property name, scanning
// the edge's property row.
func (s *Snapshot) EdgePropBySym(e EdgeID, p Sym) (values.Value, bool) {
	if s.recBacked {
		return s.recBySym(s.edgeRecs.row(int(e)), p)
	}
	return propBySym(s.edgeProps.row(int(e)), p)
}

// NodePropBySym returns σ(v, p) for an interned property name, scanning
// the node's property row.
func (s *Snapshot) NodePropBySym(v NodeID, p Sym) (values.Value, bool) {
	if s.recBacked {
		return s.recBySym(s.nodeRecs.row(int(v)), p)
	}
	return propBySym(s.nodeProps.row(int(v)), p)
}

func (s *Snapshot) recBySym(recs []propRec, p Sym) (values.Value, bool) {
	for i := range recs {
		if r := &recs[i]; Sym(r.sym) == p {
			return s.recValue(r), true
		}
	}
	return values.Value{}, false
}
