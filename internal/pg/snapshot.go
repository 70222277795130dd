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
	nodeLabels []Sym
	edgeLabels []Sym

	// edgeSrc[e], edgeDst[e] are ρ(e), recorded for removed edges too
	// (tombstones keep their endpoints).
	edgeSrc []NodeID
	edgeDst []NodeID

	// CSR adjacency: the live out-edges of node v are
	// outEdges[outOff[v]:outOff[v+1]], in edge-id order; inOff/inEdges
	// mirror it for incoming edges.
	outOff   []uint32
	outEdges []EdgeID
	inOff    []uint32
	inEdges  []EdgeID

	// Flattened properties: the sorted property list of node v is
	// nodeProps[nodePropOff[v]:nodePropOff[v+1]]; edges mirror it.
	nodePropOff []uint32
	nodeProps   []Prop
	edgePropOff []uint32
	edgeProps   []Prop

	// nodePropSet[s] is a bitset over node IDs: bit v is set iff the
	// live node v defines a property named s. Nil for syms never used
	// as a node property name, so presence checks cost one word load.
	nodePropSet [][]uint64

	// liveNodes/liveEdges are |V| and |E| at the snapshot's epoch
	// (bounds minus tombstones); symNames maps every Sym valid at that
	// epoch to its string, capacity-capped so the graph interning more
	// symbols later can never write through it.
	liveNodes int
	liveEdges int
	symNames  []string

	// Record-backed property storage (mapped snapshots, and patches of
	// them). When recBacked is set, nodeProps/edgeProps are nil and the
	// property rows live in nodePropRecs/edgePropRecs instead — the
	// same nodePropOff/edgePropOff offsets index both representations.
	// propArena holds textual payloads (read-only, typically aliasing
	// the file mapping); propOver is the private append-only overflow
	// arena patches encode new strings into; propLists holds decoded
	// list values indexed by record payload.
	recBacked    bool
	nodePropRecs []propRec
	edgePropRecs []propRec
	propArena    []byte
	propOver     []byte
	propLists    []values.Value

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
// It is an accounting figure for cache budgets — property Values share
// storage with the graph and mapped columns are file-backed, so the
// number bounds rather than measures private heap use.
func (s *Snapshot) MemoryFootprint() int64 {
	const symSize = 4 // Sym is an int32
	n := int64(0)
	n += int64(len(s.nodeLabels)+len(s.edgeLabels)) * symSize
	n += int64(len(s.edgeSrc)+len(s.edgeDst)) * 8 // NodeID is an int64
	n += int64(len(s.outOff)+len(s.inOff)+len(s.nodePropOff)+len(s.edgePropOff)) * 4
	n += int64(len(s.outEdges)+len(s.inEdges)) * 8
	const propSize = 4 + 16 + 16 // Sym + string header + Value
	n += int64(len(s.nodeProps)+len(s.edgeProps)) * propSize
	n += int64(len(s.nodePropRecs)+len(s.edgePropRecs)) * propRecSize
	n += int64(len(s.propArena) + len(s.propOver))
	for _, set := range s.nodePropSet {
		n += int64(len(set)) * 8
	}
	for _, name := range s.symNames {
		n += int64(len(name)) + 16
	}
	return n
}

// NodeBound is the exclusive upper bound of node IDs, as in
// Graph.NodeBound.
func (s *Snapshot) NodeBound() int { return len(s.nodeLabels) }

// EdgeBound is the exclusive upper bound of edge IDs.
func (s *Snapshot) EdgeBound() int { return len(s.edgeLabels) }

// NodeLabelSym returns λ(v) as a Sym, or NoSym for a removed node.
func (s *Snapshot) NodeLabelSym(v NodeID) Sym { return s.nodeLabels[v] }

// EdgeLabelSym returns λ(e) as a Sym, or NoSym for a removed edge.
func (s *Snapshot) EdgeLabelSym(e EdgeID) Sym { return s.edgeLabels[e] }

// Endpoints returns ρ(e) = (src, dst).
func (s *Snapshot) Endpoints(e EdgeID) (src, dst NodeID) {
	return s.edgeSrc[e], s.edgeDst[e]
}

// OutEdgesOf returns the live outgoing edges of v in edge-id order,
// shared with the snapshot (callers must not mutate).
func (s *Snapshot) OutEdgesOf(v NodeID) []EdgeID {
	return s.outEdges[s.outOff[v]:s.outOff[v+1]]
}

// InEdgesOf returns the live incoming edges of v in edge-id order.
func (s *Snapshot) InEdgesOf(v NodeID) []EdgeID {
	return s.inEdges[s.inOff[v]:s.inOff[v+1]]
}

// NodePropsOf returns the sorted property list of a live node. For a
// heap snapshot the slice is shared with the snapshot; a record-backed
// snapshot decodes a fresh slice. Hot loops use NodePropRow/NodePropAt
// instead, which are allocation-free for both representations.
func (s *Snapshot) NodePropsOf(v NodeID) []Prop {
	lo, hi := s.nodePropOff[v], s.nodePropOff[v+1]
	if !s.recBacked {
		return s.nodeProps[lo:hi]
	}
	return s.decodeProps(s.nodePropRecs, int(lo), int(hi))
}

// EdgePropsOf returns the sorted property list of a live edge, under
// the same contract as NodePropsOf.
func (s *Snapshot) EdgePropsOf(e EdgeID) []Prop {
	lo, hi := s.edgePropOff[e], s.edgePropOff[e+1]
	if !s.recBacked {
		return s.edgeProps[lo:hi]
	}
	return s.decodeProps(s.edgePropRecs, int(lo), int(hi))
}

func (s *Snapshot) decodeProps(recs []propRec, lo, hi int) []Prop {
	if lo == hi {
		return nil
	}
	out := make([]Prop, hi-lo)
	for i := range out {
		out[i] = s.recProp(recs, lo+i)
	}
	return out
}

// NodePropRow returns the half-open index range of node v's property
// row for use with NodePropAt. Iterating the row by index instead of
// materializing a []Prop works identically — and allocation-free — over
// heap and record-backed snapshots.
func (s *Snapshot) NodePropRow(v NodeID) (lo, hi int) {
	return int(s.nodePropOff[v]), int(s.nodePropOff[v+1])
}

// NodePropAt returns property i of the flattened node property rows;
// i must come from a NodePropRow range.
func (s *Snapshot) NodePropAt(i int) Prop {
	if !s.recBacked {
		return s.nodeProps[i]
	}
	return s.recProp(s.nodePropRecs, i)
}

// EdgePropRow is NodePropRow for the edge property rows.
func (s *Snapshot) EdgePropRow(e EdgeID) (lo, hi int) {
	return int(s.edgePropOff[e]), int(s.edgePropOff[e+1])
}

// EdgePropAt is NodePropAt for the edge property rows.
func (s *Snapshot) EdgePropAt(i int) Prop {
	if !s.recBacked {
		return s.edgeProps[i]
	}
	return s.recProp(s.edgePropRecs, i)
}

// NumNodes is |V| at the snapshot's epoch.
func (s *Snapshot) NumNodes() int { return s.liveNodes }

// NumEdges is |E| at the snapshot's epoch.
func (s *Snapshot) NumEdges() int { return s.liveEdges }

// Mapped reports whether the snapshot's columns alias a file mapping.
func (s *Snapshot) Mapped() bool { return s.mapping != nil }

// NodeLabelColumn exposes the label column itself: element v's label
// Sym, or NoSym for removed nodes. Shared with the snapshot — callers
// must treat it as read-only. Word-at-a-time kernels index it directly
// instead of paying a bounds-checked method call per element.
func (s *Snapshot) NodeLabelColumn() []Sym { return s.nodeLabels }

// EdgeLabelColumn is NodeLabelColumn for edges.
func (s *Snapshot) EdgeLabelColumn() []Sym { return s.edgeLabels }

// NodePropWords exposes the presence bitset of property name p as raw
// words: bit v of word v/64 is set iff live node v defines p. Nil when
// the sym was never used as a node property name (semantically an
// all-zero bitset). Shared with the snapshot — read-only.
func (s *Snapshot) NodePropWords(p Sym) []uint64 {
	if p < 0 || int(p) >= len(s.nodePropSet) {
		return nil
	}
	return s.nodePropSet[p]
}

// OutDegree is the number of live outgoing edges of v.
func (s *Snapshot) OutDegree(v NodeID) int {
	return int(s.outOff[v+1] - s.outOff[v])
}

// NodePropCount is the number of properties of the live node v.
func (s *Snapshot) NodePropCount(v NodeID) int {
	return int(s.nodePropOff[v+1] - s.nodePropOff[v])
}

// NodeHasProp reports whether the live node defines a property named p.
// NoSym (or a sym never used as a node property name) reports false.
func (s *Snapshot) NodeHasProp(v NodeID, p Sym) bool {
	if p < 0 || int(p) >= len(s.nodePropSet) {
		return false
	}
	set := s.nodePropSet[p]
	return set != nil && set[int(v)>>6]&(1<<(uint(v)&63)) != 0
}

// EdgePropBySym returns σ(e, p) for an interned property name, scanning
// the edge's flat property row.
func (s *Snapshot) EdgePropBySym(e EdgeID, p Sym) (values.Value, bool) {
	lo, hi := s.edgePropOff[e], s.edgePropOff[e+1]
	if s.recBacked {
		for i := lo; i < hi; i++ {
			if r := &s.edgePropRecs[i]; Sym(r.sym) == p {
				return s.recValue(r), true
			}
		}
		return values.Value{}, false
	}
	props := s.edgeProps[lo:hi]
	for i := range props {
		if props[i].Sym == p {
			return props[i].Value, true
		}
	}
	return values.Value{}, false
}

// NodePropBySym returns σ(v, p) for an interned property name, scanning
// the node's flat property row.
func (s *Snapshot) NodePropBySym(v NodeID, p Sym) (values.Value, bool) {
	lo, hi := s.nodePropOff[v], s.nodePropOff[v+1]
	if s.recBacked {
		for i := lo; i < hi; i++ {
			if r := &s.nodePropRecs[i]; Sym(r.sym) == p {
				return s.recValue(r), true
			}
		}
		return values.Value{}, false
	}
	props := s.nodeProps[lo:hi]
	for i := range props {
		if props[i].Sym == p {
			return props[i].Value, true
		}
	}
	return values.Value{}, false
}
