package pg

import (
	"testing"

	"pgschema/internal/values"
)

// snapGraph builds a small graph with a removed node and edge so the
// snapshot has tombstones to skip.
func snapGraph(t *testing.T) (*Graph, NodeID, NodeID, NodeID, EdgeID, EdgeID) {
	t.Helper()
	g := New()
	a := g.AddNode("Person")
	b := g.AddNode("Person")
	c := g.AddNode("City")
	dead := g.AddNode("Ghost")
	e1, _ := g.AddEdge(a, b, "knows")
	e2, _ := g.AddEdge(a, c, "livesIn")
	eDead, _ := g.AddEdge(b, c, "livesIn")
	g.SetNodeProp(a, "name", values.String("ann"))
	g.SetNodeProp(a, "age", values.Int(40))
	g.SetNodeProp(c, "name", values.String("oslo"))
	g.SetEdgeProp(e1, "since", values.Int(2001))
	g.RemoveEdge(eDead)
	g.RemoveNode(dead)
	return g, a, b, c, e1, e2
}

func TestSnapshotColumns(t *testing.T) {
	g, a, b, c, e1, e2 := snapGraph(t)
	s := g.Snapshot()

	if s.Epoch() != g.Epoch() {
		t.Fatalf("snapshot epoch %d != graph epoch %d", s.Epoch(), g.Epoch())
	}
	if s.NodeBound() != g.NodeBound() || s.EdgeBound() != g.EdgeBound() {
		t.Fatalf("bounds (%d,%d) != graph (%d,%d)",
			s.NodeBound(), s.EdgeBound(), g.NodeBound(), g.EdgeBound())
	}

	// Labels mirror the graph; removed elements read NoSym.
	person, _ := g.Sym("Person")
	if s.NodeLabelSym(a) != person || s.NodeLabelSym(b) != person {
		t.Fatalf("node label syms wrong")
	}
	if s.NodeLabelSym(3) != NoSym {
		t.Fatalf("removed node label = %v, want NoSym", s.NodeLabelSym(3))
	}
	if s.EdgeLabelSym(2) != NoSym {
		t.Fatalf("removed edge label = %v, want NoSym", s.EdgeLabelSym(2))
	}

	// Endpoints and adjacency: live edges only, edge-id order.
	if src, dst := s.Endpoints(e1); src != a || dst != b {
		t.Fatalf("Endpoints(e1) = (%d,%d), want (%d,%d)", src, dst, a, b)
	}
	out := s.OutEdgesOf(a)
	if len(out) != 2 || out[0] != e1 || out[1] != e2 {
		t.Fatalf("OutEdgesOf(a) = %v, want [%d %d]", out, e1, e2)
	}
	if got := s.InEdgesOf(c); len(got) != 1 || got[0] != e2 {
		t.Fatalf("InEdgesOf(c) = %v, want [%d] (removed edge must be dropped)", got, e2)
	}
	if got := s.OutEdgesOf(b); len(got) != 0 {
		t.Fatalf("OutEdgesOf(b) = %v, want empty (its only out-edge is removed)", got)
	}

	// Properties: flattened rows match the per-node sorted lists.
	props := s.NodePropsOf(a)
	if len(props) != 2 || props[0].Name != "age" || props[1].Name != "name" {
		t.Fatalf("NodePropsOf(a) = %v", props)
	}
	if got := s.EdgePropsOf(e1); len(got) != 1 || got[0].Name != "since" {
		t.Fatalf("EdgePropsOf(e1) = %v", got)
	}
	if got := s.EdgePropsOf(e2); len(got) != 0 {
		t.Fatalf("EdgePropsOf(e2) = %v, want empty", got)
	}

	// Presence bitsets and sym lookup.
	name, _ := g.Sym("name")
	age, _ := g.Sym("age")
	if !s.NodeHasProp(a, name) || !s.NodeHasProp(c, name) || s.NodeHasProp(b, name) {
		t.Fatalf("NodeHasProp(name) wrong")
	}
	if !s.NodeHasProp(a, age) || s.NodeHasProp(c, age) {
		t.Fatalf("NodeHasProp(age) wrong")
	}
	if s.NodeHasProp(a, NoSym) {
		t.Fatalf("NodeHasProp(NoSym) must be false")
	}
	if v, ok := s.NodePropBySym(a, age); !ok || v.Kind() != values.KindInt {
		t.Fatalf("NodePropBySym(a, age) = %v, %v", v, ok)
	}
	if _, ok := s.NodePropBySym(b, age); ok {
		t.Fatalf("NodePropBySym(b, age) should miss")
	}
}

func TestSnapshotCacheAndInvalidation(t *testing.T) {
	g, a, _, _, _, _ := snapGraph(t)
	s1 := g.Snapshot()
	if s2 := g.Snapshot(); s2 != s1 {
		t.Fatalf("unchanged graph must return the cached snapshot")
	}
	g.SetNodeProp(a, "nick", values.String("an"))
	s3 := g.Snapshot()
	if s3 == s1 {
		t.Fatalf("mutation must invalidate the cached snapshot")
	}
	nick, _ := g.Sym("nick")
	if !s3.NodeHasProp(a, nick) {
		t.Fatalf("rebuilt snapshot misses new property")
	}
	if s1.NodeHasProp(a, nick) {
		t.Fatalf("old snapshot must be unaffected by later mutation")
	}
}

func TestSnapshotEmptyGraph(t *testing.T) {
	s := New().Snapshot()
	if s.NodeBound() != 0 || s.EdgeBound() != 0 {
		t.Fatalf("empty snapshot bounds (%d,%d)", s.NodeBound(), s.EdgeBound())
	}
}

// TestSnapshotKernelAccessors covers the chunk accessors the
// branch-free validation kernels walk: label column chunks, per-property
// presence bitset chunks, and the O(1) degree/property counts derived
// from the CSR offsets.
func TestSnapshotKernelAccessors(t *testing.T) {
	g, a, b, c, e1, _ := snapGraph(t)
	s := g.Snapshot()

	var nodeCol, edgeCol []Sym
	for c := 0; s.NodeLabelChunk(c) != nil; c++ {
		nodeCol = append(nodeCol, s.NodeLabelChunk(c)...)
	}
	if len(nodeCol) != s.NodeBound() {
		t.Fatalf("node label column has %d entries, bound %d", len(nodeCol), s.NodeBound())
	}
	for v := 0; v < s.NodeBound(); v++ {
		if nodeCol[v] != s.NodeLabelSym(NodeID(v)) {
			t.Fatalf("node column[%d] = %v, accessor %v", v, nodeCol[v], s.NodeLabelSym(NodeID(v)))
		}
	}
	for c := 0; s.EdgeLabelChunk(c) != nil; c++ {
		edgeCol = append(edgeCol, s.EdgeLabelChunk(c)...)
	}
	if len(edgeCol) != s.EdgeBound() {
		t.Fatalf("edge label column has %d entries, bound %d", len(edgeCol), s.EdgeBound())
	}
	for e := 0; e < s.EdgeBound(); e++ {
		if edgeCol[e] != s.EdgeLabelSym(EdgeID(e)) {
			t.Fatalf("edge column[%d] = %v, accessor %v", e, edgeCol[e], s.EdgeLabelSym(EdgeID(e)))
		}
	}

	// Presence bitset: bit v set iff the node carries the property.
	nameSym, ok := g.Sym("name")
	if !ok {
		t.Fatal("name not interned")
	}
	words := s.NodePropWordChunk(nameSym, 0)
	if words == nil {
		t.Fatal("no presence words for an existing property name")
	}
	for v := 0; v < s.NodeBound(); v++ {
		got := words[v>>6]&(1<<(v&63)) != 0
		_, want := s.NodePropBySym(NodeID(v), nameSym)
		if got != want {
			t.Fatalf("presence bit for node %d = %v, lookup = %v", v, got, want)
		}
	}
	if s.NodePropWordChunk(NoSym, 0) != nil {
		t.Error("NodePropWordChunk(NoSym) should be nil")
	}
	if s.NodePropWordChunk(Sym(1<<20), 0) != nil {
		t.Error("NodePropWordChunk(out of range) should be nil")
	}
	if s.NodePropWordChunk(nameSym, 1) != nil {
		t.Error("NodePropWordChunk past the node bound should be nil")
	}

	// Degree and property counts match the slice accessors.
	for v := 0; v < s.NodeBound(); v++ {
		if got, want := s.OutDegree(NodeID(v)), len(s.OutEdgesOf(NodeID(v))); got != want {
			t.Fatalf("OutDegree(%d) = %d, len(OutEdgesOf) = %d", v, got, want)
		}
		if got, want := s.NodePropCount(NodeID(v)), len(s.NodePropsOf(NodeID(v))); got != want {
			t.Fatalf("NodePropCount(%d) = %d, len(NodePropsOf) = %d", v, got, want)
		}
	}
	if d := s.OutDegree(a); d != 2 {
		t.Errorf("OutDegree(a) = %d, want 2", d)
	}
	_ = b
	_ = c
	_ = e1
}
