package pg

import (
	"testing"

	"pgschema/internal/values"
)

// TestFoldLargeDelta: a delta dirtying every element still folds —
// Apply installs the folded snapshot at the new epoch, and it agrees
// with a from-scratch rebuild.
func TestFoldLargeDelta(t *testing.T) {
	g := New()
	for i := 0; i < 10; i++ {
		g.AddNode("Author")
	}
	g.Snapshot()
	var d Delta
	for i := 0; i < 10; i++ {
		d.SetNodeProps = append(d.SetNodeProps, NodePropSpec{
			Node: NodeID(i), Name: "name", Value: values.Int(int64(i)),
		})
	}
	if _, err := g.Apply(d); err != nil {
		t.Fatal(err)
	}
	s := g.snap.Load()
	if s == nil || s.Epoch() != g.Epoch() {
		t.Fatal("Apply left no folded snapshot of a near-total delta")
	}
	snapEqual(t, s, rebuilt(g))
}

// TestPatchSharesUntouchedColumns: a props-only delta must not rebuild
// adjacency or label columns — the patched snapshot aliases them.
func TestPatchSharesUntouchedColumns(t *testing.T) {
	g := New()
	for i := 0; i < 100; i++ {
		g.AddNode("Author")
	}
	for i := 0; i < 99; i++ {
		g.MustAddEdge(NodeID(i), NodeID(i+1), "relatedAuthor")
	}
	old := g.Snapshot()
	if _, err := g.Apply(Delta{SetNodeProps: []NodePropSpec{
		{Node: 0, Name: "name", Value: values.String("x")},
	}}); err != nil {
		t.Fatal(err)
	}
	s := g.snap.Load()
	if s == nil || s.Epoch() != g.Epoch() {
		t.Fatal("expected a patched snapshot to be installed")
	}
	if &s.nodeLabels[0] != &old.nodeLabels[0] {
		t.Error("node label column should be shared")
	}
	if &s.outEdges[0] != &old.outEdges[0] || &s.outOff[0] != &old.outOff[0] {
		t.Error("adjacency columns should be shared")
	}
	if &s.edgeSrc[0] != &old.edgeSrc[0] {
		t.Error("edge endpoint column should be shared")
	}
	snapEqual(t, s, rebuilt(g))
}
