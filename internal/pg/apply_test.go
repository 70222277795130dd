package pg

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"pgschema/internal/values"
)

// snapEqual compares two snapshots semantically: same element bounds,
// labels, endpoints, adjacency rows, property rows, and property
// presence bits. Syms interned after the older snapshot was built are
// treated as absent there.
func snapEqual(t *testing.T, got, want *Snapshot) {
	t.Helper()
	if got.NodeBound() != want.NodeBound() {
		t.Fatalf("node bound: got %d want %d", got.NodeBound(), want.NodeBound())
	}
	if got.EdgeBound() != want.EdgeBound() {
		t.Fatalf("edge bound: got %d want %d", got.EdgeBound(), want.EdgeBound())
	}
	hasProp := func(s *Snapshot, v NodeID, p Sym) bool {
		if int(p) >= len(s.nodePropSet) {
			return false
		}
		return s.NodeHasProp(v, p)
	}
	syms := len(got.nodePropSet)
	if len(want.nodePropSet) > syms {
		syms = len(want.nodePropSet)
	}
	for vi := 0; vi < want.NodeBound(); vi++ {
		v := NodeID(vi)
		if got.NodeLabelSym(v) != want.NodeLabelSym(v) {
			t.Fatalf("node %d label: got %d want %d", v, got.NodeLabelSym(v), want.NodeLabelSym(v))
		}
		if go_, w := got.OutEdgesOf(v), want.OutEdgesOf(v); !edgeListEqual(go_, w) {
			t.Fatalf("node %d out edges: got %v want %v", v, go_, w)
		}
		if gi, w := got.InEdgesOf(v), want.InEdgesOf(v); !edgeListEqual(gi, w) {
			t.Fatalf("node %d in edges: got %v want %v", v, gi, w)
		}
		if gp, w := got.NodePropsOf(v), want.NodePropsOf(v); !propListEqual(gp, w) {
			t.Fatalf("node %d props: got %v want %v", v, gp, w)
		}
		for s := 0; s < syms; s++ {
			if hasProp(got, v, Sym(s)) != hasProp(want, v, Sym(s)) {
				t.Fatalf("node %d prop bit for sym %d: got %v want %v",
					v, s, hasProp(got, v, Sym(s)), hasProp(want, v, Sym(s)))
			}
		}
	}
	for ei := 0; ei < want.EdgeBound(); ei++ {
		e := EdgeID(ei)
		if got.EdgeLabelSym(e) != want.EdgeLabelSym(e) {
			t.Fatalf("edge %d label: got %d want %d", e, got.EdgeLabelSym(e), want.EdgeLabelSym(e))
		}
		gs, gd := got.Endpoints(e)
		ws, wd := want.Endpoints(e)
		if gs != ws || gd != wd {
			t.Fatalf("edge %d endpoints: got (%d,%d) want (%d,%d)", e, gs, gd, ws, wd)
		}
		if gp, w := got.EdgePropsOf(e), want.EdgePropsOf(e); !propListEqual(gp, w) {
			t.Fatalf("edge %d props: got %v want %v", e, gp, w)
		}
	}
}

func edgeListEqual(a, b []EdgeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func propListEqual(a, b []Prop) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || !reflect.DeepEqual(a[i].Value, b[i].Value) {
			return false
		}
	}
	return true
}

func applyGraph() *Graph {
	g := New()
	a := g.AddNode("Author") // 0
	b := g.AddNode("Book")   // 1
	p := g.AddNode("Publisher")
	g.SetNodeProp(a, "name", values.String("ann"))
	g.SetNodeProp(b, "title", values.String("t1"))
	g.MustAddEdge(a, b, "favoriteBook")
	g.MustAddEdge(p, b, "published")
	return g
}

func TestApplyBasic(t *testing.T) {
	g := applyGraph()
	epoch0 := g.Epoch()
	u, err := g.Apply(Delta{
		AddNodes: []AddNodeSpec{
			{Label: "Author", Props: []PropEntry{{Name: "name", Value: values.String("bob")}}},
			{Label: "Book"},
		},
		AddEdges: []AddEdgeSpec{
			{Src: NewNodeRef(0), Dst: NewNodeRef(1), Label: "favoriteBook"},
			{Src: NewNodeRef(0), Dst: 1, Label: "favoriteBook"},
		},
		SetNodeProps: []NodePropSpec{{Node: NewNodeRef(1), Name: "title", Value: values.String("t2")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.Epoch() <= epoch0 {
		t.Fatalf("epoch did not advance: %d -> %d", epoch0, g.Epoch())
	}
	if len(u.NewNodes()) != 2 || len(u.NewEdges()) != 2 {
		t.Fatalf("new IDs: nodes %v edges %v", u.NewNodes(), u.NewEdges())
	}
	bob := u.NewNodes()[0]
	if g.NodeLabel(bob) != "Author" {
		t.Fatalf("bob label: %q", g.NodeLabel(bob))
	}
	if v, ok := g.NodeProp(u.NewNodes()[1], "title"); !ok || v.AsString() != "t2" {
		t.Fatalf("ref-addressed property missing: %v %v", v, ok)
	}
	if len(g.OutEdges(bob)) != 2 {
		t.Fatalf("bob out-edges: %v", g.OutEdges(bob))
	}
	tc := u.Touched()
	if len(tc.Nodes) != 2 { // bob + new book; existing book 1 is NOT touched (only edge-adjacent)
		t.Fatalf("touched nodes: %v", tc.Nodes)
	}
	if len(tc.Edges) != 2 {
		t.Fatalf("touched edges: %v", tc.Edges)
	}
}

func TestApplyRemoveNodeWithSelfLoop(t *testing.T) {
	g := applyGraph()
	n := g.AddNode("Author")
	g.MustAddEdge(n, n, "relatedAuthor")
	before := rebuilt(g)
	u, err := g.Apply(Delta{RemoveNodes: []NodeID{n}})
	if err != nil {
		t.Fatal(err)
	}
	if g.HasNode(n) {
		t.Fatal("node still live")
	}
	if g.NumEdges() != 2 {
		t.Fatalf("self-loop not removed exactly once: %d edges", g.NumEdges())
	}
	if err := u.Undo(); err != nil {
		t.Fatal(err)
	}
	snapEqual(t, rebuilt(g), before)
}

func TestApplyAtomicRollback(t *testing.T) {
	g := applyGraph()
	epoch0 := g.Epoch()
	before := rebuilt(g)
	nodes0, edges0 := g.NumNodes(), g.NumEdges()
	_, err := g.Apply(Delta{
		AddNodes:     []AddNodeSpec{{Label: "Author"}},
		AddEdges:     []AddEdgeSpec{{Src: NewNodeRef(0), Dst: 1, Label: "x"}},
		RelabelNodes: []RelabelSpec{{Node: 0, Label: "Ghost"}},
		SetNodeProps: []NodePropSpec{{Node: 0, Name: "name", Value: values.Int(7)}},
		RemoveEdges:  []EdgeID{0},
		RemoveNodes:  []NodeID{999}, // fails last, after every group mutated
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if g.Epoch() != epoch0 {
		t.Fatalf("epoch changed after failed apply: %d -> %d", epoch0, g.Epoch())
	}
	if g.NumNodes() != nodes0 || g.NumEdges() != edges0 {
		t.Fatalf("element counts changed: %d/%d -> %d/%d", nodes0, edges0, g.NumNodes(), g.NumEdges())
	}
	snapEqual(t, rebuilt(g), before)
	if g.NodeLabel(0) != "Author" {
		t.Fatalf("relabel not rolled back: %q", g.NodeLabel(0))
	}
	if v, ok := g.NodeProp(0, "name"); !ok || v.AsString() != "ann" {
		t.Fatalf("property not rolled back: %v %v", v, ok)
	}
}

func TestApplyErrors(t *testing.T) {
	g := applyGraph()
	cases := []Delta{
		{AddEdges: []AddEdgeSpec{{Src: 0, Dst: 99, Label: "x"}}},
		{AddEdges: []AddEdgeSpec{{Src: NewNodeRef(3), Dst: 0, Label: "x"}}},
		{RelabelNodes: []RelabelSpec{{Node: 77, Label: "x"}}},
		{SetNodeProps: []NodePropSpec{{Node: 0, Name: "", Value: values.Int(1)}}},
		{SetEdgeProps: []EdgePropSpec{{Edge: 50, Name: "n", Value: values.Int(1)}}},
		{RemoveEdges: []EdgeID{44}},
		{RemoveNodes: []NodeID{NewNodeRef(0)}},
	}
	for i, d := range cases {
		epoch0 := g.Epoch()
		if _, err := g.Apply(d); err == nil {
			t.Errorf("case %d: expected error", i)
		}
		if g.Epoch() != epoch0 {
			t.Errorf("case %d: epoch moved on failed apply", i)
		}
	}
}

func TestUndoStaleAndDouble(t *testing.T) {
	g := applyGraph()
	u, err := g.Apply(Delta{SetNodeProps: []NodePropSpec{{Node: 0, Name: "name", Value: values.String("x")}}})
	if err != nil {
		t.Fatal(err)
	}
	g.SetNodeProp(1, "title", values.String("mutated-after"))
	if err := u.Undo(); err == nil {
		t.Fatal("Undo after later mutation should fail")
	}
	g2 := applyGraph()
	u2, err := g2.Apply(Delta{SetNodeProps: []NodePropSpec{{Node: 0, Name: "name", Value: values.String("x")}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := u2.Undo(); err != nil {
		t.Fatal(err)
	}
	if err := u2.Undo(); err == nil {
		t.Fatal("double Undo should fail")
	}
}

func TestUndoNeverRewindsEpoch(t *testing.T) {
	g := applyGraph()
	u, err := g.Apply(Delta{AddNodes: []AddNodeSpec{{Label: "Author"}}})
	if err != nil {
		t.Fatal(err)
	}
	applied := g.Epoch()
	if err := u.Undo(); err != nil {
		t.Fatal(err)
	}
	if g.Epoch() <= applied {
		t.Fatalf("undo rewound the epoch: %d -> %d", applied, g.Epoch())
	}
	// The reinstalled pre-apply snapshot must carry the new epoch and
	// describe the restored content.
	if s := g.Snapshot(); s.Epoch() != g.Epoch() {
		t.Fatalf("snapshot epoch %d, graph epoch %d", s.Epoch(), g.Epoch())
	}
	snapEqual(t, g.Snapshot(), rebuilt(g))
}

// randomDelta builds a random mutation batch referencing live elements
// plus fresh additions.
func randomDelta(g *Graph, rnd *rand.Rand) Delta {
	var d Delta
	nodes := g.Nodes()
	edges := g.Edges()
	labels := []string{"Author", "Book", "Publisher", "Ghost"}
	eLabels := []string{"favoriteBook", "published", "relatedAuthor", "bogus"}
	pick := func(ids []NodeID) NodeID { return ids[rnd.Intn(len(ids))] }
	nAdds := rnd.Intn(3)
	for i := 0; i < nAdds; i++ {
		sp := AddNodeSpec{Label: labels[rnd.Intn(len(labels))]}
		if rnd.Intn(2) == 0 {
			sp.Props = []PropEntry{{Name: "name", Value: values.Int(int64(rnd.Intn(10)))}}
		}
		d.AddNodes = append(d.AddNodes, sp)
	}
	ops := 1 + rnd.Intn(4)
	for i := 0; i < ops; i++ {
		endpoint := func() NodeID {
			if nAdds > 0 && rnd.Intn(3) == 0 {
				return NewNodeRef(rnd.Intn(nAdds))
			}
			return pick(nodes)
		}
		switch rnd.Intn(7) {
		case 0:
			d.AddEdges = append(d.AddEdges, AddEdgeSpec{
				Src: endpoint(), Dst: endpoint(), Label: eLabels[rnd.Intn(len(eLabels))],
				Props: []PropEntry{{Name: "since", Value: values.Int(int64(rnd.Intn(5)))}},
			})
		case 1:
			d.RelabelNodes = append(d.RelabelNodes, RelabelSpec{Node: endpoint(), Label: labels[rnd.Intn(len(labels))]})
		case 2:
			d.SetNodeProps = append(d.SetNodeProps, NodePropSpec{Node: endpoint(), Name: "name", Value: values.String("r")})
		case 3:
			d.DelNodeProps = append(d.DelNodeProps, NodePropDelSpec{Node: endpoint(), Name: "name"})
		case 4:
			if len(edges) > 0 {
				e := edges[rnd.Intn(len(edges))]
				d.SetEdgeProps = append(d.SetEdgeProps, EdgePropSpec{Edge: e, Name: "since", Value: values.Int(9)})
			}
		case 5:
			if len(edges) > 0 {
				e := edges[rnd.Intn(len(edges))]
				already := false
				for _, x := range d.RemoveEdges {
					if x == e {
						already = true
					}
				}
				if !already {
					d.RemoveEdges = append(d.RemoveEdges, e)
				}
			}
		case 6:
			if rnd.Intn(2) == 0 { // keep removals rarer
				n := pick(nodes)
				already := false
				for _, x := range d.RemoveNodes {
					if x == n {
						already = true
					}
				}
				// A node removal also removes incident edges; avoid
				// double-removing an edge listed in RemoveEdges.
				for _, x := range d.RemoveEdges {
					s, dst := g.Endpoints(x)
					if s == n || dst == n {
						already = true
					}
				}
				if !already {
					d.RemoveNodes = append(d.RemoveNodes, n)
				}
			}
		}
	}
	return d
}

// TestApplyUndoRandomized drives random deltas through Apply, checks
// the patched snapshot against a from-scratch build, undoes, and checks
// the graph is restored — the core transactional property.
func TestApplyUndoRandomized(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		g := applyGraph()
		for i := 0; i < 10; i++ {
			extra := g.AddNode("Author")
			g.MustAddEdge(extra, NodeID(1), "favoriteBook")
		}
		for step := 0; step < 8; step++ {
			g.Snapshot() // ensure a pre-apply snapshot is cached
			before := rebuilt(g)
			epoch0 := g.Epoch()
			d := randomDelta(g, rnd)
			u, err := g.Apply(d)
			if err != nil {
				t.Fatalf("seed %d step %d: %v (delta %+v)", seed, step, err, d)
			}
			// Whatever Apply left in the cache (patched or stale) must
			// not disagree with a full rebuild once consulted.
			snapEqual(t, g.Snapshot(), rebuilt(g))
			if u.Epoch() != g.Epoch() {
				t.Fatalf("seed %d step %d: undo epoch %d vs graph %d", seed, step, u.Epoch(), g.Epoch())
			}
			if step%2 == 0 {
				if err := u.Undo(); err != nil {
					t.Fatalf("seed %d step %d: undo: %v", seed, step, err)
				}
				snapEqual(t, rebuilt(g), before)
				if g.Epoch() <= epoch0 {
					t.Fatalf("seed %d step %d: epoch rewound", seed, step)
				}
			}
		}
	}
}

// TestApplyPatchedSnapshotUsed asserts the snapshot patch actually
// installs for a small delta on a cached snapshot (the perf path the
// incremental engine relies on), rather than silently falling back to
// full rebuilds everywhere.
func TestApplyPatchedSnapshotUsed(t *testing.T) {
	g := applyGraph()
	for i := 0; i < 200; i++ {
		n := g.AddNode("Author")
		g.MustAddEdge(n, NodeID(1), "favoriteBook")
	}
	g.Snapshot()
	u, err := g.Apply(Delta{SetNodeProps: []NodePropSpec{{Node: 0, Name: "name", Value: values.String("patched")}}})
	if err != nil {
		t.Fatal(err)
	}
	s := g.snap.Load()
	if s == nil || s.Epoch() != g.Epoch() {
		t.Fatalf("patched snapshot not installed (cached epoch %v, graph %d)", s, g.Epoch())
	}
	snapEqual(t, s, rebuilt(g))
	_ = u
}

// rebuilt is a from-scratch snapshot of g's current state: every row,
// read through g's point readers, appended to an empty base and folded.
// It is the same for two graphs with the same content, symbols and
// epoch, whatever base and overlay each holds.
func rebuilt(g *Graph) *Snapshot {
	c := &Graph{syms: g.syms.clone(), epoch: g.epoch, base: emptySnapshot()}
	ov := newOverlay(c.base)
	ov.nodesAdded, ov.edgesAdded = true, true
	for v := range NodeID(g.NodeBound()) {
		ov.newNodes = append(ov.newNodes, nodeRow{
			label: g.NodeLabelSym(v),
			props: slices.Clone(g.NodeProps(v)),
			out:   slices.Clone(g.OutEdgesRaw(v)),
			in:    slices.Clone(g.InEdgesRaw(v)),
		})
	}
	for e := range EdgeID(g.EdgeBound()) {
		src, dst := g.Endpoints(e)
		ov.newEdges = append(ov.newEdges, edgeRow{src: src, dst: dst, label: g.EdgeLabelSym(e), props: slices.Clone(g.EdgeProps(e))})
	}
	ov.liveNodes, ov.liveEdges = g.NumNodes(), g.NumEdges()
	c.ov = ov
	return c.fold()
}
