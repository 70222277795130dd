package pg

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
)

// withCSVWorkers pins the loader fan-out for the duration of fn: 1
// exercises the inline path, 2+ the pipelined path.
func withCSVWorkers(t *testing.T, n int, fn func()) {
	t.Helper()
	old := csvWorkersOverride
	csvWorkersOverride = n
	defer func() { csvWorkersOverride = old }()
	fn()
}

// eachLoaderPath runs fn once per (loader, fan-out) combination so
// behavior is pinned across the pipelined, inline, and streaming paths.
func eachLoaderPath(t *testing.T, fn func(t *testing.T, load func(nodes, edges string) (*Graph, error))) {
	t.Helper()
	loaders := []struct {
		name string
		load func(nodes, edges string) (*Graph, error)
	}{
		{"ReadCSV", func(n, e string) (*Graph, error) {
			return ReadCSV(strings.NewReader(n), strings.NewReader(e))
		}},
		{"ReadCSVStream", func(n, e string) (*Graph, error) {
			return ReadCSVStream(strings.NewReader(n), strings.NewReader(e))
		}},
	}
	for _, l := range loaders {
		for _, workers := range []int{1, 4} {
			path := "inline"
			if workers > 1 {
				path = "pipelined"
			}
			l := l
			t.Run(l.name+"/"+path, func(t *testing.T) {
				withCSVWorkers(t, workers, func() { fn(t, l.load) })
			})
		}
	}
}

// graphJSON renders the graph to its canonical JSON form; two graphs
// with equal output are observably identical to validators and writers.
func graphJSON(t *testing.T, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReadCSVStreamMatchesReadCSV(t *testing.T) {
	const n = 3*csvBatchRows + 19
	nodes, edges := buildBigCSV(n)

	want, err := ReadCSV(strings.NewReader(nodes), strings.NewReader(edges))
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := graphJSON(t, want)
	wantSnap := want.Snapshot()

	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			withCSVWorkers(t, workers, func() {
				got, err := ReadCSVStream(strings.NewReader(nodes), strings.NewReader(edges))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(graphJSON(t, got), wantJSON) {
					t.Fatal("streamed graph differs from ReadCSV graph")
				}
				if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
					t.Fatalf("size mismatch: %d/%d vs %d/%d",
						got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
				}
				if gl, wl := got.Labels(), want.Labels(); fmt.Sprint(gl) != fmt.Sprint(wl) {
					t.Fatalf("Labels = %v, want %v", gl, wl)
				}

				// The sealed snapshot must be pre-built (no rebuild on first
				// use) and identical to the two-phase snapshot column-wise.
				cached := got.snap.Load()
				if cached == nil || cached.Epoch() != got.Epoch() {
					t.Fatal("streamed graph must carry a pre-built snapshot at its epoch")
				}
				if got.Snapshot() != cached {
					t.Fatal("Snapshot() must reuse the sealed snapshot, not rebuild")
				}
				assertSnapshotsEqual(t, cached, wantSnap)

				// Label index equivalence, including bucket order.
				for _, lbl := range want.Labels() {
					if g, w := got.NodesLabeled(lbl), want.NodesLabeled(lbl); fmt.Sprint(g) != fmt.Sprint(w) {
						t.Fatalf("NodesLabeled(%q) = %v, want %v", lbl, g, w)
					}
				}
			})
		})
	}
}

// assertSnapshotsEqual compares every column-derived accessor of two
// snapshots over all elements.
func assertSnapshotsEqual(t *testing.T, got, want *Snapshot) {
	t.Helper()
	if got.NodeBound() != want.NodeBound() || got.EdgeBound() != want.EdgeBound() {
		t.Fatalf("bounds: %d/%d vs %d/%d",
			got.NodeBound(), got.EdgeBound(), want.NodeBound(), want.EdgeBound())
	}
	for v := NodeID(0); int(v) < want.NodeBound(); v++ {
		if got.NodeLabelSym(v) != want.NodeLabelSym(v) {
			t.Fatalf("node %d label sym mismatch", v)
		}
		if fmt.Sprint(got.OutEdgesOf(v)) != fmt.Sprint(want.OutEdgesOf(v)) {
			t.Fatalf("node %d out edges: %v vs %v", v, got.OutEdgesOf(v), want.OutEdgesOf(v))
		}
		if fmt.Sprint(got.InEdgesOf(v)) != fmt.Sprint(want.InEdgesOf(v)) {
			t.Fatalf("node %d in edges: %v vs %v", v, got.InEdgesOf(v), want.InEdgesOf(v))
		}
		gp, wp := got.NodePropsOf(v), want.NodePropsOf(v)
		if len(gp) != len(wp) {
			t.Fatalf("node %d prop count %d vs %d", v, len(gp), len(wp))
		}
		for i := range gp {
			if gp[i].Name != wp[i].Name || gp[i].Sym != wp[i].Sym || !gp[i].Value.Equal(wp[i].Value) {
				t.Fatalf("node %d prop %d: %+v vs %+v", v, i, gp[i], wp[i])
			}
			if !got.NodeHasProp(v, gp[i].Sym) {
				t.Fatalf("node %d: presence bitset misses %q", v, gp[i].Name)
			}
		}
	}
	for e := EdgeID(0); int(e) < want.EdgeBound(); e++ {
		if got.EdgeLabelSym(e) != want.EdgeLabelSym(e) {
			t.Fatalf("edge %d label sym mismatch", e)
		}
		gs, gd := got.Endpoints(e)
		ws, wd := want.Endpoints(e)
		if gs != ws || gd != wd {
			t.Fatalf("edge %d endpoints (%d,%d) vs (%d,%d)", e, gs, gd, ws, wd)
		}
		gp, wp := got.EdgePropsOf(e), want.EdgePropsOf(e)
		if len(gp) != len(wp) {
			t.Fatalf("edge %d prop count %d vs %d", e, len(gp), len(wp))
		}
		for i := range gp {
			if gp[i].Name != wp[i].Name || !gp[i].Value.Equal(wp[i].Value) {
				t.Fatalf("edge %d prop %d: %+v vs %+v", e, i, gp[i], wp[i])
			}
		}
	}
}

// TestReadCSVStreamSnapshotImmutable pins the write contract: a sealed
// graph is its snapshot, and writes copy the rows they touch into the
// graph's overlay, so mutating the graph must never change a snapshot
// taken before the mutation (incremental revalidation and undo retain
// old snapshots).
func TestReadCSVStreamSnapshotImmutable(t *testing.T) {
	nodes := "id,label,name,rank\nu0,User,\"zero\",0\nu1,User,\"one\",1\n"
	edges := "source,target,label,weight\nu0,u1,knows,0.5\n"
	g, err := ReadCSVStream(strings.NewReader(nodes), strings.NewReader(edges))
	if err != nil {
		t.Fatal(err)
	}
	snap := g.Snapshot()

	// In-place overwrite, in-place delete, and append after seal.
	g.SetNodeProp(0, "name", SniffValue(`"mutated"`))
	g.DeleteNodeProp(1, "name")
	g.SetNodeProp(1, "extra", SniffValue("42"))
	g.MustAddEdge(1, 0, "knows")

	if v, ok := snap.NodePropBySym(0, mustSym(t, g, "name")); !ok || v.AsString() != "zero" {
		t.Fatalf("retained snapshot saw in-place overwrite: %v %v", v, ok)
	}
	if props := snap.NodePropsOf(1); len(props) != 2 {
		t.Fatalf("retained snapshot saw delete/append: %v", props)
	}
	if out := snap.OutEdgesOf(1); len(out) != 0 {
		t.Fatalf("retained snapshot saw adjacency append: %v", out)
	}

	// And the next Snapshot() reflects all of it.
	fresh := g.Snapshot()
	if fresh == snap {
		t.Fatal("mutations must invalidate the sealed snapshot")
	}
	if v, _ := fresh.NodePropBySym(0, mustSym(t, g, "name")); v.AsString() != "mutated" {
		t.Fatalf("fresh snapshot name = %v", v)
	}
	if out := fresh.OutEdgesOf(1); len(out) != 1 {
		t.Fatalf("fresh snapshot out edges = %v", out)
	}
}

// TestReadCSVStreamApplyUndo drives the transactional mutation path
// over a freshly streamed graph: Apply's property writes land in the
// overlay and its fold, Undo re-installs the snapshot, and the
// retained snapshot never changes.
func TestReadCSVStreamApplyUndo(t *testing.T) {
	nodes := "id,label,name\nu0,User,\"zero\"\nu1,User,\"one\"\n"
	edges := "source,target,label\nu0,u1,knows\n"
	g, err := ReadCSVStream(strings.NewReader(nodes), strings.NewReader(edges))
	if err != nil {
		t.Fatal(err)
	}
	snap := g.Snapshot()

	u, err := g.Apply(Delta{
		SetNodeProps: []NodePropSpec{{Node: 0, Name: "name", Value: SniffValue(`"patched"`)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := snap.NodePropBySym(0, mustSym(t, g, "name")); !ok || v.AsString() != "zero" {
		t.Fatalf("retained snapshot saw Apply write: %v %v", v, ok)
	}
	if v, _ := g.NodeProp(0, "name"); v.AsString() != "patched" {
		t.Fatalf("graph after Apply: name = %v", v)
	}
	if err := u.Undo(); err != nil {
		t.Fatal(err)
	}
	if v, _ := g.NodeProp(0, "name"); v.AsString() != "zero" {
		t.Fatalf("graph after Undo: name = %v", v)
	}
}

func mustSym(t *testing.T, g *Graph, name string) Sym {
	t.Helper()
	s, ok := g.Sym(name)
	if !ok {
		t.Fatalf("sym %q not interned", name)
	}
	return s
}

func TestReadCSVStripsBOM(t *testing.T) {
	eachLoaderPath(t, func(t *testing.T, load func(nodes, edges string) (*Graph, error)) {
		nodes := "\uFEFFid,label,name\nu0,User,\"ann\"\n"
		edges := "\uFEFFsource,target,label\nu0,u0,knows\n"
		g, err := load(nodes, edges)
		if err != nil {
			t.Fatal(err)
		}
		if g.NumNodes() != 1 || g.NumEdges() != 1 {
			t.Fatalf("got %d nodes, %d edges", g.NumNodes(), g.NumEdges())
		}
		if v, ok := g.NodeProp(0, "name"); !ok || v.AsString() != "ann" {
			t.Fatalf("name = %v, %v", v, ok)
		}
	})
}

func TestReadCSVStreamDuplicateID(t *testing.T) {
	const n = csvBatchRows + 11
	goodNodes, goodEdges := buildBigCSV(n)
	dup := goodNodes + "u5,User,again,1\n"
	eachLoaderPath(t, func(t *testing.T, load func(nodes, edges string) (*Graph, error)) {
		_, err := load(dup, goodEdges)
		want := fmt.Sprintf("pg: node CSV line %d: duplicate node id \"u5\"", n+2)
		if err == nil || err.Error() != want {
			t.Fatalf("err = %v, want %s", err, want)
		}
	})
}

func TestReadCSVStreamContextCancel(t *testing.T) {
	const n = 4 * csvBatchRows
	nodes, edges := buildBigCSV(n)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		withCSVWorkers(t, workers, func() {
			if _, err := ReadCSVStreamContext(ctx, strings.NewReader(nodes), strings.NewReader(edges)); err != context.Canceled {
				t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
			}
		})
	}
}

func TestReadCSVStreamDuplicateHeaderColumn(t *testing.T) {
	nodes := "id,label,x,x\nu1,User,1,2\nu2,User,3,\n"
	g, err := ReadCSVStream(strings.NewReader(nodes), strings.NewReader("source,target,label\n"))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := g.NodeProp(0, "x"); v.AsInt() != 2 {
		t.Fatalf("u1.x = %v, want later column (2)", v)
	}
	if v, _ := g.NodeProp(1, "x"); v.AsInt() != 3 {
		t.Fatalf("u2.x = %v, want 3", v)
	}
}

// TestReadCSVStreamMixedIDFormats drives the id table off its dense
// fast path mid-load: sequential "n<i>" ids followed by nonconforming
// ones force a materialize, and edges must resolve ids recorded on
// both sides of that boundary identically to ReadCSV.
func TestReadCSVStreamMixedIDFormats(t *testing.T) {
	nodes := "id,label,name\n" +
		"n0,User,a\n" +
		"n1,User,b\n" +
		"widget-7,User,c\n" + // breaks the dense invariant
		"n3,User,d\n" +
		"007,User,e\n" // leading zeros: never dense-parseable
	edges := "source,target,label\n" +
		"n0,widget-7,knows\n" +
		"007,n1,knows\n" +
		"n3,n0,knows\n"

	want, err := ReadCSV(strings.NewReader(nodes), strings.NewReader(edges))
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := graphJSON(t, want)
	eachLoaderPath(t, func(t *testing.T, load func(nodes, edges string) (*Graph, error)) {
		g, err := load(nodes, edges)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(graphJSON(t, g), wantJSON) {
			t.Fatal("mixed-id graph differs from ReadCSV reference")
		}
	})
}

// TestReadCSVStreamDenseLookupMisses pins unknown-endpoint diagnostics
// while the id table is still dense: ids that parse past the node
// count, carry the wrong prefix, or use non-canonical decimals must
// all miss, with the same message ReadCSV produces.
func TestReadCSVStreamDenseLookupMisses(t *testing.T) {
	nodes := "id,label\nn0,User\nn1,User\nn2,User\n"
	for _, tc := range []struct{ ref, want string }{
		{"n5", `pg: edge CSV line 2: unknown target "n5"`},   // index out of range
		{"m1", `pg: edge CSV line 2: unknown target "m1"`},   // wrong prefix
		{"n01", `pg: edge CSV line 2: unknown target "n01"`}, // leading zero
	} {
		edges := "source,target,label\nn0," + tc.ref + ",knows\n"
		eachLoaderPath(t, func(t *testing.T, load func(nodes, edges string) (*Graph, error)) {
			_, err := load(nodes, edges)
			if err == nil || err.Error() != tc.want {
				t.Fatalf("ref %q: err = %v, want %s", tc.ref, err, tc.want)
			}
		})
	}
}
