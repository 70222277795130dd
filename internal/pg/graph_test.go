package pg

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"pgschema/internal/values"
)

func TestAddAndQuery(t *testing.T) {
	g := New()
	u := g.AddNode("User")
	s := g.AddNode("UserSession")
	e := g.MustAddEdge(s, u, "user")
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("counts: %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if g.NodeLabel(u) != "User" || g.EdgeLabel(e) != "user" {
		t.Error("labels broken")
	}
	src, dst := g.Endpoints(e)
	if src != s || dst != u {
		t.Error("ρ broken")
	}
	if got := g.OutEdgesLabeled(s, "user"); len(got) != 1 || got[0] != e {
		t.Errorf("out edges: %v", got)
	}
	if got := g.InEdgesLabeled(u, "user"); len(got) != 1 || got[0] != e {
		t.Errorf("in edges: %v", got)
	}
	if got := g.NodesLabeled("User"); len(got) != 1 || got[0] != u {
		t.Errorf("label index: %v", got)
	}
}

func TestAddEdgeInvalidEndpoints(t *testing.T) {
	g := New()
	n := g.AddNode("A")
	if _, err := g.AddEdge(n, 99, "x"); err == nil {
		t.Error("expected error for invalid target")
	}
	if _, err := g.AddEdge(-1, n, "x"); err == nil {
		t.Error("expected error for invalid source")
	}
}

func TestProperties(t *testing.T) {
	g := New()
	n := g.AddNode("User")
	if _, ok := g.NodeProp(n, "id"); ok {
		t.Error("fresh node has properties")
	}
	g.SetNodeProp(n, "id", values.ID("u1"))
	g.SetNodeProp(n, "login", values.String("ada"))
	if v, ok := g.NodeProp(n, "id"); !ok || !v.Equal(values.ID("u1")) {
		t.Error("σ broken")
	}
	if got := g.NodePropNames(n); len(got) != 2 || got[0] != "id" || got[1] != "login" {
		t.Errorf("prop names: %v", got)
	}
	g.DeleteNodeProp(n, "id")
	if _, ok := g.NodeProp(n, "id"); ok {
		t.Error("delete failed")
	}
	// Edge properties.
	m := g.AddNode("User")
	e := g.MustAddEdge(n, m, "knows")
	g.SetEdgeProp(e, "since", values.Int(2019))
	if v, ok := g.EdgeProp(e, "since"); !ok || v.AsInt() != 2019 {
		t.Error("edge σ broken")
	}
}

func TestMultigraph(t *testing.T) {
	// Definition 2.1 allows parallel edges with the same label.
	g := New()
	a, b := g.AddNode("A"), g.AddNode("B")
	e1 := g.MustAddEdge(a, b, "rel")
	e2 := g.MustAddEdge(a, b, "rel")
	if e1 == e2 {
		t.Error("parallel edges must be distinct")
	}
	if g.OutDegreeLabeled(a, "rel") != 2 {
		t.Error("degree count broken")
	}
}

func TestSelfLoop(t *testing.T) {
	g := New()
	a := g.AddNode("A")
	e := g.MustAddEdge(a, a, "self")
	if got := g.OutEdgesLabeled(a, "self"); len(got) != 1 || got[0] != e {
		t.Errorf("out: %v", got)
	}
	if got := g.InEdgesLabeled(a, "self"); len(got) != 1 {
		t.Errorf("in: %v", got)
	}
}

func TestRemoveEdge(t *testing.T) {
	g := New()
	a, b := g.AddNode("A"), g.AddNode("B")
	e := g.MustAddEdge(a, b, "rel")
	g.RemoveEdge(e)
	if g.NumEdges() != 0 || g.HasEdge(e) {
		t.Error("remove failed")
	}
	if len(g.OutEdges(a)) != 0 || len(g.InEdges(b)) != 0 {
		t.Error("adjacency still lists removed edge")
	}
	g.RemoveEdge(e) // idempotent
	if g.NumEdges() != 0 {
		t.Error("double remove corrupted counts")
	}
}

func TestRemoveNode(t *testing.T) {
	g := New()
	a, b, c := g.AddNode("A"), g.AddNode("B"), g.AddNode("C")
	g.MustAddEdge(a, b, "x")
	g.MustAddEdge(b, c, "y")
	g.RemoveNode(b)
	if g.NumNodes() != 2 || g.NumEdges() != 0 {
		t.Errorf("counts after removal: %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if len(g.NodesLabeled("B")) != 0 {
		t.Error("label index still lists removed node")
	}
	if len(g.Nodes()) != 2 {
		t.Error("Nodes() lists removed node")
	}
}

func TestSetNodeLabelMaintainsIndex(t *testing.T) {
	g := New()
	a := g.AddNode("A")
	g.SetNodeLabel(a, "B")
	if len(g.NodesLabeled("A")) != 0 || len(g.NodesLabeled("B")) != 1 {
		t.Error("label index not maintained")
	}
	if g.NodeLabel(a) != "B" {
		t.Error("label not set")
	}
}

func TestClone(t *testing.T) {
	g := New()
	a, b := g.AddNode("A"), g.AddNode("B")
	e := g.MustAddEdge(a, b, "rel")
	g.SetNodeProp(a, "p", values.Int(1))
	c := g.Clone()
	// Mutating the clone must not affect the original.
	c.SetNodeProp(a, "p", values.Int(2))
	c.RemoveEdge(e)
	c.AddNode("C")
	if v, _ := g.NodeProp(a, "p"); v.AsInt() != 1 {
		t.Error("clone shares property maps")
	}
	if g.NumEdges() != 1 || g.NumNodes() != 2 {
		t.Error("clone shares structure")
	}
	if c.NumEdges() != 0 || c.NumNodes() != 3 {
		t.Error("clone mutations lost")
	}
}

func TestLabels(t *testing.T) {
	g := New()
	g.AddNode("B")
	g.AddNode("A")
	g.AddNode("A")
	if got := g.Labels(); len(got) != 2 || got[0] != "A" || got[1] != "B" {
		t.Errorf("labels: %v", got)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := New()
	u := g.AddNode("User")
	s := g.AddNode("UserSession")
	g.SetNodeProp(u, "id", values.String("u1"))
	g.SetNodeProp(u, "nicknames", values.List(values.String("a"), values.String("b")))
	e := g.MustAddEdge(s, u, "user")
	g.SetEdgeProp(e, "certainty", values.Float(0.9))

	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != 2 || back.NumEdges() != 1 {
		t.Fatalf("counts: %d/%d", back.NumNodes(), back.NumEdges())
	}
	u2 := back.NodesLabeled("User")[0]
	if v, ok := back.NodeProp(u2, "nicknames"); !ok || v.Len() != 2 {
		t.Errorf("nicknames: %v", v)
	}
	e2 := back.Edges()[0]
	if v, ok := back.EdgeProp(e2, "certainty"); !ok || v.AsFloat() != 0.9 {
		t.Errorf("certainty: %v", v)
	}
}

// TestReadJSONDeterministic: one JSON document loads with the same
// Syms every time, so its .pgsnap image is byte-identical across loads.
// Property names sit in maps, whose iteration order varies run to run.
func TestReadJSONDeterministic(t *testing.T) {
	var doc strings.Builder
	doc.WriteString(`{"nodes": [`)
	for i := 0; i < 4; i++ {
		if i > 0 {
			doc.WriteString(",")
		}
		fmt.Fprintf(&doc, `{"id": "n%d", "label": "L", "properties": {`, i)
		for p := 0; p < 24; p++ {
			if p > 0 {
				doc.WriteString(",")
			}
			fmt.Fprintf(&doc, `"p%02d": %d`, (p*7+i)%24, p)
		}
		doc.WriteString("}}")
	}
	doc.WriteString(`], "edges": [{"source": "n0", "target": "n1", "label": "e", "properties": {"w": 1, "a": "x", "m": true}}]}`)
	var first []byte
	for load := 0; load < 5; load++ {
		g, err := ReadJSON(strings.NewReader(doc.String()))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, g.Snapshot()); err != nil {
			t.Fatal(err)
		}
		if load == 0 {
			first = buf.Bytes()
		} else if !bytes.Equal(buf.Bytes(), first) {
			t.Fatalf("load %d wrote a different .pgsnap image than the first", load)
		}
	}
}

func TestReadJSONErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{`{"nodes":[{"label":"A"}]}`, "without id"},
		{`{"nodes":[{"id":"n","label":"A"},{"id":"n","label":"B"}]}`, "duplicate"},
		{`{"nodes":[],"edges":[{"source":"x","target":"y","label":"l"}]}`, "unknown source"},
		{`{"nodes":[{"id":"a","label":"A"}],"edges":[{"source":"a","target":"y","label":"l"}]}`, "unknown target"},
		{`not json`, "decoding"},
	}
	for _, c := range cases {
		_, err := ReadJSON(strings.NewReader(c.src))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ReadJSON(%q): got %v, want error containing %q", c.src, err, c.want)
		}
	}
}

func TestReadCSV(t *testing.T) {
	nodes := `id,label,name,age,tags
u1,User,Ada,36,"[x, y]"
u2,User,Bob,,`
	edges := `source,target,label,weight
u1,u2,knows,0.5`
	g, err := ReadCSV(strings.NewReader(nodes), strings.NewReader(edges))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("counts: %d/%d", g.NumNodes(), g.NumEdges())
	}
	u1 := g.NodesLabeled("User")[0]
	if v, _ := g.NodeProp(u1, "age"); v.AsInt() != 36 {
		t.Errorf("age: %v", v)
	}
	if v, ok := g.NodeProp(u1, "tags"); !ok || v.Len() != 2 || !v.Elem(0).Equal(values.String("x")) {
		t.Errorf("tags: %v", v)
	}
	u2 := g.NodesLabeled("User")[1]
	if _, ok := g.NodeProp(u2, "age"); ok {
		t.Error("empty cell must mean absent property")
	}
	e := g.Edges()[0]
	if v, _ := g.EdgeProp(e, "weight"); v.AsFloat() != 0.5 {
		t.Errorf("weight: %v", v)
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("wrong,header\n"), strings.NewReader("source,target,label\n")); err == nil {
		t.Error("bad node header accepted")
	}
	if _, err := ReadCSV(strings.NewReader("id,label\na,A\n"), strings.NewReader("bad\n")); err == nil {
		t.Error("bad edge header accepted")
	}
	if _, err := ReadCSV(strings.NewReader("id,label\na,A\na,A\n"), strings.NewReader("source,target,label\n")); err == nil {
		t.Error("duplicate node id accepted")
	}
	if _, err := ReadCSV(strings.NewReader("id,label\na,A\n"), strings.NewReader("source,target,label\na,ghost,l\n")); err == nil {
		t.Error("edge to unknown node accepted")
	}
}

func TestSniffValue(t *testing.T) {
	cases := []struct {
		cell string
		want values.Value
	}{
		{"42", values.Int(42)},
		{"-1", values.Int(-1)},
		{"2.5", values.Float(2.5)},
		{"true", values.Boolean(true)},
		{"false", values.Boolean(false)},
		{"hello", values.String("hello")},
		{`"quoted, string"`, values.String("quoted, string")},
		{"[1, 2, 3]", values.List(values.Int(1), values.Int(2), values.Int(3))},
		{"[]", values.List()},
		{`[a, "b, c"]`, values.List(values.String("a"), values.String("b, c"))},
		{"[[1], [2]]", values.List(values.List(values.Int(1)), values.List(values.Int(2)))},
	}
	for _, c := range cases {
		if got := SniffValue(c.cell); !got.Equal(c.want) {
			t.Errorf("SniffValue(%q) = %v, want %v", c.cell, got, c.want)
		}
	}
}

func TestComputeStats(t *testing.T) {
	g := New()
	a, b := g.AddNode("A"), g.AddNode("B")
	iso := g.AddNode("A")
	_ = iso
	g.MustAddEdge(a, b, "rel")
	g.MustAddEdge(a, b, "rel")
	g.MustAddEdge(a, a, "self")
	g.SetNodeProp(a, "p", values.Int(1))
	st := g.ComputeStats()
	if st.Nodes != 3 || st.Edges != 3 {
		t.Errorf("counts: %+v", st)
	}
	if st.SelfLoops != 1 {
		t.Errorf("self loops: %d", st.SelfLoops)
	}
	if st.ParallelPairs != 1 {
		t.Errorf("parallel: %d", st.ParallelPairs)
	}
	if st.IsolatedNodes != 1 {
		t.Errorf("isolated: %d", st.IsolatedNodes)
	}
	if st.NodesByLabel["A"] != 2 || st.EdgesByLabel["rel"] != 2 {
		t.Errorf("by label: %+v", st)
	}
	if st.NodeProps != 1 {
		t.Errorf("node props: %d", st.NodeProps)
	}
	if !strings.Contains(st.String(), "self-loops: 1") {
		t.Errorf("String(): %s", st)
	}
}

// Property: after any sequence of node additions, the label index is
// consistent with per-node labels.
func TestLabelIndexConsistency(t *testing.T) {
	prop := func(labels []uint8) bool {
		g := New()
		names := []string{"A", "B", "C"}
		for _, l := range labels {
			g.AddNode(names[int(l)%3])
		}
		total := 0
		for _, name := range names {
			for _, id := range g.NodesLabeled(name) {
				if g.NodeLabel(id) != name {
					return false
				}
				total++
			}
		}
		return total == g.NumNodes()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: JSON round trip preserves node and edge counts, labels, and
// property counts for arbitrary small graphs.
func TestJSONRoundTripProperty(t *testing.T) {
	prop := func(n uint8, edges []uint16, props []uint8) bool {
		g := New()
		nn := int(n%20) + 1
		for i := 0; i < nn; i++ {
			g.AddNode([]string{"A", "B"}[i%2])
		}
		for _, e := range edges {
			src := NodeID(int(e>>8) % nn)
			dst := NodeID(int(e&0xff) % nn)
			g.MustAddEdge(src, dst, "rel")
		}
		for i, p := range props {
			g.SetNodeProp(NodeID(int(p)%nn), "k", values.Int(int64(i)))
		}
		var buf bytes.Buffer
		if err := g.WriteJSON(&buf); err != nil {
			return false
		}
		back, err := ReadJSON(&buf)
		if err != nil {
			return false
		}
		if back.NumNodes() != g.NumNodes() || back.NumEdges() != g.NumEdges() {
			return false
		}
		s1, s2 := g.ComputeStats(), back.ComputeStats()
		return s1.NodeProps == s2.NodeProps && s1.SelfLoops == s2.SelfLoops
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestCSVRoundTrip: WriteCSV followed by ReadCSV reproduces the graph's
// structure and properties (values survive the sniffing heuristics thanks
// to quoting).
func TestCSVRoundTrip(t *testing.T) {
	g := New()
	u := g.AddNode("User")
	g.SetNodeProp(u, "id", values.String("u1"))
	g.SetNodeProp(u, "age", values.Int(36))
	g.SetNodeProp(u, "score", values.Float(2.5))
	g.SetNodeProp(u, "active", values.Boolean(true))
	g.SetNodeProp(u, "numbery", values.String("123")) // must stay a string
	g.SetNodeProp(u, "commas", values.String("a, b"))
	g.SetNodeProp(u, "tags", values.List(values.String("x"), values.Int(1)))
	v := g.AddNode("User")
	g.SetNodeProp(v, "id", values.String("u2"))
	e := g.MustAddEdge(u, v, "knows")
	g.SetEdgeProp(e, "since", values.Int(2019))

	var nbuf, ebuf bytes.Buffer
	if err := g.WriteCSV(&nbuf, &ebuf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(strings.NewReader(nbuf.String()), strings.NewReader(ebuf.String()))
	if err != nil {
		t.Fatalf("%v\nnodes:\n%s\nedges:\n%s", err, nbuf.String(), ebuf.String())
	}
	if back.NumNodes() != 2 || back.NumEdges() != 1 {
		t.Fatalf("counts: %d/%d", back.NumNodes(), back.NumEdges())
	}
	u2 := back.NodesLabeled("User")[0]
	for name, want := range map[string]values.Value{
		"id": values.String("u1"), "age": values.Int(36), "score": values.Float(2.5),
		"active": values.Boolean(true), "numbery": values.String("123"),
		"commas": values.String("a, b"),
		"tags":   values.List(values.String("x"), values.Int(1)),
	} {
		got, ok := back.NodeProp(u2, name)
		if !ok || !got.Equal(want) {
			t.Errorf("property %s: got %v (%v), want %v", name, got, ok, want)
		}
		if name == "numbery" && got.Kind() != values.KindString {
			t.Errorf("numbery decoded as %v, want String", got.Kind())
		}
	}
	e2 := back.Edges()[0]
	if got, _ := back.EdgeProp(e2, "since"); !got.Equal(values.Int(2019)) {
		t.Errorf("edge since: %v", got)
	}
}

// TestTombstoneReads: a removed node or edge answers "" / NoSym, no
// properties and no adjacency on every kind of graph — built through
// the mutation API, streamed from CSV, mapped from a .pgsnap file, and
// mapped after an Apply and an Undo — whether the tombstone sits in the
// snapshot or in a pending overlay, and writes to it change nothing.
func TestTombstoneReads(t *testing.T) {
	// build adds a Book (0) and an Author (1) with a "wrote" edge (0)
	// from the author to the book, plus a second Author (2).
	build := func(g *Graph) {
		book := g.AddNode("Book")
		g.SetNodeProp(book, "title", values.String("Gone"))
		author := g.AddNode("Author")
		g.SetNodeProp(author, "name", values.String("Ann"))
		g.AddNode("Author")
		e := g.MustAddEdge(author, book, "wrote")
		g.SetEdgeProp(e, "year", values.Int(1999))
	}
	const book, author, wrote = NodeID(0), NodeID(1), EdgeID(0)
	built := func(t *testing.T) *Graph {
		g := New()
		build(g)
		g.RemoveNode(book)
		return g
	}
	mapped := func(t *testing.T) *Graph {
		g, err := OpenSnapshot(writeSnapFile(t, built(t)))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { g.Close() })
		return g
	}
	for _, c := range []struct {
		name string
		open func(t *testing.T) *Graph
	}{
		{"mutation API", built},
		{"mutation API, written after removal", func(t *testing.T) *Graph {
			g := built(t)
			epoch := g.Epoch()
			g.SetNodeLabel(book, "Book")
			g.SetNodeProp(book, "title", values.String("Back"))
			g.DeleteNodeProp(book, "title")
			g.SetEdgeLabel(wrote, "wrote")
			g.SetEdgeProp(wrote, "year", values.Int(2000))
			g.DeleteEdgeProp(wrote, "year")
			if g.Epoch() != epoch {
				t.Errorf("writes to removed elements moved the epoch %d -> %d", epoch, g.Epoch())
			}
			return g
		}},
		{"mutation API, folded", func(t *testing.T) *Graph {
			g := built(t)
			g.Snapshot()
			return g
		}},
		{"streamed, pending removal", func(t *testing.T) *Graph {
			live := New()
			build(live)
			var nodes, edges bytes.Buffer
			if err := live.WriteCSV(&nodes, &edges); err != nil {
				t.Fatal(err)
			}
			g, err := ReadCSVStream(&nodes, &edges)
			if err != nil {
				t.Fatal(err)
			}
			g.RemoveNode(book)
			return g
		}},
		{"mapped", mapped},
		{"mapped after Apply and Undo", func(t *testing.T) *Graph {
			g := mapped(t)
			if _, err := g.Apply(Delta{SetNodeProps: []NodePropSpec{{Node: author, Name: "name", Value: values.String("Bea")}}}); err != nil {
				t.Fatal(err)
			}
			u, err := g.Apply(Delta{RemoveNodes: []NodeID{author}})
			if err != nil {
				t.Fatal(err)
			}
			if err := u.Undo(); err != nil {
				t.Fatal(err)
			}
			return g
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			g := c.open(t)
			if g.HasNode(book) || g.NodeLabel(book) != "" || g.NodeLabelSym(book) != NoSym {
				t.Errorf("removed node: live %v, label %q, sym %d", g.HasNode(book), g.NodeLabel(book), g.NodeLabelSym(book))
			}
			if _, ok := g.NodeProp(book, "title"); ok || len(g.NodeProps(book)) != 0 {
				t.Errorf("removed node keeps properties %v", g.NodeProps(book))
			}
			if len(g.OutEdgesRaw(book)) != 0 || len(g.InEdgesRaw(book)) != 0 {
				t.Errorf("removed node keeps adjacency: out %v, in %v", g.OutEdgesRaw(book), g.InEdgesRaw(book))
			}
			if g.HasEdge(wrote) || g.EdgeLabel(wrote) != "" || g.EdgeLabelSym(wrote) != NoSym {
				t.Errorf("removed edge: live %v, label %q, sym %d", g.HasEdge(wrote), g.EdgeLabel(wrote), g.EdgeLabelSym(wrote))
			}
			if src, dst := g.Endpoints(wrote); src != author || dst != book {
				t.Errorf("removed edge endpoints (%d, %d), want (%d, %d)", src, dst, author, book)
			}
			if _, ok := g.EdgeProp(wrote, "year"); ok || len(g.EdgeProps(wrote)) != 0 {
				t.Errorf("removed edge keeps properties %v", g.EdgeProps(wrote))
			}
			if len(g.OutEdgesRaw(author)) != 0 {
				t.Errorf("author still lists the removed edge: %v", g.OutEdgesRaw(author))
			}
			if got := g.NodesLabeled("Book"); len(got) != 0 {
				t.Errorf("NodesLabeled(Book) = %v", got)
			}
			if got := strings.Join(g.Labels(), ","); got != "Author" {
				t.Errorf("Labels = %s", got)
			}
			if g.NumNodes() != 2 || g.NumEdges() != 0 || g.NodeBound() != 3 || g.EdgeBound() != 1 {
				t.Errorf("counts %d/%d, bounds %d/%d", g.NumNodes(), g.NumEdges(), g.NodeBound(), g.EdgeBound())
			}
		})
	}
}
