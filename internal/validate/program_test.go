package validate

// Tests for the compiled-program layer: binding reuse across runs,
// epoch-driven invalidation when the graph mutates, and the
// compile-on-the-fly fallback when Options.Program does not match the
// schema being validated. These are internal tests (they inspect the
// binding cache directly), so the conformant graph is hand-built — the
// gen package imports validate and cannot be used here.

import (
	"context"
	"strconv"
	"testing"

	"pgschema/internal/pg"
	"pgschema/internal/values"
)

const programSchema = `
type Author @key(fields: ["name"]) {
	name: String! @required
	age: Int
	favoriteBook: Book
	relatedAuthor: [Author] @distinct @noLoops
}
type Book {
	title: String! @required
	pages: Int
	author(since: Int!, role: String): [Author] @required @distinct
}
type BookSeries {
	contains: [Book] @required @uniqueForTarget
}
type Publisher {
	published: [Book] @uniqueForTarget @requiredForTarget
}`

// programGraph hand-builds a graph with n nodes per type that strongly
// satisfies programSchema: unique author keys, every @required property
// and edge present, every Book with exactly one incoming published and
// contains edge, no loops, no duplicate relationship targets.
func programGraph(n int) *pg.Graph {
	g := pg.New()
	authors := make([]pg.NodeID, n)
	for i := range authors {
		a := g.AddNode("Author")
		g.SetNodeProp(a, "name", values.String("author-"+strconv.Itoa(i)))
		g.SetNodeProp(a, "age", values.Int(int64(30+i%40)))
		authors[i] = a
	}
	books := make([]pg.NodeID, n)
	for i := range books {
		b := g.AddNode("Book")
		g.SetNodeProp(b, "title", values.String("book-"+strconv.Itoa(i)))
		g.SetNodeProp(b, "pages", values.Int(int64(100+i)))
		e := g.MustAddEdge(b, authors[i], "author")
		g.SetEdgeProp(e, "since", values.Int(int64(2000+i%20)))
		books[i] = b
	}
	for i, a := range authors {
		g.MustAddEdge(a, books[i], "favoriteBook")
		if n > 1 {
			g.MustAddEdge(a, authors[(i+1)%n], "relatedAuthor")
		}
	}
	for i := 0; i < n; i++ {
		s := g.AddNode("BookSeries")
		g.MustAddEdge(s, books[i], "contains")
		p := g.AddNode("Publisher")
		g.MustAddEdge(p, books[i], "published")
	}
	return g
}

func TestProgramGraphConformant(t *testing.T) {
	s := build(t, programSchema)
	if res := Validate(s, programGraph(5), Options{}); !res.OK() {
		t.Fatalf("hand-built graph not conformant: %v", res.Violations)
	}
}

func TestProgramStats(t *testing.T) {
	s := build(t, programSchema)
	st := Compile(s).Stats()
	if st.Types == 0 || st.Names == 0 || st.Fields == 0 || st.Obligations == 0 {
		t.Errorf("degenerate stats for a directive-complete schema: %+v", st)
	}
	if st.CompileTime <= 0 {
		t.Errorf("compile time not recorded: %+v", st)
	}
}

func TestProgramBindingReusedAcrossRuns(t *testing.T) {
	s := build(t, programSchema)
	g := programGraph(20)
	p := Compile(s)
	if res := Validate(s, g, Options{Program: p}); !res.OK() {
		t.Fatalf("conformant graph invalid: %v", res.Violations)
	}
	b := p.bound.Load()
	if b == nil {
		t.Fatal("no binding cached after a compiled run")
	}
	if res := Validate(s, g, Options{Program: p}); !res.OK() {
		t.Fatalf("second run invalid: %v", res.Violations)
	}
	if p.bound.Load() != b {
		t.Error("binding rebuilt although the graph did not change")
	}
}

func TestProgramBindingInvalidatedByMutation(t *testing.T) {
	s := build(t, programSchema)
	g := programGraph(10)
	p := Compile(s)
	if res := Validate(s, g, Options{Program: p}); !res.OK() {
		t.Fatalf("conformant graph invalid: %v", res.Violations)
	}
	b := p.bound.Load()

	// Mutating the graph bumps its epoch; the next compiled run must
	// rebind and see the mutation (a @required property vanished).
	a := g.NodesLabeled("Author")[0]
	g.DeleteNodeProp(a, "name")
	res := Validate(s, g, Options{Program: p})
	if p.bound.Load() == b {
		t.Error("stale binding reused after the graph mutated")
	}
	if n := len(res.ByRule()[DS5]); n != 1 {
		t.Errorf("missing @required property not seen through rebinding: got %d DS5 violations, want 1 (%v)",
			n, res.Violations)
	}

	// A node added under a brand-new label (new Sym, new byLabel entry)
	// must also be picked up.
	g.AddNode("Stranger")
	res = Validate(s, g, Options{Program: p})
	if n := len(res.ByRule()[SS1]); n != 1 {
		t.Errorf("undeclared label not seen through rebinding: got %d SS1 violations (%v)", n, res.Violations)
	}
}

func TestProgramSchemaMismatchFallsBack(t *testing.T) {
	s := build(t, programSchema)
	other := build(t, sessionSchema)
	wrong := Compile(other)
	g := programGraph(5)
	res := Validate(s, g, Options{Program: wrong})
	if !res.OK() {
		t.Errorf("mismatched program not ignored: %v", res.Violations)
	}
	if wrong.bound.Load() != nil {
		t.Error("mismatched program was bound to the graph")
	}
}

func TestRevalidateWithProgram(t *testing.T) {
	s := build(t, sessionSchema)
	g := sessionGraph()
	p := Compile(s)
	prev := Validate(s, g, Options{Program: p})

	u := g.NodesLabeled("User")[0]
	g.SetNodeProp(u, "login", values.Int(42)) // WS1
	got := Revalidate(context.Background(), s, g, prev, Delta{Nodes: []pg.NodeID{u}}, Options{Program: p})
	want := Validate(s, g, Options{})
	if len(got.Violations) != len(want.Violations) {
		t.Fatalf("revalidate with program: got %v, want %v", got.Violations, want.Violations)
	}
	for i := range got.Violations {
		if got.Violations[i] != want.Violations[i] {
			t.Errorf("violation %d: got %+v, want %+v", i, got.Violations[i], want.Violations[i])
		}
	}
}
