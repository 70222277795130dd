package validate

import (
	"context"
	"math/rand"
	"testing"

	"pgschema/internal/pg"
	"pgschema/internal/schema"
	"pgschema/internal/values"
)

// applyRandomMutation mutates the graph and returns the delta that
// describes it.
func applyRandomMutation(g *pg.Graph, rnd *rand.Rand) Delta {
	var d Delta
	nodes := g.Nodes()
	labels := []string{"Author", "Book", "BookSeries", "Publisher", "Ghost"}
	switch rnd.Intn(8) {
	case 0: // add node
		n := g.AddNode(labels[rnd.Intn(len(labels))])
		d.Nodes = append(d.Nodes, n)
	case 1: // add edge
		if len(nodes) >= 2 {
			src := nodes[rnd.Intn(len(nodes))]
			dst := nodes[rnd.Intn(len(nodes))]
			names := []string{"favoriteBook", "relatedAuthor", "author", "contains", "published", "bogus"}
			e := g.MustAddEdge(src, dst, names[rnd.Intn(len(names))])
			d.Edges = append(d.Edges, e)
		}
	case 2: // remove an edge
		if edges := g.Edges(); len(edges) > 0 {
			e := edges[rnd.Intn(len(edges))]
			d.Edges = append(d.Edges, e)
			g.RemoveEdge(e)
		}
	case 3: // set a property
		if len(nodes) > 0 {
			n := nodes[rnd.Intn(len(nodes))]
			props := []string{"title", "name", "bogus"}
			vals := []values.Value{values.String("x"), values.Int(3), values.List(values.Null)}
			g.SetNodeProp(n, props[rnd.Intn(len(props))], vals[rnd.Intn(len(vals))])
			d.Nodes = append(d.Nodes, n)
		}
	case 4: // delete a property
		if len(nodes) > 0 {
			n := nodes[rnd.Intn(len(nodes))]
			g.DeleteNodeProp(n, "title")
			g.DeleteNodeProp(n, "name")
			d.Nodes = append(d.Nodes, n)
		}
	case 5: // relabel
		if len(nodes) > 0 {
			n := nodes[rnd.Intn(len(nodes))]
			old := g.NodeLabel(n)
			g.SetNodeLabel(n, labels[rnd.Intn(len(labels))])
			d.Nodes = append(d.Nodes, n)
			d.Labels = append(d.Labels, old)
		}
	case 6: // remove a node
		if len(nodes) > 0 {
			n := nodes[rnd.Intn(len(nodes))]
			// Neighbours' constraints change: record them.
			for _, e := range g.OutEdges(n) {
				d.Edges = append(d.Edges, e)
			}
			for _, e := range g.InEdges(n) {
				d.Edges = append(d.Edges, e)
			}
			d.Nodes = append(d.Nodes, n)
			g.RemoveNode(n)
		}
	case 7: // set an edge property
		if edges := g.Edges(); len(edges) > 0 {
			e := edges[rnd.Intn(len(edges))]
			g.SetEdgeProp(e, "bogusEdgeProp", values.Int(1))
			d.Edges = append(d.Edges, e)
		}
	}
	return d
}

// TestRevalidateEquivalence is the core delta property: after any
// mutation sequence, Revalidate from the previous result equals a full
// re-validation.
func TestRevalidateEquivalence(t *testing.T) {
	s := build(t, bookSchema+`
		type Keyed @key(fields: ["k"]) { k: ID! @required }`)
	for seed := int64(0); seed < 25; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		g := bookGraph()
		for i := 0; i < 4; i++ {
			k := g.AddNode("Keyed")
			g.SetNodeProp(k, "k", values.ID(string(rune('a'+i))))
		}
		prev := Validate(s, g, Options{})
		for step := 0; step < 12; step++ {
			delta := applyRandomMutation(g, rnd)
			got := Revalidate(context.Background(), s, g, prev, delta, Options{})
			want := Validate(s, g, Options{})
			if len(got.Violations) != len(want.Violations) {
				t.Fatalf("seed %d step %d: incremental %d vs full %d violations\nincremental: %v\nfull: %v",
					seed, step, len(got.Violations), len(want.Violations), got.Violations, want.Violations)
			}
			for i := range want.Violations {
				if got.Violations[i] != want.Violations[i] {
					t.Fatalf("seed %d step %d: violation %d differs:\nincremental: %v\nfull:        %v",
						seed, step, i, got.Violations[i], want.Violations[i])
				}
			}
			prev = got
		}
	}
}

func TestRevalidateEmptyDelta(t *testing.T) {
	s := build(t, bookSchema)
	g := bookGraph()
	prev := Validate(s, g, Options{})
	got := Revalidate(context.Background(), s, g, prev, Delta{}, Options{})
	if len(got.Violations) != len(prev.Violations) {
		t.Errorf("empty delta changed the result: %v", got.Violations)
	}
}

func TestRevalidateDetectsNewViolation(t *testing.T) {
	s := build(t, bookSchema)
	g := bookGraph()
	prev := Validate(s, g, Options{})
	if !prev.OK() {
		t.Fatalf("baseline: %v", prev.Violations)
	}
	a := g.NodesLabeled("Author")[0]
	e := g.MustAddEdge(a, a, "relatedAuthor") // DS2 loop
	got := Revalidate(context.Background(), s, g, prev, Delta{Edges: []pg.EdgeID{e}}, Options{})
	if len(got.Violations) != 1 || got.Violations[0].Rule != DS2 {
		t.Errorf("incremental result: %v", got.Violations)
	}
}

func TestRevalidateClearsFixedViolation(t *testing.T) {
	s := build(t, sessionSchema)
	g := sessionGraph()
	u := g.NodesLabeled("User")[0]
	g.DeleteNodeProp(u, "login") // login is @required
	prev := Validate(s, g, Options{})
	if len(prev.Violations) != 1 || prev.Violations[0].Rule != DS5 {
		t.Fatalf("setup: %v", prev.Violations)
	}
	g.SetNodeProp(u, "login", values.String("restored"))
	got := Revalidate(context.Background(), s, g, prev, Delta{Nodes: []pg.NodeID{u}}, Options{})
	if !got.OK() {
		t.Errorf("fixed violation still reported: %v", got.Violations)
	}
}

// keyedConflict builds a graph of four Keyed nodes where the first
// three agree on their key, validated into a result reporting the one
// conflict.
func keyedConflict(t *testing.T) (*schema.Schema, *pg.Graph, *Result) {
	t.Helper()
	s := build(t, `type Keyed @key(fields: ["k"]) { k: ID! @required }`)
	g := pg.New()
	for _, k := range []string{"a", "a", "a", "b"} {
		v := g.AddNode("Keyed")
		g.SetNodeProp(v, "k", values.ID(k))
	}
	prev := Validate(s, g, Options{})
	if len(prev.Violations) != 1 || prev.Violations[0].Rule != DS7 || prev.Violations[0].Node != 0 {
		t.Fatalf("setup: %v", prev.Violations)
	}
	return s, g, prev
}

// TestRevalidateRemovedKeyAnchor re-checks a conflict whose anchor was
// removed even when the delta omits the removal: the bucket is found
// through the violation's recorded tuple, not through a delta node.
func TestRevalidateRemovedKeyAnchor(t *testing.T) {
	s, g, prev := keyedConflict(t)
	g.RemoveNode(0)
	got := Revalidate(context.Background(), s, g, prev, Delta{}, Options{})
	want := Validate(s, g, Options{})
	if len(got.Violations) != 1 || got.Violations[0] != want.Violations[0] || got.Violations[0].Node != 1 {
		t.Errorf("incremental %v, full %v", got.Violations, want.Violations)
	}
}

// TestRevalidateWithoutKeyNotes falls back to a full run when prev
// reports a key conflict to re-check but carries no recorded bucket for
// it (a result assembled outside this package).
func TestRevalidateWithoutKeyNotes(t *testing.T) {
	s, g, prev := keyedConflict(t)
	bare := &Result{Violations: prev.Violations}
	g.SetNodeProp(0, "k", values.ID("b")) // the anchor leaves "a" and joins "b"
	got := Revalidate(context.Background(), s, g, bare, Delta{Nodes: []pg.NodeID{0}}, Options{})
	want := Validate(s, g, Options{})
	if len(got.Violations) != 2 || got.Violations[0] != want.Violations[0] || got.Violations[1] != want.Violations[1] {
		t.Errorf("incremental %v, full %v", got.Violations, want.Violations)
	}
}
