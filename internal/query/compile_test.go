package query

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"pgschema/internal/pg"
	"pgschema/internal/values"
)

func TestCompiledExecuteBasics(t *testing.T) {
	s := build(t, starWarsSchema)
	g := starWarsGraph(t, s)
	doc, err := Parse(`{ human(id: "1000") { name friends { name } } }`)
	if err != nil {
		t.Fatal(err)
	}
	plan := Compile(s, doc)
	out, err := plan.Execute(context.Background(), g, "")
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	want := map[string]any{
		"human": map[string]any{
			"name": "Luke Skywalker",
			"friends": []any{
				map[string]any{"name": "R2-D2"},
				map[string]any{"name": "Han Solo"},
			},
		},
	}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("got %#v, want %#v", out, want)
	}
}

func TestCompiledOperationSelection(t *testing.T) {
	s := build(t, starWarsSchema)
	g := starWarsGraph(t, s)
	doc, err := Parse(`query A { __typename } query B { allHumans { name } }`)
	if err != nil {
		t.Fatal(err)
	}
	plan := Compile(s, doc)
	out, err := plan.Execute(context.Background(), g, "A")
	if err != nil || out["__typename"] != "Query" {
		t.Fatalf("op A: out=%v err=%v", out, err)
	}
	if _, err := plan.Execute(context.Background(), g, ""); err == nil {
		t.Fatal("empty name with two operations: expected error")
	}
	if _, err := plan.Execute(context.Background(), g, "C"); err == nil {
		t.Fatal("unknown operation: expected error")
	}
}

// TestPlanBindingEpochInvalidation proves a cached plan follows graph
// mutations: the epoch-keyed binding is rebuilt, not reused stale.
func TestPlanBindingEpochInvalidation(t *testing.T) {
	s := build(t, starWarsSchema)
	g := starWarsGraph(t, s)
	doc, err := Parse(`{ allHumans { name } }`)
	if err != nil {
		t.Fatal(err)
	}
	plan := Compile(s, doc)
	countHumans := func() int {
		out, err := plan.Execute(context.Background(), g, "")
		if err != nil {
			t.Fatalf("Execute: %v", err)
		}
		return len(out["allHumans"].([]any))
	}
	if n := countHumans(); n != 2 {
		t.Fatalf("got %d humans, want 2", n)
	}
	b1 := plan.bound.Load()
	if n := countHumans(); n != 2 {
		t.Fatalf("got %d humans, want 2", n)
	}
	if b2 := plan.bound.Load(); b1 != b2 {
		t.Fatal("binding not reused across executions at the same epoch")
	}
	n := g.AddNode("Human")
	g.SetNodeProp(n, "id", values.ID("19"))
	g.SetNodeProp(n, "name", values.String("Leia Organa"))
	if n := countHumans(); n != 3 {
		t.Fatalf("after mutation: got %d humans, want 3", n)
	}
	if b3 := plan.bound.Load(); b1 == b3 {
		t.Fatal("binding not rebuilt after an epoch bump")
	}
}

func TestPlanCacheLRU(t *testing.T) {
	s := build(t, starWarsSchema)
	c := NewPlanCache(s, 2)
	q := func(i int) string { return fmt.Sprintf(`{ q%d: allHumans { name } }`, i) }

	p1, hit, err := c.Get(q(1))
	if err != nil || hit || p1 == nil {
		t.Fatalf("first get: plan=%v hit=%v err=%v", p1, hit, err)
	}
	if _, hit, _ := c.Get(q(1)); !hit {
		t.Fatal("second get of same source: expected a cache hit")
	}
	c.Get(q(2))
	c.Get(q(1)) // refresh 1 so 2 is now least recently used
	c.Get(q(3)) // evicts 2
	if c.Len() != 2 {
		t.Fatalf("cache len %d, want 2", c.Len())
	}
	if _, hit, _ := c.Get(q(2)); hit {
		t.Fatal("evicted entry served as a hit")
	}
	// That miss re-inserted q2, evicting q1 (LRU); q3 must survive.
	if _, hit, _ := c.Get(q(3)); !hit {
		t.Fatal("recently used entry was evicted")
	}
	if _, _, err := c.Get(`{ nope`); err == nil {
		t.Fatal("parse error not surfaced")
	}
}

// TestExecuteCancellation covers both engines: a pre-cancelled context
// must abort a scan over a graph large enough to cross cancelStride.
func TestExecuteCancellation(t *testing.T) {
	s := build(t, starWarsSchema)
	g := starWarsGraph(t, s)
	for i := 0; i < 3*cancelStride; i++ {
		n := g.AddNode("Human")
		g.SetNodeProp(n, "id", values.ID(fmt.Sprintf("x%d", i)))
	}
	doc, err := Parse(`{ allHumans { id name } }`)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	plan := Compile(s, doc)
	if _, err := plan.Execute(ctx, g, ""); err != context.Canceled {
		t.Fatalf("compiled: got %v, want context.Canceled", err)
	}
	if _, err := ExecuteContext(ctx, s, g, doc, ""); err != context.Canceled {
		t.Fatalf("interpretive: got %v, want context.Canceled", err)
	}
	// A live context completes normally.
	if _, err := plan.Execute(context.Background(), g, ""); err != nil {
		t.Fatalf("background: %v", err)
	}
}

// TestPlanConcurrentExecute races many executions of one plan (shared
// binding, lazy enumerations and key index) — the race detector proves
// the sync.Once/atomic coordination.
func TestPlanConcurrentExecute(t *testing.T) {
	s := build(t, starWarsSchema)
	g := starWarsGraph(t, s)
	doc, err := Parse(`{ human(id: "1000") { name } allDroids { name } }`)
	if err != nil {
		t.Fatal(err)
	}
	plan := Compile(s, doc)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if _, err := plan.Execute(context.Background(), g, ""); err != nil {
					t.Errorf("Execute: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestNestedInverseFields pins the query of examples/graphqlapi: an
// inverse field inside another inverse field's selection must dispatch
// on its own per-label row. The inner field once shared the outer
// field's plan slot and failed with `type Instrument has no field
// "_playsOfMusician"`.
func TestNestedInverseFields(t *testing.T) {
	s := build(t, `
type Band @key(fields: ["name"]) {
	name: String! @required
	member(role: String, since: Int): [Musician] @distinct
}
type Musician @key(fields: ["name"]) {
	name: String! @required
	plays: [Instrument] @distinct
}
type Instrument @key(fields: ["label"]) {
	label: String! @required
}`)
	g := pg.New()
	node := func(label, key, name string) pg.NodeID {
		n := g.AddNode(label)
		g.SetNodeProp(n, key, values.String(name))
		return n
	}
	band := node("Band", "name", "The Schemas")
	ada := node("Musician", "name", "Ada")
	cleo := node("Musician", "name", "Cleo")
	keys := node("Instrument", "label", "keys")
	g.MustAddEdge(band, ada, "member")
	g.MustAddEdge(band, cleo, "member")
	g.MustAddEdge(ada, keys, "plays")
	g.MustAddEdge(cleo, keys, "plays")

	src := `{ instrument(label: "keys") { label _playsOfMusician { name _memberOfBand { name } } } }`
	doc, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Compile(s, doc).Execute(context.Background(), g, "")
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	want, err := ExecuteQuery(s, g, src)
	if err != nil {
		t.Fatalf("interpretive oracle: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("compiled %v, oracle %v", got, want)
	}
	players := got["instrument"].(map[string]any)["_playsOfMusician"].([]any)
	if len(players) != 2 {
		t.Fatalf("want both players of keys, got %v", players)
	}
	for _, p := range players {
		bands := p.(map[string]any)["_memberOfBand"].([]any)
		if len(bands) != 1 || bands[0].(map[string]any)["name"] != "The Schemas" {
			t.Fatalf("player %v: want band The Schemas", p)
		}
	}
}
