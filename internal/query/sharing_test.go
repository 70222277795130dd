package query

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"pgschema/internal/pg"
	"pgschema/internal/schema"
	"pgschema/internal/values"
)

// Key indexes and type enumerations belong to the snapshot, not to a
// plan: these tests pin that a new query text bound to a snapshot some
// other plan already indexed pays no per-graph-size work, and that the
// shared indexes answer exactly like the interpretive engine across
// every way a snapshot is born — rebuild, Apply's patch, Undo's
// re-stamp, a mapped .pgsnap and a write to it — and under concurrent
// first use.

// humansGraph is a graph of n Humans keyed "h0".."h<n-1>", each a
// friend of the next.
func humansGraph(n int) *pg.Graph {
	g := pg.New()
	var prev pg.NodeID
	for i := 0; i < n; i++ {
		v := g.AddNode("Human")
		g.SetNodeProp(v, "id", values.ID(fmt.Sprintf("h%d", i)))
		g.SetNodeProp(v, "name", values.String(fmt.Sprintf("Human %d", i)))
		if i > 0 {
			g.MustAddEdge(prev, v, "friends")
		}
		prev = v
	}
	return g
}

func mustCompile(t *testing.T, s *schema.Schema, src string) *Plan {
	t.Helper()
	doc, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %s: %v", src, err)
	}
	return Compile(s, doc)
}

// TestLookupColdPlanAllocsFlat: once one lookup plan has run on an
// unchanged graph, the first Execute of another lookup text makes the
// same number of allocations on a graph ten times larger — the key
// index is the snapshot's, so a cold plan binds and probes it without
// an O(V) build.
func TestLookupColdPlanAllocsFlat(t *testing.T) {
	const runs = 20
	allocs := func(n int) float64 {
		s := build(t, starWarsSchema)
		g := humansGraph(n)
		plans := make([]*Plan, runs+1) // AllocsPerRun adds one warm-up call
		for i := range plans {
			plans[i] = mustCompile(t, s, fmt.Sprintf(`{ human(id: "h%d") { name } }`, i+1))
		}
		warm := mustCompile(t, s, `{ first: human(id: "h0") { id } }`)
		if out, err := warm.Execute(context.Background(), g, ""); err != nil || out["first"] == nil {
			t.Fatalf("warm-up lookup: %v, %v", out, err)
		}
		next := 0
		return testing.AllocsPerRun(runs, func() {
			out, err := plans[next].Execute(context.Background(), g, "")
			next++
			if err != nil || out["human"] == nil {
				t.Fatalf("lookup %d: %v, %v", next, out, err)
			}
		})
	}
	small, large := allocs(200), allocs(2000)
	if small != large {
		t.Fatalf("first Execute of a new lookup text: %v allocs at 200 nodes, %v at 2000", small, large)
	}
}

// TestLookupAcrossSnapshotLifecycle runs one cached lookup chain plus a
// fresh plan per step through Apply (patched snapshot), Undo (the
// re-stamped pre-apply snapshot), a mapped .pgsnap graph, and that
// graph after a mutation; every answer must be the interpretive
// engine's.
func TestLookupAcrossSnapshotLifecycle(t *testing.T) {
	s := build(t, starWarsSchema)
	g := humansGraph(50)
	const chain = `{ a: human(id: "h3") { name friends { id name } } b: human(id: "h50") { name } c: human(id: "h7") { id } }`
	cached := mustCompile(t, s, chain)
	step := 0
	check := func(g *pg.Graph, what string) {
		t.Helper()
		step++
		assertPlanAgreement(t, s, g, cached, chain, 2)
		fresh := fmt.Sprintf(`{ x: human(id: "h%d") { name } y: human(id: "h50") { id } all: allHumans { id } }`, step)
		assertPlanAgreement(t, s, g, mustCompile(t, s, fresh), fresh, 2)
		if t.Failed() {
			t.Fatalf("disagreement at step %d (%s)", step, what)
		}
	}
	check(g, "rebuilt snapshot")

	// Apply: add h50, rename h3, drop h7's key — the patched snapshot
	// must index the new content, not inherit the old index.
	u, err := g.Apply(pg.Delta{
		AddNodes: []pg.AddNodeSpec{{Label: "Human", Props: []pg.PropEntry{
			{Name: "id", Value: values.ID("h50")}, {Name: "name", Value: values.String("New")}}}},
		SetNodeProps: []pg.NodePropSpec{{Node: 3, Name: "name", Value: values.String("Renamed")}},
		DelNodeProps: []pg.NodePropDelSpec{{Node: 7, Name: "id"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	check(g, "applied")
	if err := u.Undo(); err != nil {
		t.Fatal(err)
	}
	check(g, "undone")

	path := filepath.Join(t.TempDir(), "g.pgsnap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pg.WriteSnapshot(f, g.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	mg, err := pg.OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mg.Close()
	check(mg, "mapped")
	mg.SetNodeProp(9, "id", values.ID("h3")) // a pending overlay write; h3 is now ambiguous
	check(mg, "written")
}

// TestLookupConcurrentFirstUse: eight goroutines each run a distinct
// plan for the first time on one fresh snapshot, racing to build its
// enumerations and key indexes; each must get the interpretive answer.
func TestLookupConcurrentFirstUse(t *testing.T) {
	s := build(t, starWarsSchema)
	g := humansGraph(300)
	g.Snapshot()
	g.SetNodeProp(0, "name", values.String("Fresh")) // a new epoch, its snapshot not yet built
	type job struct {
		plan *Plan
		want []byte
	}
	jobs := make([]job, 8)
	for i := range jobs {
		src := fmt.Sprintf(`{ human(id: "h%d") { name friends { id } } allHumans { id } }`, i*37)
		if i%2 == 1 {
			src = fmt.Sprintf(`{ q%d: human(id: "h%d") { id } }`, i, i*41)
		}
		doc, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Execute(s, g, doc, "")
		if err != nil {
			t.Fatal(err)
		}
		jobs[i].plan = Compile(s, doc)
		if jobs[i].want, err = json.Marshal(want); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, len(jobs))
	got := make([][]byte, len(jobs))
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := jobs[i].plan.Execute(context.Background(), g, "")
			if err != nil {
				errs[i] = err
				return
			}
			got[i], errs[i] = json.Marshal(out)
		}(i)
	}
	wg.Wait()
	for i := range jobs {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if !bytes.Equal(got[i], jobs[i].want) {
			t.Errorf("goroutine %d:\ngot  %s\nwant %s", i, got[i], jobs[i].want)
		}
	}
}

// TestLookupVerifiesKeyCollisions: Value.Key renders Ints through
// float64, so two Ints past 2^53 share a bucket; the lookup must verify
// candidates with values.Equal and answer the node whose key is equal,
// not the bucket's first.
func TestLookupVerifiesKeyCollisions(t *testing.T) {
	s := build(t, `type Account @key(fields: ["n"]) { n: Int! @required name: String }`)
	g := pg.New()
	for i, n := range []int64{1<<53 + 1, 1 << 53} {
		v := g.AddNode("Account")
		g.SetNodeProp(v, "n", values.Int(n))
		g.SetNodeProp(v, "name", values.String(fmt.Sprintf("acct%d", i)))
	}
	src := fmt.Sprintf(`{ account(n: %d) { name } }`, int64(1<<53))
	plan := mustCompile(t, s, src)
	assertPlanAgreement(t, s, g, plan, src, 1)
	out, err := plan.Execute(context.Background(), g, "")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := json.Marshal(out); string(got) != `{"account":{"name":"acct1"}}` {
		t.Fatalf("got %s", got)
	}
}

// TestLookupUninternedKeyMisses: a key field the graph never interned
// resolves to NoSym, every node renders it absent, and the lookup
// misses — on both engines.
func TestLookupUninternedKeyMisses(t *testing.T) {
	s := build(t, starWarsSchema)
	g := pg.New()
	g.SetNodeProp(g.AddNode("Starship"), "name", values.String("Unkeyed"))
	if _, ok := g.Sym("id"); ok {
		t.Fatal("fixture interned the key field")
	}
	src := `{ starship(id: "x") { name } allStarships { name } }`
	plan := mustCompile(t, s, src)
	assertPlanAgreement(t, s, g, plan, src, 2)
	if out, err := plan.Execute(context.Background(), g, ""); err != nil || out["starship"] != nil {
		t.Fatalf("got %v, %v; want a miss", out, err)
	}
}
