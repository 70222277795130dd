package validate_test

// Differential harness for incremental revalidation: randomized delta
// sequences driven through the transactional pg.Apply API, with
// Revalidate's spliced output required to match a from-scratch run of
// the rule-by-rule oracle byte-for-byte under every mode and worker
// configuration —
// including Undo round-trips, whose Touched set doubles as the delta.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"pgschema/internal/gen"
	"pgschema/internal/pg"
	"pgschema/internal/validate"
	"pgschema/internal/values"
)

// revalConfigs is the configuration matrix the incremental path is
// checked across. Program-backed configs exercise the cross-epoch rebind cache.
var revalConfigs = []struct {
	name     string
	compiled bool
	set      func(*validate.Options)
}{
	{"seq/fused", false, func(o *validate.Options) {}},
	{"par4/fused", false, func(o *validate.Options) { o.Workers = 4 }},
	{"seq/fused+program", true, func(o *validate.Options) {}},
}

// randomGraphDelta builds a batch of mutations that Apply accepts:
// every referenced element is live, removals are not duplicated, and
// removed nodes never collide with explicitly removed edges. Faults
// (wrong value types, unknown labels, deleted required properties,
// duplicate edges) are deliberately common so splicing is exercised in
// both directions — new violations appearing and old ones clearing.
func randomGraphDelta(g *pg.Graph, rnd *rand.Rand) pg.Delta {
	var d pg.Delta
	nodes := g.Nodes()
	edges := g.Edges()
	nodeLabels := []string{"Author", "Book", "BookSeries", "Publisher", "Ghost"}
	edgeLabels := []string{"favoriteBook", "relatedAuthor", "author", "contains", "published", "bogus"}
	propVal := func() values.Value {
		if rnd.Intn(2) == 0 {
			return values.String("x")
		}
		return values.Int(int64(rnd.Intn(5)))
	}
	nAdds := rnd.Intn(3)
	for i := 0; i < nAdds; i++ {
		sp := pg.AddNodeSpec{Label: nodeLabels[rnd.Intn(len(nodeLabels))]}
		if rnd.Intn(2) == 0 {
			sp.Props = []pg.PropEntry{{Name: "name", Value: propVal()}}
		}
		d.AddNodes = append(d.AddNodes, sp)
	}
	anyNode := func() pg.NodeID {
		if nAdds > 0 && rnd.Intn(3) == 0 {
			return pg.NewNodeRef(rnd.Intn(nAdds))
		}
		return nodes[rnd.Intn(len(nodes))]
	}
	propNames := []string{"name", "title", "age", "pages", "stray"}
	edgeProps := []string{"since", "role", "stray"}
	for ops := 1 + rnd.Intn(5); ops > 0; ops-- {
		switch rnd.Intn(7) {
		case 0:
			d.AddEdges = append(d.AddEdges, pg.AddEdgeSpec{
				Src: anyNode(), Dst: anyNode(),
				Label: edgeLabels[rnd.Intn(len(edgeLabels))],
				Props: []pg.PropEntry{{Name: edgeProps[rnd.Intn(len(edgeProps))], Value: propVal()}},
			})
		case 1:
			d.RelabelNodes = append(d.RelabelNodes, pg.RelabelSpec{
				Node: anyNode(), Label: nodeLabels[rnd.Intn(len(nodeLabels))],
			})
		case 2:
			d.SetNodeProps = append(d.SetNodeProps, pg.NodePropSpec{
				Node: anyNode(), Name: propNames[rnd.Intn(len(propNames))], Value: propVal(),
			})
		case 3:
			d.DelNodeProps = append(d.DelNodeProps, pg.NodePropDelSpec{
				Node: anyNode(), Name: propNames[rnd.Intn(len(propNames))],
			})
		case 4:
			if len(edges) > 0 {
				d.SetEdgeProps = append(d.SetEdgeProps, pg.EdgePropSpec{
					Edge: edges[rnd.Intn(len(edges))], Name: edgeProps[rnd.Intn(len(edgeProps))], Value: propVal(),
				})
			}
		case 5:
			if len(edges) > 0 {
				e := edges[rnd.Intn(len(edges))]
				dup := false
				for _, x := range d.RemoveEdges {
					dup = dup || x == e
				}
				if !dup {
					d.RemoveEdges = append(d.RemoveEdges, e)
				}
			}
		case 6:
			if rnd.Intn(2) == 0 {
				n := nodes[rnd.Intn(len(nodes))]
				dup := false
				for _, x := range d.RemoveNodes {
					dup = dup || x == n
				}
				for _, x := range d.RemoveEdges {
					s, dst := g.Endpoints(x)
					dup = dup || s == n || dst == n
				}
				if !dup {
					d.RemoveNodes = append(d.RemoveNodes, n)
				}
			}
		}
	}
	return d
}

// TestDifferentialRevalidateDeltas is the incremental counterpart of
// the engine-equivalence matrix: 20 seeds × 3 modes × the revalidation
// configs, each chaining 8 random Apply steps (with periodic Undo
// round-trips) where every Revalidate must equal a from-scratch run of
// the rule-by-rule oracle byte-for-byte, and the next step's prev is
// the spliced result itself — so a single splice error would compound
// and surface.
func TestDifferentialRevalidateDeltas(t *testing.T) {
	s := buildDiff(t, diffSchema)
	ctx := context.Background()
	const seeds = 20
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			base, err := gen.Conformant(s, gen.Config{Seed: seed, NodesPerType: 6})
			if err != nil {
				t.Fatalf("conformant: %v", err)
			}
			g := base.Clone()
			rnd := rand.New(rand.NewSource(seed * 7919))
			prog := validate.Compile(s)

			// One chained prev per (mode, config).
			type chainKey struct{ mode, cfg int }
			prev := make(map[chainKey]*validate.Result)
			optsFor := func(mi, ci int) validate.Options {
				opts := validate.Options{Mode: diffModes[mi].mode}
				revalConfigs[ci].set(&opts)
				if revalConfigs[ci].compiled {
					opts.Program = prog
				}
				return opts
			}
			for mi := range diffModes {
				for ci := range revalConfigs {
					opts := optsFor(mi, ci)
					prev[chainKey{mi, ci}] = validate.ValidateContext(ctx, s, g, opts)
				}
			}

			check := func(step string, delta validate.Delta) {
				for mi := range diffModes {
					full := validate.ValidateOracle(s, g, validate.Options{Mode: diffModes[mi].mode})
					want := renderViolations(full)
					for ci := range revalConfigs {
						opts := optsFor(mi, ci)
						k := chainKey{mi, ci}
						inc := validate.Revalidate(ctx, s, g, prev[k], delta, opts)
						if got := renderViolations(inc); got != want {
							t.Fatalf("%s: mode %s cfg %s: incremental diverges from full:\n--- full ---\n%s--- incremental ---\n%s",
								step, diffModes[mi].name, revalConfigs[ci].name, want, got)
						}
						if inc.Incomplete {
							t.Fatalf("%s: mode %s cfg %s: unexpected Incomplete", step, diffModes[mi].name, revalConfigs[ci].name)
						}
						prev[k] = inc
					}
				}
			}

			for step := 0; step < 8; step++ {
				d := randomGraphDelta(g, rnd)
				u, err := g.Apply(d)
				if err != nil {
					t.Fatalf("step %d: apply: %v (delta %+v)", step, err, d)
				}
				check(fmt.Sprintf("step %d apply", step), validate.DeltaFor(u.Touched()))
				if step%3 == 2 {
					if err := u.Undo(); err != nil {
						t.Fatalf("step %d: undo: %v", step, err)
					}
					check(fmt.Sprintf("step %d undo", step), validate.DeltaFor(u.Touched()))
				}
			}
		})
	}
}

// TestCancelledContext verifies the cancellation contract: a cancelled
// context makes every engine return promptly — before the next chunk
// claim, so with a pre-cancelled context no chunk runs at all and no
// violations are reported even on a non-conformant graph — with
// Incomplete set; and an Incomplete result never seeds revalidation.
func TestCancelledContext(t *testing.T) {
	s := buildDiff(t, diffSchema)
	g, err := gen.Conformant(s, gen.Config{Seed: 3, NodesPerType: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Make the graph non-conformant so a completed run would report
	// violations: delete a @required property.
	authors := g.NodesLabeled("Author")
	for _, v := range authors[:10] {
		g.DeleteNodeProp(v, "name")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, cfg := range revalConfigs {
		opts := validate.Options{}
		cfg.set(&opts)
		res := validate.ValidateContext(ctx, s, g, opts)
		if !res.Incomplete {
			t.Errorf("%s: cancelled run not marked Incomplete", cfg.name)
		}
		if len(res.Violations) != 0 {
			t.Errorf("%s: pre-cancelled run claimed %d chunks (reported %d violations)",
				cfg.name, len(res.Violations), len(res.Violations))
		}
	}

	// A cancelled Revalidate is Incomplete too.
	full := validate.ValidateContext(context.Background(), s, g, validate.Options{})
	if full.Incomplete || full.OK() {
		t.Fatalf("full run: incomplete=%v ok=%v", full.Incomplete, full.OK())
	}
	u, err := g.Apply(pg.Delta{SetNodeProps: []pg.NodePropSpec{
		{Node: authors[0], Name: "name", Value: values.String("back")},
	}})
	if err != nil {
		t.Fatal(err)
	}
	inc := validate.Revalidate(ctx, s, g, full, validate.DeltaFor(u.Touched()), validate.Options{})
	if !inc.Incomplete {
		t.Error("cancelled Revalidate not marked Incomplete")
	}

	// An Incomplete prev must not seed splicing: Revalidate falls back
	// to a full (complete, correct) run under the fresh context.
	re := validate.Revalidate(context.Background(), s, g, inc, validate.Delta{}, validate.Options{})
	if re.Incomplete {
		t.Error("fallback full validation marked Incomplete")
	}
	want := renderViolations(validate.ValidateContext(context.Background(), s, g, validate.Options{}))
	if got := renderViolations(re); got != want {
		t.Error("fallback full validation diverges from direct full validation")
	}
}

// TestCancelMidRunNoGoroutineLeak cancels a parallel run while workers
// are live and then requires the process goroutine count to return to
// its baseline — workers must exit at the next chunk-claim boundary,
// with whole passes or with range chunks.
func TestCancelMidRunNoGoroutineLeak(t *testing.T) {
	s := buildDiff(t, diffSchema)
	g, err := gen.Conformant(s, gen.Config{Seed: 5, NodesPerType: 2000})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for _, sharding := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan *validate.Result, 1)
		go func() {
			done <- validate.ValidateContext(ctx, s, g, validate.Options{Workers: 8, ElementSharding: sharding})
		}()
		time.Sleep(500 * time.Microsecond)
		cancel()
		select {
		case res := <-done:
			// A run cancelled mid-flight must be flagged; one that won
			// the race and finished first is complete — both are valid.
			_ = res
		case <-time.After(30 * time.Second):
			t.Fatalf("sharding=%v: cancelled run did not return", sharding)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutine leak after cancellation: %d before, %d after", before, n)
	}
}
