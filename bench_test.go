package pgschema_test

// The benchmark harness regenerates every measurable artifact of the
// paper (see DESIGN.md §4 and EXPERIMENTS.md):
//
//	E1 BenchmarkE1CardinalityTable   — §3.3 cardinality classes
//	E2 BenchmarkE2ValidationScaling  — Theorem 1: validation cost vs |G|
//	   BenchmarkE2ParallelSpeedup    — AC0 parallelizability consequence
//	E3 BenchmarkE3Example61          — satisfiability of Example 6.1
//	E4 BenchmarkE4Reduction          — Theorem 2: SAT reduction
//	E5 BenchmarkE5Tableau            — Theorem 3: ALCQI reasoning
//	E7 BenchmarkE7PerRuleCost        — per-rule validation cost split
//	   BenchmarkAblation*            — design-choice ablations
//	   BenchmarkScale               — 10⁵/10⁶-element scaling, 1-8 workers
//	E10 BenchmarkIncremental        — delta-aware vs full revalidation
//	E14 BenchmarkSnapshot           — .pgsnap durable snapshots: save/open
//	                                   throughput, mmap open vs stream load,
//	                                   mapped vs heap first validation
//
// The benchmarks that compare against a test oracle live next to it:
// BenchmarkAblationFused, BenchmarkAblationIndexes and
// BenchmarkCompiledReuse in internal/validate; E12 BenchmarkQueryEngine
// and BenchmarkQueryExecution in internal/query; E11 BenchmarkIngest
// and BenchmarkLoadCSV in internal/pg.
//
// Run with: go test -bench=. -benchmem ./...

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"

	"pgschema"
	"pgschema/internal/cnf"
	"pgschema/internal/dl"
	"pgschema/internal/reduction"
	"pgschema/internal/sat"
	"pgschema/internal/validate"
)

// benchSchema is a medium-complexity schema exercising every directive,
// used by the validation benchmarks.
const benchSchema = `
type Author @key(fields: ["name"]) {
	name: String! @required
	favoriteBook: Book
	relatedAuthor: [Author] @distinct @noLoops
}
type Book {
	title: String! @required
	pages: Int
	tags: [String!]
	author(role: String): [Author] @required @distinct
}
type BookSeries {
	contains: [Book] @required @uniqueForTarget
}
type Publisher {
	published: [Book] @uniqueForTarget @requiredForTarget
}`

func benchGraph(b *testing.B, nodesPerType int) (*pgschema.Schema, *pgschema.Graph) {
	b.Helper()
	s, err := pgschema.ParseSchema(benchSchema)
	if err != nil {
		b.Fatal(err)
	}
	g, err := pgschema.GenerateConformant(s, pgschema.GenConfig{Seed: 42, NodesPerType: nodesPerType})
	if err != nil {
		b.Fatal(err)
	}
	return s, g
}

// BenchmarkE1CardinalityTable validates each of the four §3.3 cardinality
// classes over generated graphs (the same rows the paper's table lists).
func BenchmarkE1CardinalityTable(b *testing.B) {
	for _, kind := range []string{"1:1", "1:N", "N:1", "N:M"} {
		b.Run(kind, func(b *testing.B) {
			s := mustParseB(b, cardinalitySchema(kind))
			g, err := pgschema.GenerateConformant(s, pgschema.GenConfig{Seed: 1, NodesPerType: 500})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := pgschema.ValidateGraph(s, g, pgschema.ValidateOptions{})
				if !res.OK() {
					b.Fatal("generated graph invalid")
				}
			}
		})
	}
}

// BenchmarkE2ValidationScaling measures strong validation across graph
// sizes at a fixed schema — the practical counterpart of Theorem 1's
// claim that validation is cheap (near-linear here thanks to the
// adjacency indexes; the definitional algorithm is O(n²)).
func BenchmarkE2ValidationScaling(b *testing.B) {
	for _, n := range []int{100, 300, 1000, 3000, 10000} {
		b.Run(fmt.Sprintf("nodesPerType=%d", n), func(b *testing.B) {
			s, g := benchGraph(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := pgschema.ValidateGraph(s, g, pgschema.ValidateOptions{})
				if !res.OK() {
					b.Fatal("generated graph invalid")
				}
			}
			b.ReportMetric(float64(g.NumNodes()+g.NumEdges()), "graph-elems")
		})
	}
}

// BenchmarkE2ParallelSpeedup compares worker counts on a large graph —
// the observable consequence of the paper's AC0 (highly parallelizable)
// result.
func BenchmarkE2ParallelSpeedup(b *testing.B) {
	s, g := benchGraph(b, 5000)
	for _, workers := range []int{1, 2, 4, 8} {
		for _, sharding := range []bool{false, true} {
			name := fmt.Sprintf("workers=%d/sharding=%v", workers, sharding)
			b.Run(name, func(b *testing.B) {
				opts := pgschema.ValidateOptions{Workers: workers, ElementSharding: sharding}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res := pgschema.ValidateGraph(s, g, opts)
					if !res.OK() {
						b.Fatal("generated graph invalid")
					}
				}
			})
		}
	}
}

// BenchmarkE3Example61 runs the full satisfiability portfolio on the
// three unsatisfiable diagrams of Example 6.1.
func BenchmarkE3Example61(b *testing.B) {
	diagrams := []struct {
		name, sdl, query string
		skip             bool
	}{
		{"a", `
			type OT1 { }
			interface IT { hasOT1: OT1 @uniqueForTarget }
			type OT2 implements IT { hasOT1: [OT1] @requiredForTarget }
			type OT3 implements IT { hasOT1: [OT1] @requiredForTarget }`, "OT1", true},
		{"b", `
			interface IT { f: [OT1] @uniqueForTarget @requiredForTarget }
			type OT2 implements IT { f: [OT1] @required }
			type OT3 implements IT { f: [OT1] @required }
			type OT1 { g: [OT3] @required @uniqueForTarget }`, "OT2", false},
		{"c", `
			interface IT { f: [OT1] @uniqueForTarget }
			type OT2 implements IT { f: [OT1] @required }
			type OT3 implements IT { f: [OT1] @requiredForTarget }
			type OT1 { }`, "OT2", false},
	}
	for _, d := range diagrams {
		b.Run(d.name, func(b *testing.B) {
			s, err := pgschema.ParseSchemaWithOptions(d.sdl, pgschema.BuildOptions{SkipConsistencyCheck: d.skip})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep := pgschema.CheckType(s, d.query, pgschema.SatOptions{})
				if rep.Verdict != pgschema.Unsatisfiable {
					b.Fatalf("diagram (%s): got %s", d.name, rep.Verdict)
				}
			}
		})
	}
}

// BenchmarkE4Reduction measures the Theorem 2 pipeline: reduce a random
// 3-CNF formula to a schema and decide the distinguished type's
// satisfiability with the bounded finite-model search (reduction schemas
// have witnesses with ≤ 1 + #clauses nodes, so the bound is exact).
func BenchmarkE4Reduction(b *testing.B) {
	for _, m := range []int{4, 5, 6} {
		b.Run(fmt.Sprintf("clauses=%d", m), func(b *testing.B) {
			f := cnf.Random3SAT(3, m, 7)
			want, _ := cnf.Solve(f)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				red, err := reduction.FromCNF(f)
				if err != nil {
					b.Fatal(err)
				}
				// Reduction witnesses have exactly 1+m nodes.
				_, got := sat.BoundedSearch(red.Schema, reduction.ObjectTypeName, 1+m)
				if got != (want != nil) {
					b.Fatal("reduction disagreement")
				}
			}
		})
	}
}

// BenchmarkE5Tableau measures the ALCQI reasoner on schema translations
// of increasing structural depth (required-edge chains with functional
// back edges), the shape Theorem 3's PSPACE argument targets.
func BenchmarkE5Tableau(b *testing.B) {
	for _, depth := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("chainDepth=%d", depth), func(b *testing.B) {
			sdl := chainSchema(depth)
			s, err := pgschema.ParseSchema(sdl)
			if err != nil {
				b.Fatal(err)
			}
			tbox := sat.Translate(s)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := &dl.Reasoner{}
				ok, err := r.Satisfiable(dl.Atom{Name: "T0"}, tbox)
				if err != nil || !ok {
					b.Fatalf("chain depth %d: ok=%v err=%v", depth, ok, err)
				}
			}
		})
	}
}

// chainSchema builds T0 → T1 → … → Tn with required edges.
func chainSchema(n int) string {
	out := ""
	for i := 0; i < n; i++ {
		out += fmt.Sprintf("type T%d { next: T%d! @required }\n", i, i+1)
	}
	out += fmt.Sprintf("type T%d { done: Boolean }\n", n)
	return out
}

// BenchmarkE7PerRuleCost times each satisfaction rule separately on the
// same graph — the paper's §6.1 remark that no rule needs more than two
// nested quantifiers predicts the per-rule costs stay low-degree.
func BenchmarkE7PerRuleCost(b *testing.B) {
	s, g := benchGraph(b, 2000)
	for _, rule := range validate.AllRules {
		b.Run(string(rule), func(b *testing.B) {
			opts := pgschema.ValidateOptions{Rules: []pgschema.Rule{rule}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pgschema.ValidateGraph(s, g, opts)
			}
		})
	}
}

// BenchmarkAblationSatPortfolio measures each satisfiability procedure in
// isolation on Example 6.1(a) (all three can decide it) — motivating the
// portfolio order counting → tableau → bounded.
func BenchmarkAblationSatPortfolio(b *testing.B) {
	sdl := `
		type OT1 { }
		interface IT { hasOT1: OT1 @uniqueForTarget }
		type OT2 implements IT { hasOT1: [OT1] @requiredForTarget }
		type OT3 implements IT { hasOT1: [OT1] @requiredForTarget }`
	s, err := pgschema.ParseSchemaWithOptions(sdl, pgschema.BuildOptions{SkipConsistencyCheck: true})
	if err != nil {
		b.Fatal(err)
	}
	stages := []struct {
		name string
		opts pgschema.SatOptions
	}{
		{"counting-only", pgschema.SatOptions{SkipTableau: true, SkipBounded: true}},
		{"tableau-only", pgschema.SatOptions{SkipCounting: true, SkipBounded: true}},
		{"portfolio", pgschema.SatOptions{}},
	}
	for _, st := range stages {
		b.Run(st.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep := pgschema.CheckType(s, "OT1", st.opts)
				if rep.Verdict != pgschema.Unsatisfiable {
					b.Fatalf("got %s", rep.Verdict)
				}
			}
		})
	}
}

// BenchmarkAblationIncremental compares full revalidation against the
// incremental engine after a single point mutation on a large graph.
func BenchmarkAblationIncremental(b *testing.B) {
	s, g := benchGraph(b, 5000)
	base := pgschema.ValidateGraph(s, g, pgschema.ValidateOptions{})
	authors := g.NodesLabeled("Author")
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a := authors[i%len(authors)]
			g.SetNodeProp(a, "name", pgschema.String(fmt.Sprintf("renamed-%d", i)))
			res := pgschema.ValidateGraph(s, g, pgschema.ValidateOptions{})
			base = res
		}
	})
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a := authors[i%len(authors)]
			g.SetNodeProp(a, "name", pgschema.String(fmt.Sprintf("renamed-%d", i)))
			base = pgschema.Revalidate(context.Background(), s, g, base, pgschema.Delta{Nodes: []pgschema.NodeID{a}}, pgschema.ValidateOptions{})
		}
	})
	_ = base
}

// BenchmarkSchemaBuild measures the front half of the pipeline: lexing,
// parsing, and building the formal schema with consistency checking.
func BenchmarkSchemaBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := pgschema.ParseSchema(benchSchema); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerate measures conformant graph generation.
func BenchmarkGenerate(b *testing.B) {
	s, err := pgschema.ParseSchema(benchSchema)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pgschema.GenerateConformant(s, pgschema.GenConfig{Seed: int64(i), NodesPerType: 1000}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScale is the million-element scaling experiment: strong
// validation with the compiled fused engine at ~10⁵ and ~10⁶ graph
// elements, sequential and work-stealing parallel at 2/4/8 workers.
// benchSchema graphs carry ~7 elements per nodes-per-type unit, so
// 15000 and 143000 land close to the two targets. `make bench-scale`
// captures this into BENCH_scale.json.
func BenchmarkScale(b *testing.B) {
	for _, n := range []int{15_000, 143_000} {
		s, g := benchGraph(b, n)
		prog := pgschema.CompileValidation(s)
		elems := g.NumNodes() + g.NumEdges()
		// Warm the program binding and columnar snapshot so their one-time
		// construction is not billed to whichever config runs first.
		pgschema.ValidateGraph(s, g, pgschema.ValidateOptions{Workers: 1, Program: prog})
		for _, workers := range []int{1, 2, 4, 8} {
			name := fmt.Sprintf("elems=%d/workers=%d", elems, workers)
			b.Run(name, func(b *testing.B) {
				opts := pgschema.ValidateOptions{
					Program:         prog,
					Workers:         workers,
					ElementSharding: workers > 1,
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res := pgschema.ValidateGraph(s, g, opts)
					if !res.OK() {
						b.Fatal("generated graph invalid")
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(elems), "graph-elems")
				mps := float64(elems) * float64(b.N) / b.Elapsed().Seconds() / 1e6
				b.ReportMetric(mps, "Melems/s")
				// Scaling context: throughput per worker is the efficiency
				// denominator (flat Melems/s/worker across configs = linear
				// scaling; on a one-core box it halves per doubling), and
				// cores/GOMAXPROCS record what the box could possibly give.
				b.ReportMetric(mps/float64(workers), "Melems/s/worker")
				b.ReportMetric(float64(runtime.NumCPU()), "cores")
				b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
				if workers > 1 {
					// One untimed telemetry run: steals and measured parallel
					// efficiency from the scheduler itself.
					tOpts := opts
					tOpts.SchedStats = true
					if sres := pgschema.ValidateGraph(s, g, tOpts); sres.Sched != nil {
						b.ReportMetric(float64(sres.Sched.Steals), "steals")
						b.ReportMetric(sres.Sched.Efficiency(), "sched-efficiency")
					}
				}
			})
		}
	}
}

func mustParseB(b *testing.B, sdl string) *pgschema.Schema {
	b.Helper()
	s, err := pgschema.ParseSchema(sdl)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkIncremental — E10: delta-aware incremental revalidation on
// the compiled fused path against full revalidation, at ~0.1% and ~1%
// deltas over a ~10⁶-element graph. Each iteration is a transactional
// round trip — Apply(delta) → validate → Undo — so the graph returns to
// its seed state and the cached full result stays a valid prev
// throughout; the incremental arm also exercises the cross-epoch
// binding rebind and snapshot patching the mutation path installs.
func BenchmarkIncremental(b *testing.B) {
	s, g := benchGraph(b, 143_000)
	prog := pgschema.CompileValidation(s)
	// Workers: 1 keeps both arms sequential; a 0 would autotune the full
	// arm at this size.
	opts := pgschema.ValidateOptions{Workers: 1, Program: prog}
	base := pgschema.ValidateGraph(s, g, opts)
	if !base.OK() {
		b.Fatal("seed graph invalid")
	}
	elems := g.NumNodes() + g.NumEdges()
	books := g.NodesLabeled("Book")
	ctx := context.Background()
	for _, frac := range []struct {
		name string
		div  int
	}{{"delta=0.1%", 1000}, {"delta=1%", 100}} {
		n := elems / frac.div
		if n > len(books) {
			n = len(books)
		}
		specs := make([]pgschema.NodePropSpec, n)
		for i := range specs {
			specs[i] = pgschema.NodePropSpec{
				Node: books[i*len(books)/n], Name: "pages", Value: pgschema.Int(int64(i)),
			}
		}
		delta := pgschema.GraphDelta{SetNodeProps: specs}
		// Only validation is timed: the Apply/Undo bookends are the same
		// mutation cost in both arms and would otherwise drown the
		// revalidation difference being measured.
		run := func(b *testing.B, incremental bool) {
			b.Helper()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				u, err := g.Apply(delta)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				var res *pgschema.ValidationResult
				if incremental {
					res = pgschema.Revalidate(ctx, s, g, base, pgschema.DeltaFor(u.Touched()), opts)
				} else {
					res = pgschema.ValidateGraph(s, g, opts)
				}
				b.StopTimer()
				if !res.OK() {
					b.Fatal("unexpected violations")
				}
				if err := u.Undo(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(n), "delta-elems")
			b.ReportMetric(float64(elems), "graph-elems")
		}
		b.Run(frac.name+"/full", func(b *testing.B) { run(b, false) })
		b.Run(frac.name+"/incremental", func(b *testing.B) { run(b, true) })
	}
}

// BenchmarkSnapshot — E14: durable zero-copy snapshots. The arms
// compare cold-start routes into a queryable, validatable graph:
//
//	save           WriteGraphSnapshot throughput (columns → file image)
//	open           OpenGraphSnapshot: mmap + O(header+symbols) checks
//	open-verified  the same under full checksum + structure verification
//	load=stream    the CSV streaming loader (the prior fastest cold start)
//	validate=mapped-cold  open + bind + first full strong validation
//	validate=mapped       steady-state validation over mapped columns
//	validate=heap         steady-state validation over the heap graph
//
// The tentpole claim is open vs load=stream (open cost independent of
// element count) and validate=mapped staying within a few percent of
// validate=heap (record-backed accessors instead of []Prop, same
// kernels); validate=mapped-cold is the restart-to-first-answer cost.
func BenchmarkSnapshot(b *testing.B) {
	for _, n := range []int{15_000, 143_000} {
		s, g := benchGraph(b, n)
		elems := g.NumNodes() + g.NumEdges()
		var nodes, edges bytes.Buffer
		if err := g.WriteCSV(&nodes, &edges); err != nil {
			b.Fatal(err)
		}
		dir := b.TempDir()
		path := filepath.Join(dir, "bench.pgsnap")
		f, err := os.Create(path)
		if err != nil {
			b.Fatal(err)
		}
		if err := pgschema.WriteGraphSnapshot(f, g); err != nil {
			b.Fatal(err)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
		st, err := os.Stat(path)
		if err != nil {
			b.Fatal(err)
		}
		snapBytes := st.Size()
		prog := pgschema.CompileValidation(s)
		gcFresh := func(b *testing.B) {
			b.StopTimer()
			debug.FreeOSMemory()
			b.StartTimer()
		}

		b.Run(fmt.Sprintf("elems=%d/save", elems), func(b *testing.B) {
			b.SetBytes(snapBytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := pgschema.WriteGraphSnapshot(io.Discard, g); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("elems=%d/open", elems), func(b *testing.B) {
			b.SetBytes(snapBytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gcFresh(b)
				mg, err := pgschema.OpenGraphSnapshot(path)
				if err != nil {
					b.Fatal(err)
				}
				if mg.NumNodes() != g.NumNodes() {
					b.Fatal("open lost nodes")
				}
				mg.Close()
			}
		})
		b.Run(fmt.Sprintf("elems=%d/open-verified", elems), func(b *testing.B) {
			b.SetBytes(snapBytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gcFresh(b)
				mg, err := pgschema.OpenGraphSnapshot(path, pgschema.VerifySnapshot())
				if err != nil {
					b.Fatal(err)
				}
				mg.Close()
			}
		})
		b.Run(fmt.Sprintf("elems=%d/load=stream", elems), func(b *testing.B) {
			b.SetBytes(int64(nodes.Len() + edges.Len()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gcFresh(b)
				loaded, err := pgschema.ReadGraphCSVStream(context.Background(),
					bytes.NewReader(nodes.Bytes()), bytes.NewReader(edges.Bytes()))
				if err != nil {
					b.Fatal(err)
				}
				if loaded.NumNodes() != g.NumNodes() {
					b.Fatal("load lost nodes")
				}
			}
		})
		// Restart-to-validated: open + program binding + first full
		// validation, fresh per iteration — every column byte is paged
		// in through the validation kernels themselves and the binding
		// (per-type enumerations) is rebuilt, exactly what a restarted
		// server pays before its first answer.
		b.Run(fmt.Sprintf("elems=%d/validate=mapped-cold", elems), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gcFresh(b)
				mg, err := pgschema.OpenGraphSnapshot(path)
				if err != nil {
					b.Fatal(err)
				}
				res := pgschema.ValidateGraph(s, mg, pgschema.ValidateOptions{Program: prog})
				if !res.OK() {
					b.Fatal("generated graph invalid")
				}
				mg.Close()
			}
		})
		// Steady state over the mapped columns (graph opened once,
		// binding cached) — the like-for-like comparison against
		// validate=heap isolating the record-backed property accessors.
		b.Run(fmt.Sprintf("elems=%d/validate=mapped", elems), func(b *testing.B) {
			mg, err := pgschema.OpenGraphSnapshot(path)
			if err != nil {
				b.Fatal(err)
			}
			defer mg.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gcFresh(b)
				res := pgschema.ValidateGraph(s, mg, pgschema.ValidateOptions{Program: prog})
				if !res.OK() {
					b.Fatal("generated graph invalid")
				}
			}
		})
		b.Run(fmt.Sprintf("elems=%d/validate=heap", elems), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gcFresh(b)
				res := pgschema.ValidateGraph(s, g, pgschema.ValidateOptions{Program: prog})
				if !res.OK() {
					b.Fatal("generated graph invalid")
				}
			}
		})
	}
}
