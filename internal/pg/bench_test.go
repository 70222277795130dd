package pg_test

// The loader benchmarks whose baseline is the two-phase test loader
// (csv_twophase_test.go, exported to this package as pg.ReadCSV);
// `make bench-ingest` runs BenchmarkIngest and `make bench-scale`
// BenchmarkLoadCSV.

import (
	"bytes"
	"context"
	"fmt"
	"runtime/debug"
	"testing"

	"pgschema/internal/gen"
	"pgschema/internal/parser"
	"pgschema/internal/pg"
	"pgschema/internal/schema"
	"pgschema/internal/validate"
)

// benchSchema is the validation benchmark schema of the root package's
// bench_test.go, kept identical so both report on the same graphs.
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

func benchGraph(b *testing.B, nodesPerType int) (*schema.Schema, *pg.Graph) {
	b.Helper()
	doc, err := parser.Parse(benchSchema)
	if err != nil {
		b.Fatal(err)
	}
	s, err := schema.Build(doc, schema.Options{})
	if err != nil {
		b.Fatal(err)
	}
	g, err := gen.Conformant(s, gen.Config{Seed: 42, NodesPerType: nodesPerType})
	if err != nil {
		b.Fatal(err)
	}
	return s, g
}

// BenchmarkLoadCSV measures CSV ingestion throughput of both loaders
// (bufio + csv.ReuseRecord + batched parse workers). SetBytes reports
// loader throughput in MB/s of raw CSV.
func BenchmarkLoadCSV(b *testing.B) {
	for _, n := range []int{1000, 10_000} {
		_, g := benchGraph(b, n)
		var nodes, edges bytes.Buffer
		if err := g.WriteCSV(&nodes, &edges); err != nil {
			b.Fatal(err)
		}
		for _, l := range []struct {
			name string
			load func(nodes, edges *bytes.Reader) (*pg.Graph, error)
		}{
			{"two-phase", func(n, e *bytes.Reader) (*pg.Graph, error) { return pg.ReadCSV(n, e) }},
			{"stream", func(n, e *bytes.Reader) (*pg.Graph, error) { return pg.ReadCSVStream(n, e) }},
		} {
			b.Run(fmt.Sprintf("nodesPerType=%d/%s", n, l.name), func(b *testing.B) {
				b.SetBytes(int64(nodes.Len() + edges.Len()))
				for i := 0; i < b.N; i++ {
					loaded, err := l.load(bytes.NewReader(nodes.Bytes()), bytes.NewReader(edges.Bytes()))
					if err != nil {
						b.Fatal(err)
					}
					if loaded.NumNodes() != g.NumNodes() || loaded.NumEdges() != g.NumEdges() {
						b.Fatalf("round trip lost elements: %d/%d nodes, %d/%d edges",
							loaded.NumNodes(), g.NumNodes(), loaded.NumEdges(), g.NumEdges())
					}
				}
			})
		}
	}
}

// BenchmarkIngest — E11: the streaming columnar loader against the
// map-shaped two-phase loader, with and without the fused first
// validation pass, at ~10⁵ and ~10⁶ elements. SetBytes reports raw CSV
// MB/s; Melems/s is graph elements materialized (and, in the +validate
// arms, validated) per second.
func BenchmarkIngest(b *testing.B) {
	for _, n := range []int{15_000, 143_000} {
		s, g := benchGraph(b, n)
		var nodes, edges bytes.Buffer
		if err := g.WriteCSV(&nodes, &edges); err != nil {
			b.Fatal(err)
		}
		wantNodes, wantEdges := g.NumNodes(), g.NumEdges()
		elems := wantNodes + wantEdges
		csvBytes := int64(nodes.Len() + edges.Len())
		prog := validate.Compile(s)
		// Drop the generated graph: ingest is a one-shot operation (CLI
		// run, server startup) where nothing else is live, and holding
		// hundreds of MB here would inflate the GC pacing target and
		// subsidize whichever arm allocates most.
		g = nil

		// Start every iteration from a collected heap with freed spans
		// returned to the OS, the state a one-shot process starts in:
		// without this, pages faulted in by one arm are reused warm by
		// whichever arm runs next, and the numbers depend on benchmark
		// order instead of on the loaders.
		gcFresh := func(b *testing.B) {
			b.StopTimer()
			debug.FreeOSMemory()
			b.StartTimer()
		}

		check := func(b *testing.B, loaded *pg.Graph) {
			b.Helper()
			if loaded.NumNodes() != wantNodes || loaded.NumEdges() != wantEdges {
				b.Fatalf("round trip lost elements: %d/%d nodes, %d/%d edges",
					loaded.NumNodes(), wantNodes, loaded.NumEdges(), wantEdges)
			}
		}
		perSec := func(b *testing.B) {
			b.ReportMetric(float64(elems)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Melems/s")
		}
		nodesR := func() *bytes.Reader { return bytes.NewReader(nodes.Bytes()) }
		edgesR := func() *bytes.Reader { return bytes.NewReader(edges.Bytes()) }

		b.Run(fmt.Sprintf("elems=%d/load=readcsv", elems), func(b *testing.B) {
			b.SetBytes(csvBytes)
			for i := 0; i < b.N; i++ {
				gcFresh(b)
				loaded, err := pg.ReadCSV(nodesR(), edgesR())
				if err != nil {
					b.Fatal(err)
				}
				check(b, loaded)
			}
			perSec(b)
		})
		b.Run(fmt.Sprintf("elems=%d/load=stream", elems), func(b *testing.B) {
			b.SetBytes(csvBytes)
			for i := 0; i < b.N; i++ {
				gcFresh(b)
				loaded, err := pg.ReadCSVStreamContext(context.Background(), nodesR(), edgesR())
				if err != nil {
					b.Fatal(err)
				}
				check(b, loaded)
			}
			perSec(b)
		})
		b.Run(fmt.Sprintf("elems=%d/validate=two-phase", elems), func(b *testing.B) {
			b.SetBytes(csvBytes)
			for i := 0; i < b.N; i++ {
				gcFresh(b)
				loaded, err := pg.ReadCSV(nodesR(), edgesR())
				if err != nil {
					b.Fatal(err)
				}
				if res := validate.Validate(s, loaded, validate.Options{Program: prog}); !res.OK() {
					b.Fatal("generated graph invalid")
				}
			}
			perSec(b)
		})
		b.Run(fmt.Sprintf("elems=%d/validate=on-ingest", elems), func(b *testing.B) {
			b.SetBytes(csvBytes)
			for i := 0; i < b.N; i++ {
				gcFresh(b)
				res, loaded, err := validate.ValidateStream(context.Background(), s, nodesR(), edgesR(),
					validate.Options{Program: prog})
				if err != nil {
					b.Fatal(err)
				}
				if !res.OK() {
					b.Fatal("generated graph invalid")
				}
				check(b, loaded)
			}
			perSec(b)
		})
	}
}
