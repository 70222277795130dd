package pg_test

// The loader benchmarks whose baseline is the two-phase test loader
// (csv_twophase_test.go, exported to this package as pg.ReadCSV);
// `make bench-ingest` runs BenchmarkIngest and `make bench-scale`
// BenchmarkLoadCSV.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"testing"

	"pgschema/internal/gen"
	"pgschema/internal/parser"
	"pgschema/internal/pg"
	"pgschema/internal/schema"
	"pgschema/internal/validate"
	"pgschema/internal/values"
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

// BenchmarkApply — E22: the cost of one Graph.Apply as the graph grows,
// on a heap base (the generated graph's folded snapshot) and a mapped
// base (the same graph written to a .pgsnap file and opened), for two
// delta shapes: one node property set, and one Author added with a
// favoriteBook edge. A write should cost its delta, so B/op stays flat
// from ~2·10⁵ to ~10⁶ elements.
func BenchmarkApply(b *testing.B) {
	for _, n := range []int{28_600, 143_000} {
		_, g := benchGraph(b, n)
		elems := g.NumNodes() + g.NumEdges()
		path := filepath.Join(b.TempDir(), "g.pgsnap")
		f, err := os.Create(path)
		if err != nil {
			b.Fatal(err)
		}
		if err := pg.WriteSnapshot(f, g.Snapshot()); err != nil {
			b.Fatal(err)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
		author, _ := g.Sym("Author")
		book, _ := g.Sym("Book")
		authors, books := g.Snapshot().LabelNodes(author), g.Snapshot().LabelNodes(book)
		g = nil
		for _, base := range []string{"heap", "mapped"} {
			for _, shape := range []string{"prop", "author"} {
				b.Run(fmt.Sprintf("elems=%d/base=%s/delta=%s", elems, base, shape), func(b *testing.B) {
					var g *pg.Graph
					if base == "heap" {
						_, g = benchGraph(b, n)
					} else {
						if g, err = pg.OpenSnapshot(path); err != nil {
							b.Fatal(err)
						}
						defer g.Close()
					}
					delta := func(i int) pg.Delta {
						if shape == "prop" {
							return pg.Delta{SetNodeProps: []pg.NodePropSpec{{
								Node: authors[i%len(authors)], Name: "name", Value: values.String(fmt.Sprintf("w%d", i)),
							}}}
						}
						return pg.Delta{
							AddNodes: []pg.AddNodeSpec{{Label: "Author", Props: []pg.PropEntry{{Name: "name", Value: values.String(fmt.Sprintf("new%d", i))}}}},
							AddEdges: []pg.AddEdgeSpec{{Src: pg.NewNodeRef(0), Dst: books[i%len(books)], Label: "favoriteBook"}},
						}
					}
					for i := 0; i < 3; i++ { // warm: the first folds allocate the overflow arena
						if _, err := g.Apply(delta(i)); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := g.Apply(delta(3 + i)); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
