package query

// The query benchmarks whose baseline is the interpretive test oracle
// (interpret_test.go); `make bench-query` runs BenchmarkQueryEngine.

import (
	"context"
	"fmt"
	"testing"

	"pgschema/internal/gen"
	"pgschema/internal/pg"
	"pgschema/internal/schema"
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
	s := build(b, benchSchema)
	g, err := gen.Conformant(s, gen.Config{Seed: 42, NodesPerType: nodesPerType})
	if err != nil {
		b.Fatal(err)
	}
	return s, g
}

// BenchmarkQueryExecution measures the interpretive executor's
// traversal over a generated graph: a keyed lookup with a two-hop
// expansion, and a full listing.
func BenchmarkQueryExecution(b *testing.B) {
	s, g := benchGraph(b, 1000)
	authors := g.NodesLabeled("Author")
	name, _ := g.NodeProp(authors[0], "name")
	lookup := fmt.Sprintf(`{ author(name: %q) { name favoriteBook { title author { name } } } }`, name.AsString())
	b.Run("lookup-2hop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ExecuteQuery(s, g, lookup); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("list-1000", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ExecuteQuery(s, g, `{ allAuthors { name } }`); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkQueryEngine — E12: compiled plans against the tree-walking
// executor over a ~10⁶-element graph. The cold arm pays parse + compile
// every iteration (a plan-cache miss); the cached arm reuses the plan
// and its epoch-keyed graph binding (a hit on an unchanged graph) —
// the steady state of a server answering a repeated query. The lookup
// case is where compilation pays most: the interpretive engine resolves
// `author(name: …)` by scanning every Author node, the bound plan
// answers from its key-bucket index.
func BenchmarkQueryEngine(b *testing.B) {
	s, g := benchGraph(b, 143_000)
	elems := g.NumNodes() + g.NumEdges()
	authors := g.NodesLabeled("Author")
	name, _ := g.NodeProp(authors[len(authors)/2], "name")
	lookup := fmt.Sprintf(`{ author(name: %q) { name favoriteBook { title } relatedAuthor { name } } }`, name.AsString())
	scan := `{ allAuthors { name } }`
	for _, q := range []struct{ kind, src string }{
		{"lookup-traverse", lookup},
		{"scan-all", scan},
	} {
		doc, err := Parse(q.src)
		if err != nil {
			b.Fatal(err)
		}
		warm := Compile(s, doc)
		if _, err := warm.Execute(context.Background(), g, ""); err != nil {
			b.Fatal(err)
		}
		b.Run(q.kind+"/interpretive", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ExecuteQuery(s, g, q.src); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(elems), "graph-elems")
		})
		b.Run(q.kind+"/compiled-cold", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				doc, err := Parse(q.src)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := Compile(s, doc).Execute(context.Background(), g, ""); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(elems), "graph-elems")
		})
		b.Run(q.kind+"/compiled-cached", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := warm.Execute(context.Background(), g, ""); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(elems), "graph-elems")
		})
	}
}
