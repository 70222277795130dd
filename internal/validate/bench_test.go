package validate_test

// The comparison benchmarks whose baselines are the rule-by-rule test
// oracles: they sit next to the oracles because only this package's
// tests can run them. `make bench-fused` and `make bench-compiled` run
// them.

import (
	"fmt"
	"testing"

	"pgschema/internal/gen"
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
	s := buildDiff(b, benchSchema)
	g, err := gen.Conformant(s, gen.Config{Seed: 42, NodesPerType: nodesPerType})
	if err != nil {
		b.Fatal(err)
	}
	return s, g
}

type benchEngine struct {
	name string
	run  func(*schema.Schema, *pg.Graph, validate.Options) *validate.Result
	opts validate.Options
}

// BenchmarkAblationIndexes compares the indexed implementations of the
// pair-quantified rules (WS4, DS3) in the fused engine against the
// textbook O(|E|²) pair scans from the definitions.
func BenchmarkAblationIndexes(b *testing.B) {
	s, g := benchGraph(b, 1000)
	opts := validate.Options{Rules: []validate.Rule{validate.WS4, validate.DS3}}
	for _, e := range []benchEngine{
		{"indexed", validate.Validate, opts},
		{"naive-pair-scan", validate.ValidateNaiveOracle, opts},
	} {
		b.Run(e.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e.run(s, g, e.opts)
			}
		})
	}
}

// BenchmarkAblationFused compares the fused single-pass engine against
// the rule-by-rule oracle and its naive pair scans across graph sizes
// (strong mode, sequential). The naive configuration is O(|E|²), so it
// only runs at the smallest size.
func BenchmarkAblationFused(b *testing.B) {
	engines := []benchEngine{
		{"fused", validate.Validate, validate.Options{}},
		{"rule-by-rule", validate.ValidateOracle, validate.Options{}},
		{"naive-pair-scan", validate.ValidateNaiveOracle, validate.Options{}},
	}
	for _, n := range []int{300, 1000, 5000} {
		s, g := benchGraph(b, n)
		for _, e := range engines {
			if e.name == "naive-pair-scan" && n > 300 {
				continue
			}
			b.Run(fmt.Sprintf("nodesPerType=%d/%s", n, e.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if res := e.run(s, g, e.opts); !res.OK() {
						b.Fatal("generated graph invalid")
					}
				}
				b.ReportMetric(float64(g.NumNodes()+g.NumEdges()), "graph-elems")
			})
		}
	}
}

// BenchmarkCompiledReuse measures the payoff of cross-run schema
// compilation: repeated strong validation of an unchanged graph with a
// precompiled program (symbol tables and graph binding reused across
// iterations) against compile-on-the-fly fused runs and the
// rule-by-rule oracle. This is the serving-loop shape: the server
// compiles once at graph load and answers every /validate request from
// the same program.
func BenchmarkCompiledReuse(b *testing.B) {
	for _, n := range []int{300, 1000, 5000} {
		s, g := benchGraph(b, n)
		prog := validate.Compile(s)
		for _, e := range []benchEngine{
			{"compiled", validate.Validate, validate.Options{Program: prog}},
			{"per-run-compile", validate.Validate, validate.Options{}},
			{"rule-by-rule", validate.ValidateOracle, validate.Options{}},
		} {
			b.Run(fmt.Sprintf("nodesPerType=%d/%s", n, e.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if res := e.run(s, g, e.opts); !res.OK() {
						b.Fatal("generated graph invalid")
					}
				}
				b.ReportMetric(float64(g.NumNodes()+g.NumEdges()), "graph-elems")
			})
		}
	}
}
