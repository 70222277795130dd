package validate_test

// Large-graph coverage for the work-stealing chunk scheduler: the small
// differential seeds never produce more than a handful of chunks, so
// these tests pin engine equivalence and cap semantics on graphs big
// enough that every pass splits into dozens of range chunks claimed off
// the atomic cursor — including a skewed graph whose violations all
// live in one label's ID range, the load-balance case static sharding
// handled worst. They run under -race via the tier-1 suite.

import (
	"fmt"
	"testing"

	"pgschema/internal/gen"
	"pgschema/internal/pg"
	"pgschema/internal/validate"
	"pgschema/internal/values"
)

// TestDifferentialLargeGraphWorkStealing drives the full engine matrix
// over graphs large enough for multi-chunk scheduling (thousands of
// elements per pass), clean and with injected faults — among them DS4,
// whose chunked per-declaration pass is new.
func TestDifferentialLargeGraphWorkStealing(t *testing.T) {
	if testing.Short() {
		t.Skip("large-graph differential is not -short material")
	}
	s := buildDiff(t, diffSchema)
	const seed = 42
	base, err := gen.Conformant(s, gen.Config{Seed: seed, NodesPerType: 1500})
	if err != nil {
		t.Fatalf("conformant: %v", err)
	}
	if n := base.NodeBound() + base.EdgeBound(); n < 10_000 {
		t.Fatalf("graph too small to exercise chunking: %d elements", n)
	}
	assertEngineEquivalence(t, s, base, "large clean graph")

	for _, rule := range []validate.Rule{validate.DS1, validate.DS4, validate.SS2} {
		g := base.Clone()
		desc, err := gen.Inject(s, g, rule, seed)
		if err != nil {
			t.Fatalf("inject %s: %v", rule, err)
		}
		assertEngineEquivalence(t, s, g, fmt.Sprintf("large graph, inject %s (%s)", rule, desc))
	}
}

// TestDifferentialSkewedViolations builds the scheduler's worst static
// split: a graph that is almost entirely Book nodes, every one of them
// violating DS6 (no author edge) and DS4 (no incoming published edge),
// so both the violations and the DS4 target enumeration concentrate in
// one contiguous ID range. All engines must still agree byte for byte.
func TestDifferentialSkewedViolations(t *testing.T) {
	s := buildDiff(t, diffSchema)
	g := pg.New()
	const books = 3000
	for i := 0; i < books; i++ {
		b := g.AddNode("Book")
		g.SetNodeProp(b, "title", values.String(fmt.Sprintf("book %d", i)))
	}
	assertEngineEquivalence(t, s, g, "skewed all-violating graph")

	res := validate.Validate(s, g, validate.Options{
		Mode: validate.Directives, Workers: 4, ElementSharding: true,
	})
	by := res.ByRule()
	if len(by[validate.DS6]) != books || len(by[validate.DS4]) != books {
		t.Fatalf("want %d DS6 and %d DS4 violations, got %d and %d",
			books, books, len(by[validate.DS6]), len(by[validate.DS4]))
	}
}

// TestScaleSmokeParallel is the 10⁵-element smoke wired into make
// check: generation, autotuned parallel validation under the race
// detector, and byte-identity between the sequential fused engine and
// the work-stealing parallel one at a size where every pass spans
// hundreds of chunks.
func TestScaleSmokeParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("scale smoke is not -short material")
	}
	s := buildDiff(t, diffSchema)
	base, err := gen.Conformant(s, gen.Config{Seed: 7, NodesPerType: 15_000, ExtraEdges: 2.0})
	if err != nil {
		t.Fatalf("conformant: %v", err)
	}
	elements := base.NodeBound() + base.EdgeBound()
	if elements < 100_000 {
		t.Fatalf("smoke graph too small: %d elements, want ≥ 100000", elements)
	}

	seq := validate.Validate(s, base, validate.Options{Workers: -1})
	par := validate.Validate(s, base, validate.Options{Workers: 4, ElementSharding: true})
	if a, b := renderViolations(seq), renderViolations(par); a != b {
		t.Errorf("sequential and work-stealing parallel results diverge:\n--- seq ---\n%s--- par ---\n%s", a, b)
	}
	if !seq.OK() {
		t.Errorf("conformant smoke graph reported violations: %v", seq.Violations[:min(3, len(seq.Violations))])
	}

	// Workers 0 must autotune on a graph this size and
	// still produce the identical (empty) violation set.
	auto := validate.Validate(s, base, validate.Options{})
	if !auto.OK() {
		t.Errorf("autotuned run diverges: %v", auto.Violations[:min(3, len(auto.Violations))])
	}
}
