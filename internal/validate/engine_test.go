package validate

import (
	"fmt"
	"testing"
	"time"

	"pgschema/internal/pg"
	"pgschema/internal/values"
)

// pairScanGraph builds a graph with several WS4 and DS3 violations whose
// witnessing edges are spread across edge ids, so a pair scan or a
// sharded pass that deduplicated by edge instead of by (source, field)
// or target would report a violation more than once.
func pairScanGraph() *pg.Graph {
	g := pg.New()
	var books []pg.NodeID
	for i := 0; i < 4; i++ {
		b := g.AddNode("Book")
		g.SetNodeProp(b, "title", values.String(fmt.Sprintf("b%d", i)))
		books = append(books, b)
	}
	var authors []pg.NodeID
	for i := 0; i < 4; i++ {
		authors = append(authors, g.AddNode("Author"))
	}
	for _, b := range books {
		g.MustAddEdge(b, authors[0], "author")
	}
	p := g.AddNode("Publisher")
	for _, b := range books {
		g.MustAddEdge(p, b, "published")
	}
	// WS4: every author holds three favoriteBook edges (non-list field)
	// with consecutive edge ids, so the witnessing pairs of one source
	// fall into different shards under id-based edge sharding.
	for _, a := range authors {
		for i := 0; i < 3; i++ {
			g.MustAddEdge(a, books[i], "favoriteBook")
		}
	}
	// DS3: books 0 and 1 each gain three incoming @uniqueForTarget
	// "contains" edges from distinct series, again interleaved.
	var series []pg.NodeID
	for i := 0; i < 3; i++ {
		series = append(series, g.AddNode("BookSeries"))
	}
	for _, s := range series {
		g.MustAddEdge(s, books[0], "contains")
		g.MustAddEdge(s, books[1], "contains")
	}
	return g
}

// TestNaivePairScanSharding checks the naive pair-scan oracle against
// the indexed oracle and the element-sharded fused engine on a graph
// whose WS4 and DS3 witnesses are spread across edge ids: all three
// must report each over-full field or target exactly once.
func TestNaivePairScanSharding(t *testing.T) {
	s := build(t, bookSchema)
	g := pairScanGraph()

	naive := ValidateNaiveOracle(s, g, Options{})
	for _, other := range []struct {
		name string
		res  *Result
	}{
		{"indexed oracle", ValidateOracle(s, g, Options{})},
		{"sharded fused", Validate(s, g, Options{Workers: 4, ElementSharding: true})},
	} {
		if len(other.res.Violations) != len(naive.Violations) {
			t.Fatalf("%s: %d violations, naive: %d\n%s: %v\nnaive: %v", other.name,
				len(other.res.Violations), len(naive.Violations), other.name, other.res.Violations, naive.Violations)
		}
		for i := range naive.Violations {
			if other.res.Violations[i] != naive.Violations[i] {
				t.Errorf("%s: violation %d differs:\n%s: %v\nnaive: %v",
					other.name, i, other.name, other.res.Violations[i], naive.Violations[i])
			}
		}
	}
	nn := naive.ByRule()
	if len(nn[WS4]) != 4 {
		t.Errorf("expected one WS4 violation per author, got %d: %v", len(nn[WS4]), nn[WS4])
	}
	if len(nn[DS3]) != 2 {
		t.Errorf("expected one DS3 violation per over-contained book, got %d: %v", len(nn[DS3]), nn[DS3])
	}
}

// TestParallelRuleTimings covers CollectTimings on parallel runs: every
// requested rule gets a RuleTime entry whether the tasks are whole
// passes or range chunks.
func TestParallelRuleTimings(t *testing.T) {
	s := build(t, bookSchema)
	g := pairScanGraph()
	for _, sharding := range []bool{false, true} {
		res := Validate(s, g, Options{Workers: 4, ElementSharding: sharding, CollectTimings: true})
		if res.RuleTime == nil {
			t.Fatalf("sharding=%v: RuleTime is nil with CollectTimings set", sharding)
		}
		if len(res.RuleTime) != len(AllRules) {
			t.Errorf("sharding=%v: timings for %d rules, want %d: %v",
				sharding, len(res.RuleTime), len(AllRules), res.RuleTime)
		}
		var total time.Duration
		for _, d := range res.RuleTime {
			if d < 0 {
				t.Errorf("sharding=%v: negative duration in %v", sharding, res.RuleTime)
			}
			total += d
		}
		if total <= 0 {
			t.Errorf("sharding=%v: all rule durations are zero", sharding)
		}
	}
}

// TestTruncatedExactSequential pins the repaired Truncated contract: in
// sequential mode the flag is true iff violations beyond the cap exist —
// including when the cap fills exactly at a rule boundary and only a
// later rule holds the overflow.
func TestTruncatedExactSequential(t *testing.T) {
	s := build(t, sessionSchema)
	g := sessionGraph()
	u := g.NodesLabeled("User")[0]
	g.DeleteNodeProp(u, "login") // one DS5 violation
	g.AddNode("Ghost")           // one SS1 violation, checked after DS5

	full := Validate(s, g, Options{})
	if len(full.Violations) != 2 || full.Truncated {
		t.Fatalf("setup: want exactly 2 violations untruncated, got %v (truncated=%v)",
			full.Violations, full.Truncated)
	}

	// Cap fills at the DS5/SS1 rule boundary; the SS1 violation must
	// still flip Truncated.
	capped := Validate(s, g, Options{MaxViolations: 1})
	if len(capped.Violations) != 1 || !capped.Truncated {
		t.Errorf("max=1: got %d violations, truncated=%v; want 1, true",
			len(capped.Violations), capped.Truncated)
	}

	// Cap equal to the exact violation count must not report truncation.
	exact := Validate(s, g, Options{MaxViolations: 2})
	if len(exact.Violations) != 2 || exact.Truncated {
		t.Errorf("max=2: got %d violations, truncated=%v; want 2, false",
			len(exact.Violations), exact.Truncated)
	}
}
