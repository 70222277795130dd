package validate

// Tests pinning the MaxViolations cap contract across the engine's
// configurations and the rule-by-rule oracle. Parallel runs buffer
// violations per chunk and merge once; a merge that drops buffered
// violations must flip Truncated, so a *completed* chunk never
// under-reports truncation. (Chunks never started once the cap is
// reached remain the documented weakness: Truncated may be false even
// though further violations exist, but true is always trustworthy.)

import (
	"testing"

	"pgschema/internal/pg"
	"pgschema/internal/schema"
)

// capConfigs is every configuration whose cap semantics the tests below
// pin. The naive pair scans share the oracle's collector path, so the
// oracle entry covers them.
var capConfigs = []struct {
	name string
	run  func(*schema.Schema, *pg.Graph, Options) *Result
	set  func(*Options)
}{
	{"oracle/rule-by-rule", ValidateOracle, func(o *Options) {}},
	{"seq/fused", Validate, func(o *Options) {}},
	{"par4/fused", Validate, func(o *Options) { o.Workers = 4 }},
	{"par4+sharding/fused", Validate, func(o *Options) {
		o.Workers = 4
		o.ElementSharding = true
	}},
}

// TestTruncatedSingleTaskOverflow drops two required properties of one
// node, so a single chunk — any configuration, any sharding — carries
// both DS5 violations. With MaxViolations = 1 the chunk's merge must drop one of
// them and flip Truncated; this is deterministic because the overflow
// happens inside one completed task, never across the task skip.
func TestTruncatedSingleTaskOverflow(t *testing.T) {
	s := build(t, sessionSchema)
	g := sessionGraph()
	u := g.NodesLabeled("User")[0]
	g.DeleteNodeProp(u, "id")
	g.DeleteNodeProp(u, "login")

	full := Validate(s, g, Options{})
	if len(full.Violations) != 2 || full.Truncated {
		t.Fatalf("setup: want exactly 2 violations untruncated, got %v (truncated=%v)",
			full.Violations, full.Truncated)
	}
	for _, cfg := range capConfigs {
		opts := Options{MaxViolations: 1}
		cfg.set(&opts)
		res := cfg.run(s, g, opts)
		if len(res.Violations) != 1 || !res.Truncated {
			t.Errorf("%s: max=1: got %d violations, truncated=%v; want 1, true",
				cfg.name, len(res.Violations), res.Truncated)
		}
	}
}

// TestTruncatedExactCapAllEngines sets the cap to the exact violation
// count: no configuration may report truncation. This is deterministic even in
// parallel — the collector only becomes full once every violation has
// been collected, so no violation-carrying task can be skipped.
func TestTruncatedExactCapAllEngines(t *testing.T) {
	s := build(t, sessionSchema)
	g := sessionGraph()
	u := g.NodesLabeled("User")[0]
	g.DeleteNodeProp(u, "id")
	g.DeleteNodeProp(u, "login")

	for _, cfg := range capConfigs {
		opts := Options{MaxViolations: 2}
		cfg.set(&opts)
		res := cfg.run(s, g, opts)
		if len(res.Violations) != 2 || res.Truncated {
			t.Errorf("%s: max=2: got %d violations, truncated=%v; want 2, false",
				cfg.name, len(res.Violations), res.Truncated)
		}
	}
}

// TestTruncatedFusedPassBoundary pins the sequential fused engine's
// exactness across pass boundaries: the cap fills in the node pass (DS5)
// while the only other violation lives in the edge pass (SS4), so the
// engine must notice the overflow when the edge pass's emit is rejected.
func TestTruncatedFusedPassBoundary(t *testing.T) {
	s := build(t, sessionSchema)
	g := sessionGraph()
	u := g.NodesLabeled("User")[0]
	sess := g.NodesLabeled("UserSession")[0]
	g.DeleteNodeProp(u, "login")    // one DS5 violation (node pass)
	g.MustAddEdge(u, sess, "knows") // one SS4 violation (edge pass)

	full := Validate(s, g, Options{})
	if len(full.Violations) != 2 || full.Truncated {
		t.Fatalf("setup: want exactly 2 violations untruncated, got %v (truncated=%v)",
			full.Violations, full.Truncated)
	}
	capped := Validate(s, g, Options{MaxViolations: 1})
	if len(capped.Violations) != 1 || !capped.Truncated {
		t.Errorf("max=1: got %d violations, truncated=%v; want 1, true",
			len(capped.Violations), capped.Truncated)
	}
	exact := Validate(s, g, Options{MaxViolations: 2})
	if len(exact.Violations) != 2 || exact.Truncated {
		t.Errorf("max=2: got %d violations, truncated=%v; want 2, false",
			len(exact.Violations), exact.Truncated)
	}
}
