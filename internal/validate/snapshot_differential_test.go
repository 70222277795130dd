package validate_test

// The snapshot differential proves the mapped-snapshot claim the
// .pgsnap format rests on: validating a graph served from a memory-
// mapped snapshot file emits the byte-identical canonically-sorted
// violation set as validating the heap-resident original — across
// worker counts, satisfaction modes and the rule-by-rule oracles. The
// fused configurations bind straight to the mapped columns (the cold
// path); the oracles read the row store and so force store inflation;
// both routes must agree with the heap baseline.

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"pgschema/internal/gen"
	"pgschema/internal/pg"
	"pgschema/internal/validate"
)

// mapGraph round-trips g through the .pgsnap format and returns the
// memory-mapped reopening.
func mapGraph(t *testing.T, g *pg.Graph) *pg.Graph {
	t.Helper()
	path := filepath.Join(t.TempDir(), "diff.pgsnap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pg.WriteSnapshot(f, g.Snapshot()); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	mg, err := pg.OpenSnapshot(path, pg.Verify())
	if err != nil {
		t.Fatalf("OpenSnapshot: %v", err)
	}
	t.Cleanup(func() { mg.Close() })
	return mg
}

// assertMappedEquivalence validates the heap graph and its mapped
// round-trip under every engine configuration and mode, requiring
// identical violation sets. A fresh mapped graph is opened per
// configuration so each one starts cold (no configuration inherits an
// inflated store from a previous one).
func assertMappedEquivalence(t *testing.T, src string, g *pg.Graph, label string) {
	t.Helper()
	s := buildDiff(t, src)
	prog := validate.Compile(s)
	for _, m := range diffModes {
		for _, cfg := range engineConfigs {
			opts := validate.Options{Mode: m.mode}
			cfg.set(&opts)
			if cfg.compiled {
				opts.Program = prog
			}
			want := renderViolations(cfg.validate(s, g, opts))
			mg := mapGraph(t, g)
			got := renderViolations(cfg.validate(s, mg, opts))
			if got != want {
				t.Errorf("%s: mode %s, engine %s: mapped snapshot diverges from heap:\n--- heap ---\n%s--- mapped ---\n%s",
					label, m.name, cfg.name, want, got)
			}
		}
	}
}

func TestMappedSnapshotDifferential(t *testing.T) {
	s := buildDiff(t, diffSchema)
	for seed := int64(0); seed < 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			base, err := gen.Conformant(s, gen.Config{Seed: seed, NodesPerType: 8})
			if err != nil {
				t.Fatalf("conformant: %v", err)
			}
			assertMappedEquivalence(t, diffSchema, base, "clean graph")
			for _, rule := range validate.AllRules {
				g := base.Clone()
				desc, err := gen.Inject(s, g, rule, seed)
				if err != nil {
					t.Fatalf("inject %s: %v", rule, err)
				}
				assertMappedEquivalence(t, diffSchema, g, fmt.Sprintf("inject %s (%s)", rule, desc))
			}
		})
	}
}

// TestMappedSnapshotRevalidate checks the mutate-then-revalidate path
// on a mapped graph: Apply inflates the store copy-on-write, the
// patched snapshot stays record-backed, and incremental revalidation
// over it matches a full run.
func TestMappedSnapshotRevalidate(t *testing.T) {
	s := buildDiff(t, diffSchema)
	base, err := gen.Conformant(s, gen.Config{Seed: 1, NodesPerType: 8})
	if err != nil {
		t.Fatalf("conformant: %v", err)
	}
	mg := mapGraph(t, base)
	prog := validate.Compile(s)
	opts := validate.Options{Program: prog}
	prev := validate.Validate(s, mg, opts)

	u, err := mg.Apply(pg.Delta{
		AddNodes: []pg.AddNodeSpec{{Label: "Author"}}, // misses @required name
	})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	inc := renderViolations(validate.RevalidateWithOptions(s, mg, prev, validate.DeltaFor(u.Touched()), opts))
	full := renderViolations(validate.Validate(s, mg, opts))
	if inc != full {
		t.Errorf("incremental revalidation on a mapped graph diverges:\n--- full ---\n%s--- incremental ---\n%s", full, inc)
	}
	if inc == "" {
		t.Errorf("expected at least the @required violation for the new Author")
	}
}
