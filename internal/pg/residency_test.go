package pg_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"pgschema/internal/parser"
	"pgschema/internal/pg"
	"pgschema/internal/query"
	"pgschema/internal/schema"
	"pgschema/internal/validate"
	"pgschema/internal/values"
)

const residencySDL = `
type City @key(fields: ["name"]) {
	name: String! @required
	pop: Int
	twin: [City] @distinct @noLoops
}`

// residencyCSV is a chain of keyed cities with two properties each.
func residencyCSV(n int) (nodes, edges string) {
	var nb, eb strings.Builder
	nb.WriteString("id,label,name,pop\n")
	eb.WriteString("source,target,label\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&nb, "c%d,City,city-%d,%d\n", i, i, i)
		if i > 0 {
			fmt.Fprintf(&eb, "c%d,c%d,twin\n", i, i-1)
		}
	}
	return nb.String(), eb.String()
}

// allocated returns the bytes the process allocated while fn ran.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestColdResidency pins the loaded-graph policy: a graph streamed from
// CSV or opened from a .pgsnap file is its snapshot, and only reads it.
// Full validation, revalidation, a compiled query, Labels and
// NodesLabeled leave the graph answering from the very snapshot it was
// loaded as. A write costs the delta, not a second copy of the graph:
// the first Apply allocates no more than the second (+1/8 slack).
func TestColdResidency(t *testing.T) {
	doc, err := parser.Parse(residencySDL)
	if err != nil {
		t.Fatal(err)
	}
	s, err := schema.Build(doc, schema.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.Parse(`{ city(name: "city-3") { name pop twin { name } } }`)
	if err != nil {
		t.Fatal(err)
	}
	plan := query.Compile(s, q)
	nodes, edges := residencyCSV(4000)
	stream := func(t *testing.T) *pg.Graph {
		g, err := pg.ReadCSVStream(strings.NewReader(nodes), strings.NewReader(edges))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	path := filepath.Join(t.TempDir(), "g.pgsnap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pg.WriteSnapshot(f, stream(t).Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	mapped := func(t *testing.T) *pg.Graph {
		g, err := pg.OpenSnapshot(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { g.Close() })
		return g
	}

	for _, load := range []struct {
		name string
		open func(*testing.T) *pg.Graph
	}{{"stream", stream}, {"mapped", mapped}} {
		t.Run(load.name, func(t *testing.T) {
			ctx := context.Background()
			g := load.open(t)
			loaded, epoch := g.Snapshot(), g.Epoch()
			same := func(step string) {
				t.Helper()
				if g.Snapshot() != loaded || g.Epoch() != epoch {
					t.Fatalf("%s moved the loaded graph off its snapshot", step)
				}
			}
			opts := validate.Options{Program: validate.Compile(s)}
			res := validate.Validate(s, g, opts)
			if !res.OK() {
				t.Fatalf("seed graph invalid: %v", res.Violations)
			}
			same("Validate")
			if re := validate.Revalidate(ctx, s, g, res, validate.Delta{Nodes: []pg.NodeID{0, 3}}, opts); !re.OK() {
				t.Fatalf("revalidation: %v", re.Violations)
			}
			same("Revalidate")
			data, err := plan.Execute(ctx, g, "")
			if err != nil || data["city"] == nil {
				t.Fatalf("query: %v, %v", data, err)
			}
			same("a compiled query")
			if got := g.Labels(); len(got) != 1 || got[0] != "City" {
				t.Fatalf("Labels = %v", got)
			}
			same("Labels")
			if got := len(g.NodesLabeled("City")); got != 4000 {
				t.Fatalf("NodesLabeled: %d nodes", got)
			}
			same("NodesLabeled")

			setPop := func(v pg.NodeID) func() {
				return func() {
					if _, err := g.Apply(pg.Delta{SetNodeProps: []pg.NodePropSpec{{Node: v, Name: "pop", Value: values.Int(-1)}}}); err != nil {
						t.Fatal(err)
					}
				}
			}
			first := allocated(setPop(5))
			second := allocated(setPop(7))
			t.Logf("first Apply %d bytes, second Apply %d", first, second)
			if slack := second / 8; first > second+slack {
				t.Fatalf("first Apply allocated %d bytes, want at most the second's %d (+%d slack)", first, second, slack)
			}
		})
	}
}
