package server

import (
	"bytes"
	"fmt"
	"net/http"
	"testing"

	"pgschema/internal/parser"
	"pgschema/internal/pg"
	"pgschema/internal/schema"
	"pgschema/internal/values"
)

// fuzzApplySDL keys an object type and an interface over two object
// types, so applies patch a one-label and a two-label key index.
const fuzzApplySDL = `
interface Place @key(fields: ["name"]) {
	name: String
}
type City implements Place @key(fields: ["name"]) {
	name: String! @required
	pop: Int
	twin: [City] @distinct @noLoops
}
type Town implements Place {
	name: String! @required
}`

// newFuzzApplyHandler hosts a small keyed tenant as the default: Cities
// and Towns with some shared names (key conflicts in both indexes) and
// twin edges, large enough that a small apply patches the snapshot
// instead of rebuilding it.
func newFuzzApplyHandler(t testing.TB) *Handler {
	t.Helper()
	doc, err := parser.Parse(fuzzApplySDL)
	if err != nil {
		t.Fatal(err)
	}
	s, err := schema.Build(doc, schema.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := pg.New()
	for i := 0; i < 48; i++ {
		c := g.AddNode("City")
		g.SetNodeProp(c, "name", values.String(fmt.Sprintf("c%d", i%40)))
		g.SetNodeProp(c, "pop", values.Int(int64(i)))
		if i > 0 {
			g.MustAddEdge(c, c-1, "twin")
		}
	}
	for i := 0; i < 16; i++ {
		tw := g.AddNode("Town")
		g.SetNodeProp(tw, "name", values.String(fmt.Sprintf("c%d", 30+i)))
	}
	h, err := NewRegistry(RegistryConfig{Seeds: []TenantSeed{{Name: DefaultTenant, Schema: s, Graph: g}}})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// FuzzApplyBody posts arbitrary bytes to /graph/apply on a tenant whose
// key indexes and label lists a full validation and a key lookup have
// built. No body may panic the handler or earn a 5xx. A rejected apply
// leaves the epoch and the snapshot bytes as they were; after any apply
// that changed the graph — committed, or rolled back by requireValid —
// every index the tenant's snapshot carries equals a fresh build's.
func FuzzApplyBody(f *testing.F) {
	for _, body := range []string{
		`{"addNodes": [{"label": "City", "props": {"name": "c1"}}], "addEdges": [{"src": -1, "dst": 0, "label": "twin"}]}`,
		`{"addNodes": [{"label": "Town", "props": {"name": "new"}}], "revalidate": true}`,
		`{"relabelNodes": [{"node": 1, "label": "Town"}], "revalidate": true}`,
		`{"setNodeProps": [{"node": 0, "name": "name", "value": "c40"}], "requireValid": true}`,
		`{"setNodeProps": [{"node": 40, "name": "name", "value": "solo"}], "revalidate": true}`,
		`{"setNodeProps": [{"node": 2, "name": "pop", "value": 7}]}`,
		`{"delNodeProps": [{"node": 3, "name": "name"}], "revalidate": true}`,
		`{"removeNodes": [0, 48], "revalidate": true}`,
		`{"removeEdges": [0], "addNodes": [{"label": "Ghost"}]}`,
		`{"addNodes": [{"label": "City"}], "relabelNodes": [{"node": -1, "label": "Town"}], "requireValid": true}`,
		`{"removeNodes": [999]}`,
		`{"apiVersion": "v2", "removeNodes": [1]}`,
		`{}`,
		`[`,
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		h := newFuzzApplyHandler(t)
		mux := h.Mux()
		if rec := doRaw(t, mux, "POST", "/validate", ""); rec.Code != http.StatusOK {
			t.Fatalf("validate: %d %s", rec.Code, rec.Body.String())
		}
		if rec := doRaw(t, mux, "POST", "/graphql", `{"query": "{ city(name: \"c1\") { name } }"}`); rec.Code != http.StatusOK {
			t.Fatalf("lookup: %d %s", rec.Code, rec.Body.String())
		}
		g := h.reg.get(DefaultTenant).g
		epoch, image := g.Epoch(), snapshotImage(t, g)

		rec := doRaw(t, mux, "POST", "/graph/apply", body)
		if rec.Code >= 500 {
			t.Fatalf("apply %q: %d %s", body, rec.Code, rec.Body.String())
		}
		if rec.Code != http.StatusOK && rec.Code != http.StatusConflict {
			if g.Epoch() != epoch || !bytes.Equal(snapshotImage(t, g), image) {
				t.Fatalf("rejected apply %q (%d) changed the graph", body, rec.Code)
			}
			return
		}
		if err := g.VerifyIndexes(); err != nil {
			t.Fatalf("apply %q (%d): %v", body, rec.Code, err)
		}
	})
}

// newFuzzRevalidateHandler hosts the keyed schema of FuzzApplyBody over
// a CSV-loaded default tenant: Cities and Towns with some shared names
// and a chain of twin edges, one self-loop among them (a planted
// violation, so revalidation has something to splice).
func newFuzzRevalidateHandler(t testing.TB) (*Handler, *pg.Graph) {
	t.Helper()
	doc, err := parser.Parse(fuzzApplySDL)
	if err != nil {
		t.Fatal(err)
	}
	s, err := schema.Build(doc, schema.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var nodes, edges bytes.Buffer
	nodes.WriteString("id,label,name,pop\n")
	edges.WriteString("source,target,label\n")
	for i := 0; i < 48; i++ {
		fmt.Fprintf(&nodes, "c%d,City,c%d,%d\n", i, i%40, i)
		if i > 0 {
			fmt.Fprintf(&edges, "c%d,c%d,twin\n", i, i-1)
		}
	}
	for i := 0; i < 16; i++ {
		fmt.Fprintf(&nodes, "t%d,Town,c%d,\n", i, 30+i)
	}
	edges.WriteString("c5,c5,twin\n")
	g, err := pg.ReadCSVStream(&nodes, &edges)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewRegistry(RegistryConfig{Seeds: []TenantSeed{{Name: DefaultTenant, Schema: s, Graph: g}}})
	if err != nil {
		t.Fatal(err)
	}
	return h, g
}

// FuzzRevalidateBody posts arbitrary bytes to /revalidate on a
// CSV-loaded keyed tenant a full strong validation has seeded. No body
// may panic the handler or earn a 5xx, and revalidation only reads: the
// tenant's graph keeps its epoch and the very snapshot it answered from.
func FuzzRevalidateBody(f *testing.F) {
	for _, body := range []string{
		`{"nodes": [0, 1]}`,
		`{"nodes": [5], "edges": [47]}`,
		`{"nodes": [48, 63], "labels": ["Town", "Place"]}`,
		`{"edges": [0, 1, 2], "labels": ["City"]}`,
		`{"labels": ["Ghost", ""]}`,
		`{"nodes": [-1]}`,
		`{"nodes": [9223372036854775807]}`,
		`{"edges": [999]}`,
		`{"apiVersion": "v2", "nodes": [0]}`,
		`{"nodes": "0"}`,
		`{}`,
		``,
		`[`,
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		h, g := newFuzzRevalidateHandler(t)
		mux := h.Mux()
		if rec := doRaw(t, mux, "POST", "/validate", ""); rec.Code != http.StatusOK {
			t.Fatalf("validate: %d %s", rec.Code, rec.Body.String())
		}
		snap, epoch := g.Snapshot(), g.Epoch()
		rec := doRaw(t, mux, "POST", "/revalidate", body)
		if rec.Code >= 500 {
			t.Fatalf("revalidate %q: %d %s", body, rec.Code, rec.Body.String())
		}
		if g.Snapshot() != snap || g.Epoch() != epoch {
			t.Fatalf("revalidate %q (%d) moved the tenant's graph off its snapshot", body, rec.Code)
		}
	})
}

// snapshotImage is the .pgsnap image of g's current snapshot.
func snapshotImage(t *testing.T, g *pg.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := pg.WriteSnapshot(&buf, g.Snapshot()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
