// Graphqlapi completes the paper's §3.6 outlook end to end: a Property
// Graph schema is extended into a GraphQL API schema, a conformant graph
// is generated, and GraphQL queries are executed directly against the
// graph — including the bidirectional traversal the paper notes plain
// PG schemas cannot offer. It then stands up the full HTTP service and
// drives the validation endpoints: a full run via POST /validate, an
// incremental run via POST /revalidate after a mutation, and the
// operational counters via GET /metrics.
//
// Run with: go run ./examples/graphqlapi
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"

	"pgschema"
)

const sdl = `
type Band @key(fields: ["name"]) {
	name: String! @required
	member(role: String, since: Int): [Musician] @distinct
}
type Musician @key(fields: ["name"]) {
	name: String! @required
	plays: [Instrument] @distinct
}
type Instrument @key(fields: ["label"]) {
	label: String! @required
}`

func main() {
	s, err := pgschema.ParseSchema(sdl)
	if err != nil {
		log.Fatal(err)
	}

	// The generated API schema (printed for reference).
	api, err := pgschema.ExtendToAPISchema(s, pgschema.APIOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== API schema ===")
	fmt.Println(api)

	// A small music graph.
	g := pgschema.NewGraph()
	band := g.AddNode("Band")
	g.SetNodeProp(band, "name", pgschema.String("The Schemas"))
	node := func(label, key, name string) pgschema.NodeID {
		n := g.AddNode(label)
		g.SetNodeProp(n, key, pgschema.String(name))
		return n
	}
	ada := node("Musician", "name", "Ada")
	bob := node("Musician", "name", "Bob")
	cleo := node("Musician", "name", "Cleo")
	bass := node("Instrument", "label", "bass")
	drums := node("Instrument", "label", "drums")
	keys := node("Instrument", "label", "keys")

	addMember := func(m pgschema.NodeID, role string, since int64) {
		e := g.MustAddEdge(band, m, "member")
		g.SetEdgeProp(e, "role", pgschema.String(role))
		g.SetEdgeProp(e, "since", pgschema.Int(since))
	}
	addMember(ada, "lead", 2019)
	addMember(bob, "rhythm", 2021)
	addMember(cleo, "lead", 2022)
	g.MustAddEdge(ada, bass, "plays")
	g.MustAddEdge(ada, keys, "plays")
	g.MustAddEdge(bob, drums, "plays")
	g.MustAddEdge(cleo, keys, "plays")

	if res := pgschema.ValidateGraphContext(context.Background(), s, g, pgschema.ValidateOptions{}); !res.OK() {
		log.Fatalf("graph invalid: %v", res.Violations)
	}

	queries := []struct{ title, q string }{
		{"keyed lookup with traversal", `{
			band(name: "The Schemas") {
				name
				member { name plays { label } }
			}
		}`},
		{"edge-property filter (§3.5 arguments as filters)", `{
			band(name: "The Schemas") {
				leads: member(role: "lead") { name }
				veterans: member(since: 2019) { name }
			}
		}`},
		{"bidirectional traversal (§3.6 inverse fields)", `{
			instrument(label: "keys") {
				label
				_playsOfMusician { name _memberOfBand { name } }
			}
		}`},
		{"listing with __typename", `{
			allInstruments { __typename label }
		}`},
	}
	for _, qc := range queries {
		doc, err := pgschema.ParseQuery(qc.q)
		if err != nil {
			log.Fatalf("%s: %v", qc.title, err)
		}
		out, err := pgschema.ExecuteQueryContext(context.Background(), s, g, doc, "")
		if err != nil {
			log.Fatalf("%s: %v", qc.title, err)
		}
		blob, _ := json.MarshalIndent(out, "", "  ")
		fmt.Printf("=== %s ===\n%s\n\n", qc.title, blob)
	}

	// The same schema and graph as an HTTP validation service.
	handler, err := pgschema.NewHTTPHandler(s, g, pgschema.ServerConfig{})
	if err != nil {
		log.Fatal(err)
	}
	srv := httptest.NewServer(handler)
	defer srv.Close()

	post := func(path, body string) string {
		res, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			log.Fatal(err)
		}
		defer res.Body.Close()
		blob, _ := io.ReadAll(res.Body)
		return strings.TrimSpace(string(blob))
	}

	fmt.Println("=== POST /validate (full strong run) ===")
	fmt.Println(post("/validate", `{"workers": 2}`))
	fmt.Println()

	// Mutate the graph — a member edge duplicating an existing one
	// violates @distinct (DS1) — and revalidate just the delta.
	dup := g.MustAddEdge(band, ada, "member")
	fmt.Println("=== POST /revalidate (after adding a duplicate member edge) ===")
	fmt.Println(post("/revalidate", fmt.Sprintf(`{"edges": [%d]}`, dup)))
	fmt.Println()

	fmt.Println("=== GET /metrics (validation series) ===")
	res, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	defer res.Body.Close()
	blob, _ := io.ReadAll(res.Body)
	for _, line := range strings.Split(string(blob), "\n") {
		if strings.HasPrefix(line, "pgschema_validation_") {
			fmt.Println(line)
		}
	}
}
