package pgschema_test

// api_test exercises every function of the public facade end to end.

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"pgschema"
)

const facadeSDL = `
type User @key(fields: ["id"]) {
	id: ID! @required
	login: String! @required
	follows(since: Int): [User] @distinct @noLoops
}`

func TestFacadeRoundTrip(t *testing.T) {
	// FormatSchema.
	formatted, err := pgschema.FormatSchema(facadeSDL)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(formatted, "type User") {
		t.Errorf("FormatSchema:\n%s", formatted)
	}

	// ParseSchema on the formatted output (round trip).
	s, err := pgschema.ParseSchema(formatted)
	if err != nil {
		t.Fatal(err)
	}

	// GenerateConformant + ValidateGraph.
	g, err := pgschema.GenerateConformant(s, pgschema.GenConfig{Seed: 1, NodesPerType: 8})
	if err != nil {
		t.Fatal(err)
	}
	res := pgschema.ValidateGraphContext(context.Background(), s, g, pgschema.ValidateOptions{})
	if !res.OK() {
		t.Fatalf("generated graph invalid: %v", res.Violations)
	}

	// JSON round trip through the facade readers.
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := pgschema.ReadGraphJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != g.NumNodes() {
		t.Errorf("JSON round trip: %d vs %d nodes", back.NumNodes(), g.NumNodes())
	}

	// CSV round trip.
	var nodes, edges bytes.Buffer
	if err := g.WriteCSV(&nodes, &edges); err != nil {
		t.Fatal(err)
	}
	back2, err := pgschema.ReadGraphCSV(&nodes, &edges)
	if err != nil {
		t.Fatal(err)
	}
	if back2.NumEdges() != g.NumEdges() {
		t.Errorf("CSV round trip: %d vs %d edges", back2.NumEdges(), g.NumEdges())
	}

	// Incremental revalidation.
	u := g.NodesLabeled("User")[0]
	g.SetNodeProp(u, "login", pgschema.Int(3)) // WS1
	res2 := pgschema.Revalidate(context.Background(), s, g, res, pgschema.Delta{Nodes: []pgschema.NodeID{u}}, pgschema.ValidateOptions{})
	if res2.OK() || res2.Violations[0].Rule != "WS1" {
		t.Errorf("Revalidate: %v", res2.Violations)
	}
	g.SetNodeProp(u, "login", pgschema.String("fixed"))
	res3 := pgschema.Revalidate(context.Background(), s, g, res2, pgschema.Delta{Nodes: []pgschema.NodeID{u}}, pgschema.ValidateOptions{})
	if !res3.OK() {
		t.Errorf("Revalidate after fix: %v", res3.Violations)
	}

	// Satisfiability.
	rep := pgschema.CheckType(s, "User", pgschema.SatOptions{})
	if rep.Verdict != pgschema.Satisfiable {
		t.Errorf("CheckType: %s", rep.Verdict)
	}
	repF := pgschema.CheckField(s, "User", "follows", pgschema.SatOptions{})
	if repF.Verdict != pgschema.Satisfiable {
		t.Errorf("CheckField: %s (%s)", repF.Verdict, repF.Detail)
	}

	// API extension + query execution.
	api, err := pgschema.ExtendToAPISchema(s, pgschema.APIOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(api, "allUsers") {
		t.Errorf("API schema:\n%s", api)
	}
	doc, err := pgschema.ParseQuery(`{ allUsers { __typename } }`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := pgschema.ExecuteQueryContext(context.Background(), s, g, doc, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(out["allUsers"].([]any)) != g.NumNodes() {
		t.Errorf("query result: %v", out)
	}
}

func TestFacadeValueConstructors(t *testing.T) {
	vals := []pgschema.Value{
		pgschema.Null, pgschema.Int(1), pgschema.Float(2.5), pgschema.String("s"),
		pgschema.Boolean(true), pgschema.ID("i"), pgschema.Enum("E"),
		pgschema.List(pgschema.Int(1)),
	}
	if !vals[0].IsNull() {
		t.Error("Null")
	}
	if vals[7].Len() != 1 {
		t.Error("List")
	}
}

func TestFacadeParseErrors(t *testing.T) {
	if _, err := pgschema.ParseSchema("type {"); err == nil {
		t.Error("bad SDL accepted")
	}
	if _, err := pgschema.FormatSchema("¤"); err == nil {
		t.Error("bad SDL formatted")
	}
	if _, err := pgschema.ParseSchemaWithOptions(`type T { f: Ghost }`, pgschema.BuildOptions{}); err == nil {
		t.Error("undeclared reference accepted")
	}
	if _, err := pgschema.ReadGraphJSON(strings.NewReader("nope")); err == nil {
		t.Error("bad graph JSON accepted")
	}
}

func TestFacadeHTTPHandler(t *testing.T) {
	s, err := pgschema.ParseSchema(facadeSDL)
	if err != nil {
		t.Fatal(err)
	}
	g, err := pgschema.GenerateConformant(s, pgschema.GenConfig{Seed: 1, NodesPerType: 4})
	if err != nil {
		t.Fatal(err)
	}
	h, err := pgschema.NewHTTPHandler(s, g, pgschema.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/validate", strings.NewReader("{}")))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"ok": true`) {
		t.Errorf("POST /validate: %d\n%s", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "pgschema_validation_runs_total 1") {
		t.Errorf("GET /metrics: %d\n%s", rec.Code, rec.Body.String())
	}
}
