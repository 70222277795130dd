package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pgschema/internal/query"
)

const testSchema = `
type User @key(fields: ["id"]) {
	id: ID! @required
	login: String! @required
	follows: [User] @distinct @noLoops
}`

const testGraph = `{
  "nodes": [
    {"id": "a", "label": "User", "properties": {"id": "u1", "login": "ada"}},
    {"id": "b", "label": "User", "properties": {"id": "u2", "login": "bob"}}
  ],
  "edges": [
    {"source": "a", "target": "b", "label": "follows"}
  ]
}`

const badGraph = `{
  "nodes": [
    {"id": "a", "label": "User", "properties": {"id": "u1"}},
    {"id": "b", "label": "Ghost"}
  ],
  "edges": []
}`

const testCNF = "p cnf 2 2\n1 -2 0\n2 0\n"

// write drops a file into dir and returns its path.
func write(t *testing.T, dir, name, content string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// capture runs fn with os.Stdout redirected and returns what it printed.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := fn()
	w.Close()
	os.Stdout = old
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		t.Fatal(err)
	}
	return buf.String(), runErr
}

func TestCmdFmt(t *testing.T) {
	dir := t.TempDir()
	schema := write(t, dir, "s.graphql", testSchema)
	out, err := capture(t, func() error { return cmdFmt([]string{schema}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "type User") || !strings.Contains(out, `@key(fields: ["id"])`) {
		t.Errorf("fmt output:\n%s", out)
	}
}

func TestCmdCheck(t *testing.T) {
	dir := t.TempDir()
	schema := write(t, dir, "s.graphql", testSchema)
	out, err := capture(t, func() error { return cmdCheck([]string{schema}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "consistent") {
		t.Errorf("check output: %s", out)
	}
	// Inconsistent schema: missing interface field.
	bad := write(t, dir, "bad.graphql", `
		interface I { f: Int }
		type T implements I { g: Int }`)
	if _, err := capture(t, func() error { return cmdCheck([]string{bad}) }); err == nil {
		t.Error("inconsistent schema accepted")
	}
}

func TestCmdValidate(t *testing.T) {
	dir := t.TempDir()
	schema := write(t, dir, "s.graphql", testSchema)
	good := write(t, dir, "good.json", testGraph)
	bad := write(t, dir, "bad.json", badGraph)

	out, err := capture(t, func() error { return cmdValidate([]string{schema, good}) })
	if err != nil {
		t.Fatalf("valid graph rejected: %v\n%s", err, out)
	}
	if !strings.Contains(out, "satisfies") {
		t.Errorf("validate output: %s", out)
	}

	out, err = capture(t, func() error { return cmdValidate([]string{schema, bad}) })
	if err == nil {
		t.Fatal("invalid graph accepted")
	}
	if !strings.Contains(out, "SS1") || !strings.Contains(out, "DS5") {
		t.Errorf("expected SS1 and DS5 violations, got:\n%s", out)
	}

	// A CSV pair ("nodes.csv,edges.csv") loads through the same argument.
	nodesCSV := write(t, dir, "nodes.csv", "id,label,id,login\na,User,u1,ada\nb,User,u2,bob\n")
	edgesCSV := write(t, dir, "edges.csv", "source,target,label\na,b,follows\n")
	out, err = capture(t, func() error {
		return cmdValidate([]string{schema, nodesCSV + "," + edgesCSV})
	})
	if err != nil {
		t.Fatalf("CSV graph rejected: %v\n%s", err, out)
	}
	if !strings.Contains(out, "2 nodes, 1 edges") {
		t.Errorf("CSV validate output: %s", out)
	}

	// Both ingest paths accept the pair and agree; a bogus path errors.
	for _, ingest := range []string{"stream", "two-phase"} {
		out, err = capture(t, func() error {
			return cmdValidate([]string{"-ingest", ingest, schema, nodesCSV + "," + edgesCSV})
		})
		if err != nil || !strings.Contains(out, "satisfies") {
			t.Errorf("-ingest %s: err %v, output: %s", ingest, err, out)
		}
	}
	if _, err := capture(t, func() error {
		return cmdValidate([]string{"-ingest", "warp", schema, nodesCSV + "," + edgesCSV})
	}); err == nil {
		t.Error("unknown -ingest path accepted")
	}

	// Weak mode tolerates the unjustified node.
	weakOnly := write(t, dir, "weak.json", `{"nodes":[{"id":"x","label":"Ghost"}],"edges":[]}`)
	if _, err := capture(t, func() error {
		return cmdValidate([]string{"-mode", "weak", schema, weakOnly})
	}); err != nil {
		t.Errorf("weak mode: %v", err)
	}

	// Violation cap.
	out, _ = capture(t, func() error { return cmdValidate([]string{"-max", "1", schema, bad}) })
	if got := strings.Count(out, "\n"); got > 1 {
		t.Errorf("expected one violation line, got:\n%s", out)
	}
}

func TestCmdGenerateAndStats(t *testing.T) {
	dir := t.TempDir()
	schema := write(t, dir, "s.graphql", testSchema)
	out, err := capture(t, func() error { return cmdGenerate([]string{"-nodes", "5", schema}) })
	if err != nil {
		t.Fatal(err)
	}
	graph := write(t, dir, "g.json", out)

	// The generated graph must validate.
	if _, err := capture(t, func() error { return cmdValidate([]string{schema, graph}) }); err != nil {
		t.Fatalf("generated graph invalid: %v", err)
	}

	statsOut, err := capture(t, func() error { return cmdStats([]string{graph}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(statsOut, "nodes: 5") {
		t.Errorf("stats output:\n%s", statsOut)
	}
}

func TestCmdReduce(t *testing.T) {
	dir := t.TempDir()
	cnfFile := write(t, dir, "f.cnf", testCNF)
	out, err := capture(t, func() error { return cmdReduce([]string{cnfFile}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"type OT", "interface C1", "interface C2", "@requiredForTarget"} {
		if !strings.Contains(out, want) {
			t.Errorf("reduce output missing %q:\n%s", want, out)
		}
	}
	// The emitted SDL must itself pass `check` (round trip).
	sdl := write(t, dir, "reduced.graphql", out)
	if _, err := capture(t, func() error { return cmdCheck([]string{sdl}) }); err != nil {
		t.Errorf("reduced schema inconsistent: %v", err)
	}
}

func TestCmdSat(t *testing.T) {
	dir := t.TempDir()
	schema := write(t, dir, "s.graphql", testSchema)
	out, err := capture(t, func() error { return cmdSat([]string{schema, "User"}) })
	if err != nil {
		t.Fatalf("User should be satisfiable: %v", err)
	}
	if !strings.Contains(out, "satisfiable") {
		t.Errorf("sat output: %s", out)
	}
	// Witness file.
	witness := filepath.Join(dir, "w.json")
	if _, err := capture(t, func() error { return cmdSat([]string{"-witness", witness, schema, "User"}) }); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(witness); err != nil {
		t.Errorf("witness not written: %v", err)
	}
	// An unsatisfiable type exits with an error.
	unsat := write(t, dir, "unsat.graphql", `
		interface IT { f: [OT1] @uniqueForTarget }
		type OT2 implements IT { f: [OT1] @required }
		type OT3 implements IT { f: [OT1] @requiredForTarget }
		type OT1 { }`)
	if _, err := capture(t, func() error { return cmdSat([]string{unsat, "OT2"}) }); err == nil {
		t.Error("unsatisfiable type did not error")
	}
}

func TestCmdErrors(t *testing.T) {
	if err := cmdFmt([]string{"/nonexistent/file.graphql"}); err == nil {
		t.Error("missing file accepted")
	}
	if err := cmdValidate([]string{"one-arg-only"}); err == nil {
		t.Error("wrong arity accepted")
	}
	dir := t.TempDir()
	schema := write(t, dir, "s.graphql", testSchema)
	graph := write(t, dir, "g.json", testGraph)
	if err := cmdValidate([]string{"-mode", "bogus", schema, graph}); err == nil {
		t.Error("bogus mode accepted")
	}
}

func TestCmdExport(t *testing.T) {
	dir := t.TempDir()
	schema := write(t, dir, "s.graphql", testSchema)
	out, err := capture(t, func() error { return cmdExport([]string{schema}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "CREATE CONSTRAINT ON (n:User) ASSERT n.id IS UNIQUE;") {
		t.Errorf("cypher export:\n%s", out)
	}
	out, err = capture(t, func() error { return cmdExport([]string{"-format", "gsql", "-graph", "g1", schema}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "CREATE GRAPH g1 (") {
		t.Errorf("gsql export:\n%s", out)
	}
	if err := cmdExport([]string{"-format", "bogus", schema}); err == nil {
		t.Error("bogus format accepted")
	}
}

func TestCmdQuery(t *testing.T) {
	dir := t.TempDir()
	schema := write(t, dir, "s.graphql", testSchema)
	graph := write(t, dir, "g.json", testGraph)
	out, err := capture(t, func() error {
		return cmdQuery([]string{schema, graph, `{ user(id: "u1") { login follows { login } } }`})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `"login": "ada"`) || !strings.Contains(out, `"login": "bob"`) {
		t.Errorf("query output:\n%s", out)
	}
	// From a file, with an operation name.
	qf := write(t, dir, "q.graphql", `query A { allUsers { id } } query B { user(id: "u2") { login } }`)
	out, err = capture(t, func() error { return cmdQuery([]string{"-op", "B", schema, graph, "@" + qf}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `"login": "bob"`) {
		t.Errorf("operation B output:\n%s", out)
	}
	// A bad query errors.
	if _, err := capture(t, func() error {
		return cmdQuery([]string{schema, graph, `{ nope { x } }`})
	}); err == nil {
		t.Error("bad query accepted")
	}
}

// TestCmdQueryMatchesInterpretive pins the query verb, which runs the
// compiled engine, to the interpretive executor: a key lookup, a miss,
// a scan and an erroring query print (or fail with) exactly what the
// interpretive path produces.
func TestCmdQueryMatchesInterpretive(t *testing.T) {
	dir := t.TempDir()
	schemaPath := write(t, dir, "s.graphql", testSchema)
	graphPath := write(t, dir, "g.json", testGraph)
	s, err := loadSchema(schemaPath)
	if err != nil {
		t.Fatal(err)
	}
	g, err := loadGraph(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		src  string
		fail bool
	}{
		{`{ user(id: "u2") { login follows { login } } }`, false},
		{`{ user(id: "u9") { login } }`, false},
		{`{ allUsers { __typename id login follows { id } } }`, false},
		{`{ allUsers { id bogus } }`, true},
	} {
		src := tc.src
		doc, err := query.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := query.Execute(s, g, doc, "")
		if (wantErr != nil) != tc.fail {
			t.Fatalf("%s: interpretive error %v, want failure %v", src, wantErr, tc.fail)
		}
		got, gotErr := capture(t, func() error { return cmdQuery([]string{schemaPath, graphPath, src}) })
		if wantErr != nil {
			if gotErr == nil || gotErr.Error() != wantErr.Error() {
				t.Errorf("%s: error %v, want %v", src, gotErr, wantErr)
			}
			continue
		}
		if gotErr != nil {
			t.Fatalf("%s: %v", src, gotErr)
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(want); err != nil {
			t.Fatal(err)
		}
		if got != buf.String() {
			t.Errorf("%s: printed\n%s\nwant\n%s", src, got, buf.String())
		}
	}
}
