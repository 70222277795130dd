package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"pgschema/internal/parser"
	"pgschema/internal/pg"
	"pgschema/internal/schema"
	"pgschema/internal/validate"
	"pgschema/internal/values"
)

// oracleJSON is encoding/json's rendering of v in writeJSON's layout:
// the bytes the fast writer must reproduce, and what writeJSON sends for
// every value that is not a jsonAppender.
func oracleJSON(v any) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return b.Bytes(), err
}

// checkSameJSON fails unless the fast writer renders v — without falling
// back to encoding/json — to the oracle's bytes, or fails with the
// oracle's error.
func checkSameJSON(t *testing.T, v jsonAppender) {
	t.Helper()
	want, wantErr := oracleJSON(v)
	w := new(jsonWriter)
	v.appendJSON(w)
	if w.err == errSlowPath {
		t.Fatalf("fast writer fell back to encoding/json on %#v", v)
	}
	got := append(w.buf, '\n')
	if (w.err == nil) != (wantErr == nil) || w.err != nil && w.err.Error() != wantErr.Error() {
		t.Fatalf("error %v, encoding/json error %v", w.err, wantErr)
	}
	if wantErr == nil && !bytes.Equal(got, want) {
		t.Fatalf("fast writer differs from encoding/json:\n got %q\nwant %q", got, want)
	}
}

// oddStrings exercise every escaping rule of encoding/json.
var oddStrings = []string{
	"", "plain", `quote " and \ backslash`, "<script>&amp;</script>",
	"\b\f\n\r\t\x00\x01\x1f\x7f", "invalid \xff\xfe utf-8 \xc3", "truncated \xe2\x80",
	"line\u2028para\u2029end", "Linköping 日本 🙂", "\ufffd literal",
}

var oddFloats = []float64{
	0, math.Copysign(0, -1), 1, -1.5, 1e-7, -1e-7, 1e-6, 123456789.125, 1e20,
	1e21, -1e21, 1.5e300, math.MaxFloat64, math.SmallestNonzeroFloat64, 2.2250738585072014e-308,
	float64(math.MaxInt64), 0.1, 1.0 / 3,
}

func fullValidationResponse() validationResponse {
	return validationResponse{
		APIVersion: apiVersion, OK: true, Mode: "weak", Nodes: 7, Edges: -3,
		Violations: violationList{
			{Rule: validate.DS7, Message: "dup <key> & \"name\"", Node: 3, Edge: -1, TypeName: "City", Field: "name", Property: "name"},
			{Rule: validate.WS1, Message: "bad\u2028label\xff", Node: -1, Edge: 9},
		},
		Truncated: true, Incomplete: true, Incremental: true, Engine: engineFused, Workers: 4,
		Compiled: true, CompileMS: 1e-7, ElapsedMS: 12.5,
		RuleTimeMS: map[string]float64{"WS1": 0.25, "DS7": 1e21, "DS1": 0, "<&>": -0.5},
		Sched: &schedJSON{
			Workers: 2, Chunks: 9, Steals: 1, WallMS: 3, BusyMS: 5.5, MaxChunkMS: 1e-9, Efficiency: 0.9,
			PerWorker: []schedWorkerJSON{{Chunks: 5, Steals: 1, BusyMS: 2, MaxChunkMS: 0.5}, {}},
		},
	}
}

func fullApplyResponse() applyResponse {
	vr := fullValidationResponse()
	return applyResponse{
		APIVersion: apiVersion, Applied: true, Epoch: math.MaxUint64,
		NewNodes: []int64{math.MinInt64, 0}, NewEdges: []int64{},
		Touched:    touchedJSON{Nodes: []int64{1}, Edges: []int64{}, Labels: []string{"City", "<b>"}},
		Validation: &vr,
	}
}

func fullGraphQLResponse() graphqlResponse {
	return graphqlResponse{
		APIVersion: apiVersion,
		Data: map[string]any{
			"allCities": []any{
				map[string]any{"name": "Linköping", "pop": int64(math.MaxInt64), "area": 1e-7, "capital": false},
				map[string]any{"name": "<&>", "pop": int64(math.MinInt64), "area": nil, "twin": map[string]any{}},
				map[string]any{"tags": []any{}, "nested": []any{[]any{"a", true}, []any{}}},
			},
			"city": nil, "Z": "upper sorts first", "é": 1.5, "a\u2028": []any(nil), "m": map[string]any(nil),
		},
		Errors: []respError{{Message: "first"}, {Message: "second <err>"}},
		Engine: engineCompiled, Compiled: true, PlanCached: true, PlanMS: 0.003,
	}
}

// TestJSONFixturesSetEveryField keeps the differential honest: a field
// added to an envelope but not to its appendJSON would still be compared,
// because the full fixtures leave no field at its zero value (where
// omitempty would hide it).
func TestJSONFixturesSetEveryField(t *testing.T) {
	vr := fullValidationResponse()
	ar := fullApplyResponse()
	for _, v := range []any{vr, *vr.Sched, vr.Sched.PerWorker[0], ar, ar.Touched, fullGraphQLResponse()} {
		rv := reflect.ValueOf(v)
		for i := 0; i < rv.NumField(); i++ {
			if rv.Field(i).IsZero() {
				t.Errorf("%T.%s is zero in the fixture", v, rv.Type().Field(i).Name)
			}
		}
	}
}

// TestWriteJSONMatchesEncodingJSON is the byte-identity differential:
// every hot envelope, over the shapes the handlers produce and the edge
// cases of string escaping and float formatting, renders exactly as
// encoding/json renders it.
func TestWriteJSONMatchesEncodingJSON(t *testing.T) {
	cases := map[string]jsonAppender{
		"validation/full":  fullValidationResponse(),
		"validation/zero":  validationResponse{},
		"apply/full":       fullApplyResponse(),
		"apply/zero":       applyResponse{},
		"graphql/full":     fullGraphQLResponse(),
		"graphql/zero":     graphqlResponse{},
		"graphql/errsOnly": graphqlResponse{APIVersion: apiVersion, Errors: []respError{{Message: `unknown field "x"`}}},
	}
	empty := fullValidationResponse()
	empty.Violations, empty.RuleTimeMS, empty.Sched = violationList{}, map[string]float64{}, &schedJSON{}
	cases["validation/empty"] = empty
	truncated := fullValidationResponse()
	truncated.OK, truncated.Truncated, truncated.Incomplete = false, true, false
	cases["validation/truncated"] = truncated
	incomplete := fullValidationResponse()
	incomplete.Truncated, incomplete.Incomplete, incomplete.Violations = false, true, nil
	cases["validation/incomplete"] = incomplete
	noReport := fullApplyResponse()
	noReport.Validation, noReport.NewNodes, noReport.Touched.Labels = nil, nil, nil
	cases["apply/noReport"] = noReport
	for i, s := range oddStrings {
		vr := fullValidationResponse()
		vr.Violations[0].Message, vr.Violations[0].TypeName = s, s
		cases[fmt.Sprintf("validation/string%d", i)] = vr
		cases[fmt.Sprintf("graphql/string%d", i)] = graphqlResponse{
			Data:   map[string]any{s: []any{s, map[string]any{s: s, "k" + s: s}}},
			Errors: []respError{{Message: s}},
		}
	}
	for i, f := range oddFloats {
		cases[fmt.Sprintf("graphql/float%d", i)] = graphqlResponse{
			Data:   map[string]any{"x": f, "neg": -f, "list": []any{f, -f}},
			PlanMS: f,
		}
	}
	for i, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cases[fmt.Sprintf("graphql/nonFinite%d", i)] = graphqlResponse{Data: map[string]any{"a": "b", "pop": f}}
		vr := fullValidationResponse()
		vr.ElapsedMS = f
		cases[fmt.Sprintf("validation/nonFinite%d", i)] = vr
	}
	deep := any("leaf")
	for i := 0; i < 40; i++ {
		deep = map[string]any{"d": []any{deep}}
	}
	cases["graphql/deep"] = graphqlResponse{Data: map[string]any{"deep": deep}}
	for name, v := range cases {
		t.Run(name, func(t *testing.T) { checkSameJSON(t, v) })
	}
}

// TestWriteJSONFallback pins the slow path: values the writer does not
// know — an unknown type inside a data tree, or an envelope that is not
// a jsonAppender — are encoded by encoding/json, byte for byte.
func TestWriteJSONFallback(t *testing.T) {
	for name, v := range map[string]any{
		"foreignType": graphqlResponse{Data: map[string]any{"a": []any{int64(1), int(2), float32(0.1)}}},
		"error":       errorResponse{APIVersion: apiVersion, Error: "x <y>", Errors: []respError{{Message: "x <y>"}}},
		"foreignNaN":  graphqlResponse{Data: map[string]any{"a": float32(math.NaN())}},
	} {
		t.Run(name, func(t *testing.T) {
			want, wantErr := oracleJSON(v)
			w := getJSONWriter()
			defer w.free()
			err := w.encode(v)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("error %v, encoding/json error %v", err, wantErr)
			}
			if err == nil && !bytes.Equal(w.buf, want) {
				t.Fatalf("fallback differs from encoding/json:\n got %q\nwant %q", w.buf, want)
			}
		})
	}
}

// FuzzWriteJSON drives the differential with arbitrary strings, integers
// and floats in every position the fast writer fills.
func FuzzWriteJSON(f *testing.F) {
	for _, s := range oddStrings {
		f.Add(s, int64(-1), 0.5, true)
	}
	for _, x := range append(oddFloats, math.NaN(), math.Inf(-1)) {
		f.Add("k", int64(math.MaxInt64), x, false)
	}
	f.Fuzz(func(t *testing.T, s string, i int64, x float64, b bool) {
		vr := validationResponse{
			APIVersion: s, OK: b, Mode: s, Nodes: int(i),
			Violations: violationList{{Rule: validate.Rule(s), Message: s, Node: pg.NodeID(i), Edge: -1, TypeName: s, Field: s, Property: s}},
			ElapsedMS:  x, RuleTimeMS: map[string]float64{s: x, "DS1": 1},
		}
		checkSameJSON(t, vr)
		checkSameJSON(t, applyResponse{APIVersion: s, Epoch: uint64(i), NewNodes: []int64{i}, Touched: touchedJSON{Labels: []string{s}}, Validation: &vr})
		checkSameJSON(t, graphqlResponse{
			Data:   map[string]any{s: []any{s, i, x, b, nil, map[string]any{s: s, "": []any{}}}, "k": map[string]any{}},
			Errors: []respError{{Message: s}}, PlanMS: x,
		})
	})
}

// newFloatCityHandler hosts one City whose Float property pop holds f,
// either set on the graph directly or read from a CSV cell.
func newFloatCityHandler(t *testing.T, f float64, cell string) *Handler {
	t.Helper()
	doc, err := parser.Parse(`
		type City @key(fields: ["name"]) {
			name: String! @required
			pop: Float
		}`)
	if err != nil {
		t.Fatal(err)
	}
	s, err := schema.Build(doc, schema.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cell != "" {
		nodes := "id,label,name,pop\nc0,City,Oslo," + cell + "\n"
		h, _, _, err := NewFromCSV(s, strings.NewReader(nodes), strings.NewReader("source,target,label\n"), Config{})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	g := pg.New()
	n := g.AddNode("City")
	g.SetNodeProp(n, "name", values.String("Oslo"))
	g.SetNodeProp(n, "pop", values.Float(f))
	h, err := New(s, g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestGraphQLNonFiniteFloat: JSON has no NaN or Inf, so a query reading
// one answers 500 with the error envelope naming the value — never a 200
// with an empty body, and never a partial document.
func TestGraphQLNonFiniteFloat(t *testing.T) {
	for _, c := range []struct {
		name, cell, want string
		f                float64
	}{
		{"direct/NaN", "", "NaN", math.NaN()},
		{"direct/-Inf", "", "-Inf", math.Inf(-1)},
		{"csv/NaN", "NaN", "NaN", 0},
		{"csv/Inf", "Inf", "+Inf", 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			mux := newFloatCityHandler(t, c.f, c.cell).Mux()
			for _, q := range []string{`{ city(name: \"Oslo\") { name pop } }`, `{ allCities { pop } }`} {
				rec := doRaw(t, mux, "POST", "/graphql", `{"query": "`+q+`"}`)
				if rec.Code != http.StatusInternalServerError {
					t.Fatalf("%s: status %d, want 500: %q", q, rec.Code, rec.Body.String())
				}
				var env errorResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
					t.Fatalf("%s: body is not the error envelope: %v: %q", q, err, rec.Body.String())
				}
				want := "encoding response: json: unsupported value: " + c.want
				if env.APIVersion != apiVersion || env.Error != want || len(env.Errors) != 1 || env.Errors[0].Message != want {
					t.Fatalf("%s: envelope %+v, want error %q", q, env, want)
				}
			}
			// A query that does not read the property still answers.
			if rec := doRaw(t, mux, "POST", "/graphql", `{"query": "{ allCities { name } }"}`); rec.Code != http.StatusOK {
				t.Fatalf("name-only query: status %d: %q", rec.Code, rec.Body.String())
			}
		})
	}
}

func violationReport(n int) validationResponse {
	vr := fullValidationResponse()
	vr.Sched = nil
	vr.Violations = make(violationList, n)
	for i := range vr.Violations {
		vr.Violations[i] = validate.Violation{
			Rule: validate.DS7, Node: pg.NodeID(i), Edge: -1, TypeName: "Author", Field: "name",
			Message: fmt.Sprintf("@key(fields: [\"name\"]) violated: node %d shares the key value (\"author-%d\") with another Author node", i, i/2),
		}
	}
	return vr
}

func scanResponse(n int) graphqlResponse {
	rows := make([]any, n)
	for i := range rows {
		rows[i] = map[string]any{"name": fmt.Sprintf("author-%d", i)}
	}
	return graphqlResponse{APIVersion: apiVersion, Engine: engineCompiled, Compiled: true, PlanCached: true, PlanMS: 0.002,
		Data: map[string]any{"allAuthors": rows}}
}

var benchSink []byte

// benchWrite compares the encoding/json arm with the fast writer's arm
// on the same value, after checking that both produce the same bytes.
func benchWrite(b *testing.B, v jsonAppender) {
	want, err := oracleJSON(v)
	if err != nil {
		b.Fatal(err)
	}
	w := getJSONWriter()
	if err := w.encode(v); err != nil || !bytes.Equal(w.buf, want) {
		b.Fatalf("fast writer differs from encoding/json (err %v)", err)
	}
	w.free()
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(want)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink, _ = oracleJSON(v)
		}
	})
	b.Run("fast", func(b *testing.B) {
		b.SetBytes(int64(len(want)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w := getJSONWriter()
			if err := w.encode(v); err != nil {
				b.Fatal(err)
			}
			benchSink = w.buf
			w.free()
		}
	})
}

// BenchmarkWriteValidationResponse: a 3 000-violation report, the size
// of the served benchmark's validate_audit tenant.
func BenchmarkWriteValidationResponse(b *testing.B) { benchWrite(b, violationReport(3000)) }

// BenchmarkWriteScanResponse: a 13 000-row { name } scan, the size of
// the served benchmark's allAuthors answer.
func BenchmarkWriteScanResponse(b *testing.B) { benchWrite(b, scanResponse(13000)) }
