package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"pgschema/internal/values"
)

func postJSON(t *testing.T, mux http.Handler, url, body string) (*httptest.ResponseRecorder, validationResponse) {
	t.Helper()
	req := httptest.NewRequest("POST", url, strings.NewReader(body))
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	var out validationResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("decoding %s response: %v\n%s", url, err, rec.Body.String())
		}
	}
	return rec, out
}

func TestValidateEndpoint(t *testing.T) {
	h := newTestHandler(t)
	mux := h.Mux()

	rec, out := postJSON(t, mux, "/validate", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if !out.OK || out.Mode != "strong" || len(out.Violations) != 0 {
		t.Errorf("conformant graph: %+v", out)
	}
	if out.Nodes != 2 || out.Edges != 1 {
		t.Errorf("graph size: %d nodes, %d edges", out.Nodes, out.Edges)
	}
	if len(out.RuleTimeMS) == 0 {
		t.Error("no per-rule timings in response")
	}
	if !out.Compiled || out.CompileMS <= 0 {
		t.Errorf("run did not report the precompiled program: compiled=%v compileMs=%v",
			out.Compiled, out.CompileMS)
	}
	if out.Workers != 1 {
		t.Errorf("default run on a tiny graph should be sequential, got workers=%d", out.Workers)
	}

	// The run must surface in /metrics, including per-rule timings.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"pgschema_validation_runs_total 1",
		`pgschema_validation_rule_duration_seconds_total{rule="WS1"}`,
		`pgschema_http_requests_total{path="/validate",status="200"} 1`,
		`pgschema_http_request_duration_seconds_bucket{path="/validate",le="+Inf"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output lacks %q:\n%s", want, body)
		}
	}
}

func TestValidateEndpointParallelTimings(t *testing.T) {
	h := newTestHandler(t)
	mux := h.Mux()
	// The acceptance criterion: Workers > 1 still yields timings.
	rec, out := postJSON(t, mux, "/validate", `{"workers": 4, "elementSharding": true}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if len(out.RuleTimeMS) == 0 {
		t.Fatalf("no per-rule timings with workers=4: %+v", out)
	}
	if _, ok := out.RuleTimeMS["WS1"]; !ok {
		t.Errorf("WS1 timing missing: %v", out.RuleTimeMS)
	}
	if out.Workers < 2 {
		t.Errorf("explicit workers=4 request resolved to %d workers", out.Workers)
	}
}

func TestValidateEndpointFindsViolations(t *testing.T) {
	h := newTestHandler(t)
	// A City without its @required (and @key) name property.
	h.def().g.AddNode("City")
	mux := h.Mux()

	rec, out := postJSON(t, mux, "/validate", `{"mode": "directives"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if out.OK || len(out.Violations) == 0 || out.Mode != "directives" {
		t.Fatalf("expected directive violations: %+v", out)
	}
	for _, v := range out.Violations {
		if !strings.HasPrefix(v.Rule, "DS") {
			t.Errorf("non-directive rule %s in directives mode", v.Rule)
		}
	}

	// Restricting to one rule keeps only it.
	_, out = postJSON(t, mux, "/validate", `{"rules": ["DS5"]}`)
	for _, v := range out.Violations {
		if v.Rule != "DS5" {
			t.Errorf("rule restriction leaked %s", v.Rule)
		}
	}

	// maxViolations caps and flags truncation.
	_, out = postJSON(t, mux, "/validate", `{"maxViolations": 1}`)
	if len(out.Violations) > 1 {
		t.Errorf("cap ignored: %d violations", len(out.Violations))
	}
}

// TestValidateEndpointEngineSelection pins the v1 engine field: every
// accepted value — including the retired "rule-by-rule" — runs the
// fused engine and the response says so, as does /revalidate, whose
// delta-scoped run uses the fused dirty-region passes. Unknown values
// stay a 400.
func TestValidateEndpointEngineSelection(t *testing.T) {
	h := newTestHandler(t)
	mux := h.Mux()
	for body, want := range map[string]string{
		``:                           "fused", // auto resolves to fused
		`{"engine": "auto"}`:         "fused",
		`{"engine": "fused"}`:        "fused",
		`{"engine": "rule-by-rule"}`: "fused",
	} {
		rec, out := postJSON(t, mux, "/validate", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("body %q: status %d: %s", body, rec.Code, rec.Body.String())
		}
		if out.Engine != want {
			t.Errorf("body %q: engine %q, want %q", body, out.Engine, want)
		}
		if !out.OK {
			t.Errorf("body %q: conformant graph not OK: %+v", body, out)
		}
	}
	rec, _ := postJSON(t, mux, "/validate", `{"engine": "warp"}`)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("unknown engine: status %d, want 400", rec.Code)
	}
	rec, out := postJSON(t, mux, "/revalidate", `{"nodes": [0]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("revalidate: status %d: %s", rec.Code, rec.Body.String())
	}
	if out.Engine != "fused" {
		t.Errorf("revalidate engine %q, want %q (the engine the run actually used)", out.Engine, "fused")
	}
	if out.Workers != 1 {
		t.Errorf("one-node delta resolved to %d workers, want 1", out.Workers)
	}
}

func TestValidateEndpointBadRequests(t *testing.T) {
	h := newTestHandler(t)
	mux := h.Mux()
	for _, body := range []string{
		`{"mode": "quantum"}`,
		`{"rules": ["WS9"]}`,
		`{"workers": -1}`,
		`{"maxViolations": -3}`,
		`{"bogusField": 1}`,
		`not json`,
	} {
		rec, _ := postJSON(t, mux, "/validate", body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", body, rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/validate", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /validate: status %d, want 405", rec.Code)
	}
}

func TestRevalidateRequiresCachedResult(t *testing.T) {
	h := newTestHandler(t)
	mux := h.Mux()
	rec, _ := postJSON(t, mux, "/revalidate", `{"nodes": [0]}`)
	if rec.Code != http.StatusConflict {
		t.Errorf("revalidate without cache: status %d, want 409", rec.Code)
	}
}

func TestRevalidateUnknownIDs(t *testing.T) {
	h := newTestHandler(t)
	mux := h.Mux()
	postJSON(t, mux, "/validate", "")
	for _, body := range []string{`{"nodes": [999]}`, `{"edges": [-1]}`} {
		rec, _ := postJSON(t, mux, "/revalidate", body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", body, rec.Code)
		}
	}
}

// TestRevalidateEquivalence drives the incremental path through the
// endpoints: after a mutation, /revalidate with the delta must report
// exactly what a fresh full /validate reports.
func TestRevalidateEquivalence(t *testing.T) {
	h := newTestHandler(t)
	mux := h.Mux()

	rec, _ := postJSON(t, mux, "/validate", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("seeding validate: %d", rec.Code)
	}

	// Mutate the hosted graph: a loop edge (DS2 @noLoops on twin), a
	// duplicate twin edge (DS1 @distinct), and a City missing its
	// @required name (DS5/DS7). The handler is idle in between — the
	// no-mutation-while-serving rule only concerns concurrent requests.
	lk := h.def().g.NodesLabeled("City")[0]
	loop := h.def().g.MustAddEdge(lk, lk, "twin")
	ghost := h.def().g.AddNode("City")
	h.def().g.SetNodeProp(ghost, "population", values.Int(7)) // SS2: unjustified property

	rec, inc := postJSON(t, mux, "/revalidate",
		fmt.Sprintf(`{"nodes": [%d], "edges": [%d]}`, ghost, loop))
	if rec.Code != http.StatusOK {
		t.Fatalf("revalidate: %d %s", rec.Code, rec.Body.String())
	}
	if !inc.Incremental {
		t.Error("response not marked incremental")
	}
	if inc.OK || len(inc.Violations) == 0 {
		t.Fatalf("mutations not detected: %+v", inc)
	}

	_, full := postJSON(t, mux, "/validate", "")
	if !reflect.DeepEqual(inc.Violations, full.Violations) {
		t.Errorf("incremental and full results differ:\nincremental: %+v\nfull: %+v",
			inc.Violations, full.Violations)
	}
}

// TestConcurrentValidateRevalidate exercises the RWMutex-guarded cache
// under the race detector: parallel /validate, /revalidate, /graphql,
// and /metrics requests against one handler.
func TestConcurrentValidateRevalidate(t *testing.T) {
	h := newTestHandler(t)
	mux := h.Mux()
	postJSON(t, mux, "/validate", "") // seed the cache

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				var rec *httptest.ResponseRecorder
				switch i % 4 {
				case 0:
					rec, _ = postJSON(t, mux, "/validate", `{"workers": 2}`)
				case 1:
					rec, _ = postJSON(t, mux, "/revalidate", `{"nodes": [0]}`)
				case 2:
					rec = httptest.NewRecorder()
					mux.ServeHTTP(rec, httptest.NewRequest("GET", "/graphql?query=%7B%20allCities%20%7B%20name%20%7D%20%7D", nil))
				case 3:
					rec = httptest.NewRecorder()
					mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
				}
				if rec.Code != http.StatusOK {
					t.Errorf("worker %d: status %d", i, rec.Code)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}
