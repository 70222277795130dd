package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// doGraphQL issues a request against /graphql and returns the recorder
// plus the response body as a generic map (nil when the body is not
// JSON).
func doGraphQL(t *testing.T, mux http.Handler, method, url, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(method, url, strings.NewReader(body))
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		return rec, nil
	}
	return rec, out
}

// canonicalEnvelope strips the volatile plan-timing field (asserting it
// was present on compiled responses) and re-marshals; map marshaling
// sorts keys, so the result is canonical for golden comparison.
func canonicalEnvelope(t *testing.T, body map[string]any, wantPlanMS bool) string {
	t.Helper()
	if _, ok := body["planMs"]; ok != wantPlanMS {
		t.Errorf("planMs present=%v, want %v: %v", ok, wantPlanMS, body)
	}
	delete(body, "planMs")
	got, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return string(got)
}

// TestGraphQLEnvelopeGolden pins the exact v1 wire shape of /graphql
// responses across both methods, the legacy engine selector, and the
// plan cache, the same way TestV1EnvelopeGolden pins /validate.
func TestGraphQLEnvelopeGolden(t *testing.T) {
	h := newTestHandler(t)
	mux := h.Mux()

	const goldenData = `{"apiVersion":"v1","compiled":true,` +
		`"data":{"allCities":[{"name":"Linköping"},{"name":"Amsterdam"}]},` +
		`"engine":"compiled","planCached":%s}`

	// GET with ?query=: compiled engine by default, cold plan cache.
	rec, body := doGraphQL(t, mux, "GET",
		"/graphql?query=%7B%20allCities%20%7B%20name%20%7D%20%7D", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET: status %d: %s", rec.Code, rec.Body.String())
	}
	if got := canonicalEnvelope(t, body, true); got != strings.ReplaceAll(goldenData, "%s", "false") {
		t.Errorf("GET envelope drifted:\ngot:    %s", got)
	}

	// POST with the same source: the plan must come from the cache.
	rec, body = doGraphQL(t, mux, "POST", "/graphql",
		`{"apiVersion": "v1", "query": "{ allCities { name } }"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST: status %d: %s", rec.Code, rec.Body.String())
	}
	if got := canonicalEnvelope(t, body, true); got != strings.ReplaceAll(goldenData, "%s", "true") {
		t.Errorf("POST cached envelope drifted:\ngot:    %s", got)
	}

	// The legacy "interpretive" selector is accepted and runs the
	// compiled plan (a cache hit), on both methods.
	rec, body = doGraphQL(t, mux, "POST", "/graphql",
		`{"query": "{ allCities { name } }", "engine": "interpretive"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("interpretive: status %d: %s", rec.Code, rec.Body.String())
	}
	if got := canonicalEnvelope(t, body, true); got != strings.ReplaceAll(goldenData, "%s", "true") {
		t.Errorf("interpretive-selector envelope drifted:\ngot:    %s", got)
	}
	rec, body = doGraphQL(t, mux, "GET",
		"/graphql?engine=interpretive&query=%7B%20allCities%20%7B%20name%20%7D%20%7D", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET interpretive: status %d: %s", rec.Code, rec.Body.String())
	}
	if got := canonicalEnvelope(t, body, true); got != strings.ReplaceAll(goldenData, "%s", "true") {
		t.Errorf("GET interpretive-selector envelope drifted:\ngot:    %s", got)
	}
}

// TestGraphQLErrorShapes pins the error envelopes: GraphQL-level errors
// stay HTTP 200 in the de-facto {"errors": …} shape; transport-level
// errors use the flat v1 error envelope with a non-200 status.
func TestGraphQLErrorShapes(t *testing.T) {
	h := newTestHandler(t)
	mux := h.Mux()

	// Parse error: 200, envelope carries errors, no data, not compiled.
	rec, body := doGraphQL(t, mux, "POST", "/graphql", `{"query": "{ nope"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("parse error: status %d, want 200", rec.Code)
	}
	got := canonicalEnvelope(t, body, true)
	if !strings.HasPrefix(got, `{"apiVersion":"v1","compiled":false,"engine":"compiled","errors":[{"message":`) {
		t.Errorf("parse-error envelope drifted:\ngot: %s", got)
	}
	if _, ok := body["data"]; ok {
		t.Error("parse-error envelope carries data")
	}

	// Unknown operation name: also a GraphQL-level 200 error.
	rec, body = doGraphQL(t, mux, "POST", "/graphql",
		`{"query": "query A { __typename } query B { __typename }", "operationName": "C"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("unknown operation: status %d, want 200", rec.Code)
	}
	if got := canonicalEnvelope(t, body, true); got != `{"apiVersion":"v1","compiled":true,`+
		`"engine":"compiled","errors":[{"message":"no operation named \"C\""}],"planCached":false}` {
		t.Errorf("unknown-operation envelope drifted:\ngot: %s", got)
	}

	// Every accepted engine selector answers with the compiled engine's
	// GraphQL-level error.
	for i, engine := range []string{"interpretive", "compiled", "auto"} {
		_, out := doGraphQL(t, mux, "POST", "/graphql",
			`{"query": "{ allCities { name } }", "operationName": "X", "engine": "`+engine+`"}`)
		want := fmt.Sprintf(`{"apiVersion":"v1","compiled":true,`+
			`"engine":"compiled","errors":[{"message":"no operation named \"X\""}],"planCached":%v}`, i > 0)
		if got := canonicalEnvelope(t, out, true); got != want {
			t.Errorf("engine %s: error envelope drifted:\ngot:  %s\nwant: %s", engine, got, want)
		}
	}

	// Transport-level failures: flat v1 error envelope, non-200 status.
	for _, tc := range []struct {
		name, method, url, body string
		status                  int
	}{
		{"bad engine", "POST", "/graphql", `{"query": "{ __typename }", "engine": "jit"}`, http.StatusBadRequest},
		{"bad api version", "POST", "/graphql", `{"apiVersion": "v2", "query": "{ __typename }"}`, http.StatusBadRequest},
		{"empty query", "POST", "/graphql", `{}`, http.StatusBadRequest},
		{"bad json", "POST", "/graphql", `{"query`, http.StatusBadRequest},
		{"bad method", "DELETE", "/graphql", ``, http.StatusMethodNotAllowed},
	} {
		rec, body := doGraphQL(t, mux, tc.method, tc.url, tc.body)
		if rec.Code != tc.status {
			t.Errorf("%s: status %d, want %d: %s", tc.name, rec.Code, tc.status, rec.Body.String())
			continue
		}
		msg, _ := body["error"].(string)
		if body["apiVersion"] != "v1" || msg == "" {
			t.Errorf("%s: not a v1 error envelope: %v", tc.name, body)
		}
	}
}

// TestGraphQLBodyLimit proves /graphql shares the transport body cap:
// an oversized POST gets a 413 in the v1 error envelope.
func TestGraphQLBodyLimit(t *testing.T) {
	h := newTestHandlerConfig(t, Config{MaxBodyBytes: 64})
	mux := h.Mux()
	big := `{"query": "{ allCities { ` + strings.Repeat("name ", 64) + `} }"}`
	rec, body := doGraphQL(t, mux, "POST", "/graphql", big)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", rec.Code)
	}
	msg, _ := body["error"].(string)
	if body["apiVersion"] != "v1" || !strings.Contains(msg, "64-byte limit") {
		t.Errorf("413 envelope: %v", body)
	}
	// At the limit exactly: accepted.
	exact := `{"query": "{ allCities { name } }"}` // 38 bytes < 64
	if rec, _ := doGraphQL(t, mux, "POST", "/graphql", exact); rec.Code != http.StatusOK {
		t.Errorf("under-limit body rejected: status %d", rec.Code)
	}
}
