package server

import (
	"net/http"
	"testing"
)

// fuzzReadBody posts body to path on the keyed fuzz tenant. No body may
// panic the handler or earn a 5xx, and a read leaves the tenant's graph
// at its epoch, answering from the same snapshot.
func fuzzReadBody(t *testing.T, path, body string) {
	h := newFuzzApplyHandler(t)
	g := h.reg.get(DefaultTenant).g
	snap, epoch := g.Snapshot(), g.Epoch()
	rec := doRaw(t, h.Mux(), "POST", path, body)
	if rec.Code >= http.StatusInternalServerError {
		t.Fatalf("%s %q: %d %s", path, body, rec.Code, rec.Body.String())
	}
	if g.Snapshot() != snap || g.Epoch() != epoch {
		t.Fatalf("%s %q (%d) moved the tenant's graph off its snapshot", path, body, rec.Code)
	}
}

// FuzzValidateBody posts arbitrary bytes to /validate on the keyed
// tenant of FuzzApplyBody.
func FuzzValidateBody(f *testing.F) {
	for _, body := range []string{
		``,
		`{}`,
		`{"apiVersion": "v1", "mode": "weak"}`,
		`{"mode": "strong", "workers": 4, "elementSharding": true}`,
		`{"workers": 1000000}`,
		`{"workers": -1}`,
		`{"mode": "sideways"}`,
		`{"engine": "naive", "maxViolations": 1}`,
		`{"apiVersion": "v2"}`,
		`{"workers": "4"}`,
		`[`,
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) { fuzzReadBody(t, "/validate", body) })
}

// FuzzGraphQLBody posts arbitrary bytes to /graphql on the keyed tenant
// of FuzzApplyBody: malformed JSON, malformed or unknown queries, bad
// variables and deep selections all answer without a panic or a 5xx.
func FuzzGraphQLBody(f *testing.F) {
	for _, body := range []string{
		`{"query": "{ city(name: \"c1\") { name pop twin { name } } }"}`,
		`{"query": "{ cities { name } }"}`,
		`{"query": "query Q($n: String) { city(name: $n) { name } }", "variables": {"n": "c3"}}`,
		`{"query": "query Q($n: String!) { city(name: $n) { name } }", "variables": {"n": 7}}`,
		`{"query": "{ places { name ... on City { pop } } }"}`,
		`{"query": "{ city(name: \"c1\") { twin { twin { twin { name } } } } }"}`,
		`{"query": "{ nope }"}`,
		`{"query": "{ city(name: "}`,
		`{"query": ""}`,
		`{"apiVersion": "v2", "query": "{ cities { name } }"}`,
		`{"query": 7}`,
		`{}`,
		``,
		`[`,
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) { fuzzReadBody(t, "/graphql", body) })
}
