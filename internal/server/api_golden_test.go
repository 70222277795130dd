package server

import (
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// updateAPIGolden regenerates the checked-in API response corpus:
//
//	go test ./internal/server -run TestAPIGolden -update-api-golden
var updateAPIGolden = flag.Bool("update-api-golden", false, "rewrite testdata/api goldens from live responses")

// Timing fields vary run to run; everything else in a response must be
// byte-stable. The normalizer zeroes exactly the wall-clock-derived
// fields so that any other drift — field order, casing, envelope shape,
// counts — still fails the comparison.
var (
	timingFieldRE = regexp.MustCompile(`"(elapsedMs|compileMs|planMs|wallMs|busyMs|maxChunkMs|efficiency)": [0-9eE.+-]+`)
	ruleTimeRE    = regexp.MustCompile(`"ruleTimeMs": \{[^{}]*\}`)
)

func normalizeAPIBody(b []byte) []byte {
	b = timingFieldRE.ReplaceAll(b, []byte(`"$1": 0`))
	b = ruleTimeRE.ReplaceAll(b, []byte(`"ruleTimeMs": {}`))
	return b
}

// legacyAliasCases are requests valid against both a legacy top-level
// route and its /tenants/default/... twin. Scheduler telemetry
// (schedStats) is excluded: work stealing makes its chunk/steal counts
// legitimately nondeterministic.
var legacyAliasCases = []struct {
	name, method, path, body string
}{
	{"validate_full", "POST", "/validate", `{}`},
	{"validate_weak", "POST", "/validate", `{"apiVersion": "v1", "mode": "weak"}`},
	{"validate_rules_subset", "POST", "/validate", `{"rules": ["DS1", "DS2"], "maxViolations": 5}`},
	{"validate_bad_mode", "POST", "/validate", `{"mode": "nope"}`},
	{"validate_bad_engine", "POST", "/validate", `{"engine": "warp"}`},
	{"validate_bad_version", "POST", "/validate", `{"apiVersion": "v2"}`},
	{"validate_bad_method", "GET", "/validate", ``},
	{"revalidate_no_cache", "POST", "/revalidate", `{"nodes": [0]}`},
	{"revalidate_unknown_node", "POST", "/revalidate", `{"nodes": [999]}`},
	{"graphql_post", "POST", "/graphql", `{"query": "{ city(name: \"Linköping\") { name twin { name } } }"}`},
	{"graphql_get", "GET", "/graphql?query=%7B%20allCities%20%7B%20name%20%7D%20%7D", ``},
	{"graphql_unknown_field", "POST", "/graphql", `{"query": "{ nope { x } }"}`},
	{"graphql_syntax_error", "POST", "/graphql", `{"query": "{ broken"}`},
	{"graphql_not_json", "POST", "/graphql", `not json`},
	{"graphql_bad_method", "DELETE", "/graphql", ``},
	// No schema_bad_method case: POST /tenants/{name}/schema is a real
	// endpoint (schema replacement) that the read-only legacy /schema
	// deliberately does not alias.
	{"schema_get", "GET", "/schema", ``},
	{"apply_add_node", "POST", "/graph/apply", `{"addNodes": [{"label": "City", "props": {"name": "Utrecht"}}]}`},
	{"apply_add_edge", "POST", "/graph/apply", `{"addEdges": [{"source": 0, "target": 1, "label": "twin"}]}`},
	{"apply_unknown_node", "POST", "/graph/apply", `{"removeNodes": [999]}`},
	{"apply_empty_delta", "POST", "/graph/apply", `{}`},
}

// TestLegacyRoutesByteIdentical proves the compatibility contract of
// the tenancy refactor: every legacy top-level route answers
// byte-for-byte what /tenants/default/<route> answers — status,
// content type, and body (timing fields normalized). Each side runs on
// its own freshly seeded handler so mutating requests see identical
// state.
func TestLegacyRoutesByteIdentical(t *testing.T) {
	for _, c := range legacyAliasCases {
		t.Run(c.name, func(t *testing.T) {
			legacy := doRaw(t, newTestHandler(t).Mux(), c.method, c.path, c.body)
			tenantPath := "/tenants/" + DefaultTenant + c.path
			if i := strings.IndexByte(c.path, '?'); i >= 0 { // keep the query string after the rewritten path
				tenantPath = "/tenants/" + DefaultTenant + c.path[:i] + c.path[i:]
			}
			tenanted := doRaw(t, newTestHandler(t).Mux(), c.method, tenantPath, c.body)

			if legacy.Code != tenanted.Code {
				t.Fatalf("status: legacy %d, tenant route %d", legacy.Code, tenanted.Code)
			}
			if lct, tct := legacy.Header().Get("Content-Type"), tenanted.Header().Get("Content-Type"); lct != tct {
				t.Fatalf("content type: legacy %q, tenant route %q", lct, tct)
			}
			lb := normalizeAPIBody(legacy.Body.Bytes())
			tb := normalizeAPIBody(tenanted.Body.Bytes())
			if string(lb) != string(tb) {
				t.Errorf("bodies differ:\nlegacy %s %s:\n%s\ntenant %s %s:\n%s",
					c.method, c.path, lb, c.method, tenantPath, tb)
			}
		})
	}
}

// apiGoldenCase is one request of the checked-in corpus. Setup
// requests run first against the same fresh handler (their responses
// are discarded) so a case can exercise state like a cached validation
// result or a runtime-created tenant.
type apiGoldenCase struct {
	name   string
	setup  [][3]string
	method string
	path   string
	body   string
}

func apiGoldenCases(t *testing.T) []apiGoldenCase {
	putAlpha := [3]string{"PUT", "/tenants/alpha", tenantPutBody(t, true)}
	return []apiGoldenCase{
		{name: "validate_full", method: "POST", path: "/validate", body: `{}`},
		{name: "validate_weak", method: "POST", path: "/validate", body: `{"apiVersion": "v1", "mode": "weak"}`},
		{name: "validate_bad_mode", method: "POST", path: "/validate", body: `{"mode": "nope"}`},
		{name: "validate_bad_version", method: "POST", path: "/validate", body: `{"apiVersion": "v2"}`},
		// The v1 engine selectors are accepted and select nothing: a
		// retired engine's name answers with the fused or compiled
		// envelope; an unknown one is still a 400.
		{name: "validate_engine_rule_by_rule", method: "POST", path: "/validate", body: `{"engine": "rule-by-rule"}`},
		{name: "validate_bad_engine", method: "POST", path: "/validate", body: `{"engine": "warp"}`},
		{name: "graphql_engine_interpretive", method: "POST", path: "/graphql",
			body: `{"query": "{ city(name: \"Linköping\") { name twin { name } } }", "engine": "interpretive"}`},
		{name: "graphql_get_engine_interpretive", method: "GET",
			path: "/graphql?engine=interpretive&query=%7B%20allCities%20%7B%20name%20%7D%20%7D"},
		{name: "graphql_bad_engine", method: "POST", path: "/graphql", body: `{"query": "{ __typename }", "engine": "jit"}`},
		{name: "revalidate_no_cache", method: "POST", path: "/revalidate", body: `{"nodes": [0]}`},
		{name: "revalidate_cached", setup: [][3]string{{"POST", "/validate", `{}`}},
			method: "POST", path: "/revalidate", body: `{"nodes": [0]}`},
		{name: "graphql_post", method: "POST", path: "/graphql",
			body: `{"query": "{ city(name: \"Linköping\") { name twin { name } } }"}`},
		{name: "graphql_unknown_field", method: "POST", path: "/graphql", body: `{"query": "{ nope { x } }"}`},
		{name: "graphql_bad_method", method: "DELETE", path: "/graphql"},
		{name: "schema_get", method: "GET", path: "/schema"},
		{name: "apply_add_node", method: "POST", path: "/graph/apply",
			body: `{"addNodes": [{"label": "City", "props": {"name": "Utrecht"}}]}`},
		{name: "apply_revalidate", setup: [][3]string{{"POST", "/validate", `{}`}},
			method: "POST", path: "/graph/apply",
			body: `{"addNodes": [{"label": "City", "props": {"name": "Utrecht"}}], "revalidate": true}`},
		{name: "apply_unknown_node", method: "POST", path: "/graph/apply", body: `{"removeNodes": [999]}`},
		{name: "route_not_found", method: "GET", path: "/nope"},
		{name: "tenants_list_fresh", method: "GET", path: "/tenants"},
		{name: "tenant_put", method: "PUT", path: "/tenants/alpha", body: tenantPutBody(t, true)},
		{name: "tenant_get", setup: [][3]string{putAlpha}, method: "GET", path: "/tenants/alpha"},
		{name: "tenant_get_unknown", method: "GET", path: "/tenants/ghost"},
		{name: "tenant_delete", setup: [][3]string{putAlpha}, method: "DELETE", path: "/tenants/alpha"},
		{name: "tenant_validate", setup: [][3]string{putAlpha}, method: "POST", path: "/tenants/alpha/validate", body: `{}`},
		{name: "tenant_schema_get", setup: [][3]string{putAlpha}, method: "GET", path: "/tenants/alpha/schema"},
		{name: "tenant_put_no_schema", method: "PUT", path: "/tenants/alpha", body: `{}`},
		{name: "tenant_bad_name", method: "PUT", path: "/tenants/-bad", body: `{"schema": "type T { x: Int }"}`},
	}
}

// TestAPIGolden replays the checked-in request corpus against a fresh
// handler per case and compares each response — status, content type,
// normalized body — against testdata/api/<name>.golden. It is the
// regression net for the v1 surface: any change to an envelope, error
// message, status code, or field name shows up as a golden diff. Run
// with -update-api-golden to accept intended changes.
func TestAPIGolden(t *testing.T) {
	for _, c := range apiGoldenCases(t) {
		t.Run(c.name, func(t *testing.T) {
			mux := newTestHandler(t).Mux()
			for _, s := range c.setup {
				rec := doRaw(t, mux, s[0], s[1], s[2])
				if rec.Code >= 400 {
					t.Fatalf("setup %s %s: status %d: %s", s[0], s[1], rec.Code, rec.Body.String())
				}
			}
			rec := doRaw(t, mux, c.method, c.path, c.body)
			got := renderGolden(rec)

			path := filepath.Join("testdata", "api", c.name+".golden")
			if *updateAPIGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update-api-golden to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("response drifted from golden %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
			}
		})
	}
}

// renderGolden serializes a recorded response into the golden file
// format: status line, content type, blank line, normalized body.
func renderGolden(rec *httptest.ResponseRecorder) string {
	var b strings.Builder
	fmt.Fprintf(&b, "STATUS %d\n", rec.Code)
	fmt.Fprintf(&b, "CONTENT-TYPE %s\n", rec.Header().Get("Content-Type"))
	if allow := rec.Header().Get("Allow"); allow != "" {
		fmt.Fprintf(&b, "ALLOW %s\n", allow)
	}
	b.WriteString("\n")
	b.Write(normalizeAPIBody(rec.Body.Bytes()))
	return b.String()
}
