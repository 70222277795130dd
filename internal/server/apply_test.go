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
)

func postApply(t *testing.T, mux http.Handler, body string) (*httptest.ResponseRecorder, applyResponse) {
	t.Helper()
	req := httptest.NewRequest("POST", "/graph/apply", strings.NewReader(body))
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	var out applyResponse
	if rec.Code == http.StatusOK || rec.Code == http.StatusConflict {
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("decoding /graph/apply response: %v\n%s", err, rec.Body.String())
		}
	}
	return rec, out
}

func TestApplyEndpoint(t *testing.T) {
	h := newTestHandler(t)
	mux := h.Mux()
	epoch0 := h.def().g.Epoch()

	// Two new cities twinned with each other and with an existing node,
	// addressed by negative refs (-1 = first addNodes entry).
	rec, out := postApply(t, mux, `{
		"apiVersion": "v1",
		"addNodes": [
			{"label": "City", "props": {"name": "Utrecht"}},
			{"label": "City", "props": {"name": "Gent"}}
		],
		"addEdges": [
			{"src": -1, "dst": -2, "label": "twin"},
			{"src": -1, "dst": 0, "label": "twin"}
		]
	}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if out.APIVersion != "v1" || !out.Applied {
		t.Fatalf("envelope: %+v", out)
	}
	if out.Epoch <= epoch0 {
		t.Errorf("epoch did not advance: %d -> %d", epoch0, out.Epoch)
	}
	if len(out.NewNodes) != 2 || len(out.NewEdges) != 2 {
		t.Fatalf("new IDs: %+v", out)
	}
	if out.Validation != nil {
		t.Error("validation reported without being requested")
	}
	if h.def().g.NumNodes() != 4 || h.def().g.NumEdges() != 3 {
		t.Errorf("graph size after apply: %d nodes, %d edges", h.def().g.NumNodes(), h.def().g.NumEdges())
	}
}

func TestApplyEndpointRevalidates(t *testing.T) {
	h := newTestHandler(t)
	mux := h.Mux()
	postJSON(t, mux, "/validate", "") // seed the cache

	// A City without its @required name: DS5 and DS7 violations.
	rec, out := postApply(t, mux, `{"addNodes": [{"label": "City"}], "revalidate": true}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if !out.Applied || out.Validation == nil {
		t.Fatalf("expected applied+validated: %+v", out)
	}
	if out.Validation.OK || len(out.Validation.Violations) == 0 {
		t.Fatalf("violations not reported: %+v", out.Validation)
	}
	if !out.Validation.Incremental {
		t.Error("validation not marked incremental")
	}

	// The cache was updated: a plain /revalidate with an empty delta
	// still reports the violations, and a full /validate agrees.
	_, inc := postJSON(t, mux, "/revalidate", `{}`)
	_, full := postJSON(t, mux, "/validate", "")
	if len(inc.Violations) != len(full.Violations) || len(full.Violations) == 0 {
		t.Errorf("cache not updated: incremental %d vs full %d violations",
			len(inc.Violations), len(full.Violations))
	}
}

func TestApplyEndpointRequireValidRollsBack(t *testing.T) {
	h := newTestHandler(t)
	mux := h.Mux()
	postJSON(t, mux, "/validate", "")
	nodes0, edges0 := h.def().g.NumNodes(), h.def().g.NumEdges()

	// A loop edge violates @noLoops on twin; requireValid must refuse
	// and roll back.
	rec, out := postApply(t, mux, `{
		"addEdges": [{"src": 0, "dst": 0, "label": "twin"}],
		"requireValid": true
	}`)
	if rec.Code != http.StatusConflict {
		t.Fatalf("status %d, want 409: %s", rec.Code, rec.Body.String())
	}
	if out.Applied {
		t.Error("rolled-back delta reported as applied")
	}
	if out.Validation == nil || out.Validation.OK {
		t.Fatalf("409 must carry the would-be violations: %+v", out)
	}
	if h.def().g.NumNodes() != nodes0 || h.def().g.NumEdges() != edges0 {
		t.Errorf("rollback failed: %d/%d -> %d/%d", nodes0, edges0, h.def().g.NumNodes(), h.def().g.NumEdges())
	}
	// The graph is unchanged, so a full validate is still clean — and
	// the 409's validation result must not have poisoned the cache.
	_, full := postJSON(t, mux, "/validate", "")
	if !full.OK {
		t.Errorf("graph dirty after rollback: %+v", full.Violations)
	}

	// A valid mutation under requireValid commits.
	rec, out = postApply(t, mux, `{
		"addNodes": [{"label": "City", "props": {"name": "Turku"}}],
		"requireValid": true
	}`)
	if rec.Code != http.StatusOK || !out.Applied || out.Validation == nil || !out.Validation.OK {
		t.Fatalf("valid delta refused: %d %+v", rec.Code, out)
	}
}

func TestApplyEndpointBadRequests(t *testing.T) {
	h := newTestHandler(t)
	mux := h.Mux()
	for _, body := range []string{
		``,                      // empty delta
		`{}`,                    // empty delta
		`{"apiVersion": "v2"}`,  // unsupported version
		`{"removeNodes": [99]}`, // unknown node
		`{"addEdges": [{"src": -3, "dst": 0, "label": "twin"}]}`, // bad ref
		`{"bogus": 1}`, // unknown field
	} {
		rec, _ := postApply(t, mux, body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, rec.Code)
		}
	}
	// Failed applies must leave the graph untouched.
	if h.def().g.NumNodes() != 2 || h.def().g.NumEdges() != 1 {
		t.Errorf("graph mutated by rejected requests: %d/%d", h.def().g.NumNodes(), h.def().g.NumEdges())
	}
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/graph/apply", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /graph/apply: status %d, want 405", rec.Code)
	}
}

// TestApplyEndpointErrorEnvelope pins the v1 error shape: flat error
// string plus the legacy errors list.
func TestApplyEndpointErrorEnvelope(t *testing.T) {
	h := newTestHandler(t)
	mux := h.Mux()
	rec, _ := postApply(t, mux, `{"removeNodes": [99]}`)
	var env struct {
		APIVersion string `json:"apiVersion"`
		Error      string `json:"error"`
		Errors     []struct {
			Message string `json:"message"`
		} `json:"errors"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("decoding error envelope: %v\n%s", err, rec.Body.String())
	}
	if env.APIVersion != "v1" || env.Error == "" {
		t.Errorf("v1 error envelope: %+v", env)
	}
	if len(env.Errors) != 1 || env.Errors[0].Message != env.Error {
		t.Errorf("legacy errors list diverges from error string: %+v", env)
	}
}

// TestConcurrentApplyValidate races mutations against reads: the graph
// lock must keep concurrent POST /graph/apply, /validate, /revalidate,
// and /graphql requests race-clean (verified under -race in CI).
func TestConcurrentApplyValidate(t *testing.T) {
	h := newTestHandler(t)
	mux := h.Mux()
	postJSON(t, mux, "/validate", "")

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				switch i % 4 {
				case 0:
					body := fmt.Sprintf(
						`{"addNodes": [{"label": "City", "props": {"name": "n%d-%d"}}], "revalidate": true}`, i, j)
					rec, _ := postApply(t, mux, body)
					if rec.Code != http.StatusOK {
						t.Errorf("apply: status %d: %s", rec.Code, rec.Body.String())
						return
					}
				case 1:
					rec, _ := postJSON(t, mux, "/validate", `{"workers": 2}`)
					if rec.Code != http.StatusOK {
						t.Errorf("validate: status %d", rec.Code)
						return
					}
				case 2:
					rec, _ := postJSON(t, mux, "/revalidate", `{"nodes": [0]}`)
					if rec.Code != http.StatusOK {
						t.Errorf("revalidate: status %d", rec.Code)
						return
					}
				case 3:
					// Compiled plans (shared cache, epoch-keyed
					// rebinding) race the applies too. The two aliased
					// scans must see the same snapshot: a query
					// observing a torn state — an apply's node visible
					// to one scan but not the other, or a node missing
					// its required name — fails here.
					body := `{"query":
						"{ a: allCities { __typename } b: allCities { name } }"}`
					rec := httptest.NewRecorder()
					mux.ServeHTTP(rec, httptest.NewRequest("POST", "/graphql",
						strings.NewReader(body)))
					if rec.Code != http.StatusOK {
						t.Errorf("graphql: status %d: %s", rec.Code, rec.Body.String())
						return
					}
					var out struct {
						Data struct {
							A []map[string]any `json:"a"`
							B []map[string]any `json:"b"`
						} `json:"data"`
						Errors []respError `json:"errors"`
					}
					if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
						t.Errorf("graphql: decoding: %v", err)
						return
					}
					if len(out.Errors) > 0 {
						t.Errorf("graphql: %v", out.Errors)
						return
					}
					if len(out.Data.A) != len(out.Data.B) {
						t.Errorf("torn read: %d cities in scan a, %d in scan b",
							len(out.Data.A), len(out.Data.B))
						return
					}
					for _, c := range out.Data.B {
						if c["name"] == nil {
							t.Errorf("torn read: city with nil name: %v", out.Data.B)
							return
						}
					}
				}
			}
		}(i)
	}
	wg.Wait()

	// Every applied mutation survived: 2 seed nodes + 20 adds.
	if h.def().g.NumNodes() != 22 {
		t.Errorf("node count after concurrent applies: %d, want 22", h.def().g.NumNodes())
	}
	// And the final cached state answers consistently.
	_, inc := postJSON(t, mux, "/revalidate", `{}`)
	_, full := postJSON(t, mux, "/validate", "")
	if len(inc.Violations) != len(full.Violations) {
		t.Errorf("cache drifted: %d incremental vs %d full violations",
			len(inc.Violations), len(full.Violations))
	}
}

// TestV1EnvelopeGolden pins the exact v1 wire shape of the validation
// envelope. Volatile timing fields are zeroed before comparison; every
// other field must match byte-for-byte so accidental envelope changes
// fail loudly.
func TestV1EnvelopeGolden(t *testing.T) {
	h := newTestHandler(t)
	mux := h.Mux()
	rec, _ := postJSON(t, mux, "/validate", `{"apiVersion": "v1"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	for _, volatile := range []string{"compileMs", "elapsedMs", "ruleTimeMs"} {
		if _, ok := body[volatile]; !ok {
			t.Errorf("envelope lacks %q", volatile)
		}
		delete(body, volatile)
	}
	got, err := json.Marshal(body) // map marshaling sorts keys: canonical
	if err != nil {
		t.Fatal(err)
	}
	const golden = `{"apiVersion":"v1","compiled":true,"edges":1,"engine":"fused",` +
		`"incomplete":false,"incremental":false,"mode":"strong","nodes":2,"ok":true,` +
		`"truncated":false,"violations":[],"workers":1}`
	if string(got) != golden {
		t.Errorf("v1 envelope drifted:\ngot:    %s\ngolden: %s", got, golden)
	}
}

// TestApplyEnvelopeGolden pins the /graph/apply response shape the same
// way.
func TestApplyEnvelopeGolden(t *testing.T) {
	h := newTestHandler(t)
	mux := h.Mux()
	rec, _ := postApply(t, mux, `{"addNodes": [{"label": "City", "props": {"name": "Visby"}}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	const golden = `{"apiVersion":"v1","applied":true,"epoch":7,"newEdges":null,` +
		`"newNodes":[2],"touched":{"edges":null,"labels":["City"],"nodes":[2]}}`
	if string(got) != golden {
		t.Errorf("apply envelope drifted:\ngot:    %s\ngolden: %s", got, golden)
	}
}

// TestRevalidateAfterApplyMovesKeyBuckets plants @key conflicts, moves
// nodes between key buckets with an apply that does not revalidate —
// the anchor of one conflict joins another bucket, a member of a second
// conflict is relabeled away from the keyed type, a third node joins a
// bucket — and then revalidates with the apply's touched ids. The
// answer must equal a fresh full /validate.
func TestRevalidateAfterApplyMovesKeyBuckets(t *testing.T) {
	h := newTestHandler(t)
	mux := h.Mux()
	postJSON(t, mux, "/validate", "") // seed the cache

	// Nodes 2-5: conflicts {1 Amsterdam, 4} and {2, 3, 5 Gent}.
	rec, out := postApply(t, mux, `{"addNodes": [
		{"label": "City", "props": {"name": "Gent"}},
		{"label": "City", "props": {"name": "Gent"}},
		{"label": "City", "props": {"name": "Amsterdam"}},
		{"label": "City", "props": {"name": "Gent"}}], "revalidate": true}`)
	if rec.Code != http.StatusOK || out.Validation == nil {
		t.Fatalf("planting apply: %d %s", rec.Code, rec.Body.String())
	}
	ds7 := 0
	for _, v := range out.Validation.Violations {
		if v.Rule == "DS7" {
			ds7++
		}
	}
	if ds7 != 2 {
		t.Fatalf("planted %d key conflicts, want 2: %+v", ds7, out.Validation.Violations)
	}

	rec, out = postApply(t, mux, `{
		"setNodeProps": [{"node": 1, "name": "name", "value": "Gent"}, {"node": 3, "name": "name", "value": "Linköping"}],
		"relabelNodes": [{"node": 2, "label": "Town"}]}`)
	if rec.Code != http.StatusOK || out.Validation != nil {
		t.Fatalf("moving apply: %d %s", rec.Code, rec.Body.String())
	}
	body, err := json.Marshal(out.Touched)
	if err != nil {
		t.Fatal(err)
	}
	rec, inc := postJSON(t, mux, "/revalidate", string(body))
	if rec.Code != http.StatusOK {
		t.Fatalf("revalidate: %d %s", rec.Code, rec.Body.String())
	}
	_, full := postJSON(t, mux, "/validate", "")
	if !reflect.DeepEqual(inc.Violations, full.Violations) {
		t.Errorf("incremental and full results differ:\nincremental: %+v\nfull: %+v", inc.Violations, full.Violations)
	}
}
