package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// graphqlRequest is the GraphQL-over-HTTP request body, extended with
// the v1 envelope fields. Legacy bodies ({"query", "operationName"})
// keep working: apiVersion defaults to legacy-accepted.
type graphqlRequest struct {
	APIVersion    string `json:"apiVersion"`
	Query         string `json:"query"`
	OperationName string `json:"operationName"`
	// Engine is accepted for v1 compatibility and selects nothing: "",
	// "auto", "compiled" and "interpretive" all run the cached compiled
	// plan.
	Engine string `json:"engine"`
}

// graphqlResponse is the GraphQL-over-HTTP response in the v1 envelope.
// The de-facto-protocol "data"/"errors" fields are unchanged, so pre-v1
// clients keep parsing; the envelope adds which engine answered and
// what the plan cost.
type graphqlResponse struct {
	APIVersion string         `json:"apiVersion"`
	Data       map[string]any `json:"data,omitempty"`
	Errors     []respError    `json:"errors,omitempty"`
	// Engine is the execution path that answered: always "compiled".
	Engine string `json:"engine"`
	// Compiled reports that a compiled plan produced the result (false
	// on parse failures).
	Compiled bool `json:"compiled"`
	// PlanCached reports the plan was served from the handler's cache;
	// PlanMS is the time spent obtaining the plan this request (parse +
	// compile on a miss, ~0 on a hit).
	PlanCached bool    `json:"planCached"`
	PlanMS     float64 `json:"planMs"`
}

func (r graphqlResponse) appendJSON(w *jsonWriter) {
	w.open('{')
	w.stringField("apiVersion", r.APIVersion)
	if len(r.Data) > 0 {
		w.key("data")
		w.object(r.Data)
	}
	if len(r.Errors) > 0 {
		w.key("errors")
		w.open('[')
		for _, e := range r.Errors {
			w.next()
			w.open('{')
			w.stringField("message", e.Message)
			w.close('}')
		}
		w.close(']')
	}
	w.stringField("engine", r.Engine)
	w.boolField("compiled", r.Compiled)
	w.boolField("planCached", r.PlanCached)
	w.floatField("planMs", r.PlanMS)
	w.close('}')
}

// engineCompiled is the engine every GraphQL response reports.
const engineCompiled = "compiled"

// checkQueryEngine validates the v1 engine selector, returning a
// client-error message for unknown values.
func checkQueryEngine(e string) string {
	switch e {
	case "", "auto", engineCompiled, "interpretive":
		return ""
	}
	return fmt.Sprintf("unknown engine %q (want \"auto\", \"compiled\", or \"interpretive\")", e)
}

func (h *Handler) serveGraphQL(t *tenant, w http.ResponseWriter, r *http.Request) {
	var req graphqlRequest
	switch r.Method {
	case http.MethodGet:
		q := r.URL.Query()
		req.Query = q.Get("query")
		req.OperationName = q.Get("operationName")
		req.Engine = q.Get("engine")
		req.APIVersion = q.Get("apiVersion")
	case http.MethodPost:
		body, ok := h.readBody(w, r)
		if !ok {
			return
		}
		if err := json.Unmarshal(body, &req); err != nil {
			writeAPIError(w, http.StatusBadRequest, "request body is not valid JSON: "+err.Error())
			return
		}
	default:
		w.Header().Set("Allow", "GET, POST")
		writeAPIError(w, http.StatusMethodNotAllowed, "use GET or POST")
		return
	}
	if msg := checkAPIVersion(req.APIVersion); msg != "" {
		writeAPIError(w, http.StatusBadRequest, msg)
		return
	}
	if msg := checkQueryEngine(req.Engine); msg != "" {
		writeAPIError(w, http.StatusBadRequest, msg)
		return
	}
	if req.Query == "" {
		writeAPIError(w, http.StatusBadRequest, "no query provided")
		return
	}

	resp := graphqlResponse{APIVersion: apiVersion, Engine: engineCompiled}
	writeQueryError := func(msg string) {
		// GraphQL-level errors (parse, validation, execution) are 200s.
		resp.Errors = []respError{{Message: msg}}
		writeJSON(w, http.StatusOK, resp)
	}

	if err := h.reg.rlock(t); err != nil {
		writeAPIError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	defer t.gmu.RUnlock()

	planStart := time.Now()
	plan, cached, err := t.plans.Get(req.Query)
	resp.PlanMS = float64(time.Since(planStart)) / float64(time.Millisecond)
	resp.PlanCached = cached
	if err != nil {
		writeQueryError(err.Error())
		return
	}
	resp.Compiled = true
	data, err := plan.Execute(r.Context(), t.g, req.OperationName)
	if err != nil {
		writeQueryError(err.Error())
		return
	}
	resp.Data = data
	writeJSON(w, http.StatusOK, resp)
}
