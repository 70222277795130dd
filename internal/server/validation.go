package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"pgschema/internal/pg"
	"pgschema/internal/validate"
)

// engineFused is the engine every validation response reports.
const engineFused = "fused"

// maxRequestWorkers caps the per-request parallelism a client may ask
// for, so one request cannot spawn an unbounded worker pool.
const maxRequestWorkers = 64

// apiVersion is the versioned-envelope marker every /validate,
// /revalidate, and /graph/apply response carries.
const apiVersion = "v1"

// checkAPIVersion validates a request's apiVersion field. Legacy bodies
// omit it; the only other accepted value is the current version. The
// returned string is empty on success, else a client-error message.
func checkAPIVersion(v string) string {
	if v == "" || v == apiVersion {
		return ""
	}
	return fmt.Sprintf("unsupported apiVersion %q (this server speaks %q; omit the field for legacy behavior)", v, apiVersion)
}

// errorResponse is the uniform v1 error envelope. The legacy
// GraphQL-style errors list is kept alongside the flat error string so
// pre-v1 clients of the validation endpoints keep parsing.
type errorResponse struct {
	APIVersion string      `json:"apiVersion"`
	Error      string      `json:"error"`
	Errors     []respError `json:"errors"`
}

func writeAPIError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{
		APIVersion: apiVersion,
		Error:      msg,
		Errors:     []respError{{Message: msg}},
	})
}

// validateRequest is the POST /validate body. An empty body runs a full
// strong-satisfaction check sequentially.
type validateRequest struct {
	// APIVersion optionally pins the envelope version; "" (legacy) and
	// "v1" are accepted.
	APIVersion string `json:"apiVersion"`
	// Mode is "strong" (default), "weak", or "directives".
	Mode string `json:"mode"`
	// Rules restricts the run to the named rules (e.g. ["WS1", "DS7"]);
	// empty means all rules of the mode.
	Rules []string `json:"rules"`
	// MaxViolations caps the reported violations; 0 means unlimited.
	MaxViolations int `json:"maxViolations"`
	// Workers > 1 enables the parallel engine; 0 (the default) lets the
	// server autotune from the graph size and available CPUs.
	Workers int `json:"workers"`
	// ElementSharding splits element iteration across workers.
	ElementSharding bool `json:"elementSharding"`
	// Engine is accepted for v1 compatibility and selects nothing: ""
	// "auto", "fused" and "rule-by-rule" all run the fused engine.
	Engine string `json:"engine"`
	// SchedStats includes the run's scheduler telemetry (chunks, steals,
	// per-worker busy time) in the response's sched field.
	SchedStats bool `json:"schedStats"`
}

// deltaRequest is the POST /revalidate body, mirroring validate.Delta.
type deltaRequest struct {
	APIVersion string   `json:"apiVersion"`
	Nodes      []int64  `json:"nodes"`
	Edges      []int64  `json:"edges"`
	Labels     []string `json:"labels"`
}

// violationJSON is one violation on the wire, as encoding/json renders
// it.
type violationJSON struct {
	Rule     string `json:"rule"`
	Message  string `json:"message"`
	Node     int64  `json:"node"` // -1 when no node is involved
	Edge     int64  `json:"edge"` // -1 when no edge is involved
	TypeName string `json:"typeName,omitempty"`
	Field    string `json:"field,omitempty"`
	Property string `json:"property,omitempty"`
}

// violationList is a report's violation list, the validator's own slice
// (never null on the wire). The response writer appends it field by
// field; MarshalJSON is the encoding/json rendering through
// violationJSON that the writer's tests compare against.
type violationList []validate.Violation

func (l violationList) MarshalJSON() ([]byte, error) {
	out := make([]violationJSON, len(l))
	for i, v := range l {
		out[i] = violationJSON{
			Rule:     string(v.Rule),
			Message:  v.Message,
			Node:     int64(v.Node),
			Edge:     int64(v.Edge),
			TypeName: v.TypeName,
			Field:    v.Field,
			Property: v.Property,
		}
	}
	return json.Marshal(out)
}

func (l violationList) appendJSON(w *jsonWriter) {
	w.open('[')
	for i := range l {
		v := &l[i]
		w.next()
		w.open('{')
		w.stringField("rule", string(v.Rule))
		w.stringField("message", v.Message)
		w.intField("node", int64(v.Node))
		w.intField("edge", int64(v.Edge))
		if v.TypeName != "" {
			w.stringField("typeName", v.TypeName)
		}
		if v.Field != "" {
			w.stringField("field", v.Field)
		}
		if v.Property != "" {
			w.stringField("property", v.Property)
		}
		w.close('}')
	}
	w.close(']')
}

// validationResponse is the body of /validate and /revalidate answers
// (and of the validation report inside /graph/apply responses).
type validationResponse struct {
	APIVersion string        `json:"apiVersion"`
	OK         bool          `json:"ok"`
	Mode       string        `json:"mode"`
	Nodes      int           `json:"nodes"`
	Edges      int           `json:"edges"`
	Violations violationList `json:"violations"`
	Truncated  bool          `json:"truncated"`
	// Incomplete marks a run cut short by cancellation (request timeout
	// or client disconnect); its violation list is partial.
	Incomplete  bool `json:"incomplete"`
	Incremental bool `json:"incremental"`
	// Engine names the evaluation strategy that produced the result:
	// always "fused", incremental or not.
	Engine string `json:"engine"`
	// Workers is the resolved worker count the run used after clamping
	// and autotuning — 1 means sequential. Incremental runs resolve it
	// from the dirty-region size, not the graph size.
	Workers int `json:"workers"`
	// Compiled reports that the run reused the program compiled from the
	// schema at graph load; CompileMS is that one-time compile cost (the
	// same value on every response — it is amortized, not per-request).
	Compiled   bool               `json:"compiled"`
	CompileMS  float64            `json:"compileMs"`
	ElapsedMS  float64            `json:"elapsedMs"`
	RuleTimeMS map[string]float64 `json:"ruleTimeMs,omitempty"`
	// Sched is the run's scheduler telemetry, present when the request
	// set schedStats and the run dispatched on the chunk scheduler.
	Sched *schedJSON `json:"sched,omitempty"`
}

// schedJSON is scheduler telemetry on the wire.
type schedJSON struct {
	Workers    int               `json:"workers"`
	Chunks     int               `json:"chunks"`
	Steals     int               `json:"steals"`
	WallMS     float64           `json:"wallMs"`
	BusyMS     float64           `json:"busyMs"`
	MaxChunkMS float64           `json:"maxChunkMs"`
	Efficiency float64           `json:"efficiency"`
	PerWorker  []schedWorkerJSON `json:"perWorker"`
}

type schedWorkerJSON struct {
	Chunks     int     `json:"chunks"`
	Steals     int     `json:"steals"`
	BusyMS     float64 `json:"busyMs"`
	MaxChunkMS float64 `json:"maxChunkMs"`
}

func (r validationResponse) appendJSON(w *jsonWriter) {
	w.open('{')
	w.stringField("apiVersion", r.APIVersion)
	w.boolField("ok", r.OK)
	w.stringField("mode", r.Mode)
	w.intField("nodes", int64(r.Nodes))
	w.intField("edges", int64(r.Edges))
	w.key("violations")
	r.Violations.appendJSON(w)
	w.boolField("truncated", r.Truncated)
	w.boolField("incomplete", r.Incomplete)
	w.boolField("incremental", r.Incremental)
	w.stringField("engine", r.Engine)
	w.intField("workers", int64(r.Workers))
	w.boolField("compiled", r.Compiled)
	w.floatField("compileMs", r.CompileMS)
	w.floatField("elapsedMs", r.ElapsedMS)
	if len(r.RuleTimeMS) > 0 {
		w.key("ruleTimeMs")
		w.floatMap(r.RuleTimeMS)
	}
	if r.Sched != nil {
		w.key("sched")
		r.Sched.appendJSON(w)
	}
	w.close('}')
}

func (s *schedJSON) appendJSON(w *jsonWriter) {
	w.open('{')
	w.intField("workers", int64(s.Workers))
	w.intField("chunks", int64(s.Chunks))
	w.intField("steals", int64(s.Steals))
	w.floatField("wallMs", s.WallMS)
	w.floatField("busyMs", s.BusyMS)
	w.floatField("maxChunkMs", s.MaxChunkMS)
	w.floatField("efficiency", s.Efficiency)
	w.key("perWorker")
	if s.PerWorker == nil {
		w.buf = append(w.buf, "null"...)
	} else {
		w.open('[')
		for _, pw := range s.PerWorker {
			w.next()
			w.open('{')
			w.intField("chunks", int64(pw.Chunks))
			w.intField("steals", int64(pw.Steals))
			w.floatField("busyMs", pw.BusyMS)
			w.floatField("maxChunkMs", pw.MaxChunkMS)
			w.close('}')
		}
		w.close(']')
	}
	w.close('}')
}

func schedToJSON(st *validate.SchedStats) *schedJSON {
	if st == nil {
		return nil
	}
	out := &schedJSON{
		Workers:    st.Workers,
		Chunks:     st.Chunks,
		Steals:     st.Steals,
		WallMS:     float64(st.Wall) / float64(time.Millisecond),
		BusyMS:     float64(st.Busy) / float64(time.Millisecond),
		MaxChunkMS: float64(st.MaxChunk) / float64(time.Millisecond),
		Efficiency: st.Efficiency(),
		PerWorker:  make([]schedWorkerJSON, len(st.PerWorker)),
	}
	for i := range st.PerWorker {
		pw := &st.PerWorker[i]
		out.PerWorker[i] = schedWorkerJSON{
			Chunks:     pw.Chunks,
			Steals:     pw.Steals,
			BusyMS:     float64(pw.Busy) / float64(time.Millisecond),
			MaxChunkMS: float64(pw.MaxChunk) / float64(time.Millisecond),
		}
	}
	return out
}

// decodeJSONBody decodes a POST body into dst under the body cap,
// rejecting unknown fields. An empty body leaves dst at its zero value.
// The bool reports whether the caller should proceed.
func (h *Handler) decodeJSONBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		writeAPIError(w, http.StatusMethodNotAllowed, "use POST")
		return false
	}
	body, ok := h.readBody(w, r)
	if !ok {
		return false
	}
	if len(bytes.TrimSpace(body)) == 0 {
		return true
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		writeAPIError(w, http.StatusBadRequest, "request body is not valid JSON: "+err.Error())
		return false
	}
	return true
}

// options translates a validateRequest into validate.Options, reporting
// the first invalid field as a client error.
func (req *validateRequest) options() (validate.Options, string) {
	opts := validate.Options{
		MaxViolations: req.MaxViolations,
		Workers:       req.Workers,
		// Timings feed /metrics; since the parallel engine collects
		// them too, every run can afford to.
		ElementSharding: req.ElementSharding,
		CollectTimings:  true,
		// Telemetry feeds /metrics on every run; the response only
		// carries it when the request asked (see serveValidate).
		SchedStats: true,
	}
	switch req.Mode {
	case "", "strong":
		opts.Mode = validate.Strong
	case "weak":
		opts.Mode = validate.Weak
	case "directives":
		opts.Mode = validate.Directives
	default:
		return opts, fmt.Sprintf("unknown mode %q (want \"strong\", \"weak\", or \"directives\")", req.Mode)
	}
	if req.MaxViolations < 0 {
		return opts, "maxViolations must be >= 0"
	}
	if req.Workers < 0 {
		return opts, "workers must be >= 0"
	}
	if req.Workers > maxRequestWorkers {
		opts.Workers = maxRequestWorkers
	}
	switch req.Engine {
	case "", "auto", engineFused, "rule-by-rule":
	default:
		return opts, fmt.Sprintf("unknown engine %q (want \"auto\", \"fused\", or \"rule-by-rule\")", req.Engine)
	}
	known := make(map[string]validate.Rule, len(validate.AllRules))
	for _, r := range validate.AllRules {
		known[string(r)] = r
	}
	for _, name := range req.Rules {
		r, ok := known[name]
		if !ok {
			return opts, fmt.Sprintf("unknown rule %q", name)
		}
		opts.Rules = append(opts.Rules, r)
	}
	return opts, ""
}

// fullStrongRun reports whether the options describe an uncapped,
// unrestricted strong check — the only results /revalidate may build on.
func fullStrongRun(opts validate.Options) bool {
	return opts.Mode == validate.Strong && opts.Rules == nil && opts.MaxViolations == 0
}

func (h *Handler) serveValidate(t *tenant, w http.ResponseWriter, r *http.Request) {
	var req validateRequest
	if !h.decodeJSONBody(w, r, &req) {
		return
	}
	if msg := checkAPIVersion(req.APIVersion); msg != "" {
		writeAPIError(w, http.StatusBadRequest, msg)
		return
	}
	opts, problem := req.options()
	if problem != "" {
		writeAPIError(w, http.StatusBadRequest, problem)
		return
	}
	if err := h.reg.rlock(t); err != nil {
		writeAPIError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	defer t.gmu.RUnlock()
	opts.Program = t.prog
	start := time.Now()
	res := validate.ValidateContext(r.Context(), t.s, t.g, opts)
	elapsed := time.Since(start)
	h.metrics.recordValidation(t.name, res.RuleTime, res.Sched)
	if fullStrongRun(opts) && !res.Incomplete {
		t.valMu.Lock()
		t.lastResult = res
		t.valMu.Unlock()
	}
	resp := t.validationResponse(res, req.Mode, elapsed, false)
	ruleMS := make(map[string]float64, len(res.RuleTime))
	for rule, d := range res.RuleTime {
		ruleMS[string(rule)] = float64(d) / float64(time.Millisecond)
	}
	resp.RuleTimeMS = ruleMS
	if req.SchedStats {
		resp.Sched = schedToJSON(res.Sched)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (h *Handler) serveRevalidate(t *tenant, w http.ResponseWriter, r *http.Request) {
	var req deltaRequest
	if !h.decodeJSONBody(w, r, &req) {
		return
	}
	if msg := checkAPIVersion(req.APIVersion); msg != "" {
		writeAPIError(w, http.StatusBadRequest, msg)
		return
	}
	if err := h.reg.rlock(t); err != nil {
		writeAPIError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	defer t.gmu.RUnlock()
	delta := validate.Delta{Labels: req.Labels}
	for _, id := range req.Nodes {
		n := pg.NodeID(id)
		if !t.g.HasNode(n) {
			writeAPIError(w, http.StatusBadRequest, fmt.Sprintf("unknown node id %d", id))
			return
		}
		delta.Nodes = append(delta.Nodes, n)
	}
	for _, id := range req.Edges {
		e := pg.EdgeID(id)
		if !t.g.HasEdge(e) {
			writeAPIError(w, http.StatusBadRequest, fmt.Sprintf("unknown edge id %d", id))
			return
		}
		delta.Edges = append(delta.Edges, e)
	}
	t.valMu.RLock()
	prev := t.lastResult
	t.valMu.RUnlock()
	if prev == nil {
		writeAPIError(w, http.StatusConflict,
			"no cached validation result to revalidate from; POST /validate (full strong mode) first")
		return
	}
	start := time.Now()
	res := validate.Revalidate(r.Context(), t.s, t.g, prev, delta,
		validate.Options{Program: t.prog, CollectTimings: true, SchedStats: true})
	elapsed := time.Since(start)
	h.metrics.recordValidation(t.name, res.RuleTime, res.Sched)
	if !res.Incomplete {
		t.valMu.Lock()
		t.lastResult = res
		t.valMu.Unlock()
	}
	resp := t.validationResponse(res, "strong", elapsed, true)
	writeJSON(w, http.StatusOK, resp)
}

// validationResponse renders a validate.Result as the wire shape. The
// worker count comes from the result itself — what the run actually
// used, not what the request asked for. Called with the
// tenant's graph lock held (either side) and the graph resident.
func (t *tenant) validationResponse(res *validate.Result, mode string, elapsed time.Duration, incremental bool) validationResponse {
	if mode == "" {
		mode = "strong"
	}
	return validationResponse{
		APIVersion:  apiVersion,
		OK:          res.OK(),
		Mode:        mode,
		Nodes:       t.g.NumNodes(),
		Edges:       t.g.NumEdges(),
		Violations:  res.Violations,
		Truncated:   res.Truncated,
		Incomplete:  res.Incomplete,
		Incremental: incremental,
		Engine:      engineFused,
		Workers:     res.Workers,
		Compiled:    true,
		CompileMS:   float64(t.prog.Stats().CompileTime) / float64(time.Millisecond),
		ElapsedMS:   float64(elapsed) / float64(time.Millisecond),
	}
}
