package server

import (
	"net/http"
	"sort"
	"strconv"
	"time"

	"pgschema/internal/pg"
	"pgschema/internal/validate"
	"pgschema/internal/values"
)

// applyNodeSpec describes one node to create. Props map property names
// to JSON values (string, number, boolean, or list thereof).
type applyNodeSpec struct {
	Label string                  `json:"label"`
	Props map[string]values.Value `json:"props"`
}

// applyEdgeSpec describes one edge to create. Src and Dst are node ids;
// a negative value -k refers to the k-th node of addNodes (1-based): -1
// is the first node the same request creates — the pg.NewNodeRef
// encoding on the wire.
type applyEdgeSpec struct {
	Src   int64                   `json:"src"`
	Dst   int64                   `json:"dst"`
	Label string                  `json:"label"`
	Props map[string]values.Value `json:"props"`
}

type applyRelabelSpec struct {
	Node  int64  `json:"node"`
	Label string `json:"label"`
}

type applyNodePropSpec struct {
	Node  int64        `json:"node"`
	Name  string       `json:"name"`
	Value values.Value `json:"value"`
}

type applyNodePropDelSpec struct {
	Node int64  `json:"node"`
	Name string `json:"name"`
}

type applyEdgePropSpec struct {
	Edge  int64        `json:"edge"`
	Name  string       `json:"name"`
	Value values.Value `json:"value"`
}

type applyEdgePropDelSpec struct {
	Edge int64  `json:"edge"`
	Name string `json:"name"`
}

// applyRequest is the POST /graph/apply body: a transactional mutation
// batch in pg.Delta group order, plus validation policy flags.
type applyRequest struct {
	APIVersion string `json:"apiVersion"`

	AddNodes     []applyNodeSpec        `json:"addNodes"`
	AddEdges     []applyEdgeSpec        `json:"addEdges"`
	RelabelNodes []applyRelabelSpec     `json:"relabelNodes"`
	SetNodeProps []applyNodePropSpec    `json:"setNodeProps"`
	DelNodeProps []applyNodePropDelSpec `json:"delNodeProps"`
	SetEdgeProps []applyEdgePropSpec    `json:"setEdgeProps"`
	DelEdgeProps []applyEdgePropDelSpec `json:"delEdgeProps"`
	RemoveEdges  []int64                `json:"removeEdges"`
	RemoveNodes  []int64                `json:"removeNodes"`

	// Revalidate runs incremental revalidation after the delta commits
	// and reports the new result in the response.
	Revalidate bool `json:"revalidate"`
	// RequireValid additionally makes validity a commit condition: if
	// the mutated graph has violations, the delta is rolled back and the
	// response is 409 Conflict carrying the would-be violations.
	RequireValid bool `json:"requireValid"`
}

// sortedProps flattens a JSON props object into deterministic
// name-sorted entries.
func sortedProps(m map[string]values.Value) []pg.PropEntry {
	if len(m) == 0 {
		return nil
	}
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]pg.PropEntry, 0, len(names))
	for _, name := range names {
		out = append(out, pg.PropEntry{Name: name, Value: m[name]})
	}
	return out
}

// delta translates the request into a pg.Delta. Element-id validity is
// left to Apply itself (which rejects the whole batch atomically).
func (req *applyRequest) delta() pg.Delta {
	var d pg.Delta
	for _, sp := range req.AddNodes {
		d.AddNodes = append(d.AddNodes, pg.AddNodeSpec{Label: sp.Label, Props: sortedProps(sp.Props)})
	}
	for _, sp := range req.AddEdges {
		d.AddEdges = append(d.AddEdges, pg.AddEdgeSpec{
			Src: pg.NodeID(sp.Src), Dst: pg.NodeID(sp.Dst),
			Label: sp.Label, Props: sortedProps(sp.Props),
		})
	}
	for _, sp := range req.RelabelNodes {
		d.RelabelNodes = append(d.RelabelNodes, pg.RelabelSpec{Node: pg.NodeID(sp.Node), Label: sp.Label})
	}
	for _, sp := range req.SetNodeProps {
		d.SetNodeProps = append(d.SetNodeProps, pg.NodePropSpec{Node: pg.NodeID(sp.Node), Name: sp.Name, Value: sp.Value})
	}
	for _, sp := range req.DelNodeProps {
		d.DelNodeProps = append(d.DelNodeProps, pg.NodePropDelSpec{Node: pg.NodeID(sp.Node), Name: sp.Name})
	}
	for _, sp := range req.SetEdgeProps {
		d.SetEdgeProps = append(d.SetEdgeProps, pg.EdgePropSpec{Edge: pg.EdgeID(sp.Edge), Name: sp.Name, Value: sp.Value})
	}
	for _, sp := range req.DelEdgeProps {
		d.DelEdgeProps = append(d.DelEdgeProps, pg.EdgePropDelSpec{Edge: pg.EdgeID(sp.Edge), Name: sp.Name})
	}
	for _, id := range req.RemoveEdges {
		d.RemoveEdges = append(d.RemoveEdges, pg.EdgeID(id))
	}
	for _, id := range req.RemoveNodes {
		d.RemoveNodes = append(d.RemoveNodes, pg.NodeID(id))
	}
	return d
}

// touchedJSON is the directly-mutated element report in an apply
// response.
type touchedJSON struct {
	Nodes  []int64  `json:"nodes"`
	Edges  []int64  `json:"edges"`
	Labels []string `json:"labels"`
}

// applyResponse is the POST /graph/apply response body.
type applyResponse struct {
	APIVersion string `json:"apiVersion"`
	// Applied is false when requireValid rolled the delta back.
	Applied bool `json:"applied"`
	// Epoch is the graph version after the request — also advanced by a
	// rollback, which replays the inverse mutations.
	Epoch    uint64      `json:"epoch"`
	NewNodes []int64     `json:"newNodes"`
	NewEdges []int64     `json:"newEdges"`
	Touched  touchedJSON `json:"touched"`
	// Validation carries the post-mutation validation result when the
	// request asked for one (revalidate or requireValid).
	Validation *validationResponse `json:"validation,omitempty"`
}

func (r applyResponse) appendJSON(w *jsonWriter) {
	w.open('{')
	w.stringField("apiVersion", r.APIVersion)
	w.boolField("applied", r.Applied)
	w.key("epoch")
	w.buf = strconv.AppendUint(w.buf, r.Epoch, 10)
	w.key("newNodes")
	w.ints(r.NewNodes)
	w.key("newEdges")
	w.ints(r.NewEdges)
	w.key("touched")
	w.open('{')
	w.key("nodes")
	w.ints(r.Touched.Nodes)
	w.key("edges")
	w.ints(r.Touched.Edges)
	w.key("labels")
	w.strings(r.Touched.Labels)
	w.close('}')
	if r.Validation != nil {
		w.key("validation")
		r.Validation.appendJSON(w)
	}
	w.close('}')
}

func (h *Handler) serveApply(t *tenant, w http.ResponseWriter, r *http.Request) {
	var req applyRequest
	if !h.decodeJSONBody(w, r, &req) {
		return
	}
	if msg := checkAPIVersion(req.APIVersion); msg != "" {
		writeAPIError(w, http.StatusBadRequest, msg)
		return
	}
	d := req.delta()
	if d.Empty() && !req.Revalidate && !req.RequireValid {
		writeAPIError(w, http.StatusBadRequest, "empty delta: no mutations specified")
		return
	}

	// Budget enforcement runs after the writer lock is released (defers
	// run LIFO), so this request's own tenant lock is free by the time
	// eviction probes victims.
	defer h.reg.enforceBudget(t)
	// Writer side of the tenant's graph lock: mutation and its
	// certification run exclusive of this tenant's in-flight reads
	// (query/validate/revalidate) — other tenants are untouched.
	if err := h.reg.wlock(t); err != nil {
		writeAPIError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	defer t.gmu.Unlock()

	before := t.g.Epoch()
	u, err := t.g.Apply(d)
	if err != nil {
		writeAPIError(w, http.StatusBadRequest, "applying delta: "+err.Error())
		return
	}
	// The graph mutated (even a later requireValid rollback replays
	// inverse mutations and advances the epoch), so refresh the cached
	// stats on every path out of this handler, before the writer lock
	// is released. Every path that answers makes its outcome durable
	// first: logged records are what a restart replays.
	defer t.noteGraph()
	// commit logs the applied delta, or undoes it and answers 500 with
	// the error envelope when the log cannot take it: the server never
	// acknowledges a delta that is not durable.
	commit := func() bool {
		err := h.reg.logApply(t, before, d, false)
		if err == nil {
			return true
		}
		msg := "persisting delta: " + err.Error()
		if uerr := u.Undo(); uerr != nil {
			msg += "; rolling back: " + uerr.Error()
		} else {
			msg += "; delta rolled back"
			h.reg.rebase(t)
		}
		writeAPIError(w, http.StatusInternalServerError, msg)
		return false
	}
	resp := applyResponse{
		APIVersion: apiVersion,
		Applied:    true,
		Epoch:      t.g.Epoch(),
	}
	for _, n := range u.NewNodes() {
		resp.NewNodes = append(resp.NewNodes, int64(n))
	}
	for _, e := range u.NewEdges() {
		resp.NewEdges = append(resp.NewEdges, int64(e))
	}
	tc := u.Touched()
	for _, n := range tc.Nodes {
		resp.Touched.Nodes = append(resp.Touched.Nodes, int64(n))
	}
	for _, e := range tc.Edges {
		resp.Touched.Edges = append(resp.Touched.Edges, int64(e))
	}
	resp.Touched.Labels = tc.Labels

	if !req.Revalidate && !req.RequireValid {
		if commit() {
			writeJSON(w, http.StatusOK, resp)
		}
		return
	}

	t.valMu.RLock()
	prev := t.lastResult
	t.valMu.RUnlock()
	start := time.Now()
	res := validate.Revalidate(r.Context(), t.s, t.g, prev,
		validate.DeltaFor(tc), validate.Options{Program: t.prog, CollectTimings: true})
	elapsed := time.Since(start)
	h.metrics.recordValidation(t.name, res.RuleTime, res.Sched)

	if req.RequireValid && res.Incomplete {
		// The run was cut short (request timeout / client gone): the
		// graph cannot be certified, so the commit condition fails.
		if err := u.Undo(); err != nil {
			t.forgetLog()
			writeAPIError(w, http.StatusInternalServerError, "rolling back uncertified delta: "+err.Error())
			return
		}
		if err := h.reg.logApply(t, before, d, true); err != nil {
			h.reg.rebase(t)
			writeAPIError(w, http.StatusInternalServerError, "persisting rolled-back delta: "+err.Error())
			return
		}
		writeAPIError(w, http.StatusServiceUnavailable,
			"validation was cancelled before completing; delta rolled back")
		return
	}
	vr := t.validationResponse(res, "strong", elapsed, true)
	if req.RequireValid && !res.OK() {
		if err := u.Undo(); err != nil {
			t.forgetLog()
			writeAPIError(w, http.StatusInternalServerError, "rolling back invalid delta: "+err.Error())
			return
		}
		if err := h.reg.logApply(t, before, d, true); err != nil {
			h.reg.rebase(t)
			writeAPIError(w, http.StatusInternalServerError, "persisting rolled-back delta: "+err.Error())
			return
		}
		resp.Applied = false
		resp.Epoch = t.g.Epoch()
		resp.Validation = &vr
		writeJSON(w, http.StatusConflict, resp)
		return
	}
	if !commit() {
		return
	}
	if !res.Incomplete {
		t.valMu.Lock()
		t.lastResult = res
		t.valMu.Unlock()
	}
	resp.Validation = &vr
	writeJSON(w, http.StatusOK, resp)
}
