package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"pgschema/internal/parser"
	"pgschema/internal/pg"
	"pgschema/internal/schema"
	"pgschema/internal/validate"
)

// tenantGraphSpec selects the initial graph of a tenant being created:
// exactly one of the sources, or none for an empty graph.
type tenantGraphSpec struct {
	// JSON is an inline graph document in the pg JSON format.
	JSON json.RawMessage `json:"json,omitempty"`
	// NodesCSV/EdgesCSV are inline CSV text in the pg CSV format; both
	// must be present together.
	NodesCSV string `json:"nodesCsv,omitempty"`
	EdgesCSV string `json:"edgesCsv,omitempty"`
	// Snapshot is a server-side path to a .pgsnap file to memory-map.
	Snapshot string `json:"snapshot,omitempty"`
}

// load materializes the spec into a graph.
func (sp *tenantGraphSpec) load() (*pg.Graph, error) {
	sources := 0
	if len(sp.JSON) > 0 {
		sources++
	}
	if sp.NodesCSV != "" || sp.EdgesCSV != "" {
		sources++
	}
	if sp.Snapshot != "" {
		sources++
	}
	if sources > 1 {
		return nil, fmt.Errorf("graph spec must name one source: json, nodesCsv+edgesCsv, or snapshot")
	}
	switch {
	case len(sp.JSON) > 0:
		g, err := pg.ReadJSON(bytes.NewReader(sp.JSON))
		if err != nil {
			return nil, fmt.Errorf("reading graph JSON: %w", err)
		}
		return g, nil
	case sp.NodesCSV != "" || sp.EdgesCSV != "":
		if sp.NodesCSV == "" || sp.EdgesCSV == "" {
			return nil, fmt.Errorf("graph spec needs both nodesCsv and edgesCsv")
		}
		g, err := pg.ReadCSVStream(strings.NewReader(sp.NodesCSV), strings.NewReader(sp.EdgesCSV))
		if err != nil {
			return nil, fmt.Errorf("reading graph CSV: %w", err)
		}
		return g, nil
	case sp.Snapshot != "":
		g, err := pg.OpenSnapshot(sp.Snapshot)
		if err != nil {
			return nil, fmt.Errorf("opening snapshot: %w", err)
		}
		return g, nil
	}
	return pg.New(), nil
}

// tenantPutRequest is the PUT /tenants/{name} body: the tenant's schema
// as SDL source plus an optional initial graph.
type tenantPutRequest struct {
	APIVersion string           `json:"apiVersion"`
	Schema     string           `json:"schema"`
	Graph      *tenantGraphSpec `json:"graph"`
}

// schemaPutRequest is the POST /tenants/{name}/schema body: a
// replacement schema for an existing tenant, keeping its graph.
type schemaPutRequest struct {
	APIVersion string `json:"apiVersion"`
	Schema     string `json:"schema"`
}

// tenantInfo describes one tenant in /tenants responses. Nodes, edges,
// and epoch are the last observed values — exact while the tenant is
// resident, and the pre-eviction state otherwise (reporting must not
// force a reload).
type tenantInfo struct {
	Name  string `json:"name"`
	Nodes int64  `json:"nodes"`
	Edges int64  `json:"edges"`
	Epoch uint64 `json:"epoch"`
	// Resident reports the columnar snapshot is in memory; an evicted
	// tenant reloads it from its persisted .pgsnap and .pglog on the
	// next request.
	Resident bool `json:"resident"`
	// MemoryBytes is the estimated resident footprint counted against
	// the registry's memory budget (0 while evicted).
	MemoryBytes int64 `json:"memoryBytes"`
	// Persisted reports the tenant's snapshot and log in the snapshot
	// directory hold its current graph — the precondition for eviction
	// and restart recovery.
	Persisted bool `json:"persisted"`
}

func (t *tenant) info() tenantInfo {
	return tenantInfo{
		Name:        t.name,
		Nodes:       t.nodes.Load(),
		Edges:       t.edges.Load(),
		Epoch:       t.epoch.Load(),
		Resident:    t.resident(),
		MemoryBytes: t.bytes.Load(),
		Persisted:   t.persisted.Load(),
	}
}

// tenantInfoResponse is the GET/PUT /tenants/{name} response body.
type tenantInfoResponse struct {
	APIVersion string     `json:"apiVersion"`
	Tenant     tenantInfo `json:"tenant"`
}

// tenantListResponse is the GET /tenants response body, with registry
// occupancy alongside the per-tenant rows.
type tenantListResponse struct {
	APIVersion    string       `json:"apiVersion"`
	Tenants       []tenantInfo `json:"tenants"`
	Resident      int          `json:"resident"`
	ResidentBytes int64        `json:"residentBytes"`
	MemoryBudget  int64        `json:"memoryBudget"`
	Evictions     int64        `json:"evictions"`
	Reloads       int64        `json:"reloads"`
}

// tenantDeleteResponse is the DELETE /tenants/{name} response body.
type tenantDeleteResponse struct {
	APIVersion string `json:"apiVersion"`
	Deleted    string `json:"deleted"`
}

func (h *Handler) serveTenantList(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		writeAPIError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	st := h.reg.stats()
	resp := tenantListResponse{
		APIVersion:    apiVersion,
		Tenants:       []tenantInfo{},
		Resident:      st.resident,
		ResidentBytes: st.residentBytes,
		MemoryBudget:  st.budget,
		Evictions:     st.evictions,
		Reloads:       st.reloads,
	}
	for _, name := range h.reg.names() {
		if t := h.reg.get(name); t != nil {
			resp.Tenants = append(resp.Tenants, t.info())
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (h *Handler) serveTenant(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	switch r.Method {
	case http.MethodGet:
		t := h.reg.get(name)
		if t == nil {
			writeAPIError(w, http.StatusNotFound, fmt.Sprintf("unknown tenant %q", name))
			return
		}
		writeJSON(w, http.StatusOK, tenantInfoResponse{APIVersion: apiVersion, Tenant: t.info()})
	case http.MethodPut:
		h.serveTenantPut(name, w, r)
	case http.MethodDelete:
		if !h.reg.delete(name) {
			writeAPIError(w, http.StatusNotFound, fmt.Sprintf("unknown tenant %q", name))
			return
		}
		writeJSON(w, http.StatusOK, tenantDeleteResponse{APIVersion: apiVersion, Deleted: name})
	default:
		w.Header().Set("Allow", "GET, PUT, DELETE")
		writeAPIError(w, http.StatusMethodNotAllowed, "use GET, PUT, or DELETE")
	}
}

func (h *Handler) serveTenantPut(name string, w http.ResponseWriter, r *http.Request) {
	if !ValidTenantName(name) {
		writeAPIError(w, http.StatusBadRequest,
			fmt.Sprintf("invalid tenant name %q (want 1-64 characters of [A-Za-z0-9_-], starting alphanumeric)", name))
		return
	}
	body, ok := h.readBody(w, r)
	if !ok {
		return
	}
	var req tenantPutRequest
	if len(bytes.TrimSpace(body)) > 0 {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			writeAPIError(w, http.StatusBadRequest, "request body is not valid JSON: "+err.Error())
			return
		}
	}
	if msg := checkAPIVersion(req.APIVersion); msg != "" {
		writeAPIError(w, http.StatusBadRequest, msg)
		return
	}
	if req.Schema == "" {
		writeAPIError(w, http.StatusBadRequest, "no schema provided")
		return
	}
	seed := TenantSeed{Name: name, SDL: req.Schema}
	if req.Graph != nil {
		g, err := req.Graph.load()
		if err != nil {
			writeAPIError(w, http.StatusBadRequest, err.Error())
			return
		}
		seed.Graph = g
	}
	existed := h.reg.has(name)
	t, err := h.reg.create(seed, true)
	if err != nil {
		writeAPIError(w, http.StatusBadRequest, err.Error())
		return
	}
	status := http.StatusCreated
	if existed {
		status = http.StatusOK
	}
	writeJSON(w, status, tenantInfoResponse{APIVersion: apiVersion, Tenant: t.info()})
}

// serveTenantSchema replaces (POST) or fetches (GET) a tenant's schema.
// A replacement recompiles the validation program, resets the query
// plan cache, and drops the cached validation result — the old result
// certified the old rules — while the graph and its epoch carry over.
func (h *Handler) serveTenantSchema(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	t := h.reg.get(name)
	if t == nil {
		writeAPIError(w, http.StatusNotFound, fmt.Sprintf("unknown tenant %q", name))
		return
	}
	switch r.Method {
	case http.MethodGet:
		h.serveSchema(t, w, r)
	case http.MethodPost:
		var req schemaPutRequest
		if !h.decodeJSONBody(w, r, &req) {
			return
		}
		if msg := checkAPIVersion(req.APIVersion); msg != "" {
			writeAPIError(w, http.StatusBadRequest, msg)
			return
		}
		if req.Schema == "" {
			writeAPIError(w, http.StatusBadRequest, "no schema provided")
			return
		}
		doc, err := parser.Parse(req.Schema)
		if err != nil {
			writeAPIError(w, http.StatusBadRequest, "parsing schema: "+err.Error())
			return
		}
		s, err := schema.Build(doc, schema.Options{})
		if err != nil {
			writeAPIError(w, http.StatusBadRequest, "building schema: "+err.Error())
			return
		}
		t.gmu.Lock()
		err = t.setSchema(s, req.Schema, validate.Compile(s))
		if err == nil {
			t.valMu.Lock()
			t.lastResult = nil
			t.valMu.Unlock()
			persist := h.reg.persistSchema
			if !t.persisted.Load() && t.g != nil {
				// The graph is not on disk yet (a seeded tenant before
				// its first apply): write it too, so a schema file never
				// names a graph a restart cannot find.
				persist = h.reg.persistTenant
			}
			if err := persist(t); err != nil && h.cfg.AccessLog != nil {
				// The in-memory schema is the source of truth; the file
				// is what a restart reads back.
				h.cfg.AccessLog.Error("persisting tenant schema", "tenant", t.name, "error", err)
			}
		}
		t.gmu.Unlock()
		if err != nil {
			writeAPIError(w, http.StatusBadRequest, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, tenantInfoResponse{APIVersion: apiVersion, Tenant: t.info()})
	default:
		w.Header().Set("Allow", "GET, POST")
		writeAPIError(w, http.StatusMethodNotAllowed, "use GET or POST")
	}
}
