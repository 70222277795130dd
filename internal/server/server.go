// Package server exposes Property Graphs behind a GraphQL HTTP endpoint
// — the deployment shape the paper's §3.6 outlook describes — together
// with an online validation service and operational endpoints.
//
// The process hosts a registry of named tenants, each an independent
// (schema, graph) pair with its own compiled validation program, query
// plan cache, epoch, snapshot persistence, and readers-writer lock — so
// one tenant's mutation never stalls another tenant's reads. Tenants
// are managed over HTTP (PUT/GET/DELETE /tenants/{name}, POST
// /tenants/{name}/schema) and served under /tenants/{name}/...; the
// pre-tenancy top-level routes (/graphql, /schema, /validate,
// /revalidate, /graph/apply) remain as aliases for the tenant named
// "default", returning byte-identical responses.
//
// The GraphQL handler speaks the de-facto GraphQL-over-HTTP protocol:
// POST a JSON body {"query": …, "operationName": …} (or GET with a
// ?query= parameter) to /tenants/{name}/graphql and receive
// {"data": …} or {"errors": [{"message": …}]}, wrapped in the v1
// envelope. Queries run through compiled plans cached per query source
// (each with an epoch-keyed binding to the tenant's graph); the
// response reports the engine, plan-cache status, and plan cost. The v1
// "engine" request field ("auto"/"compiled"/"interpretive") is still
// accepted and selects nothing.
//
// The validation service turns the validate package into a callable
// endpoint: POST /tenants/{name}/validate runs the rules of Definitions
// 5.1–5.3 over the tenant's graph (mode, rule subset, violation cap,
// and parallelism selectable per request), and POST
// /tenants/{name}/revalidate answers incrementally from the tenant's
// last cached full result given a mutation delta. GET /metrics exposes
// request counts, latency histograms, per-rule validation timings,
// per-tenant request/validation series, and registry occupancy and
// eviction counters in the Prometheus text format.
//
// Graph mutation goes through POST /tenants/{name}/graph/apply: a
// transactional delta (all-or-nothing, epoch-bumping) with optional
// incremental revalidation, and with requireValid as a commit condition
// that rolls the delta back when the mutated graph would be invalid.
// Each tenant's readers-writer lock serializes its mutations against
// its own in-flight reads only.
//
// The registry enforces an optional memory budget: when the summed
// footprint of resident columnar snapshots exceeds it, the coldest
// persisted tenants are evicted (graph, plan cache, and cached
// validation result dropped) and transparently reloaded from their
// .pgsnap on the next request.
//
// All responses and errors carry the versioned v1 envelope
// ("apiVersion", a uniform "error" string on failures); legacy request
// bodies without apiVersion are still accepted.
//
// Mux wraps the routes in a middleware stack — panic recovery,
// a per-request timeout, an in-flight concurrency limit with 503 load
// shedding, and structured access logging — configured via Config.
package server

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"time"

	"pgschema/internal/pg"
	"pgschema/internal/schema"
	"pgschema/internal/validate"
)

// DefaultMaxBodyBytes caps POST bodies when Config.MaxBodyBytes is zero.
const DefaultMaxBodyBytes = 1 << 20

// Config tunes the production behavior of the handler. The zero value
// disables every knob: no timeout, no concurrency limit, no access log,
// and the default body cap.
type Config struct {
	// RequestTimeout bounds handler execution per request; on expiry the
	// client receives 504 Gateway Timeout. 0 disables the timeout.
	RequestTimeout time.Duration
	// MaxInFlight caps concurrently executing requests; excess requests
	// are shed with 503 Service Unavailable. 0 means unlimited.
	// /healthz and /metrics bypass the limit (and the timeout) so that
	// probes and scrapes keep working under load.
	MaxInFlight int
	// MaxBodyBytes caps POST request bodies; larger bodies receive 413
	// Request Entity Too Large. 0 means DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// AccessLog, when non-nil, receives one structured line per request
	// (method, path, status, duration, remote address).
	AccessLog *slog.Logger
	// EnablePprof mounts the net/http/pprof handlers under /debug/pprof/.
	// Off by default: the profiling endpoints expose internals (heap
	// contents, command line) and can run for tens of seconds, so they
	// are opt-in and — like /healthz — sit outside the concurrency limit
	// and timeout, which would otherwise kill a 30s CPU profile.
	EnablePprof bool
	// SnapshotDir, when non-empty, makes the registry persist each
	// tenant's graph as <SnapshotDir>/<tenant>.pgsnap after every
	// mutation through its /graph/apply (written to a temp file and
	// renamed, so a crash mid-write never leaves a torn snapshot), and
	// each runtime-created tenant's schema as <tenant>.graphql. A
	// process restarted with the same directory re-creates those tenants
	// and memory-maps their snapshots, resuming at the last committed
	// epochs instead of re-ingesting source data. The directory is also
	// what makes eviction under RegistryConfig.MemoryBudget possible.
	SnapshotDir string
}

// SnapshotFileName is the fixed snapshot file name the pre-tenancy
// server persisted the single hosted graph to. The registry now writes
// TenantSnapshotFile(name) per tenant; this name survives as the legacy
// fallback `serve -snapshot-dir` still reads at startup for the default
// tenant.
const SnapshotFileName = "graph.pgsnap"

// Handler serves GraphQL queries and the validation service over a
// registry of tenants.
type Handler struct {
	reg     *Registry
	cfg     Config
	metrics *metrics
}

// New builds a single-tenant handler: the given schema and graph become
// the tenant named "default", reachable both under /tenants/default/...
// and through the legacy top-level routes. The graph must not be
// mutated out-of-band while the handler is serving — POST /graph/apply
// is the sanctioned mutation path and serializes against in-flight
// reads via the tenant's graph lock. A schema that already declares a
// type named Query cannot be extended into an API schema; the handler
// still serves queries against the original schema and GET /schema
// degrades to 404. Any other API-generation failure is returned.
func New(s *schema.Schema, g *pg.Graph, cfg Config) (*Handler, error) {
	return NewRegistry(RegistryConfig{
		Config: cfg,
		Seeds:  []TenantSeed{{Name: DefaultTenant, Schema: s, Graph: g}},
	})
}

// NewRegistry builds a multi-tenant handler: every seed becomes a
// tenant, and tenants persisted by a previous run into
// Config.SnapshotDir are restored alongside them (seeded names win).
func NewRegistry(cfg RegistryConfig) (*Handler, error) {
	reg, err := newRegistry(cfg)
	if err != nil {
		return nil, err
	}
	return &Handler{reg: reg, cfg: cfg.Config, metrics: newMetrics()}, nil
}

// NewFromCSV builds a single-tenant handler by streaming the default
// tenant's graph out of the nodes/edges CSV and validating it on
// ingest: the load seals directly into the columnar snapshot, the
// tenant's compiled program binds to it, and the resulting full strong
// run seeds the /revalidate cache — so the server is ready to answer
// incremental revalidations the moment it comes up, without a second
// pass over the graph. The loaded graph and the ingest validation
// result are returned alongside the handler.
func NewFromCSV(s *schema.Schema, nodes, edges io.Reader, cfg Config) (*Handler, *pg.Graph, *validate.Result, error) {
	prog := validate.Compile(s)
	res, g, err := validate.ValidateStream(context.Background(), s, nodes, edges,
		validate.Options{Program: prog})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("loading graph CSV: %w", err)
	}
	seed := TenantSeed{Name: DefaultTenant, Schema: s, Graph: g}
	if !res.Incomplete {
		seed.Result = res // an uncapped strong run: /revalidate can start from it
	}
	h, err := NewRegistry(RegistryConfig{Config: cfg, Seeds: []TenantSeed{seed}})
	if err != nil {
		return nil, nil, nil, err
	}
	return h, g, res, nil
}

// Registry exposes the handler's tenant registry, for the facade and
// for operational introspection.
func (h *Handler) Registry() *Registry { return h.reg }

// def returns the default tenant (nil when it has been deleted) — the
// target of the legacy top-level routes.
func (h *Handler) def() *tenant { return h.reg.get(DefaultTenant) }

// tenantHandler adapts a per-tenant handler method into an
// http.HandlerFunc that resolves the {name} path segment against the
// registry, answering 404 in the v1 envelope for unknown tenants.
func (h *Handler) tenantHandler(fn func(*tenant, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		t := h.reg.get(name)
		if t == nil {
			writeAPIError(w, http.StatusNotFound, fmt.Sprintf("unknown tenant %q", name))
			return
		}
		fn(t, w, r)
	}
}

// legacyHandler adapts a per-tenant handler method into the pre-tenancy
// top-level route: the same code path as /tenants/default/..., so the
// alias is byte-identical by construction.
func (h *Handler) legacyHandler(fn func(*tenant, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t := h.def()
		if t == nil {
			writeAPIError(w, http.StatusNotFound, fmt.Sprintf("unknown tenant %q", DefaultTenant))
			return
		}
		fn(t, w, r)
	}
}

// Mux returns the full route table wrapped in the middleware stack:
//
//	GET         /tenants                      list tenants
//	PUT/GET/DELETE /tenants/{name}            tenant CRUD
//	POST/GET    /tenants/{name}/schema        replace / fetch the schema
//	POST/GET    /tenants/{name}/graphql       query execution
//	POST        /tenants/{name}/validate      run schema validation
//	POST        /tenants/{name}/revalidate    incremental validation
//	POST        /tenants/{name}/graph/apply   transactional mutation
//	POST/GET    /graphql                      alias of the default tenant
//	GET         /schema                       alias of the default tenant
//	POST        /validate                     alias of the default tenant
//	POST        /revalidate                   alias of the default tenant
//	POST        /graph/apply                  alias of the default tenant
//	GET         /metrics                      Prometheus-format metrics
//	GET         /healthz                      liveness
//
// Ordered outside-in: access log + metrics, panic recovery, concurrency
// limit, request timeout. /healthz, /metrics, and (when enabled)
// /debug/pprof/ sit outside the limit and timeout so they answer even
// when the API is saturated.
func (h *Handler) Mux() http.Handler {
	api := http.NewServeMux()
	api.HandleFunc("/tenants", h.serveTenantList)
	api.HandleFunc("/tenants/{name}", h.serveTenant)
	api.HandleFunc("/tenants/{name}/schema", h.serveTenantSchema)
	api.HandleFunc("/tenants/{name}/graphql", h.tenantHandler(h.serveGraphQL))
	api.HandleFunc("/tenants/{name}/validate", h.tenantHandler(h.serveValidate))
	api.HandleFunc("/tenants/{name}/revalidate", h.tenantHandler(h.serveRevalidate))
	api.HandleFunc("/tenants/{name}/graph/apply", h.tenantHandler(h.serveApply))
	api.HandleFunc("/graphql", h.legacyHandler(h.serveGraphQL))
	api.HandleFunc("/schema", h.legacyHandler(h.serveSchema))
	api.HandleFunc("/validate", h.legacyHandler(h.serveValidate))
	api.HandleFunc("/revalidate", h.legacyHandler(h.serveRevalidate))
	api.HandleFunc("/graph/apply", h.legacyHandler(h.serveApply))
	api.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeAPIError(w, http.StatusNotFound, fmt.Sprintf("no such route: %s", r.URL.Path))
	})
	var stack http.Handler = api
	stack = h.withTimeout(stack)
	stack = h.limitInFlight(stack)

	root := http.NewServeMux()
	root.Handle("/", stack)
	root.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	root.HandleFunc("/metrics", h.serveMetrics)
	if h.cfg.EnablePprof {
		root.HandleFunc("/debug/pprof/", pprof.Index)
		root.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		root.HandleFunc("/debug/pprof/profile", pprof.Profile)
		root.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		root.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}

	var hh http.Handler = root
	hh = h.recoverPanics(hh)
	hh = h.observe(hh)
	return hh
}

// response is the GraphQL-over-HTTP response body shape shared by the
// query endpoint's data/errors fields.
type response struct {
	Data   map[string]any `json:"data,omitempty"`
	Errors []respError    `json:"errors,omitempty"`
}

type respError struct {
	Message string `json:"message"`
}

// maxBodyBytes resolves the configured body cap.
func (h *Handler) maxBodyBytes() int64 {
	if h.cfg.MaxBodyBytes > 0 {
		return h.cfg.MaxBodyBytes
	}
	return DefaultMaxBodyBytes
}

// readBody reads a POST body under the size cap. Oversized bodies get a
// 413 — reading one byte past the limit distinguishes "too large" from
// "exactly at the limit", instead of silently truncating into a
// misleading JSON parse error. The bool reports whether the caller
// should proceed (on false the response has been written).
func (h *Handler) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	limit := h.maxBodyBytes()
	body, err := io.ReadAll(io.LimitReader(r.Body, limit+1))
	if err != nil {
		writeAPIError(w, http.StatusBadRequest, "reading request body: "+err.Error())
		return nil, false
	}
	if int64(len(body)) > limit {
		writeAPIError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds the %d-byte limit", limit))
		return nil, false
	}
	return body, true
}

// serveSchema answers GET with the tenant's generated API schema as SDL
// text. The schema fields are guarded by the tenant's graph lock (a
// schema replacement swaps them under the writer side), but the graph
// itself is not needed — an evicted tenant serves its schema without a
// reload.
func (h *Handler) serveSchema(t *tenant, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		writeAPIError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	t.gmu.RLock()
	apiSDL := t.apiSDL
	t.gmu.RUnlock()
	if apiSDL == "" {
		writeAPIError(w, http.StatusNotFound, "no generated API schema available")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, apiSDL)
}

// writeJSON answers with v in encoding/json's indented layout. The body
// is encoded in full before the status goes out, so a value that cannot
// be encoded (a NaN or infinite float read from the graph) is answered
// with a 500 error envelope naming it, not with a truncated 200.
func writeJSON(w http.ResponseWriter, status int, v any) {
	jw := getJSONWriter()
	defer jw.free()
	if err := jw.encode(v); err != nil {
		writeAPIError(w, http.StatusInternalServerError, "encoding response: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(jw.buf) // a client gone mid-write has nobody left to tell
}
