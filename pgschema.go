// Package pgschema is a complete implementation of "Defining Schemas for
// Property Graphs by using the GraphQL Schema Definition Language"
// (Hartig and Hidders, GRADES-NDA 2019).
//
// The package repurposes the GraphQL SDL (June 2018 edition) as a schema
// language for Property Graphs: object types name node labels, attribute
// fields declare node properties, relationship fields declare outgoing
// edges, field arguments declare edge properties, and six directives
// (@required, @key, @distinct, @noLoops, @uniqueForTarget,
// @requiredForTarget) express the paper's constraint repertoire.
//
// Three capabilities are exposed:
//
//   - ParseSchema compiles SDL text into the paper's formal schema
//     (Definition 4.1), verifying interface and directives consistency
//     (Definitions 4.3–4.5);
//   - ValidateGraphContext decides strong/weak/directives satisfaction
//     (Definitions 5.1–5.3) of a Property Graph, reporting every
//     violation with its rule (WS1–WS4, DS1–DS7, SS1–SS4);
//   - CheckType decides object-type satisfiability (§6.2) with a
//     three-stage portfolio (counting, ALCQI tableau, bounded
//     finite-model search) and produces witness graphs.
//
// The subsystems live in internal packages and are re-exported here as
// type aliases, so this package is the entire public surface.
//
// # Mutation and incremental revalidation
//
// A hosted Graph is mutated transactionally: build a GraphDelta (node
// and edge additions, removals, relabels, and property edits), call
// Graph.Apply, and keep the returned Undo to roll the batch back. Apply
// is all-or-nothing — a rejected delta leaves the graph untouched — and
// bumps the graph's epoch, which invalidates cached snapshots and
// bindings. Revalidate then updates a previous validation result for
// the applied delta without re-checking the whole graph.
//
// # Migration: context-first validation API (v1 surface)
//
// The validation entry points now take a context.Context first, so
// server timeouts and client disconnects cancel in-flight work:
//
//   - Revalidate(ctx, s, g, prev, delta, opts) replaces both the old
//     Revalidate(s, g, prev, delta) and the removed
//     RevalidateWithOptions(s, g, prev, delta, opts) — pass
//     context.Background() for the old behavior;
//   - ValidateGraphContext(ctx, s, g, opts) replaces the removed
//     ValidateGraph(s, g, opts);
//   - ParseQuery(src) followed by ExecuteQueryContext(ctx, s, g, doc, "")
//     replaces the removed ExecuteQuery(s, g, src);
//   - CompileValidationContext(ctx, s) is CompileValidation under a
//     context.
//
// CompileValidation remains as a thin wrapper over a background context.
// A cancelled run returns a result with Incomplete set — such a result
// carries whatever violations were found, but must not seed a later
// Revalidate.
package pgschema

import (
	"context"
	"io"
	"net/http"

	"pgschema/internal/apigen"
	"pgschema/internal/gen"
	"pgschema/internal/parser"
	"pgschema/internal/pg"
	"pgschema/internal/printer"
	"pgschema/internal/query"
	"pgschema/internal/sat"
	"pgschema/internal/schema"
	"pgschema/internal/server"
	"pgschema/internal/validate"
	"pgschema/internal/values"
)

// Schema is the formal GraphQL schema of Definition 4.1.
type Schema = schema.Schema

// TypeDef is a named type with its fields and directives.
type TypeDef = schema.TypeDef

// FieldDef is a field definition with its type and arguments.
type FieldDef = schema.FieldDef

// TypeRef is a possibly wrapped type reference (t, t!, [t], [t!], [t]!,
// [t!]!).
type TypeRef = schema.TypeRef

// BuildOptions configures ParseSchema.
type BuildOptions = schema.Options

// Graph is a Property Graph (V, E, ρ, λ, σ) per Definition 2.1.
type Graph = pg.Graph

// NodeID identifies a node in a Graph.
type NodeID = pg.NodeID

// EdgeID identifies an edge in a Graph.
type EdgeID = pg.EdgeID

// Value is a property value: a scalar, an enum value, a list, or null.
type Value = values.Value

// Violation is one failed rule instance from a validation run.
type Violation = validate.Violation

// Rule identifies a satisfaction rule (WS1–WS4, DS1–DS7, SS1–SS4).
type Rule = validate.Rule

// ValidationResult is the outcome of ValidateGraphContext.
type ValidationResult = validate.Result

// ValidateOptions configures ValidateGraphContext.
type ValidateOptions = validate.Options

// ValidationProgram is a schema compiled for repeated validation: symbol
// tables, per-label field classifications, and directive obligations are
// precomputed once and reused across runs via ValidateOptions.Program.
type ValidationProgram = validate.Program

// ProgramStats summarizes a compiled ValidationProgram.
type ProgramStats = validate.ProgramStats

// SatReport is the outcome of CheckType / CheckField.
type SatReport = sat.Report

// SatOptions configures CheckType / CheckField.
type SatOptions = sat.Options

// GenConfig configures GenerateConformant.
type GenConfig = gen.Config

// Validation modes (which satisfaction notion ValidateGraphContext checks).
const (
	Strong     = validate.Strong
	Weak       = validate.Weak
	Directives = validate.Directives
)

// Satisfiability verdicts.
const (
	Satisfiable   = sat.Satisfiable
	Unsatisfiable = sat.Unsatisfiable
	Unknown       = sat.Unknown
)

// Value constructors.
var (
	// Null is the distinguished null value.
	Null = values.Null
)

// Int returns an integer property value.
func Int(v int64) Value { return values.Int(v) }

// Float returns a floating-point property value.
func Float(v float64) Value { return values.Float(v) }

// String returns a string property value.
func String(v string) Value { return values.String(v) }

// Boolean returns a boolean property value.
func Boolean(v bool) Value { return values.Boolean(v) }

// ID returns an identifier property value.
func ID(v string) Value { return values.ID(v) }

// Enum returns an enum property value.
func Enum(name string) Value { return values.Enum(name) }

// List returns a list property value.
func List(elems ...Value) Value { return values.List(elems...) }

// ParseSchema parses SDL source text and builds a consistent schema.
func ParseSchema(src string) (*Schema, error) {
	return ParseSchemaWithOptions(src, BuildOptions{})
}

// ParseSchemaWithOptions parses SDL source with explicit build options
// (e.g. ignoring unknown directives, or skipping the consistency check).
func ParseSchemaWithOptions(src string, opts BuildOptions) (*Schema, error) {
	doc, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	return schema.Build(doc, opts)
}

// FormatSchema parses SDL source and renders it canonically.
func FormatSchema(src string) (string, error) {
	doc, err := parser.Parse(src)
	if err != nil {
		return "", err
	}
	return printer.Print(doc), nil
}

// NewGraph returns an empty Property Graph.
func NewGraph() *Graph { return pg.New() }

// ReadGraphJSON loads a Property Graph from its JSON interchange form.
func ReadGraphJSON(r io.Reader) (*Graph, error) { return pg.ReadJSON(r) }

// ReadGraphCSV loads a Property Graph from nodes/edges CSV streams; it
// is ReadGraphCSVStream under a background context.
func ReadGraphCSV(nodes, edges io.Reader) (*Graph, error) { return pg.ReadCSVStream(nodes, edges) }

// ReadGraphCSVStream loads a Property Graph from nodes/edges CSV
// streams with the streaming columnar builder: rows are appended
// straight into the columnar snapshot form validation scans, so the
// loaded graph carries a pre-built snapshot and the first validation
// pass skips a full re-materialization. A cancelled ctx stops the load
// between row batches.
func ReadGraphCSVStream(ctx context.Context, nodes, edges io.Reader) (*Graph, error) {
	return pg.ReadCSVStreamContext(ctx, nodes, edges)
}

// ValidateCSVStream fuses loading and validation: the graph is streamed
// out of the nodes/edges CSV into sealed columns (schema compilation
// overlaps the load) and validated in the same materialization. It
// returns the validation result together with the loaded graph, and
// emits the byte-identical violation set to ReadGraphCSV followed by
// ValidateGraphContext with the same options.
func ValidateCSVStream(ctx context.Context, s *Schema, nodes, edges io.Reader, opts ValidateOptions) (*ValidationResult, *Graph, error) {
	return validate.ValidateStream(ctx, s, nodes, edges, opts)
}

// ValidateGraphContext checks the satisfaction notion selected in opts
// (strong satisfaction by default) and returns all violations.
// Cancellation is observed between work chunks, so a cancelled context stops the run
// before the next chunk starts and the returned result has Incomplete
// set.
func ValidateGraphContext(ctx context.Context, s *Schema, g *Graph, opts ValidateOptions) *ValidationResult {
	return validate.ValidateContext(ctx, s, g, opts)
}

// CompileValidation compiles the schema into a ValidationProgram. Callers
// that validate repeatedly — servers, watch loops, benchmark harnesses —
// compile once and pass the program in ValidateOptions.Program; one-shot
// callers can skip this (ValidateGraphContext compiles on the fly).
func CompileValidation(s *Schema) *ValidationProgram {
	return validate.Compile(s)
}

// CompileValidationContext is CompileValidation under a context; it
// returns the context's error if cancelled mid-compile.
func CompileValidationContext(ctx context.Context, s *Schema) (*ValidationProgram, error) {
	return validate.CompileContext(ctx, s)
}

// Delta describes the elements a mutation batch touched, for incremental
// revalidation. DeltaFor derives one from a Graph.Apply's Touched
// summary.
type Delta = validate.Delta

// GraphDelta is a transactional mutation batch for Graph.Apply: node and
// edge additions, removals, relabels, and property edits, applied
// all-or-nothing.
type GraphDelta = pg.Delta

// Undo is the inverse of an applied GraphDelta, returned by Graph.Apply.
// Calling its Undo method rolls the batch back (and bumps the epoch
// again — epochs never rewind).
type Undo = pg.Undo

// Touched summarizes the elements a Graph.Apply mutated.
type Touched = pg.Touched

// Mutation batch building blocks (the field types of GraphDelta).
type (
	AddNodeSpec     = pg.AddNodeSpec
	AddEdgeSpec     = pg.AddEdgeSpec
	RelabelSpec     = pg.RelabelSpec
	NodePropSpec    = pg.NodePropSpec
	NodePropDelSpec = pg.NodePropDelSpec
	EdgePropSpec    = pg.EdgePropSpec
	EdgePropDelSpec = pg.EdgePropDelSpec
	PropEntry       = pg.PropEntry
)

// NewNodeRef refers to the i-th node added by the same GraphDelta, for
// edges between freshly added nodes.
func NewNodeRef(i int) NodeID { return pg.NewNodeRef(i) }

// NewEdgeRef refers to the i-th edge added by the same GraphDelta.
func NewEdgeRef(i int) EdgeID { return pg.NewEdgeRef(i) }

// DeltaFor translates a Graph.Apply's Touched summary into the Delta
// Revalidate consumes.
func DeltaFor(t Touched) Delta { return validate.DeltaFor(t) }

// Revalidate updates a previous validation result after a mutation
// without re-checking the whole graph: only the delta's influence region
// is re-run (on the compiled/fused engine by default) and spliced into
// prev. The result equals what a full ValidateGraphContext with the same
// options would produce. prev must be complete (not Truncated, not
// Incomplete) and from the same schema, mode, and rule set; otherwise
// Revalidate falls back to a full run.
func Revalidate(ctx context.Context, s *Schema, g *Graph, prev *ValidationResult, delta Delta, opts ValidateOptions) *ValidationResult {
	return validate.Revalidate(ctx, s, g, prev, delta, opts)
}

// CheckType decides object-type satisfiability for the named type.
func CheckType(s *Schema, typeName string, opts SatOptions) SatReport {
	return sat.Check(s, typeName, opts)
}

// CheckField decides edge-definition satisfiability for (typeName,
// fieldName) per the closing remark of §6.2.
func CheckField(s *Schema, typeName, fieldName string, opts SatOptions) SatReport {
	return sat.CheckField(s, typeName, fieldName, opts)
}

// GenerateConformant generates a Property Graph that strongly satisfies
// the schema (for tests, demos, and benchmarks).
func GenerateConformant(s *Schema, cfg GenConfig) (*Graph, error) {
	return gen.Conformant(s, cfg)
}

// SnapshotOpenOption configures OpenGraphSnapshot.
type SnapshotOpenOption = pg.OpenOption

// VerifySnapshot makes OpenGraphSnapshot checksum every section and
// deep-validate the structure before returning. The default open
// trusts the file after validating the header, geometry, and the
// eagerly decoded sections, keeping open time independent of graph
// size; pass this option for files from untrusted sources or after a
// suspected partial write.
func VerifySnapshot() SnapshotOpenOption { return pg.Verify() }

// WriteGraphSnapshot serializes the graph's current snapshot into the
// versioned .pgsnap binary format: a fixed header plus 8-byte-aligned
// sections that are byte-for-byte the snapshot's columnar arrays, each
// with its own checksum. The output is what OpenGraphSnapshot maps.
func WriteGraphSnapshot(w io.Writer, g *Graph) error {
	return pg.WriteSnapshot(w, g.Snapshot())
}

// OpenGraphSnapshot memory-maps a .pgsnap file written by
// WriteGraphSnapshot and returns a Graph whose columns alias the
// mapping: no per-element decoding, no allocations proportional to
// graph size, so open time is independent of element count and pages
// fault in lazily as validation or queries touch them. The graph is
// fully functional and, like a streamed CSV graph, is its snapshot:
// validation, revalidation and queries read the mapped columns, and
// writes fold into new snapshots that share the clean columns; the
// file is never written through.
// Call Graph.Close to release the mapping once the graph and
// everything derived from it are no longer in use.
func OpenGraphSnapshot(path string, opts ...SnapshotOpenOption) (*Graph, error) {
	return pg.OpenSnapshot(path, opts...)
}

// APIOptions configures ExtendToAPISchema.
type APIOptions = apigen.Options

// ExtendToAPISchema performs the §3.6 extension step: it turns a Property
// Graph schema into a GraphQL API schema by synthesizing a query root
// type and — unless disabled — inverse fields for bidirectional edge
// traversal, returning the result as SDL text.
func ExtendToAPISchema(s *Schema, opts APIOptions) (string, error) {
	return apigen.ExtendSDL(s, opts)
}

// ServerConfig configures NewHTTPHandler: per-request timeout,
// concurrency limit, body size cap, and access logging.
type ServerConfig = server.Config

// NewHTTPHandler returns an http.Handler serving the full HTTP surface
// over a schema and a hosted graph: POST /graphql (GraphQL queries per
// ExtendToAPISchema), GET /schema (the API SDL), POST /validate (a
// ValidateGraphContext run configured by the JSON body), POST /revalidate
// (incremental Revalidate from the last full strong run), POST
// /graph/apply (a transactional GraphDelta — all-or-nothing, with
// optional incremental revalidation, and with requireValid as a commit
// condition that rolls back invalid deltas), GET /metrics (Prometheus
// text format), and GET /healthz. Validation and mutation endpoints
// speak the versioned v1 envelope ("apiVersion", a uniform "error"
// field, and the engine/workers/compiled run descriptors); legacy
// request bodies are still accepted. The handler includes panic
// recovery, per-request timeouts (which cancel in-flight validation at
// the next chunk boundary), and load shedding per cfg. /graph/apply is
// the only sanctioned way to mutate the graph while requests are in
// flight — it serializes against concurrent reads.
func NewHTTPHandler(s *Schema, g *Graph, cfg ServerConfig) (http.Handler, error) {
	h, err := server.New(s, g, cfg)
	if err != nil {
		return nil, err
	}
	return h.Mux(), nil
}

// RegistryConfig configures NewRegistryHandler: the per-request knobs
// of ServerConfig plus the registry-wide memory budget for resident
// tenant snapshots and the tenants to host at startup.
type RegistryConfig = server.RegistryConfig

// TenantSeed describes one tenant to host at startup: its name, its
// schema (parsed, or as SDL source), an optional pre-built graph, and
// an optional complete validation result to seed incremental
// revalidation from.
type TenantSeed = server.TenantSeed

// DefaultTenantName is the tenant the legacy top-level routes alias:
// /validate is byte-for-byte /tenants/default/validate.
const DefaultTenantName = server.DefaultTenant

// NewRegistryHandler returns an http.Handler hosting a registry of
// named tenants, each an independent (schema, graph) pair with its own
// epoch, compiled validation program, query-plan cache, snapshot
// persistence, and writer lock — one tenant's mutation never stalls
// another tenant's reads. Tenants are managed at runtime via PUT/GET/
// DELETE /tenants/{name} and POST /tenants/{name}/schema, and served
// under /tenants/{name}/{graphql,schema,validate,revalidate,
// graph/apply}; the top-level routes NewHTTPHandler documents remain as
// byte-identical aliases for the tenant named "default". When
// cfg.MemoryBudget is set (and cfg.SnapshotDir provides the reload
// source), the coldest persisted tenants are evicted past the budget
// and transparently reloaded on their next request. GET /metrics
// additionally exposes per-tenant request/validation series and
// registry occupancy/eviction counters.
func NewRegistryHandler(cfg RegistryConfig) (http.Handler, error) {
	h, err := server.NewRegistry(cfg)
	if err != nil {
		return nil, err
	}
	return h.Mux(), nil
}

// QueryDocument is a parsed GraphQL query document.
type QueryDocument = query.Document

// QueryPlan is an immutable compiled query: every schema- and
// document-dependent decision (root resolution, property-column slots,
// fragment dispatch tables, error steps) is made once at compile time,
// and Execute only walks the graph snapshot. A plan is safe for
// concurrent Execute calls and carries an epoch-keyed binding to the
// last graph it ran against, so repeated execution against an unchanged
// graph skips all per-graph setup.
type QueryPlan = query.Plan

// QueryPlanCache is a concurrency-safe LRU of compiled plans keyed by
// query source text, as used by the HTTP handler.
type QueryPlanCache = query.PlanCache

// ParseQuery parses GraphQL query source into a document for
// CompileQuery.
func ParseQuery(src string) (*QueryDocument, error) { return query.Parse(src) }

// CompileQuery compiles a parsed document against the schema into an
// immutable QueryPlan. Compilation never fails: malformed selections
// compile into error steps that surface lazily at execution, when (and
// only when) a node reaches them.
func CompileQuery(s *Schema, doc *QueryDocument) *QueryPlan { return query.Compile(s, doc) }

// NewQueryPlanCache builds a plan cache over the schema; capacity <= 0
// selects the default (256 plans).
func NewQueryPlanCache(s *Schema, capacity int) *QueryPlanCache {
	return query.NewPlanCache(s, capacity)
}

// ExecuteQueryContext evaluates a parsed GraphQL query directly against a
// Property Graph under the conventions of ExtendToAPISchema: root fields
// `all<Plural>` and `<type>(key: …)`, attribute/relationship fields,
// inverse `_<field>Of<Type>` traversal, fragments, and `__typename`.
// Relationship-field arguments filter traversal by edge-property
// equality. The result is a JSON-ready tree. It compiles the
// document (CompileQuery) and executes the plan once, which polls ctx
// at scan boundaries, so long scans over large graphs abort promptly.
// Callers that run a query repeatedly should keep the QueryPlan, or a
// QueryPlanCache, instead. The operationName selects the operation when
// the document defines more than one (empty selects the sole
// operation).
func ExecuteQueryContext(ctx context.Context, s *Schema, g *Graph, doc *QueryDocument, operationName string) (map[string]any, error) {
	return query.Compile(s, doc).Execute(ctx, g, operationName)
}
