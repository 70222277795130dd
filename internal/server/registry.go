package server

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"pgschema/internal/apigen"
	"pgschema/internal/parser"
	"pgschema/internal/pg"
	"pgschema/internal/query"
	"pgschema/internal/schema"
	"pgschema/internal/validate"
)

// DefaultTenant is the tenant the legacy top-level routes (/validate,
// /revalidate, /graphql, /graph/apply, /schema) alias: a request to
// /validate is byte-for-byte a request to /tenants/default/validate.
const DefaultTenant = "default"

// tenantNameRE bounds tenant names: they appear in URLs, metric labels,
// and snapshot file names, so they are restricted to a single flat
// path-safe token.
var tenantNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_-]{0,63}$`)

// ValidTenantName reports whether name is usable as a tenant name: 1-64
// characters drawn from [A-Za-z0-9_-], starting with an alphanumeric.
func ValidTenantName(name string) bool { return tenantNameRE.MatchString(name) }

// tenant is one hosted (schema, graph) pair with everything the serving
// layer keeps per graph: the compiled validation program, the query plan
// cache, the cached full validation result, and its own readers-writer
// lock — so a mutation on one tenant never stalls another tenant's
// reads.
//
// Locking: gmu guards the graph AND the schema-derived state (s, sdl,
// apiSDL, prog, plans) — reads hold RLock, /graph/apply, schema
// replacement, eviction, and reload hold Lock. valMu guards lastResult
// and is only ever taken inside gmu, never around it. resident()
// means g != nil; an evicted tenant keeps its schema and program (they
// are small) and reloads the graph from its snapshot file on the next
// access.
type tenant struct {
	name string

	gmu    sync.RWMutex
	s      *schema.Schema
	sdl    string // SDL source when known ("" for programmatically built schemas)
	apiSDL string
	prog   *validate.Program
	plans  *query.PlanCache
	g      *pg.Graph

	valMu      sync.RWMutex
	lastResult *validate.Result

	// lastTouch is the registry-clock value of the most recent request
	// that used this tenant; eviction picks the smallest (coldest).
	lastTouch atomic.Int64
	// bytes is the estimated resident footprint of the tenant's columnar
	// snapshot, maintained on load, persist, and reload.
	bytes atomic.Int64
	// persisted reports the tenant's .pgsnap plus .pglog in the
	// registry's snapshot directory hold exactly its graph — the
	// precondition for eviction.
	persisted atomic.Bool

	// log is the tenant's write-ahead log, open for appending, while
	// the snapshot directory holds its snapshot plus that log; nil means
	// the next apply writes a fresh snapshot and log instead of
	// appending. snapBytes is the size of that snapshot file: the log is
	// compacted when it grows to it. dropped marks a tenant deleted or
	// replaced, whose file names now belong to no one or to its
	// successor, so it persists nothing more. All three are guarded by
	// gmu's writer side.
	log       *pg.Log
	snapBytes int64
	dropped   bool
	// residentBit mirrors g != nil so that listings, /metrics, and
	// budget enforcement can check residency without touching gmu — a
	// tenant mid-apply (writer lock held) must not stall reporting on
	// other tenants. Flipped only under gmu's writer side.
	residentBit atomic.Bool

	// nodes/edges/epoch mirror the graph so /tenants listings can report
	// an evicted tenant without forcing a reload.
	nodes atomic.Int64
	edges atomic.Int64
	epoch atomic.Uint64
}

// noteGraph refreshes the cached element counts and epoch from the
// resident graph. Called with gmu held (either side — the fields are
// atomics, the graph pointer is what the lock protects).
func (t *tenant) noteGraph() {
	t.nodes.Store(int64(t.g.NumNodes()))
	t.edges.Store(int64(t.g.NumEdges()))
	t.epoch.Store(t.g.Epoch())
}

func (t *tenant) resident() bool { return t.residentBit.Load() }

// setSchema installs schema-derived state. Caller holds gmu exclusively
// (or owns the tenant before publication).
func (t *tenant) setSchema(s *schema.Schema, sdl string, prog *validate.Program) error {
	apiSDL, err := apigen.ExtendSDL(s, apigen.Options{})
	if err != nil {
		if !errors.Is(err, apigen.ErrQueryTypeDeclared) {
			return fmt.Errorf("generating the API schema: %w", err)
		}
		apiSDL = ""
	}
	t.s, t.sdl, t.apiSDL = s, sdl, apiSDL
	if prog == nil {
		prog = validate.Compile(s)
	}
	t.prog = prog
	t.plans = query.NewPlanCache(s, 0)
	return nil
}

// TenantSeed describes a tenant to create at registry construction:
// either a parsed Schema or SDL source (parsed when Schema is nil), an
// optional pre-built graph (nil hosts an empty graph), and an optional
// complete full-strong validation result to seed /revalidate from.
//
// Replay, when set, says Graph was loaded by LoadTenantGraph from this
// tenant's own snapshot and log in the snapshot directory, and is that
// load's ReplayInfo: the tenant reopens the log and appends to it, as a
// restored tenant does. Without it a seeded graph has no log until its
// first apply, which writes a fresh snapshot and log.
type TenantSeed struct {
	Name   string
	Schema *schema.Schema
	SDL    string
	Graph  *pg.Graph
	Result *validate.Result
	Replay *pg.ReplayInfo
}

// RegistryConfig configures a multi-tenant handler: the per-request
// HTTP knobs of Config plus the registry-wide memory budget and the
// tenants to create at startup.
type RegistryConfig struct {
	Config

	// MemoryBudget caps the summed estimated footprint of resident
	// tenant snapshots, in bytes; when an operation pushes the registry
	// over it, the coldest persisted tenants are evicted (their graph
	// and plan cache dropped) until the total fits. Evicted tenants
	// reload transparently from their .pgsnap in Config.SnapshotDir on
	// the next request. 0 disables eviction; eviction also requires
	// SnapshotDir (without a file to reload from, nothing is evictable).
	MemoryBudget int64

	// Seeds are tenants created before the handler serves. A seed named
	// DefaultTenant becomes the target of the legacy top-level routes.
	Seeds []TenantSeed
}

// Registry is the concurrent map of named tenants behind a Handler. All
// tenant lookup, creation, deletion, restart restore, and budget
// eviction go through it.
type Registry struct {
	cfg RegistryConfig

	mu      sync.RWMutex
	tenants map[string]*tenant

	// clock orders tenant touches for LRU eviction; evictions and
	// reloads feed the /metrics registry counters.
	clock     atomic.Int64
	evictions atomic.Int64
	reloads   atomic.Int64

	// wrapLog, when set, wraps the file of every log the registry opens:
	// the seam tests inject write and sync faults through.
	wrapLog func(pg.LogFile) pg.LogFile
}

func newRegistry(cfg RegistryConfig) (*Registry, error) {
	r := &Registry{cfg: cfg, tenants: make(map[string]*tenant)}
	for _, seed := range cfg.Seeds {
		if _, err := r.create(seed, false); err != nil {
			return nil, fmt.Errorf("seeding tenant %q: %w", seed.Name, err)
		}
	}
	if err := r.restore(); err != nil {
		return nil, err
	}
	return r, nil
}

// create builds and publishes a tenant from a seed. persist additionally
// writes the tenant's snapshot, a fresh log and its schema into the
// snapshot directory so a restart — and eviction reload — can recover
// it. An existing tenant of the same name is replaced; in-flight
// requests holding the old tenant finish against the old state, which
// persists nothing more once the new tenant's files are written.
func (r *Registry) create(seed TenantSeed, persist bool) (*tenant, error) {
	if !ValidTenantName(seed.Name) {
		return nil, fmt.Errorf("invalid tenant name %q (want 1-64 characters of [A-Za-z0-9_-], starting alphanumeric)", seed.Name)
	}
	s := seed.Schema
	if s == nil {
		if seed.SDL == "" {
			return nil, fmt.Errorf("tenant %q: no schema given", seed.Name)
		}
		doc, err := parser.Parse(seed.SDL)
		if err != nil {
			return nil, fmt.Errorf("parsing schema: %w", err)
		}
		s, err = schema.Build(doc, schema.Options{})
		if err != nil {
			return nil, fmt.Errorf("building schema: %w", err)
		}
	}
	t := &tenant{name: seed.Name}
	if err := t.setSchema(s, seed.SDL, nil); err != nil {
		return nil, err
	}
	t.g = seed.Graph
	if t.g == nil {
		t.g = pg.New()
	}
	t.bytes.Store(t.g.Snapshot().MemoryFootprint())
	t.residentBit.Store(true)
	t.noteGraph()
	if seed.Result != nil && !seed.Result.Incomplete && !seed.Result.Truncated {
		t.lastResult = seed.Result
	}
	t.lastTouch.Store(r.clock.Add(1))
	if persist && r.cfg.SnapshotDir != "" {
		// Hold the tenant being replaced while its files are rewritten,
		// so that it cannot append to or rebase over its successor's.
		r.mu.RLock()
		old := r.tenants[t.name]
		r.mu.RUnlock()
		if old != nil {
			old.gmu.Lock()
		}
		err := r.persistTenant(t)
		if old != nil {
			if err == nil {
				old.drop()
			}
			old.gmu.Unlock()
		}
		if err != nil {
			t.forgetLog()
			return nil, err
		}
	} else if seed.Replay != nil && seed.Graph != nil && r.cfg.SnapshotDir != "" {
		r.adoptLog(t, *seed.Replay)
	}
	r.mu.Lock()
	r.tenants[t.name] = t
	r.mu.Unlock()
	r.enforceBudget(t)
	return t, nil
}

// get returns the named tenant (nil if absent) and stamps its LRU
// clock.
func (r *Registry) get(name string) *tenant {
	r.mu.RLock()
	t := r.tenants[name]
	r.mu.RUnlock()
	if t != nil {
		t.lastTouch.Store(r.clock.Add(1))
	}
	return t
}

// has reports whether the named tenant exists without touching its LRU
// clock — metrics attribution must not keep tenants artificially warm.
func (r *Registry) has(name string) bool {
	r.mu.RLock()
	_, ok := r.tenants[name]
	r.mu.RUnlock()
	return ok
}

// delete removes the named tenant and its persisted files. The tenant
// struct stays valid for requests already holding it.
func (r *Registry) delete(name string) bool {
	r.mu.Lock()
	t, ok := r.tenants[name]
	if ok {
		delete(r.tenants, name)
	}
	r.mu.Unlock()
	if !ok {
		return false
	}
	t.gmu.Lock()
	t.drop()
	t.gmu.Unlock()
	if dir := r.cfg.SnapshotDir; dir != "" {
		// The schema file goes first: without it, restore skips the rest.
		os.Remove(filepath.Join(dir, tenantSchemaFile(t.name)))
		os.Remove(filepath.Join(dir, TenantSnapshotFile(t.name)))
		os.Remove(filepath.Join(dir, tenantLogFile(t.name)))
	}
	return true
}

// drop retires a deleted or replaced tenant: it closes the log and
// persists nothing more. Caller holds gmu exclusively.
func (t *tenant) drop() {
	t.forgetLog()
	t.dropped = true
}

// forgetLog closes the tenant's log: its files no longer hold its
// graph, and the next apply writes the whole graph instead of
// appending. Caller holds gmu exclusively (or owns the tenant before
// publication).
func (t *tenant) forgetLog() {
	if t.log != nil {
		t.log.Close()
		t.log = nil
	}
	t.persisted.Store(false)
}

// Names returns the hosted tenant names, sorted.
func (r *Registry) Names() []string { return r.names() }

// names returns the tenant names, sorted.
func (r *Registry) names() []string {
	r.mu.RLock()
	out := make([]string, 0, len(r.tenants))
	for name := range r.tenants {
		out = append(out, name)
	}
	r.mu.RUnlock()
	sort.Strings(out)
	return out
}

// registryStats is a point-in-time summary for /metrics and /tenants.
type registryStats struct {
	tenants       int
	resident      int
	residentBytes int64
	budget        int64
	evictions     int64
	reloads       int64
}

func (r *Registry) stats() registryStats {
	r.mu.RLock()
	ts := make([]*tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		ts = append(ts, t)
	}
	r.mu.RUnlock()
	st := registryStats{
		tenants:   len(ts),
		budget:    r.cfg.MemoryBudget,
		evictions: r.evictions.Load(),
		reloads:   r.reloads.Load(),
	}
	for _, t := range ts {
		if t.resident() {
			st.resident++
			st.residentBytes += t.bytes.Load()
		}
	}
	return st
}

// TenantSnapshotFile is the per-tenant snapshot file name inside
// Config.SnapshotDir: <name>.pgsnap. The pre-tenancy layout used the
// fixed name SnapshotFileName for the single hosted graph; `serve`
// still reads that legacy file at startup as the default tenant's
// snapshot when default.pgsnap is absent.
func TenantSnapshotFile(name string) string { return name + ".pgsnap" }

// tenantSchemaFile is the persisted SDL source for tenants created at
// runtime, so a restart can re-create them: <name>.graphql.
func tenantSchemaFile(name string) string { return name + ".graphql" }

// tenantLogFile is the tenant's write-ahead log beside its snapshot:
// <name>.pglog.
func tenantLogFile(name string) string { return name + ".pglog" }

// LoadTenantGraph loads a persisted tenant graph: the snapshot at
// snapPath with the write-ahead log beside it (the same name ending in
// .pglog) folded in. It is the one loader behind start-up restore,
// reload after eviction and the CLI's serve resume.
func LoadTenantGraph(snapPath string) (*pg.Graph, pg.ReplayInfo, error) {
	return pg.ReplayLog(snapPath, strings.TrimSuffix(snapPath, ".pgsnap")+".pglog")
}

// persistTenant writes the tenant's current graph as a new snapshot,
// then a fresh log bound to it, then its schema SDL (when known) — the
// commit marker restore looks for. It persists a created or replaced
// tenant, compacts a log that has grown to the snapshot's size, and
// rebases a tenant whose log is gone. Called with the tenant
// unpublished or its writer lock held.
func (r *Registry) persistTenant(t *tenant) error {
	dir := r.cfg.SnapshotDir
	if dir == "" || t.dropped {
		return nil
	}
	t.forgetLog()
	snap := filepath.Join(dir, TenantSnapshotFile(t.name))
	s := t.g.Snapshot()
	err := pg.WriteFileAtomic(snap, func(w io.Writer) error { return pg.WriteSnapshot(w, s) })
	if err != nil {
		return fmt.Errorf("persisting tenant snapshot: %w", err)
	}
	st, err := os.Stat(snap)
	if err != nil {
		return fmt.Errorf("persisting tenant snapshot: %w", err)
	}
	id, err := pg.ReadSnapshotID(snap)
	if err != nil {
		return fmt.Errorf("persisting tenant snapshot: %w", err)
	}
	l, err := pg.CreateLog(filepath.Join(dir, tenantLogFile(t.name)), id)
	if err != nil {
		return fmt.Errorf("starting tenant log: %w", err)
	}
	r.useLog(t, l, st.Size())
	t.bytes.Store(s.MemoryFootprint())
	return r.persistSchema(t)
}

// useLog installs l as the tenant's log over a snapshot file of
// snapBytes bytes: from here on the files hold the tenant's graph.
func (r *Registry) useLog(t *tenant, l *pg.Log, snapBytes int64) {
	if r.wrapLog != nil {
		l.WrapFile(r.wrapLog)
	}
	t.log, t.snapBytes = l, snapBytes
	t.persisted.Store(true)
}

// persistSchema writes the tenant's SDL source, when known. A schema
// swap writes only this: the graph did not change.
func (r *Registry) persistSchema(t *tenant) error {
	dir := r.cfg.SnapshotDir
	if dir == "" || t.dropped || t.sdl == "" {
		return nil
	}
	err := pg.WriteFileAtomic(filepath.Join(dir, tenantSchemaFile(t.name)), func(w io.Writer) error {
		_, err := io.WriteString(w, t.sdl)
		return err
	})
	if err != nil {
		return fmt.Errorf("persisting tenant schema: %w", err)
	}
	return nil
}

// logApply makes an apply durable before its response is written: it
// appends the record of delta d, applied at epoch before (and undone
// again when undone is set), to the tenant's log and fsyncs it. An
// apply that left the epoch where it was changed nothing and writes
// nothing; a tenant without a log writes its whole graph instead, this
// delta included. When the append fails, the log is closed and the
// caller undoes the delta, calls rebase and reports the error. A log
// that has grown to its snapshot's size is compacted afterwards; the
// record is durable by then, so a failed compaction only leaves the
// tenant to rebase on its next apply. Called with the writer lock
// held.
func (r *Registry) logApply(t *tenant, before uint64, d pg.Delta, undone bool) error {
	if r.cfg.SnapshotDir == "" || t.dropped || t.g.Epoch() == before {
		return nil
	}
	if t.log == nil {
		return r.persistTenant(t)
	}
	if err := t.log.Append(&pg.LogRecord{Before: before, After: t.g.Epoch(), Undone: undone, Delta: d}); err != nil {
		t.forgetLog()
		return err
	}
	t.bytes.Store(t.g.Snapshot().MemoryFootprint())
	if t.log.Size() >= t.snapBytes {
		if err := r.persistTenant(t); err != nil && r.cfg.AccessLog != nil {
			r.cfg.AccessLog.Error("compacting tenant log", "tenant", t.name, "error", err)
		}
	}
	return nil
}

// rebase rewrites the tenant's snapshot from its graph and starts a
// fresh log after an append failed, so a partial or unsynced record
// left in the old log can never replay a delta the response rolled
// back. If this fails too, the tenant has no log and its next apply
// retries the rewrite before anything is acknowledged.
func (r *Registry) rebase(t *tenant) {
	if err := r.persistTenant(t); err != nil && r.cfg.AccessLog != nil {
		r.cfg.AccessLog.Error("rewriting tenant snapshot after a failed log append", "tenant", t.name, "error", err)
	}
}

// restore re-creates tenants persisted by a previous run: every
// <name>.graphql in the snapshot directory (with its <name>.pgsnap and
// <name>.pglog when present) becomes a tenant again. Seeded names win
// over persisted state — the operator's explicit bootstrap is
// authoritative.
func (r *Registry) restore() error {
	dir := r.cfg.SnapshotDir
	if dir == "" {
		return nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	for _, ent := range entries {
		name, ok := strings.CutSuffix(ent.Name(), ".graphql")
		if !ok || !ValidTenantName(name) {
			continue
		}
		if r.has(name) {
			continue
		}
		sdl, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			return fmt.Errorf("restoring tenant %q: %w", name, err)
		}
		seed := TenantSeed{Name: name, SDL: string(sdl)}
		snapPath := filepath.Join(dir, TenantSnapshotFile(name))
		if st, err := os.Stat(snapPath); err == nil && st.Mode().IsRegular() {
			var info pg.ReplayInfo
			if seed.Graph, info, err = LoadTenantGraph(snapPath); err != nil {
				return fmt.Errorf("restoring tenant %q: %w", name, err)
			}
			seed.Replay = &info
		}
		if _, err := r.create(seed, false); err != nil {
			return fmt.Errorf("restoring tenant %q: %w", name, err)
		}
	}
	return nil
}

// adoptLog reopens a restored or resumed tenant's log for appending after its
// valid prefix, or — when there was none, or it was stale — starts a
// fresh log bound to the snapshot. If neither works the tenant keeps no
// log and its first apply rebases.
func (r *Registry) adoptLog(t *tenant, info pg.ReplayInfo) {
	dir := r.cfg.SnapshotDir
	st, err := os.Stat(filepath.Join(dir, TenantSnapshotFile(t.name)))
	if err != nil {
		return
	}
	logPath := filepath.Join(dir, tenantLogFile(t.name))
	var l *pg.Log
	if info.LogSize > 0 {
		l, err = pg.OpenLog(logPath, info.LogSize)
	} else {
		l, err = pg.CreateLog(logPath, info.Snapshot)
	}
	if err != nil {
		if r.cfg.AccessLog != nil {
			r.cfg.AccessLog.Error("opening tenant log", "tenant", t.name, "error", err)
		}
		t.persisted.Store(true) // the files still hold the graph
		return
	}
	r.useLog(t, l, st.Size())
}

// rlock acquires the tenant's read lock with the graph resident,
// transparently reloading an evicted snapshot first. On success the
// caller holds t.gmu.RLock and must release it; on error nothing is
// held.
func (r *Registry) rlock(t *tenant) error {
	for {
		t.gmu.RLock()
		if t.g != nil {
			return nil
		}
		t.gmu.RUnlock()
		if err := r.reload(t); err != nil {
			return err
		}
	}
}

// wlock acquires the tenant's writer lock with the graph resident,
// reloading inline if the tenant was evicted.
func (r *Registry) wlock(t *tenant) error {
	t.gmu.Lock()
	if t.g != nil {
		return nil
	}
	if err := r.reloadLocked(t); err != nil {
		t.gmu.Unlock()
		return err
	}
	return nil
}

// reload loads the tenant's persisted snapshot and log back in after
// an eviction.
func (r *Registry) reload(t *tenant) error {
	t.gmu.Lock()
	defer t.gmu.Unlock()
	if t.g != nil {
		return nil // another request reloaded first
	}
	return r.reloadLocked(t)
}

func (r *Registry) reloadLocked(t *tenant) error {
	if t.dropped {
		return fmt.Errorf("tenant %q was deleted or replaced", t.name)
	}
	path := filepath.Join(r.cfg.SnapshotDir, TenantSnapshotFile(t.name))
	g, _, err := LoadTenantGraph(path)
	if err != nil {
		return fmt.Errorf("reloading evicted tenant %q from %s: %w", t.name, path, err)
	}
	t.g = g
	t.plans = query.NewPlanCache(t.s, 0)
	t.bytes.Store(g.Snapshot().MemoryFootprint())
	t.residentBit.Store(true)
	t.noteGraph()
	r.reloads.Add(1)
	r.enforceBudget(t)
	return nil
}

// enforceBudget evicts the coldest persisted tenants until the summed
// resident footprint fits the memory budget. exclude (the tenant the
// current request operates on) is never evicted. Eviction takes each
// victim's writer lock with TryLock — a tenant busy serving is skipped
// this round rather than risking a lock-order deadlock — so enforcement
// is best-effort per call and converges across calls.
func (r *Registry) enforceBudget(exclude *tenant) {
	budget := r.cfg.MemoryBudget
	if budget <= 0 || r.cfg.SnapshotDir == "" {
		return
	}
	for {
		r.mu.RLock()
		var total int64
		var victims []*tenant
		for _, t := range r.tenants {
			if !t.resident() {
				continue
			}
			total += t.bytes.Load()
			if t != exclude && t.persisted.Load() {
				victims = append(victims, t)
			}
		}
		r.mu.RUnlock()
		if total <= budget || len(victims) == 0 {
			return
		}
		sort.Slice(victims, func(i, j int) bool {
			return victims[i].lastTouch.Load() < victims[j].lastTouch.Load()
		})
		evicted := false
		for _, v := range victims {
			if r.tryEvict(v) {
				evicted = true
				break
			}
		}
		if !evicted {
			return
		}
	}
}

// tryEvict drops the tenant's resident graph state (columnar snapshot,
// plan cache, cached validation result) if its writer lock is free. The
// schema and compiled program stay — they are small and reload would
// recompile them identically. The mapped or heap graph memory is
// released to the collector / the OS page cache; the next request
// reloads from the persisted .pgsnap in O(header), plus a replay of the
// records its .pglog holds. The log stays open for appending.
func (r *Registry) tryEvict(t *tenant) bool {
	if !t.gmu.TryLock() {
		return false
	}
	defer t.gmu.Unlock()
	if t.g == nil || !t.persisted.Load() {
		return false
	}
	t.g = nil
	t.plans = nil
	t.residentBit.Store(false)
	t.valMu.Lock()
	t.lastResult = nil
	t.valMu.Unlock()
	t.bytes.Store(0)
	r.evictions.Add(1)
	return true
}
