// Package validate implements the paper's notion of schema satisfaction
// for Property Graphs (Section 5) and thereby the schema validation
// problem of §6.1:
//
//   - weak satisfaction (Definition 5.1, rules WS1–WS4),
//   - directives satisfaction (Definition 5.2, rules DS1–DS7), and
//   - strong satisfaction (Definition 5.3, rules SS1–SS4 on top of the
//     former two).
//
// Every rule is independently addressable; a validation run reports all
// violations (or up to a configurable limit) with the graph elements and
// schema elements involved. One engine evaluates them (fused.go): it
// exploits the observation behind Theorem 1 that all rules are
// constant-depth first-order conditions evaluable independently per
// graph element, checking every rule in one pass over the nodes and one
// over the edges, sequentially or on a work-stealing worker pool. The
// definitional rule-by-rule evaluation lives in this package's test
// files as the oracle the differential harnesses compare it against.
//
// Options.CollectTimings records per-rule durations. A pass's time is
// split evenly across the rules it evaluated, and parallel chunk times
// are summed across workers, so a rule's duration measures CPU cost,
// not elapsed wall-clock time of the run.
package validate

import (
	"context"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"pgschema/internal/pg"
	"pgschema/internal/sched"
	"pgschema/internal/schema"
)

// SchedStats is the scheduler telemetry of one validation run — chunk
// counts, steals, per-worker busy/idle fractions, and the chunk-size
// histogram. It aliases the sched package's Stats so servers and CLIs
// can consume it without importing internal/sched.
type SchedStats = sched.Stats

// Rule identifies one satisfaction rule from Definitions 5.1–5.3.
type Rule string

// The rules, named as in the paper.
const (
	WS1 Rule = "WS1" // node properties must be of the required type
	WS2 Rule = "WS2" // edge properties must be of the required type
	WS3 Rule = "WS3" // target nodes must be of the required type
	WS4 Rule = "WS4" // non-list fields contain at most one edge

	DS1 Rule = "DS1" // @distinct: edges identified by nodes and label
	DS2 Rule = "DS2" // @noLoops: no loops
	DS3 Rule = "DS3" // @uniqueForTarget: at most one incoming edge
	DS4 Rule = "DS4" // @requiredForTarget: at least one incoming edge
	DS5 Rule = "DS5" // @required on attribute: property is required
	DS6 Rule = "DS6" // @required on relationship: edge is required
	DS7 Rule = "DS7" // @key: key properties identify nodes

	SS1 Rule = "SS1" // all nodes are justified
	SS2 Rule = "SS2" // all node properties are justified
	SS3 Rule = "SS3" // all edge properties are justified
	SS4 Rule = "SS4" // all edges are justified
)

// WeakRules are the rules of weak satisfaction (Definition 5.1).
var WeakRules = []Rule{WS1, WS2, WS3, WS4}

// DirectiveRules are the rules of directives satisfaction (Definition 5.2).
var DirectiveRules = []Rule{DS1, DS2, DS3, DS4, DS5, DS6, DS7}

// StrongOnlyRules are the additional rules of strong satisfaction
// (Definition 5.3).
var StrongOnlyRules = []Rule{SS1, SS2, SS3, SS4}

// AllRules lists every rule in paper order.
var AllRules = func() []Rule {
	var all []Rule
	all = append(all, WeakRules...)
	all = append(all, DirectiveRules...)
	all = append(all, StrongOnlyRules...)
	return all
}()

// Mode selects which satisfaction notion to check.
type Mode int

// The satisfaction modes.
const (
	// Strong checks strong satisfaction (Definition 5.3): all rules.
	Strong Mode = iota
	// Weak checks weak satisfaction only (Definition 5.1): WS1–WS4.
	Weak
	// Directives checks directives satisfaction only (Definition 5.2).
	Directives
)

// Violation is one reported failure of a rule. NodeID and EdgeID are -1
// when the violation does not concern a specific node or edge.
type Violation struct {
	Rule     Rule
	Message  string
	Node     pg.NodeID // primary node involved, or -1
	Edge     pg.EdgeID // primary edge involved, or -1
	TypeName string    // schema type involved, if any
	Field    string    // schema field involved, if any
	Property string    // property name involved, if any
}

// String renders the violation as "RULE: message".
func (v Violation) String() string { return string(v.Rule) + ": " + v.Message }

// Result is the outcome of a validation run.
type Result struct {
	Violations []Violation
	// Truncated reports that MaxViolations capped the run: at least one
	// violation beyond the reported ones exists in the graph. The
	// reported list is a canonically sorted subset — not a prefix — of
	// the full violation set. A sequential run computes Truncated
	// exactly (it keeps scanning passes after the cap fills until it
	// either sees one more violation or exhausts the passes). A
	// parallel run skips chunks not yet started once the cap is
	// reached, so it may report Truncated == false even though further
	// violations exist; Truncated == true is always trustworthy.
	Truncated bool
	// RuleTime holds per-rule durations when Options.CollectTimings was
	// set: each pass's time split across the rules it evaluated, summed
	// across workers (see the package comment).
	RuleTime map[Rule]time.Duration
	// Incomplete marks a partial result: the run's context was cancelled
	// before every element was checked. Violations found up to that
	// point are reported, but absence of a violation proves nothing.
	// An incomplete result must not seed Revalidate.
	Incomplete bool
	// Workers is the resolved worker count the run used (after clamping
	// and autotuning); 1 means sequential.
	Workers int
	// Sched holds the run's scheduler telemetry when Options.SchedStats
	// was set (nil otherwise). Sequential runs report Workers == 1 stats
	// with zero steals.
	Sched *SchedStats
}

// OK reports whether no violations were found.
func (r *Result) OK() bool { return len(r.Violations) == 0 }

// ByRule groups the violations by rule.
func (r *Result) ByRule() map[Rule][]Violation {
	out := make(map[Rule][]Violation)
	for _, v := range r.Violations {
		out[v.Rule] = append(out[v.Rule], v)
	}
	return out
}

// Options configures a validation run. The zero value checks strong
// satisfaction sequentially with unlimited violations.
type Options struct {
	Mode Mode
	// Rules restricts the run to the listed rules (intersected with the
	// rules of Mode). Nil means all rules of the mode.
	Rules []Rule
	// MaxViolations stops the run once this many violations have been
	// collected; 0 means unlimited.
	MaxViolations int
	// Workers runs the engine on a worker pool when > 1. 0 normally
	// means sequential, but a graph of at least autotuneElements
	// elements autotunes to GOMAXPROCS workers. The value is clamped by
	// EffectiveWorkers (floor 1, cap 8×GOMAXPROCS and the graph's
	// element count); negative values mean sequential.
	Workers int
	// ElementSharding splits each pass of a parallel run into many
	// range chunks claimed off a work-stealing cursor; without it each
	// pass is one whole task. It stays a caller's choice because which
	// plan wins depends on the traffic: on a 2-core host, always
	// sharding parallel runs made served full validations ~12% faster
	// at the median but slowed graph writes, schema swaps, set-up and
	// scans by 11–20% and cut throughput by ~6%, so neither default
	// is right for every workload.
	ElementSharding bool
	// CollectTimings records per-rule durations into Result.RuleTime
	// (see the package comment for how they are attributed).
	CollectTimings bool
	// SchedStats records chunk-scheduler telemetry (per-chunk wall time,
	// steal counts, per-worker busy fractions, chunk-size histogram)
	// into Result.Sched. The telemetry needed for adaptive chunking is
	// collected by parallel runs regardless — this flag only controls
	// whether it is surfaced on the Result.
	SchedStats bool
	// Program supplies a validation program compiled from the schema by
	// Compile, letting repeated runs over the same (schema, graph) pair
	// skip recompilation and binding. Nil — or a program compiled from
	// a different schema than the one passed to Validate — compiles on
	// the fly, preserving the uncompiled behavior exactly.
	Program *Program
}

// autotuneElements is the graph size (nodes + edges, by ID bound) above
// which a Workers == 0 run turns parallelism on by itself. Below it the
// scheduling overhead rivals the work and — more importantly — the
// sequential run's exact Truncated semantics are worth keeping for
// interactive graph sizes.
const autotuneElements = 100_000

// EffectiveWorkers resolves Options.Workers to the worker count a
// Validate call over a graph with the given element count (node bound +
// edge bound) actually uses:
//
//   - Workers == 0 on a graph of at least autotuneElements elements
//     autotunes to GOMAXPROCS — million-element graphs parallelize
//     without the caller having to know the machine;
//   - negative values and 0 otherwise mean sequential;
//   - values above 8×GOMAXPROCS are clamped (the generous factor keeps
//     deliberately oversubscribed test configurations exercising the
//     parallel code paths on small machines);
//   - the worker count never exceeds the element count (a worker with no
//     possible elements is pure overhead).
//
// 1 means sequential. Servers and CLIs report this value so operators
// can see what an autotuned run actually did.
func (o Options) EffectiveWorkers(elements int) int {
	w := o.Workers
	if w == 0 && elements >= autotuneElements {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	if cap := 8 * runtime.GOMAXPROCS(0); w > cap {
		w = cap
	}
	if elements > 0 && w > elements {
		w = elements
	}
	return w
}

func (o Options) rules() []Rule {
	var base []Rule
	switch o.Mode {
	case Weak:
		base = WeakRules
	case Directives:
		base = DirectiveRules
	default:
		base = AllRules
	}
	if o.Rules == nil {
		return base
	}
	want := make(map[Rule]bool, len(o.Rules))
	for _, r := range o.Rules {
		want[r] = true
	}
	var out []Rule
	for _, r := range base {
		if want[r] {
			out = append(out, r)
		}
	}
	return out
}

// Validate checks the graph against the schema and returns all violations
// found. The schema must have been built by schema.Build (and is assumed
// consistent, as the paper assumes in §4.3).
func Validate(s *schema.Schema, g *pg.Graph, opts Options) *Result {
	return ValidateContext(context.Background(), s, g, opts)
}

// ValidateContext is Validate under a context. Cancellation is observed
// at chunk-claim boundaries, so a cancelled context stops the run before
// the next chunk of work starts, never mid-element. The result of a
// cancelled run has Incomplete set and carries whatever violations were
// found before the stop.
func ValidateContext(ctx context.Context, s *schema.Schema, g *pg.Graph, opts Options) *Result {
	autotuned := opts.Workers == 0
	opts.Workers = opts.EffectiveWorkers(g.NodeBound() + g.EdgeBound())
	res := &Result{}
	if p, err := opts.prepare(ctx, s, autotuned); err == nil {
		c := newCollector(opts.MaxViolations)
		run := &runner{s: s, g: g, opts: opts, coll: c, ctx: ctx}
		timings, st := run.fused(p, opts.rules(), c)
		res = c.result()
		res.RuleTime = timings
		if opts.SchedStats {
			res.Sched = st
		}
	}
	res.Workers = opts.Workers
	res.Incomplete = ctx.Err() != nil
	return res
}

// prepare returns the run's program — o.Program when it was compiled
// from s, else a fresh compile. An autotuned worker count (the caller
// passed Workers == 0) is then scaled back by the program's measured
// parallel efficiency: on a machine where parallel runs of this program
// never paid off — a single-core container — runs fall back toward
// sequential instead of eating the dispatch overhead again.
func (o *Options) prepare(ctx context.Context, s *schema.Schema, autotuned bool) (*Program, error) {
	p := o.Program
	if p == nil || p.s != s {
		var err error
		if p, err = CompileContext(ctx, s); err != nil {
			return nil, err
		}
	}
	if autotuned && o.Workers > 1 {
		o.Workers = p.autotuneWorkers(o.Workers)
	}
	return p, nil
}

// collector accumulates violations with an optional cap, safely across
// goroutines.
type collector struct {
	mu         sync.Mutex
	violations []Violation
	max        int
	overflow   bool // an emit was rejected: violations beyond max exist
}

func newCollector(max int) *collector { return &collector{max: max} }

func (c *collector) emit(v Violation) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.max > 0 && len(c.violations) >= c.max {
		c.overflow = true
		return
	}
	c.violations = append(c.violations, v)
}

func (c *collector) full() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.max > 0 && len(c.violations) >= c.max
}

// dropFull reports whether the cap is already reached, flipping the
// overflow flag when it is. Rule bodies call it (via runner.drop) at
// the moment a violation is established but before formatting its
// message, so a full collector costs no fmt.Sprintf allocations:
// skipping the emit is equivalent to emitting and having the collector
// reject it, because the collector never shrinks.
func (c *collector) dropFull() bool {
	if c.max <= 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.violations) >= c.max {
		c.overflow = true
		return true
	}
	return false
}

// merge splices a chunk-local violation buffer into the collector under
// a single lock. Buffered violations beyond the cap are dropped but
// still flip overflow, so a completed chunk never under-reports
// truncation (the cap contract parallel runs rely on).
func (c *collector) merge(buf []Violation) {
	if len(buf) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.max > 0 {
		room := c.max - len(c.violations)
		if room < 0 {
			room = 0
		}
		if len(buf) > room {
			c.overflow = true
			buf = buf[:room]
		}
	}
	c.violations = append(c.violations, buf...)
}

// truncated reports whether an emit was rejected by the cap, i.e. the
// collected set is provably incomplete.
func (c *collector) truncated() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.overflow
}

func (c *collector) result() *Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	sort.Slice(c.violations, func(i, j int) bool {
		a, b := c.violations[i], c.violations[j]
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Edge != b.Edge {
			return a.Edge < b.Edge
		}
		return a.Message < b.Message
	})
	return &Result{Violations: c.violations, Truncated: c.overflow}
}

// runner binds a schema and graph for one validation run. onlyTypes,
// when set, restricts DS7 to the types related to a delta — used by
// Revalidate to make incremental checking cheap; nil means "all".
type runner struct {
	s    *schema.Schema
	g    *pg.Graph
	opts Options

	// ctx is the run's context; nil means non-cancellable. The engine
	// polls cancelled() at chunk-claim boundaries only — never inside an
	// element loop — so cancellation cost stays off the hot path.
	ctx context.Context

	// bind is the compiled program bound to the graph, set by the fused
	// engine and by Revalidate. The unrestricted DS7 sweep reads its
	// cached key index.
	bind *binding

	// coll is the run's collector, consulted by drop() to skip
	// formatting violations that a full collector would reject anyway.
	// Nil means never drop.
	coll *collector

	onlyTypes map[string]bool
}

// drop reports whether the imminent violation should be skipped because
// the collector is already full. Callers must invoke it only once a
// violation is certain — it flips the Truncated flag.
func (r *runner) drop() bool { return r.coll != nil && r.coll.dropFull() }

// cancelled reports whether the run's context has been cancelled.
func (r *runner) cancelled() bool { return r.ctx != nil && r.ctx.Err() != nil }

// typeAllowed reports whether DS7 should consider the type under the
// restriction (a type is relevant when an affected label is ⊑ it).
func (r *runner) typeAllowed(name string) bool {
	if r.onlyTypes == nil {
		return true
	}
	for label := range r.onlyTypes {
		if r.s.SubtypeNamed(label, name) {
			return true
		}
	}
	return false
}

type emitFunc func(Violation)

func nodeRef(id pg.NodeID) string { return "node n" + strconv.Itoa(int(id)) }

func edgeRef(id pg.EdgeID) string { return "edge e" + strconv.Itoa(int(id)) }
