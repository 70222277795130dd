package validate

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pgschema/internal/pg"
	"pgschema/internal/schema"
	"pgschema/internal/values"
)

// A Program is a validation program compiled from a schema once and
// reused across runs. It precomputes everything about the schema the
// fused engine needs — a dense name table over the schema's type and
// field-base names, the per-label field classification, the directive
// obligations in declaration order, and the subtype-closure rows — so
// that a Validate call only has to bind the program to the graph's
// interned symbols instead of rebuilding string-keyed caches.
//
// A Program is immutable after Compile and safe for concurrent use. The
// per-graph binding is cached inside the Program keyed by (graph,
// epoch): repeated validation of an unchanged graph skips the bind step
// entirely, and any mutation of the graph (which bumps pg.Graph.Epoch)
// invalidates the cache on the next run.
type Program struct {
	s *schema.Schema

	// nameID assigns dense IDs to every name a rule can ask the subtype
	// relation about: declared type names and field base-type names.
	nameID map[string]int32
	names  []string

	// labels holds the compiled per-label lookup table for every
	// declared type name (graph labels resolve through it at bind time).
	labels map[string]*labelProgram

	// reqTargets lists the @requiredForTarget declarations in
	// declaration order (types sorted by name, fields in source order) —
	// the order ds4 quantifies in, so duplicate declarations keep their
	// multiplicity. DS4 is the one target-quantified rule without a
	// per-label bucket: its element space is the target-node enumeration
	// of each declaration, resolved at bind time.
	reqTargets []*schema.FieldDef

	// keys lists the @key declarations in declaration order (types
	// sorted by name, directives in source order) — DS7's unit of
	// quantification. Their buckets live in the snapshot's shared key
	// indexes (pg.Snapshot.KeyConflicts, KeyBucketIn).
	keys []keyDecl

	compileTime  time.Duration
	nFields      int
	nObligations int

	bound atomic.Pointer[binding]

	// sched holds the scheduler feedback of previous runs over this
	// program — smoothed per-element pass costs, observed chunk skew,
	// and measured parallel efficiency. The adaptive chunk planner sizes
	// the next run's chunks from it, and worker autotuning falls back
	// toward sequential when the measured efficiency says parallelism
	// is not paying (single-core containers). Epoch changes do not reset
	// it: per-element costs are a property of the schema and kernels,
	// not of one graph state.
	sched atomic.Pointer[schedFeedback]

	// scratchPool and runPool recycle per-worker scratch and the
	// parallel run's worker states (violation buffers, emit closures)
	// across runs, so a parallel run allocates per worker only its
	// goroutine — the flat-allocation contract the AllocsPerRun tests
	// pin.
	scratchPool sync.Pool
	runPool     sync.Pool
	chunkPool   sync.Pool
}

// labelProgram is the schema-side compilation of one declared type
// name: field classification in source order, the subtype row over the
// program's name table, and the directive obligations that apply to
// nodes of this label, in declaration order.
type labelProgram struct {
	td     *schema.TypeDef
	fields []compiledField
	sub    []bool // indexed by nameID: sub[n] ⇔ label ⊑S names[n]

	srcRel   []compiledSrc      // DS1/DS2/DS6 source-side obligations
	reqAttrs []*schema.FieldDef // DS5 @required attributes
	uftIn    []compiledUft      // DS3 target-side @uniqueForTarget

	// oblig is the label's obligation mask (ob* bits in fused.go): which
	// rule groups can possibly fire for a node of this label. The fused
	// node kernel ANDs it with the run's want mask, so a node whose
	// label owes nothing to the requested rules costs two loads and one
	// branch.
	oblig obligMask
}

// compiledField classifies one declared field of a label.
type compiledField struct {
	fd     *schema.FieldDef
	isAttr bool
	baseID int32 // nameID of fd.Type.Base()

	// check is the compiled valuesW(fd.Type) predicate for attribute
	// fields (WS1); args the compiled argument table for relationship
	// fields (SS3/WS2). Exactly one is non-nil for a field with
	// anything to check.
	check func(values.Value) bool
	args  []compiledArg
}

// compiledArg is one declared edge-property argument with its
// membership predicate compiled (valuesW(arg.Type)).
type compiledArg struct {
	arg   *schema.ArgDef
	check func(values.Value) bool
}

// compiledSrc is one relationship declaration with source-side
// directive flags resolved at compile time.
type compiledSrc struct {
	fd                          *schema.FieldDef
	distinct, noLoops, required bool
}

// keyDecl is one @key declaration: nodes of a type ⊑ typeName must not
// agree on every key attribute.
type keyDecl struct {
	typeName   string
	keyFields  string   // the declared field list, joined for messages
	attrs      []string // the key fields that are attributes at typeName
	labelNames []string // ConcreteTargets(typeName)
}

// compiledUft is one @uniqueForTarget declaration applicable to a label
// on the target side.
type compiledUft struct {
	fd      *schema.FieldDef
	ownerID int32 // nameID of fd.Owner, for the source-subtype test
}

// Compile builds the validation program for a schema. The schema must
// have been built by schema.Build and must not change afterwards.
func Compile(s *schema.Schema) *Program {
	p, _ := CompileContext(context.Background(), s)
	return p
}

// CompileContext is Compile under a context: compilation checks for
// cancellation between types (the unit of compilation work) and returns
// the context's error if it fires. A background context never errors,
// so Compile is exactly the historical behavior.
func CompileContext(ctx context.Context, s *schema.Schema) (*Program, error) {
	start := time.Now()
	p := &Program{
		s:      s,
		nameID: make(map[string]int32),
		labels: make(map[string]*labelProgram),
	}
	intern := func(name string) int32 {
		if id, ok := p.nameID[name]; ok {
			return id
		}
		id := int32(len(p.names))
		p.nameID[name] = id
		p.names = append(p.names, name)
		return id
	}

	// The name table covers every name a fused check can pass as the
	// supertype: declared type names (DS3/DS4 owners, DS7 types) and the
	// base type of every field (WS3, including attribute fields whose
	// base is a scalar). s.Types() is sorted, so IDs are deterministic.
	for _, td := range s.Types() {
		intern(td.Name)
		for _, f := range td.Fields {
			intern(f.Type.Base())
		}
	}

	// Per-label field classification and subtype rows. The subtype rows
	// are the bulk of compile time (labels × names), so this loop hosts
	// the cancellation checks.
	for _, td := range s.Types() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		lp := &labelProgram{td: td}
		for _, f := range td.Fields {
			cf := compiledField{
				fd:     f,
				isAttr: s.IsAttribute(f),
				baseID: p.nameID[f.Type.Base()],
			}
			if cf.isAttr {
				cf.check = s.MemberFuncW(f.Type)
			} else if len(f.Args) > 0 {
				cf.args = make([]compiledArg, len(f.Args))
				for i, a := range f.Args {
					cf.args[i] = compiledArg{arg: a, check: s.MemberFuncW(a.Type)}
				}
			}
			lp.fields = append(lp.fields, cf)
		}
		p.nFields += len(lp.fields)
		lp.sub = make([]bool, len(p.names))
		for i, n := range p.names {
			lp.sub[i] = s.SubtypeNamed(td.Name, n)
		}
		p.labels[td.Name] = lp
	}

	// Directive-bearing declarations, bucketed per applicable label in
	// declaration order (types sorted by name, fields in source order) —
	// the same order the rule-by-rule oracle quantifies in, so duplicate
	// declarations (object type + interface) keep their multiplicity.
	for _, td := range s.Types() {
		if td.Kind != schema.Object && td.Kind != schema.Interface {
			continue
		}
		for _, f := range td.Fields {
			switch {
			case s.IsRelationship(f):
				d := compiledSrc{
					fd:       f,
					distinct: schema.HasDirective(f.Directives, schema.DirDistinct),
					noLoops:  schema.HasDirective(f.Directives, schema.DirNoLoops),
					required: schema.HasDirective(f.Directives, schema.DirRequired),
				}
				if d.distinct || d.noLoops || d.required {
					for _, l := range s.ConcreteTargets(f.Owner) {
						p.labels[l].srcRel = append(p.labels[l].srcRel, d)
						p.nObligations++
					}
				}
				if schema.HasDirective(f.Directives, schema.DirUniqueForTarget) {
					u := compiledUft{fd: f, ownerID: p.nameID[f.Owner]}
					for _, l := range s.ConcreteTargets(f.Type.Base()) {
						p.labels[l].uftIn = append(p.labels[l].uftIn, u)
						p.nObligations++
					}
				}
				if schema.HasDirective(f.Directives, schema.DirRequiredForTarget) {
					p.reqTargets = append(p.reqTargets, f)
					p.nObligations++
				}
			case s.IsAttribute(f):
				if schema.HasDirective(f.Directives, schema.DirRequired) {
					for _, l := range s.ConcreteTargets(f.Owner) {
						p.labels[l].reqAttrs = append(p.labels[l].reqAttrs, f)
						p.nObligations++
					}
				}
			}
		}
	}
	for _, td := range s.Types() {
		for _, keyFields := range td.KeyFieldSets() {
			k := keyDecl{typeName: td.Name, keyFields: strings.Join(keyFields, ", "), labelNames: s.ConcreteTargets(td.Name)}
			for _, f := range keyFields {
				if fd := td.Field(f); fd != nil && s.IsAttribute(fd) {
					k.attrs = append(k.attrs, f)
				}
			}
			p.keys = append(p.keys, k)
		}
	}
	// Obligation masks, computed after the directive buckets are final.
	for _, lp := range p.labels {
		if lp.td.Kind != schema.Object {
			lp.oblig |= obSS1
		}
		for _, cf := range lp.fields {
			if !cf.fd.Type.IsList() {
				lp.oblig |= obWS4 // a second same-label edge would violate
				break
			}
		}
		for i := range lp.srcRel {
			d := &lp.srcRel[i]
			if d.distinct {
				lp.oblig |= obDS1
			}
			if d.noLoops {
				lp.oblig |= obDS2
			}
			if d.required {
				lp.oblig |= obDS6
			}
		}
		if len(lp.uftIn) > 0 {
			lp.oblig |= obDS3
		}
		if len(lp.reqAttrs) > 0 {
			lp.oblig |= obDS5
		}
	}
	p.compileTime = time.Since(start)
	return p, nil
}

// Schema returns the schema the program was compiled from.
func (p *Program) Schema() *schema.Schema { return p.s }

// ProgramStats summarizes a compiled program for observability.
type ProgramStats struct {
	// Types is the number of declared type names compiled.
	Types int
	// Names is the size of the interned name table (type names plus
	// field base-type names).
	Names int
	// Fields is the number of classified (label, field) pairs.
	Fields int
	// Obligations is the number of directive obligations bucketed onto
	// labels, counted per applicable label.
	Obligations int
	// CompileTime is the wall-clock duration of Compile.
	CompileTime time.Duration
}

// Stats reports the program's size and compile time.
func (p *Program) Stats() ProgramStats {
	return ProgramStats{
		Types:       len(p.labels),
		Names:       len(p.names),
		Fields:      p.nFields,
		Obligations: p.nObligations,
		CompileTime: p.compileTime,
	}
}

// binding joins a compiled program to one graph at one epoch: label
// lookup tables re-indexed by the graph's interned Syms, and the DS4
// and DS7 declarations resolved to Syms. The node enumerations and key
// buckets those rules quantify over are not held here: they are the
// snapshot's shared indexes (pg.Snapshot.LabelNodes, KeyConflicts,
// KeyBucketIn), built lazily once per snapshot and read by query plans
// too. Its visible state is immutable once built; the lazy kernels are
// materialized at most once under a sync.Once guard and must be first
// requested while the graph is still at the binding's epoch — which
// every caller guarantees, since a validation run holds the graph
// un-mutated for its duration.
type binding struct {
	p        *Program
	g        *pg.Graph
	epoch    uint64
	symCount int

	// snap is the graph's columnar snapshot at the binding's epoch. The
	// fused passes scan its flat label/adjacency/property arrays instead
	// of chasing node and edge structs through the mutable store; it is
	// shared with the graph's own cache, so binding to an unchanged
	// graph never rebuilds it.
	snap *pg.Snapshot

	// labels is indexed by pg.Sym; non-nil exactly for the syms that
	// are labels of live nodes. labelNames records the sorted label set
	// the table was built for, so bindTo can prove a later epoch's
	// binding may share it.
	labels     []*boundLabel
	labelNames []string

	// reqTargets is Program.reqTargets bound to the graph: field-name
	// syms, owner nameIDs, the per-declaration target-label sym set
	// (targetSyms) and the target labels whose snapshot enumerations
	// form DS4's chunkable element space in full runs.
	reqTargets []boundReqTarget

	// keys is Program.keys bound to the graph, index for index.
	keys []boundKey

	// kern holds the dense-pass iteration bitsets (live nodes, live
	// edges, per-label node sets for the word kernels), derived from the
	// snapshot's label columns in one pass on first dense use. Dirty-list
	// passes (incremental revalidation) never build them — a delta-sized
	// run must not pay an O(V+E) sweep.
	kernOnce sync.Once
	kern     *boundKernels
}

// boundKey is a keyDecl resolved to graph Syms: the interned concrete
// labels (in ConcreteTargets order) and the attribute syms (NoSym for
// a name the graph never interned, which renders absent).
type boundKey struct {
	*keyDecl
	labels, props []pg.Sym
}

// boundKernels are the word-at-a-time iteration sets of the dense fused
// passes: presence bitsets over element IDs, walked with
// bits.TrailingZeros64 so tombstone skips and per-label obligations
// cost word operations instead of per-element branches.
type boundKernels struct {
	liveNodes []uint64 // bit v ⇔ node v is live
	liveEdges []uint64 // bit e ⇔ edge e is live
	// labelBits[s] is the bitset of live nodes labeled s — non-nil
	// exactly for labels some word kernel sweeps (SS1-violating labels
	// and labels with @required attributes).
	labelBits [][]uint64
}

// kernels returns the dense-pass bitsets, building them on first use in
// one pass over the snapshot's label columns. Callers must hold the
// graph at the binding's epoch (the binding contract).
func (b *binding) kernels() *boundKernels {
	b.kernOnce.Do(func() {
		snap := b.snap
		nb, eb := snap.NodeBound(), snap.EdgeBound()
		nodeWords := (nb + 63) / 64
		k := &boundKernels{
			liveNodes: make([]uint64, nodeWords),
			liveEdges: make([]uint64, (eb+63)/64),
			labelBits: make([][]uint64, b.symCount),
		}
		for sym, bl := range b.labels {
			if bl != nil && bl.oblig&(obSS1|obDS5) != 0 {
				k.labelBits[sym] = make([]uint64, nodeWords)
			}
		}
		for v, ls := range snap.NodeLabelColumn() {
			if ls == pg.NoSym {
				continue
			}
			k.liveNodes[v>>6] |= 1 << (uint(v) & 63)
			if set := k.labelBits[ls]; set != nil {
				set[v>>6] |= 1 << (uint(v) & 63)
			}
		}
		for e, ls := range snap.EdgeLabelColumn() {
			if ls != pg.NoSym {
				k.liveEdges[e>>6] |= 1 << (uint(e) & 63)
			}
		}
		b.kern = k
	})
	return b.kern
}

// boundLabel is a labelProgram bound to the graph's symbol table — or,
// for a label the schema does not declare, just the label with its
// bind-time subtype row (td == nil).
type boundLabel struct {
	label string
	td    *schema.TypeDef

	// fields is indexed by pg.Sym (nil when td == nil); the zero slot
	// means "not a declared field of this label".
	fields []fieldSlot
	sub    []bool // indexed by nameID, as in labelProgram

	srcRel   []boundSrc
	reqAttrs []boundReq
	uftIn    []boundUft

	// oblig is the label's obligation mask, copied from the labelProgram
	// (undeclared labels owe only SS1). The dense node kernel ANDs it
	// with the run's want mask per node.
	oblig obligMask

	// keys indexes binding.keys: the @key declarations whose types have
	// this label as a concrete target.
	keys []int
}

// fieldSlot is compiledField addressed by graph Sym. For relationship
// fields, args carries the argument table re-keyed by the graph's
// interned property-name syms: edge-property lookup is then a linear
// sym scan over a couple of entries instead of a string-map probe.
type fieldSlot struct {
	fd     *schema.FieldDef
	isAttr bool
	baseID int32

	check func(values.Value) bool
	args  []boundArg
}

// boundArg is compiledArg with the argument name resolved to a graph
// Sym (pg.NoSym when the graph never interned the name, which correctly
// matches no edge property).
type boundArg struct {
	sym   pg.Sym
	arg   *schema.ArgDef
	check func(values.Value) bool
}

// boundSrc is compiledSrc with the field name resolved to a graph Sym
// (pg.NoSym when the graph never interned the name, which correctly
// matches no edge).
type boundSrc struct {
	fd                          *schema.FieldDef
	sym                         pg.Sym
	distinct, noLoops, required bool
}

type boundReq struct {
	fd  *schema.FieldDef
	sym pg.Sym
}

type boundUft struct {
	fd      *schema.FieldDef
	sym     pg.Sym
	ownerID int32
}

// boundReqTarget is one @requiredForTarget declaration bound to the
// graph: the edge-label sym, the owner's nameID for the source-subtype
// test, and the concrete target labels — as a list, whose snapshot
// enumerations concatenated are the declaration's possible target
// nodes, and as a per-Sym membership table, which incremental runs test
// candidates against instead of enumerating.
type boundReqTarget struct {
	fd           *schema.FieldDef
	sym          pg.Sym
	ownerID      int32
	targetLabels []pg.Sym
	targetSyms   []bool // indexed by pg.Sym: label ∈ ConcreteTargets(fd.Type.Base())
}

// schedFeedback is the run-to-run observation record the adaptive chunk
// planner and the worker autotuner read: smoothed per-element costs per
// task kind (for sizing chunks toward a wall-time target) and the
// measured parallel efficiency of recent parallel runs (for falling
// back toward sequential when parallelism is pure dispatch overhead).
// Values are exponential moving averages with weight 1/2 per run; zero
// means "no observation yet".
type schedFeedback struct {
	nsPerElem  [numTaskKinds]float64
	skew       [numTaskKinds]float64 // max/avg chunk time per kind
	efficiency float64
}

// noteSched folds one run's observations into the program's feedback
// under a CAS loop (runs over the same program may race). Zero fields
// in obs leave the corresponding smoothed value untouched.
func (p *Program) noteSched(obs *schedFeedback) {
	for {
		old := p.sched.Load()
		if old == nil {
			if p.sched.CompareAndSwap(nil, obs) {
				return
			}
			continue
		}
		merged := *old
		for k := range obs.nsPerElem {
			switch {
			case obs.nsPerElem[k] <= 0:
			case merged.nsPerElem[k] <= 0:
				merged.nsPerElem[k] = obs.nsPerElem[k]
			default:
				merged.nsPerElem[k] = (merged.nsPerElem[k] + obs.nsPerElem[k]) / 2
			}
			switch {
			case obs.skew[k] <= 0:
			case merged.skew[k] <= 0:
				merged.skew[k] = obs.skew[k]
			default:
				merged.skew[k] = (merged.skew[k] + obs.skew[k]) / 2
			}
		}
		if obs.efficiency > 0 {
			if merged.efficiency > 0 {
				merged.efficiency = (merged.efficiency + obs.efficiency) / 2
			} else {
				merged.efficiency = obs.efficiency
			}
		}
		if p.sched.CompareAndSwap(old, &merged) {
			return
		}
	}
}

// effFallbackThreshold is the measured parallel efficiency below which
// an autotuned worker count is scaled back: 0.5 means "if more than
// half the workers' combined time was spent idle or queueing, the
// parallelism is not paying here".
const effFallbackThreshold = 0.5

// autotuneWorkers applies efficiency feedback to an autotuned worker
// count: when previous parallel runs of this program measured
// efficiency below the fallback threshold, the count is scaled down
// proportionally (to 1 on a single-core container, where efficiency
// ≈ 1/w). Explicitly requested worker counts never pass through here —
// the caller applies this only when Options.Workers was 0.
func (p *Program) autotuneWorkers(w int) int {
	if w <= 1 {
		return w
	}
	fb := p.sched.Load()
	if fb == nil || fb.efficiency <= 0 || fb.efficiency >= effFallbackThreshold {
		return w
	}
	scaled := int(float64(w)*fb.efficiency + 0.5)
	if scaled < 1 {
		scaled = 1
	}
	return scaled
}

// bindTo returns the program bound to the graph at its current epoch,
// reusing the cached binding when neither the graph identity nor its
// epoch changed since the last call. Concurrent callers may race to
// rebuild; every built binding is valid and the last store wins.
//
// When the graph identity matches but the epoch moved, the new binding
// shares the old one's label tables if the symbol table and live label
// set are unchanged — the common case for small mutations, where
// rebuilding the per-label field/obligation tables would dwarf the
// delta itself. Node enumerations and key buckets belong to the
// epoch's snapshot, not to the binding.
func (p *Program) bindTo(g *pg.Graph) *binding {
	b := p.bound.Load()
	if b != nil && b.g == g && b.epoch == g.Epoch() {
		return b
	}
	var nb *binding
	if b != nil && b.g == g && b.symCount == g.SymCount() && sameLabels(b.labelNames, g) {
		nb = p.rebind(b, g)
	} else {
		nb = p.newBinding(g)
	}
	p.bound.Store(nb)
	return nb
}

// sameLabels reports whether the graph's current live label set equals
// the sorted label list a binding was built for.
func sameLabels(names []string, g *pg.Graph) bool {
	cur := g.Labels()
	if len(cur) != len(names) {
		return false
	}
	for i := range cur {
		if cur[i] != names[i] {
			return false
		}
	}
	return true
}

// rebind builds a fresh-epoch binding that shares the old binding's
// immutable label tables. Valid only when symCount and the live label
// set are unchanged (checked by bindTo): the tables are keyed by Sym
// and field-name Syms, both append-only, so identical sym sets mean
// identical tables.
func (p *Program) rebind(old *binding, g *pg.Graph) *binding {
	return &binding{
		p:          p,
		g:          g,
		epoch:      g.Epoch(),
		symCount:   old.symCount,
		snap:       g.Snapshot(),
		labels:     old.labels,
		labelNames: old.labelNames,
		reqTargets: old.reqTargets,
		keys:       old.keys,
	}
}

func (p *Program) newBinding(g *pg.Graph) *binding {
	b := &binding{
		p:        p,
		g:        g,
		epoch:    g.Epoch(),
		symCount: g.SymCount(),
		snap:     g.Snapshot(),
		labels:   make([]*boundLabel, g.SymCount()),
	}
	symOf := func(name string) pg.Sym {
		s, _ := g.Sym(name)
		return s
	}
	b.labelNames = g.Labels()
	for _, l := range b.labelNames {
		sym := symOf(l)
		bl := &boundLabel{label: l, oblig: obSS1}
		if lp := p.labels[l]; lp != nil {
			bl.td = lp.td
			bl.sub = lp.sub
			bl.oblig = lp.oblig
			bl.fields = make([]fieldSlot, b.symCount)
			for _, cf := range lp.fields {
				fsym, ok := g.Sym(cf.fd.Name)
				if !ok {
					continue
				}
				slot := fieldSlot{fd: cf.fd, isAttr: cf.isAttr, baseID: cf.baseID, check: cf.check}
				if len(cf.args) > 0 {
					slot.args = make([]boundArg, len(cf.args))
					for i, ca := range cf.args {
						slot.args[i] = boundArg{sym: symOf(ca.arg.Name), arg: ca.arg, check: ca.check}
					}
				}
				bl.fields[fsym] = slot
			}
			for _, d := range lp.srcRel {
				bl.srcRel = append(bl.srcRel, boundSrc{
					fd: d.fd, sym: symOf(d.fd.Name),
					distinct: d.distinct, noLoops: d.noLoops, required: d.required,
				})
			}
			for _, fd := range lp.reqAttrs {
				bl.reqAttrs = append(bl.reqAttrs, boundReq{fd: fd, sym: symOf(fd.Name)})
			}
			for _, u := range lp.uftIn {
				bl.uftIn = append(bl.uftIn, boundUft{fd: u.fd, sym: symOf(u.fd.Name), ownerID: u.ownerID})
			}
		} else {
			// Undeclared label: its subtype row is not precompilable (the
			// label is not a schema name), so compute it here. Only
			// reflexivity can hold, and only when the label coincides
			// with a schema name.
			row := make([]bool, len(p.names))
			for i, n := range p.names {
				row[i] = p.s.SubtypeNamed(l, n)
			}
			bl.sub = row
		}
		b.labels[sym] = bl
	}

	// DS4 declarations: syms, owner IDs, and target labels.
	for _, fd := range p.reqTargets {
		rt := boundReqTarget{
			fd:         fd,
			sym:        symOf(fd.Name),
			ownerID:    p.nameID[fd.Owner],
			targetSyms: make([]bool, b.symCount),
		}
		for _, l := range p.s.ConcreteTargets(fd.Type.Base()) {
			if s, ok := g.Sym(l); ok {
				rt.targetLabels = append(rt.targetLabels, s)
				rt.targetSyms[s] = true
			}
		}
		b.reqTargets = append(b.reqTargets, rt)
	}
	// DS7 declarations: label and attribute syms, and each live label's
	// declaration list for incremental revalidation.
	b.keys = make([]boundKey, len(p.keys))
	for d := range p.keys {
		k := &b.keys[d]
		k.keyDecl = &p.keys[d]
		for _, l := range k.labelNames {
			if s, ok := g.Sym(l); ok {
				k.labels = append(k.labels, s)
				if bl := b.labels[s]; bl != nil {
					bl.keys = append(bl.keys, d)
				}
			}
		}
		for _, f := range k.attrs {
			k.props = append(k.props, symOf(f))
		}
	}
	return b
}
