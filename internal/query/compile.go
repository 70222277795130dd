package query

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"pgschema/internal/apigen"
	"pgschema/internal/pg"
	"pgschema/internal/schema"
	"pgschema/internal/values"
)

// A Plan is a query document compiled against a schema once and reused
// across executions — the PR 3 playbook applied to reads. Everything
// that depends only on (schema, document) is resolved at compile time:
// root fields become list-scan or key-lookup steps, attribute fields
// become property-column fetches addressed by symbol slot, relationship
// fields become CSR adjacency walks with pre-parsed edge filters,
// fragments become indexed programs dispatched through subtype-closure
// rows, and every error the interpretive executor (the tree-walking test
// oracle in interpret_test.go) would raise lazily is embedded as a step
// that fires only when a node actually reaches it — preserving the
// interpretive engine's observable behavior exactly.
//
// A Plan is immutable after Compile and safe for concurrent use. The
// per-graph binding (symbol slots resolved to pg.Sym, subtype rows over
// live labels) is cached inside the Plan keyed by (graph, epoch),
// exactly like validate.Program: repeated execution against an
// unchanged graph skips the bind step, and any mutation invalidates it
// on the next call. Node enumerations and key-bucket indexes are read
// from the graph's snapshot, which shares them across all plans.
type Plan struct {
	s *schema.Schema

	ops   []*planOp
	frags []*planFrag

	// conds are the fragment type conditions the plan dispatches on;
	// bindings compute one subtype row per live label over them.
	conds []string

	// symNames are the property/edge-label/type names the plan compares
	// at runtime; bindings resolve each slot to a pg.Sym (NoSym matches
	// nothing).
	symNames []string

	invs []*invStep

	compileTime time.Duration

	bound atomic.Pointer[planBinding]
}

type planOp struct {
	name  string
	steps []rootStep
}

// planFrag is a named fragment compiled once against its type
// condition; spreads reference it by index so legal fragment reuse (and
// cyclic definitions, whose cycles are detected at runtime like the
// interpretive engine does) cost one compilation each.
type planFrag struct {
	name   string
	condID int32
	sub    *selProg
}

// selProg is a compiled selection set.
type selProg struct {
	items []selItem
}

type itemKind uint8

const (
	itTypename itemKind = iota
	itField
	itInline
	itSpread
)

type selItem struct {
	kind itemKind
	key  string // response key (itTypename, itField)

	fld *fieldStep // itField

	condID int32    // itInline: -1 means unconditional
	sub    *selProg // itInline

	fragIdx  int32  // itSpread
	err      *Error // itSpread: undefined fragment, raised on reach
	cycleErr *Error // itSpread: raised when the fragment is active
}

type staticKind uint8

const (
	stErr staticKind = iota
	stAttr
	stRel
)

// fieldStep is one compiled field resolution. The inverse branch (if
// any) is consulted first by the node's runtime label, mirroring the
// interpretive precedence; the static branch then resolves against the
// position's declared type, with errors embedded for lazy raising.
type fieldStep struct {
	inv *invStep // non-nil when the name is an inverse-field name

	kind staticKind
	err  *Error // stErr

	slot int32 // stAttr: property-name slot

	// stRel
	edgeSlot int32
	filters  []edgeFilter
	isList   bool
	sub      *selProg
	subErr   *Error
}

// edgeFilter is one pre-parsed edge-property equality filter; a null
// argument matches edges lacking the property (or carrying null).
type edgeFilter struct {
	slot   int32
	want   values.Value
	isNull bool
}

// invStep is one use of an inverse field: the applicable (edge label,
// source type) definitions keyed by target label, each with the
// sub-selection compiled against its source type. Bindings turn byLabel
// into a Sym-indexed row.
type invStep struct {
	idx     int
	argsErr *Error
	targets []invTarget
	byLabel map[string]int32
}

type invTarget struct {
	edgeSlot int32
	srcSlot  int32
	sub      *selProg
	subErr   *Error
}

type rootKind uint8

const (
	rtErr rootKind = iota
	rtTypename
	rtList
	rtLookup
)

type rootStep struct {
	kind rootKind
	key  string
	err  *Error // rtErr, raised when the step executes

	typeName string
	typeSlot int32 // rtList, rtLookup: the type's label slot
	sub      *selProg
	subErr   *Error

	// rtLookup: the key fields occupy the contiguous slots
	// [keySlot, keySlot+len(want)), in key-set order, so a binding's
	// syms sub-slice names the snapshot's key index without allocating.
	// The key tuple rendered at compile time selects the bucket; want
	// re-checks with values.Equal because Value.Key is
	// canonical-consistent but not injective.
	keySlot   int32
	bucketKey string
	want      []values.Value
}

// compiler carries the compile-time-only state: the apigen root/inverse
// convention maps (built exactly like the interpretive executor's) and
// the dedup tables behind the plan's slot arrays.
type compiler struct {
	p   *Plan
	doc *Document

	listField   map[string]string
	lookupField map[string]string
	invByName   map[string]map[string]inverseDef // field name -> target label

	condID  map[string]int32
	symID   map[string]int32
	fragIdx map[string]int32
}

// Compile builds the query plan for a parsed document against a schema.
// Compilation never fails: malformed selections compile into steps that
// raise the interpretive engine's error if (and only if) execution
// reaches them. The schema must have been built by schema.Build and
// must not change afterwards.
func Compile(s *schema.Schema, doc *Document) *Plan {
	start := time.Now()
	c := &compiler{
		p:           &Plan{s: s},
		doc:         doc,
		listField:   make(map[string]string),
		lookupField: make(map[string]string),
		invByName:   make(map[string]map[string]inverseDef),
		condID:      make(map[string]int32),
		symID:       make(map[string]int32),
		fragIdx:     make(map[string]int32),
	}
	// The same iteration the interpretive executor runs per call —
	// sorted object types, source-order fields — so colliding names
	// resolve to the same winner.
	for _, td := range s.ObjectTypes() {
		c.listField[apigen.ListFieldName(td.Name)] = td.Name
		if keyFieldsOf(td) != nil {
			c.lookupField[apigen.LookupFieldName(td.Name)] = td.Name
		}
		for _, f := range td.Fields {
			if !s.IsRelationship(f) {
				continue
			}
			name := apigen.InverseFieldName(f.Name, td.Name)
			for _, target := range s.ConcreteTargets(f.Type.Base()) {
				if c.invByName[name] == nil {
					c.invByName[name] = make(map[string]inverseDef)
				}
				c.invByName[name][target] = inverseDef{edgeLabel: f.Name, sourceType: td.Name}
			}
		}
	}
	for _, op := range doc.Operations {
		po := &planOp{name: op.Name}
		for _, sel := range op.Selections {
			po.steps = append(po.steps, c.compileRootSel(sel))
		}
		c.p.ops = append(c.p.ops, po)
	}
	c.p.compileTime = time.Since(start)
	return c.p
}

// Schema returns the schema the plan was compiled against.
func (p *Plan) Schema() *schema.Schema { return p.s }

// CompileTime reports the wall-clock duration of Compile.
func (p *Plan) CompileTime() time.Duration { return p.compileTime }

func (c *compiler) compileRootSel(sel Selection) rootStep {
	f, ok := sel.(*Field)
	if !ok {
		return rootStep{kind: rtErr, err: &Error{Msg: "fragments on the query root are not supported"}}
	}
	switch {
	case f.Name == "__typename":
		return rootStep{kind: rtTypename, key: f.Key()}
	case c.listField[f.Name] != "":
		tn := c.listField[f.Name]
		if len(f.Arguments) > 0 {
			return rootStep{kind: rtErr, err: &Error{Pos: f.Pos, Msg: f.Name + " takes no arguments"}}
		}
		st := rootStep{kind: rtList, key: f.Key(), typeName: tn, typeSlot: c.symSlot(tn)}
		st.sub, st.subErr = c.compileBody(tn, f.Selections)
		return st
	case c.lookupField[f.Name] != "":
		return c.compileLookup(c.lookupField[f.Name], f)
	default:
		return rootStep{kind: rtErr, err: &Error{Pos: f.Pos, Msg: fmt.Sprintf("unknown query field %q", f.Name)}}
	}
}

func (c *compiler) compileLookup(tn string, f *Field) rootStep {
	keys := keyFieldsOf(c.p.s.Type(tn))
	want := make(map[string]values.Value, len(f.Arguments))
	for _, a := range f.Arguments {
		found := false
		for _, k := range keys {
			if k == a.Name {
				found = true
				break
			}
		}
		if !found {
			return rootStep{kind: rtErr, err: &Error{Pos: a.Pos, Msg: fmt.Sprintf("%q is not a key field of %s", a.Name, tn)}}
		}
		want[a.Name] = toValue(a.Value)
	}
	if len(want) != len(keys) {
		return rootStep{kind: rtErr, err: &Error{Pos: f.Pos, Msg: fmt.Sprintf("lookup %q requires the full key (%d of %d fields given)", f.Name, len(want), len(keys))}}
	}
	st := rootStep{kind: rtLookup, key: f.Key(), typeName: tn, typeSlot: c.symSlot(tn), keySlot: int32(len(c.p.symNames))}
	c.p.symNames = append(c.p.symNames, keys...)
	var tuple []byte
	for _, k := range keys {
		tuple = pg.AppendKeyPart(tuple, want[k], true)
		st.want = append(st.want, want[k])
	}
	st.bucketKey = string(tuple)
	st.sub, st.subErr = c.compileBody(tn, f.Selections)
	return st
}

// compileBody compiles a node-position selection set, or the lazy
// "requires a selection set" error when there is none.
func (c *compiler) compileBody(typeName string, sels []Selection) (*selProg, *Error) {
	if sels == nil {
		return nil, &Error{Msg: fmt.Sprintf("type %s requires a selection set", typeName)}
	}
	return c.compileSelSet(typeName, sels), nil
}

func (c *compiler) compileSelSet(staticType string, sels []Selection) *selProg {
	prog := &selProg{items: make([]selItem, 0, len(sels))}
	for _, sel := range sels {
		switch x := sel.(type) {
		case *Field:
			if x.Name == "__typename" {
				prog.items = append(prog.items, selItem{kind: itTypename, key: x.Key()})
				continue
			}
			prog.items = append(prog.items, selItem{kind: itField, key: x.Key(), fld: c.compileField(staticType, x)})
		case *InlineFragment:
			it := selItem{kind: itInline, condID: -1}
			inner := staticType
			if x.TypeCondition != "" {
				it.condID = c.condSlot(x.TypeCondition)
				inner = x.TypeCondition
			}
			it.sub = c.compileSelSet(inner, x.Selections)
			prog.items = append(prog.items, it)
		case *FragmentSpread:
			frag := c.doc.Fragments[x.Name]
			if frag == nil {
				prog.items = append(prog.items, selItem{kind: itSpread, err: &Error{Pos: x.Pos, Msg: fmt.Sprintf("undefined fragment %q", x.Name)}})
				continue
			}
			prog.items = append(prog.items, selItem{
				kind:     itSpread,
				fragIdx:  c.compileFragment(x.Name, frag),
				cycleErr: &Error{Pos: x.Pos, Msg: fmt.Sprintf("fragment cycle through %q", x.Name)},
			})
		}
	}
	return prog
}

// compileFragment compiles a named fragment once, registering its index
// before compiling the body so spreads inside the body (cycles) resolve
// to the same entry instead of recursing forever.
func (c *compiler) compileFragment(name string, frag *Fragment) int32 {
	if idx, ok := c.fragIdx[name]; ok {
		return idx
	}
	idx := int32(len(c.p.frags))
	pf := &planFrag{name: name, condID: c.condSlot(frag.TypeCondition)}
	c.p.frags = append(c.p.frags, pf)
	c.fragIdx[name] = idx
	pf.sub = c.compileSelSet(frag.TypeCondition, frag.Selections)
	return idx
}

func (c *compiler) compileField(staticType string, f *Field) *fieldStep {
	fs := &fieldStep{}
	if defs := c.invByName[f.Name]; defs != nil {
		fs.inv = c.compileInverse(defs, f)
	}
	s := c.p.s
	td := s.Type(staticType)
	switch {
	case td == nil:
		fs.kind, fs.err = stErr, &Error{Pos: f.Pos, Msg: fmt.Sprintf("unknown type %s", staticType)}
		return fs
	case td.Kind == schema.Union:
		fs.kind, fs.err = stErr, &Error{Pos: f.Pos, Msg: fmt.Sprintf("fields of union %s require an inline fragment", staticType)}
		return fs
	}
	fd := td.Field(f.Name)
	switch {
	case fd == nil:
		fs.kind, fs.err = stErr, &Error{Pos: f.Pos, Msg: fmt.Sprintf("type %s has no field %q", staticType, f.Name)}
	case s.IsAttribute(fd):
		switch {
		case len(f.Arguments) > 0:
			fs.kind, fs.err = stErr, &Error{Pos: f.Pos, Msg: "attribute fields take no arguments"}
		case f.Selections != nil:
			fs.kind, fs.err = stErr, &Error{Pos: f.Pos, Msg: fmt.Sprintf("scalar field %q has no sub-selections", f.Name)}
		default:
			fs.kind, fs.slot = stAttr, c.symSlot(f.Name)
		}
	default:
		fs.kind = stRel
		for _, a := range f.Arguments {
			if fd.Arg(a.Name) == nil {
				fs.kind, fs.err = stErr, &Error{Pos: a.Pos, Msg: fmt.Sprintf("field %s.%s has no argument %q", staticType, f.Name, a.Name)}
				fs.filters = nil
				return fs
			}
			w := toValue(a.Value)
			slot := c.symSlot(a.Name)
			replaced := false
			for i := range fs.filters {
				if fs.filters[i].slot == slot { // duplicate argument: last wins
					fs.filters[i] = edgeFilter{slot: slot, want: w, isNull: w.IsNull()}
					replaced = true
					break
				}
			}
			if !replaced {
				fs.filters = append(fs.filters, edgeFilter{slot: slot, want: w, isNull: w.IsNull()})
			}
		}
		fs.edgeSlot = c.symSlot(f.Name)
		fs.isList = fd.Type.IsList()
		fs.sub, fs.subErr = c.compileBody(fd.Type.Base(), f.Selections)
	}
	return fs
}

func (c *compiler) compileInverse(defs map[string]inverseDef, f *Field) *invStep {
	// Reserve the slot before compiling the target bodies: an inverse
	// field nested in this one's selection takes the next slot, not
	// this one's.
	inv := &invStep{idx: len(c.p.invs), byLabel: make(map[string]int32, len(defs))}
	c.p.invs = append(c.p.invs, inv)
	if len(f.Arguments) > 0 {
		inv.argsErr = &Error{Pos: f.Pos, Msg: "inverse fields take no arguments"}
	}
	labels := make([]string, 0, len(defs))
	for l := range defs {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	type defKey struct{ edge, src string }
	seen := make(map[defKey]int32, len(defs))
	for _, l := range labels {
		d := defs[l]
		k := defKey{d.edgeLabel, d.sourceType}
		idx, ok := seen[k]
		if !ok {
			t := invTarget{edgeSlot: c.symSlot(d.edgeLabel), srcSlot: c.symSlot(d.sourceType)}
			t.sub, t.subErr = c.compileBody(d.sourceType, f.Selections)
			idx = int32(len(inv.targets))
			inv.targets = append(inv.targets, t)
			seen[k] = idx
		}
		inv.byLabel[l] = idx
	}
	return inv
}

func (c *compiler) condSlot(name string) int32 {
	if id, ok := c.condID[name]; ok {
		return id
	}
	id := int32(len(c.p.conds))
	c.condID[name] = id
	c.p.conds = append(c.p.conds, name)
	return id
}

func (c *compiler) symSlot(name string) int32 {
	if id, ok := c.symID[name]; ok {
		return id
	}
	id := int32(len(c.p.symNames))
	c.symID[name] = id
	c.p.symNames = append(c.p.symNames, name)
	return id
}

// inverseDef resolves one apigen inverse field: the edge label it
// traverses backwards and the type owning that relationship.
type inverseDef struct {
	edgeLabel  string
	sourceType string
}

// keyFieldsOf returns the first @key field list, or nil.
func keyFieldsOf(td *schema.TypeDef) []string {
	sets := td.KeyFieldSets()
	if len(sets) == 0 {
		return nil
	}
	return sets[0]
}

// toValue converts a query literal to a runtime value.
func toValue(v Value) values.Value {
	switch v.Kind {
	case ValInt:
		return values.Int(v.Int)
	case ValFloat:
		return values.Float(v.Float)
	case ValString:
		return values.String(v.Text)
	case ValBool:
		return values.Boolean(v.Bool)
	case ValEnum:
		return values.Enum(v.Text)
	case ValList:
		elems := make([]values.Value, len(v.List))
		for i, e := range v.List {
			elems[i] = toValue(e)
		}
		return values.List(elems...)
	}
	return values.Null
}
