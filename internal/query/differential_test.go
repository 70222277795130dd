package query

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"pgschema/internal/apigen"
	"pgschema/internal/gen"
	"pgschema/internal/pg"
	"pgschema/internal/schema"
	"pgschema/internal/values"
)

// The query differential harness: the compiled engine must be
// observably indistinguishable from the interpretive one — identical
// JSON bytes on success, identical error strings on failure — across
// randomized schemas × conformant graphs × generated queries, and
// across graph mutations (which force epoch rebinds, snapshot
// tombstones, and relabel-perturbed orders).

// assertEngineAgreement executes src through both engines and fails on
// any observable difference. The compiled plan is executed twice so the
// second run exercises the cached epoch binding.
func assertEngineAgreement(t *testing.T, s *schema.Schema, g *pg.Graph, src string) {
	t.Helper()
	doc, err := Parse(src)
	if err != nil {
		t.Fatalf("generator produced unparsable query: %v\n%s", err, src)
	}
	assertPlanAgreement(t, s, g, Compile(s, doc), src, 2)
}

// assertPlanAgreement executes an already compiled plan for src `runs`
// times and compares every result with the interpretive engine's.
func assertPlanAgreement(t *testing.T, s *schema.Schema, g *pg.Graph, plan *Plan, src string, runs int) {
	t.Helper()
	doc, err := Parse(src)
	if err != nil {
		t.Fatalf("unparsable query: %v\n%s", err, src)
	}
	wantData, wantErr := Execute(s, g, doc, "")
	for run := 0; run < runs; run++ {
		gotData, gotErr := plan.Execute(context.Background(), g, "")
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("run %d: interpretive err=%v, compiled err=%v\nquery:\n%s", run, wantErr, gotErr, src)
		}
		if wantErr != nil {
			if wantErr.Error() != gotErr.Error() {
				t.Fatalf("run %d: error mismatch\ninterpretive: %s\ncompiled:     %s\nquery:\n%s", run, wantErr, gotErr, src)
			}
			continue
		}
		wantJSON, err := json.Marshal(wantData)
		if err != nil {
			t.Fatalf("marshal interpretive result: %v", err)
		}
		gotJSON, err := json.Marshal(gotData)
		if err != nil {
			t.Fatalf("marshal compiled result: %v", err)
		}
		if !bytes.Equal(wantJSON, gotJSON) {
			t.Fatalf("run %d: engines disagree\nquery:\n%s\ninterpretive: %s\ncompiled:     %s", run, src, wantJSON, gotJSON)
		}
	}
}

// qgen generates random executable queries whose shape is drawn from
// the schema and whose literals are (mostly) drawn from the live graph,
// so lookups hit, filters match, and fragments dispatch — alongside
// deliberate misses, bogus type conditions, and malformed selections
// that must raise identical lazy errors from both engines.
type qgen struct {
	rnd *rand.Rand
	s   *schema.Schema
	g   *pg.Graph

	objTypes  []*schema.TypeDef
	condNames []string              // candidate fragment conditions
	inverses  map[string][]invField // typeName -> applicable inverse fields
	keyed     []*schema.TypeDef     // object types with @key

	frags []fragDef
}

// invField is an inverse traversal field and the type that declares
// the relationship it inverts — the type the field's nodes have.
type invField struct {
	name, source string
}

type fragDef struct {
	name, cond, body string
}

func newQgen(rnd *rand.Rand, s *schema.Schema, g *pg.Graph) *qgen {
	q := &qgen{rnd: rnd, s: s, g: g, inverses: make(map[string][]invField)}
	q.objTypes = s.ObjectTypes()
	for _, td := range s.Types() {
		switch td.Kind {
		case schema.Object, schema.Interface, schema.Union:
			q.condNames = append(q.condNames, td.Name)
		}
	}
	for _, td := range q.objTypes {
		if keyFieldsOf(td) != nil {
			q.keyed = append(q.keyed, td)
		}
		for _, f := range td.Fields {
			if !q.s.IsRelationship(f) {
				continue
			}
			name := apigen.InverseFieldName(f.Name, td.Name)
			for _, target := range q.s.ConcreteTargets(f.Type.Base()) {
				q.inverses[target] = append(q.inverses[target], invField{name, td.Name})
			}
		}
	}
	// A few fragments on random conditions, shallow bodies.
	for i := 0; i < 3 && len(q.condNames) > 0; i++ {
		cond := q.condNames[rnd.Intn(len(q.condNames))]
		q.frags = append(q.frags, fragDef{
			name: fmt.Sprintf("F%d", i),
			cond: cond,
			body: q.genSelSet(cond, 1),
		})
	}
	return q
}

func renderValue(v values.Value) string {
	switch v.Kind() {
	case values.KindNull:
		return "null"
	case values.KindInt:
		return strconv.FormatInt(v.AsInt(), 10)
	case values.KindFloat:
		return strconv.FormatFloat(v.AsFloat(), 'f', -1, 64)
	case values.KindBoolean:
		return strconv.FormatBool(v.AsBool())
	case values.KindEnum:
		return v.AsString()
	case values.KindList:
		parts := make([]string, v.Len())
		for i := range parts {
			parts[i] = renderValue(v.Elem(i))
		}
		return "[" + strings.Join(parts, " ") + "]"
	default: // String, ID
		return strconv.Quote(v.AsString())
	}
}

// genQuery renders one anonymous operation with 1–3 root fields plus
// any fragment definitions.
func (q *qgen) genQuery() string {
	var sb strings.Builder
	sb.WriteString("{ ")
	n := 1 + q.rnd.Intn(3)
	for i := 0; i < n; i++ {
		sb.WriteString(q.genRoot(i))
		sb.WriteString(" ")
	}
	sb.WriteString("}")
	return q.withFragments(sb.String())
}

// withFragments appends every fragment definition a generated selection
// may spread to the operation text op.
func (q *qgen) withFragments(op string) string {
	var sb strings.Builder
	sb.WriteString(op)
	for _, f := range q.frags {
		fmt.Fprintf(&sb, "\nfragment %s on %s %s", f.name, f.cond, f.body)
	}
	return sb.String()
}

func (q *qgen) genRoot(i int) string {
	if len(q.keyed) > 0 && q.rnd.Float64() < 0.4 {
		return q.genLookup(i)
	}
	if q.rnd.Float64() < 0.1 {
		return "__typename"
	}
	td := q.objTypes[q.rnd.Intn(len(q.objTypes))]
	field := apigen.ListFieldName(td.Name)
	if q.rnd.Float64() < 0.2 {
		return fmt.Sprintf("r%d: %s %s", i, field, q.genSelSet(td.Name, 2))
	}
	return field + " " + q.genSelSet(td.Name, 2)
}

func (q *qgen) genLookup(i int) string {
	return q.genLookupOf(q.keyed[q.rnd.Intn(len(q.keyed))], i)
}

// genLookupOf renders one lookup root field on the keyed type td.
func (q *qgen) genLookupOf(td *schema.TypeDef, i int) string {
	keys := keyFieldsOf(td)
	nodes := q.g.NodesLabeled(td.Name)
	var sb strings.Builder
	fmt.Fprintf(&sb, "l%d: %s(", i, apigen.LookupFieldName(td.Name))
	perturb := q.rnd.Float64() < 0.3 // miss (or accidental other hit)
	for j, k := range keys {
		if j > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(k)
		sb.WriteString(": ")
		var val values.Value
		ok := false
		if len(nodes) > 0 {
			val, ok = q.g.NodeProp(nodes[q.rnd.Intn(len(nodes))], k)
		}
		if !ok {
			val = values.Null
		}
		if perturb && j == 0 {
			val = values.String("no-such-" + strconv.Itoa(q.rnd.Intn(1000)))
		}
		sb.WriteString(renderValue(val))
	}
	sb.WriteString(") ")
	sb.WriteString(q.genSelSet(td.Name, 2))
	return sb.String()
}

func (q *qgen) genSelSet(typeName string, depth int) string {
	var items []string
	td := q.s.Type(typeName)
	if td != nil && td.Kind == schema.Union {
		items = append(items, "__typename")
		for _, m := range td.Members {
			if q.rnd.Float64() < 0.6 {
				items = append(items, fmt.Sprintf("... on %s %s", m, q.genSelSet(m, maxInt(depth-1, 0))))
			}
		}
	} else if td != nil {
		for _, fd := range td.Fields {
			if q.rnd.Float64() < 0.45 {
				continue
			}
			if q.s.IsAttribute(fd) {
				if q.rnd.Float64() < 0.15 {
					items = append(items, fmt.Sprintf("a%d: %s", len(items), fd.Name))
				} else {
					items = append(items, fd.Name)
				}
				continue
			}
			// Relationship field.
			if depth <= 0 {
				if q.rnd.Float64() < 0.05 {
					// Missing selection set: both engines must raise
					// "type X requires a selection set" on the first node
					// that reaches it.
					items = append(items, fd.Name)
				}
				continue
			}
			items = append(items, fd.Name+q.genArgs(fd)+" "+q.genSelSet(fd.Type.Base(), depth-1))
		}
		// Inverse traversal fields.
		if invs := q.inverses[typeName]; len(invs) > 0 && depth > 0 && q.rnd.Float64() < 0.4 {
			items = append(items, q.genInverse(invs, depth))
		}
		// Inline fragments, sometimes on bogus conditions.
		if depth > 0 && q.rnd.Float64() < 0.35 && len(q.condNames) > 0 {
			cond := q.condNames[q.rnd.Intn(len(q.condNames))]
			if q.rnd.Float64() < 0.1 {
				cond = "NoSuchType"
			}
			items = append(items, fmt.Sprintf("... on %s %s", cond, q.genSelSet(cond, depth-1)))
		}
		// Condition-less inline fragment.
		if depth > 0 && q.rnd.Float64() < 0.15 {
			items = append(items, "... "+q.genSelSet(typeName, depth-1))
		}
		// Fragment spreads.
		if len(q.frags) > 0 && q.rnd.Float64() < 0.3 {
			items = append(items, "..."+q.frags[q.rnd.Intn(len(q.frags))].name)
		}
	}
	if len(items) == 0 {
		items = append(items, "__typename")
	}
	return "{ " + strings.Join(items, " ") + " }"
}

// genInverse renders one inverse traversal field picked from invs. The
// inverse's source type varies per runtime label, so the body stays
// label-free apart from, sometimes, a further inverse field of the
// source type: nested inverse fields must each dispatch on their own
// per-label row.
func (q *qgen) genInverse(invs []invField, depth int) string {
	inv := invs[q.rnd.Intn(len(invs))]
	body := "__typename"
	if next := q.inverses[inv.source]; len(next) > 0 && depth > 1 && q.rnd.Float64() < 0.5 {
		body += " " + q.genInverse(next, depth-1)
	}
	return inv.name + " { " + body + " }"
}

// genArgs renders an edge-property filter for a relationship field:
// usually a value sampled from a live edge (so the filter selects), a
// null sometimes, and occasionally a fresh literal (miss).
func (q *qgen) genArgs(fd *schema.FieldDef) string {
	if len(fd.Args) == 0 || q.rnd.Float64() < 0.7 {
		return ""
	}
	a := fd.Args[q.rnd.Intn(len(fd.Args))]
	r := q.rnd.Float64()
	var val values.Value
	switch {
	case r < 0.15:
		val = values.Null
	case r < 0.3:
		val = values.Int(int64(q.rnd.Intn(50)))
	default:
		v, ok := q.sampleEdgeProp(fd.Name, a.Name)
		if !ok {
			val = values.Null
		} else {
			val = v
		}
	}
	return fmt.Sprintf("(%s: %s)", a.Name, renderValue(val))
}

func (q *qgen) sampleEdgeProp(edgeLabel, prop string) (values.Value, bool) {
	esym, ok := q.g.Sym(edgeLabel)
	if !ok {
		return values.Value{}, false
	}
	psym, ok := q.g.Sym(prop)
	if !ok {
		return values.Value{}, false
	}
	snap := q.g.Snapshot()
	bound := snap.EdgeBound()
	if bound == 0 {
		return values.Value{}, false
	}
	start := q.rnd.Intn(bound)
	for i := 0; i < bound; i++ {
		e := pg.EdgeID((start + i) % bound)
		if snap.EdgeLabelSym(e) != esym {
			continue
		}
		if v, ok := snap.EdgePropBySym(e, psym); ok {
			return v, true
		}
	}
	return values.Value{}, false
}

// mutate applies a small random batch of direct mutations — removals,
// property churn, relabels, duplicated keys — bumping the epoch so the
// next execution rebinds against a snapshot with tombstones.
func (q *qgen) mutate() {
	g, rnd := q.g, q.rnd
	for i := 0; i < 6; i++ {
		switch rnd.Intn(6) {
		case 0:
			if nodes := g.Nodes(); len(nodes) > 0 {
				g.RemoveNode(nodes[rnd.Intn(len(nodes))])
			}
		case 1:
			if edges := g.Edges(); len(edges) > 0 {
				g.RemoveEdge(edges[rnd.Intn(len(edges))])
			}
		case 2:
			if nodes := g.Nodes(); len(nodes) > 0 {
				n := nodes[rnd.Intn(len(nodes))]
				props := g.NodePropNames(n)
				if len(props) > 0 && rnd.Intn(2) == 0 {
					g.DeleteNodeProp(n, props[rnd.Intn(len(props))])
				} else {
					g.SetNodeProp(n, "churn", values.Int(int64(rnd.Intn(100))))
				}
			}
		case 3:
			if edges := g.Edges(); len(edges) > 0 {
				e := edges[rnd.Intn(len(edges))]
				g.SetEdgeProp(e, "weight", values.Float(rnd.Float64()*10))
			}
		case 4:
			// Relabel into another declared type: perturbs NodesLabeled
			// bucket order and exercises per-label dispatch rows.
			if nodes := g.Nodes(); len(nodes) > 0 && len(q.objTypes) > 0 {
				n := nodes[rnd.Intn(len(nodes))]
				g.SetNodeLabel(n, q.objTypes[rnd.Intn(len(q.objTypes))].Name)
			}
		case 5:
			// Copy one node's key onto another of its type: a lookup
			// then has several candidates and must answer the lowest id.
			if len(q.keyed) > 0 {
				td := q.keyed[rnd.Intn(len(q.keyed))]
				if nodes := g.NodesLabeled(td.Name); len(nodes) > 1 {
					from, to := nodes[rnd.Intn(len(nodes))], nodes[rnd.Intn(len(nodes))]
					for _, k := range keyFieldsOf(td) {
						if v, ok := g.NodeProp(from, k); ok {
							g.SetNodeProp(to, k, v)
						}
					}
				}
			}
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TestDifferentialCompiledQueries is the headline proof: ≥20 randomized
// schema seeds × conformant graphs × generated queries, re-run across
// mutation rounds, all byte-identical between engines. Each round also
// runs several distinct lookup texts per keyed type through one shared
// PlanCache — every plan cached so far included, so earlier plans
// rebind — and those plans all read the one key index their snapshot
// builds for the type.
func TestDifferentialCompiledQueries(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			s, _, err := gen.RandomSchema(gen.SchemaConfig{Seed: seed, Unions: seed%3 == 0})
			if err != nil {
				t.Fatalf("seed %d: random schema: %v", seed, err)
			}
			g, err := gen.Conformant(s, gen.Config{Seed: seed, NodesPerType: 8})
			if err != nil {
				t.Fatalf("seed %d: conformant graph: %v", seed, err)
			}
			rnd := rand.New(rand.NewSource(seed*7919 + 13))
			q := newQgen(rnd, s, g)
			cache := NewPlanCache(s, 0)
			var lookups []string
			for round := 0; round < 3; round++ {
				if round > 0 {
					q.mutate()
				}
				for i := 0; i < 8; i++ {
					assertEngineAgreement(t, s, g, q.genQuery())
				}
				for _, td := range q.keyed {
					for i := 0; i < 4; i++ {
						lookups = append(lookups, q.withFragments("{ "+q.genLookupOf(td, i)+" }"))
					}
				}
				for _, src := range lookups {
					plan, _, err := cache.Get(src)
					if err != nil {
						t.Fatalf("seed %d: %v\n%s", seed, err, src)
					}
					assertPlanAgreement(t, s, g, plan, src, 1)
				}
			}
		})
	}
}

// TestDifferentialCompiledStarWars pins engine agreement on handcrafted
// queries over the fixed fixture — the tricky corners random generation
// rarely lands on, error cases included (both engines must raise the
// same message, or both succeed).
func TestDifferentialCompiledStarWars(t *testing.T) {
	s := build(t, starWarsSchema)
	g := starWarsGraph(t, s)
	queries := []string{
		`{ allHumans { name } }`,
		`{ allHumans { id name friends { name } } }`,
		`{ __typename allStarships { name length } }`,
		`{ human(id: "1000") { name id } }`,
		`{ human(id: "9999") { name } }`,
		`{ human(id: "1002") { friends { __typename name } starships { name length } } }`,
		`{ h: human(id: "1000") { n: name n2: name } }`,
		`{ allDroids { name _friendsOfHuman { name } _friendsOfDroid { name } } }`,
		`{ allHumans { ... on Human { starships { name } } } }`,
		`{ allHumans { ... { name } } }`,
		`{ allHumans { ...props } } fragment props on Human { name id }`,
		`{ allHumans { ...props } } fragment props on Droid { primaryFunction }`,
		`{ allHumans { ... on NoSuchType { name } } }`,
		`{ allHumans { ... on Character { name } } }`,
		`{ allHumans { friends { ... on Droid { primaryFunction } ... on Human { starships { name } } } } }`,
		`{ allDroids { friends { friends { name __typename } } } }`,
		// Error cases: both engines must produce the identical message.
		`{ allHumans { nope } }`,
		`{ allHumans { friends } }`,
		`{ allHumans { name(x: 1) } }`,
		`{ allHumans { name { sub } } }`,
		`{ allHumans { ...missing } }`,
		`{ allHumans { ...a } } fragment a on Human { ...b } fragment b on Human { ...a }`,
		`{ human(id: "1000", extra: 1) { name } }`,
		`{ human(name: "Luke") { name } }`,
		`{ human { name } }`,
		`{ allHumans(x: 1) { name } }`,
		`{ nothing { name } }`,
		`{ allHumans { friends(bogus: 1) { name } } }`,
	}
	for _, src := range queries {
		assertEngineAgreement(t, s, g, src)
	}
	// And after mutations against the same plan-compatible schema.
	nodes := g.Nodes()
	g.RemoveNode(nodes[0])
	g.SetNodeProp(nodes[len(nodes)-1], "name", values.String("Renamed"))
	for _, src := range queries {
		assertEngineAgreement(t, s, g, src)
	}
}

// TestDifferentialParallelScan forces the root allX scans onto the
// parallel chunked path (threshold 1, two-node chunks, 4 workers) and
// re-runs both differential suites: randomized schemas × graphs ×
// queries and the handcrafted StarWars corpus, error cases included.
// The parallel scan must be observably indistinguishable from the
// sequential one — byte-identical JSON, identical first-error strings —
// which pins both the order-preserving merge and the lowest-chunk
// error selection.
func TestDifferentialParallelScan(t *testing.T) {
	oldMin, oldSpan, oldWorkers := scanParallelMin, scanSpan, scanMaxWorkers
	scanParallelMin, scanSpan, scanMaxWorkers = 1, 2, 4
	defer func() {
		scanParallelMin, scanSpan, scanMaxWorkers = oldMin, oldSpan, oldWorkers
	}()

	s := build(t, starWarsSchema)
	g := starWarsGraph(t, s)
	for _, src := range []string{
		`{ allHumans { name } }`,
		`{ allHumans { id name friends { name } } }`,
		`{ allDroids { name _friendsOfHuman { name } _friendsOfDroid { name } } }`,
		`{ allHumans { friends { ... on Droid { primaryFunction } ... on Human { starships { name } } } } }`,
		`{ allHumans { ...a } } fragment a on Human { ...b } fragment b on Human { ...a }`,
		`{ allHumans { nope } }`,
		`{ allHumans { name(x: 1) } }`,
	} {
		assertEngineAgreement(t, s, g, src)
	}

	for seed := int64(0); seed < 6; seed++ {
		s, _, err := gen.RandomSchema(gen.SchemaConfig{Seed: seed, Unions: seed%3 == 0})
		if err != nil {
			t.Fatalf("seed %d: random schema: %v", seed, err)
		}
		g, err := gen.Conformant(s, gen.Config{Seed: seed, NodesPerType: 8})
		if err != nil {
			t.Fatalf("seed %d: conformant graph: %v", seed, err)
		}
		rnd := rand.New(rand.NewSource(seed*104729 + 7))
		q := newQgen(rnd, s, g)
		for round := 0; round < 2; round++ {
			if round > 0 {
				q.mutate()
			}
			for i := 0; i < 6; i++ {
				assertEngineAgreement(t, s, g, q.genQuery())
			}
		}
	}
}
