package query

// The interpretive executor: a tree walk over the query document that
// resolves every field against the schema and graph as it goes. It is
// the oracle the compiled plans (compile.go, exec_compiled.go) are
// checked against byte for byte by the differential harness.

import (
	"context"
	"fmt"
	"sort"

	"pgschema/internal/apigen"
	"pgschema/internal/pg"
	"pgschema/internal/schema"
	"pgschema/internal/values"
)

// Execute evaluates the named operation of a parsed document against a
// Property Graph, under the API conventions of the apigen package:
//
//   - query-root fields `all<Plural>` list every node of a type, and
//     `<lowerFirst(Type)>(keyField: …)` look one up by its @key;
//   - attribute fields read node properties, relationship fields traverse
//     outgoing edges (arguments filter by edge-property equality), and
//     `_<field>Of<Type>` fields traverse edges backwards;
//   - `__typename` yields the node's label ("Query" at the root);
//   - inline fragments and named fragments dispatch on node labels via
//     the subtype relation ⊑S.
//
// An empty operationName selects the document's only operation. The
// result is a JSON-ready tree of map[string]any, []any, and scalars.
func Execute(s *schema.Schema, g *pg.Graph, doc *Document, operationName string) (map[string]any, error) {
	return ExecuteContext(context.Background(), s, g, doc, operationName)
}

// ExecuteContext is Execute under a context: execution polls for
// cancellation every cancelStride node visits (the same stride the
// compiled engine uses) and returns the context's error if it fires. A
// background context never errors, so Execute is exactly the historical
// behavior. A nil ctx means Background.
func ExecuteContext(ctx context.Context, s *schema.Schema, g *pg.Graph, doc *Document, operationName string) (map[string]any, error) {
	op, err := pickOperation(doc, operationName)
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	ex := newExecutor(s, g, doc)
	ex.ctx = ctx
	return ex.root(op.Selections)
}

// ExecuteQuery parses and executes src in one step.
func ExecuteQuery(s *schema.Schema, g *pg.Graph, src string) (map[string]any, error) {
	doc, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Execute(s, g, doc, "")
}

func pickOperation(doc *Document, name string) (*Operation, error) {
	if name == "" {
		if len(doc.Operations) != 1 {
			return nil, &Error{Msg: fmt.Sprintf("document has %d operations; an operation name is required", len(doc.Operations))}
		}
		return doc.Operations[0], nil
	}
	for _, op := range doc.Operations {
		if op.Name == name {
			return op, nil
		}
	}
	return nil, &Error{Msg: fmt.Sprintf("no operation named %q", name)}
}

type executor struct {
	s   *schema.Schema
	g   *pg.Graph
	doc *Document

	ctx   context.Context
	steps int

	// Root conventions, precomputed.
	listField   map[string]string // "allAuthors" -> "Author"
	lookupField map[string]string // "author" -> "Author"

	// inverse[label][fieldName] resolves apigen inverse fields.
	inverse map[string]map[string]inverseDef
}

func newExecutor(s *schema.Schema, g *pg.Graph, doc *Document) *executor {
	ex := &executor{
		s: s, g: g, doc: doc,
		listField:   make(map[string]string),
		lookupField: make(map[string]string),
		inverse:     make(map[string]map[string]inverseDef),
	}
	for _, td := range s.ObjectTypes() {
		ex.listField[apigen.ListFieldName(td.Name)] = td.Name
		if keyFieldsOf(td) != nil {
			ex.lookupField[apigen.LookupFieldName(td.Name)] = td.Name
		}
		for _, f := range td.Fields {
			if !s.IsRelationship(f) {
				continue
			}
			name := apigen.InverseFieldName(f.Name, td.Name)
			for _, target := range s.ConcreteTargets(f.Type.Base()) {
				if ex.inverse[target] == nil {
					ex.inverse[target] = make(map[string]inverseDef)
				}
				ex.inverse[target][name] = inverseDef{edgeLabel: f.Name, sourceType: td.Name}
			}
		}
	}
	return ex
}

// root evaluates a selection set against the synthesized Query type.
func (ex *executor) root(sels []Selection) (map[string]any, error) {
	out := make(map[string]any)
	for _, sel := range sels {
		f, ok := sel.(*Field)
		if !ok {
			return nil, &Error{Msg: "fragments on the query root are not supported"}
		}
		switch {
		case f.Name == "__typename":
			out[f.Key()] = "Query"
		case ex.listField[f.Name] != "":
			typeName := ex.listField[f.Name]
			if len(f.Arguments) > 0 {
				return nil, &Error{Pos: f.Pos, Msg: f.Name + " takes no arguments"}
			}
			nodes := ex.g.NodesLabeled(typeName)
			sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
			list := make([]any, 0, len(nodes))
			for _, n := range nodes {
				v, err := ex.node(n, typeName, f.Selections)
				if err != nil {
					return nil, err
				}
				list = append(list, v)
			}
			out[f.Key()] = list
		case ex.lookupField[f.Name] != "":
			typeName := ex.lookupField[f.Name]
			n, found, err := ex.lookup(typeName, f)
			if err != nil {
				return nil, err
			}
			if !found {
				out[f.Key()] = nil
				continue
			}
			v, err := ex.node(n, typeName, f.Selections)
			if err != nil {
				return nil, err
			}
			out[f.Key()] = v
		default:
			return nil, &Error{Pos: f.Pos, Msg: fmt.Sprintf("unknown query field %q", f.Name)}
		}
	}
	return out, nil
}

// lookup finds the node of typeName matching the key arguments.
func (ex *executor) lookup(typeName string, f *Field) (pg.NodeID, bool, error) {
	td := ex.s.Type(typeName)
	keys := keyFieldsOf(td)
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
			return 0, false, &Error{Pos: a.Pos, Msg: fmt.Sprintf("%q is not a key field of %s", a.Name, typeName)}
		}
		want[a.Name] = toValue(a.Value)
	}
	if len(want) != len(keys) {
		return 0, false, &Error{Pos: f.Pos, Msg: fmt.Sprintf("lookup %q requires the full key (%d of %d fields given)", f.Name, len(want), len(keys))}
	}
	// Ascending id order makes the winner deterministic (the lowest
	// matching node) and agreed with the compiled engine's key index;
	// NodesLabeled bucket order is perturbed by relabels.
	nodes := ex.g.NodesLabeled(typeName)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	for _, n := range nodes {
		match := true
		for name, w := range want {
			v, ok := ex.g.NodeProp(n, name)
			if !ok || !v.Equal(w) {
				match = false
				break
			}
		}
		if match {
			return n, true, nil
		}
	}
	return 0, false, nil
}

// node evaluates a selection set against one graph node. staticType is
// the declared type of the position (object, interface, or union name);
// concrete fields outside it require fragments, as in GraphQL proper.
func (ex *executor) node(n pg.NodeID, staticType string, sels []Selection) (map[string]any, error) {
	if sels == nil {
		return nil, &Error{Msg: fmt.Sprintf("type %s requires a selection set", staticType)}
	}
	ex.steps++
	if ex.steps%cancelStride == 0 && ex.ctx != nil {
		if err := ex.ctx.Err(); err != nil {
			return nil, err
		}
	}
	out := make(map[string]any)
	if err := ex.collect(n, staticType, sels, out, make(map[string]bool)); err != nil {
		return nil, err
	}
	return out, nil
}

// collect walks selections, flattening fragments, into out.
func (ex *executor) collect(n pg.NodeID, staticType string, sels []Selection, out map[string]any, activeFrags map[string]bool) error {
	label := ex.g.NodeLabel(n)
	for _, sel := range sels {
		switch x := sel.(type) {
		case *Field:
			if x.Name == "__typename" {
				out[x.Key()] = label
				continue
			}
			v, err := ex.field(n, staticType, x)
			if err != nil {
				return err
			}
			out[x.Key()] = v
		case *InlineFragment:
			if x.TypeCondition == "" || ex.s.SubtypeNamed(label, x.TypeCondition) {
				inner := staticType
				if x.TypeCondition != "" {
					inner = x.TypeCondition
				}
				if err := ex.collect(n, inner, x.Selections, out, activeFrags); err != nil {
					return err
				}
			}
		case *FragmentSpread:
			frag := ex.doc.Fragments[x.Name]
			if frag == nil {
				return &Error{Pos: x.Pos, Msg: fmt.Sprintf("undefined fragment %q", x.Name)}
			}
			if activeFrags[x.Name] {
				return &Error{Pos: x.Pos, Msg: fmt.Sprintf("fragment cycle through %q", x.Name)}
			}
			if ex.s.SubtypeNamed(label, frag.TypeCondition) {
				activeFrags[x.Name] = true
				err := ex.collect(n, frag.TypeCondition, frag.Selections, out, activeFrags)
				delete(activeFrags, x.Name)
				if err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// field resolves one field on a node.
func (ex *executor) field(n pg.NodeID, staticType string, f *Field) (any, error) {
	label := ex.g.NodeLabel(n)

	// Inverse traversal fields, resolved by the node's concrete label.
	if inv, ok := ex.inverse[label][f.Name]; ok {
		if len(f.Arguments) > 0 {
			return nil, &Error{Pos: f.Pos, Msg: "inverse fields take no arguments"}
		}
		var list []any
		for _, e := range ex.g.InEdgesLabeled(n, inv.edgeLabel) {
			src, _ := ex.g.Endpoints(e)
			if ex.g.NodeLabel(src) != inv.sourceType {
				continue
			}
			v, err := ex.node(src, inv.sourceType, f.Selections)
			if err != nil {
				return nil, err
			}
			list = append(list, v)
		}
		if list == nil {
			list = []any{}
		}
		return list, nil
	}

	td := ex.s.Type(staticType)
	if td == nil {
		return nil, &Error{Pos: f.Pos, Msg: fmt.Sprintf("unknown type %s", staticType)}
	}
	if td.Kind == schema.Union {
		return nil, &Error{Pos: f.Pos, Msg: fmt.Sprintf("fields of union %s require an inline fragment", staticType)}
	}
	fd := td.Field(f.Name)
	if fd == nil {
		return nil, &Error{Pos: f.Pos, Msg: fmt.Sprintf("type %s has no field %q", staticType, f.Name)}
	}

	if ex.s.IsAttribute(fd) {
		if len(f.Arguments) > 0 {
			return nil, &Error{Pos: f.Pos, Msg: "attribute fields take no arguments"}
		}
		if f.Selections != nil {
			return nil, &Error{Pos: f.Pos, Msg: fmt.Sprintf("scalar field %q has no sub-selections", f.Name)}
		}
		v, ok := ex.g.NodeProp(n, f.Name)
		if !ok {
			return nil, nil
		}
		return toNative(v), nil
	}

	// Relationship traversal.
	filter := make(map[string]values.Value, len(f.Arguments))
	for _, a := range f.Arguments {
		if fd.Arg(a.Name) == nil {
			return nil, &Error{Pos: a.Pos, Msg: fmt.Sprintf("field %s.%s has no argument %q", staticType, f.Name, a.Name)}
		}
		filter[a.Name] = toValue(a.Value)
	}
	targetType := fd.Type.Base()
	var list []any
	for _, e := range ex.g.OutEdgesLabeled(n, f.Name) {
		if !ex.edgeMatches(e, filter) {
			continue
		}
		_, dst := ex.g.Endpoints(e)
		v, err := ex.node(dst, targetType, f.Selections)
		if err != nil {
			return nil, err
		}
		list = append(list, v)
	}
	if fd.Type.IsList() {
		if list == nil {
			list = []any{}
		}
		return list, nil
	}
	if len(list) == 0 {
		return nil, nil
	}
	return list[0], nil
}

// edgeMatches checks the edge-property equality filter; a null argument
// matches edges lacking the property (or carrying null).
func (ex *executor) edgeMatches(e pg.EdgeID, filter map[string]values.Value) bool {
	for name, want := range filter {
		got, ok := ex.g.EdgeProp(e, name)
		if want.IsNull() {
			if ok && !got.IsNull() {
				return false
			}
			continue
		}
		if !ok || !got.Equal(want) {
			return false
		}
	}
	return true
}
