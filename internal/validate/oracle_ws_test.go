package validate

import (
	"fmt"

	"pgschema/internal/pg"
	"pgschema/internal/schema"
)

// ws1 — WS1 (node properties must be of the required type): for all
// (v, f) ∈ dom(σ) with v ∈ V, f ∈ fieldsS(λ(v)), and
// t = typeF(λ(v), f) ∈ S ∪ WS, it must hold that σ(v, f) ∈ valuesW(t).
func (r *oracle) ws1(emit emitFunc) {
	for _, v := range r.g.Nodes() {
		label := r.g.NodeLabel(v)
		td := r.s.Type(label)
		if td == nil {
			continue // SS1's concern
		}
		for _, name := range r.g.NodePropNames(v) {
			f := td.Field(name)
			if f == nil || !r.s.IsAttribute(f) {
				continue // SS2's concern
			}
			val, _ := r.g.NodeProp(v, name)
			if !r.s.MemberOfW(val, f.Type) && !r.drop() {
				emit(Violation{
					Rule: WS1, Node: v, Edge: -1,
					TypeName: label, Field: name, Property: name,
					Message: fmt.Sprintf("%s (%s): property %q = %s is not in valuesW(%s)",
						nodeRef(v), label, name, val, f.Type),
				})
			}
		}
	}
}

// ws2 — WS2 (edge properties must be of the required type): for all
// (e, a) ∈ dom(σ) with e ∈ E, ρ(e) = (v1, v2), f = (λ(v1), λ(e)), and
// a ∈ argsS(f), it must hold that σ(e, a) ∈ valuesW(typeAF(f, a)).
func (r *oracle) ws2(emit emitFunc) {
	for _, e := range r.g.Edges() {
		src, _ := r.g.Endpoints(e)
		fd := r.s.Field(r.g.NodeLabel(src), r.g.EdgeLabel(e))
		if fd == nil {
			continue // SS4's concern
		}
		for _, name := range r.g.EdgePropNames(e) {
			arg := fd.Arg(name)
			if arg == nil {
				continue // SS3's concern
			}
			val, _ := r.g.EdgeProp(e, name)
			if !r.s.MemberOfW(val, arg.Type) && !r.drop() {
				emit(Violation{
					Rule: WS2, Node: src, Edge: e,
					TypeName: fd.Owner, Field: fd.Name, Property: name,
					Message: fmt.Sprintf("%s (%s): property %q = %s is not in valuesW(%s)",
						edgeRef(e), fd.Name, name, val, arg.Type),
				})
			}
		}
	}
}

// ws3 — WS3 (target nodes must be of the required type): for every e ∈ E
// with ρ(e) = (v1, v2) and f = (λ(v1), λ(e)) ∈ dom(typeF), it must hold
// that λ(v2) ⊑S basetype(typeF(f)).
func (r *oracle) ws3(emit emitFunc) {
	for _, e := range r.g.Edges() {
		src, dst := r.g.Endpoints(e)
		srcLabel := r.g.NodeLabel(src)
		fd := r.s.Field(srcLabel, r.g.EdgeLabel(e))
		if fd == nil {
			continue
		}
		base := fd.Type.Base()
		if !r.s.SubtypeNamed(r.g.NodeLabel(dst), base) && !r.drop() {
			emit(Violation{
				Rule: WS3, Node: dst, Edge: e,
				TypeName: srcLabel, Field: fd.Name,
				Message: fmt.Sprintf("%s (%s): target %s has label %q, which is not a subtype of basetype(%s) = %s",
					edgeRef(e), fd.Name, nodeRef(dst), r.g.NodeLabel(dst), fd.Type, base),
			})
		}
	}
}

// ws4 — WS4 (non-list fields contain at most one edge): for all edges
// e1 ≠ e2 with the same source and label f where typeF(λ(v1), f) is not a
// list type (nor a non-null-wrapped list type), the graph is invalid.
func (r *oracle) ws4(emit emitFunc) {
	if r.naive {
		r.ws4Naive(emit)
		return
	}
	for _, v := range r.g.Nodes() {
		label := r.g.NodeLabel(v)
		td := r.s.Type(label)
		if td == nil {
			continue
		}
		counts := make(map[string]int)
		for _, e := range r.g.OutEdges(v) {
			counts[r.g.EdgeLabel(e)]++
		}
		for f, n := range counts {
			if n < 2 {
				continue
			}
			fd := td.Field(f)
			if fd == nil || fd.Type.IsList() || r.drop() {
				continue
			}
			emit(Violation{
				Rule: WS4, Node: v, Edge: -1,
				TypeName: label, Field: f,
				Message: fmt.Sprintf("%s (%s): %d outgoing %q edges, but %s.%s has non-list type %s (at most one edge allowed)",
					nodeRef(v), label, n, f, label, f, fd.Type),
			})
		}
	}
}

// ws4Naive is the textbook pair scan over E × E from Definition 5.1, kept
// for the index ablation benchmark. It dedups by (source, field), so
// each over-full field is reported once, as the indexed ws4 does.
func (r *oracle) ws4Naive(emit emitFunc) {
	edges := r.g.Edges()
	reported := make(map[pg.NodeID]map[string]bool)
	for i, e1 := range edges {
		s1, _ := r.g.Endpoints(e1)
		f := r.g.EdgeLabel(e1)
		if reported[s1][f] {
			continue
		}
		// e1 is the first f-labeled edge out of s1; the scan over the
		// remaining pairs yields the total count, so the emitted message
		// is byte-identical to the indexed implementation's.
		n := 1
		for _, e2 := range edges[i+1:] {
			s2, _ := r.g.Endpoints(e2)
			if s1 == s2 && f == r.g.EdgeLabel(e2) {
				n++
			}
		}
		if n < 2 {
			continue
		}
		fd := r.s.Field(r.g.NodeLabel(s1), f)
		if fd == nil || fd.Type.IsList() {
			continue
		}
		if reported[s1] == nil {
			reported[s1] = make(map[string]bool)
		}
		reported[s1][f] = true
		if r.drop() {
			continue
		}
		emit(Violation{
			Rule: WS4, Node: s1, Edge: -1,
			TypeName: r.g.NodeLabel(s1), Field: f,
			Message: fmt.Sprintf("%s (%s): %d outgoing %q edges, but %s.%s has non-list type %s (at most one edge allowed)",
				nodeRef(s1), r.g.NodeLabel(s1), n, f, r.g.NodeLabel(s1), f, fd.Type),
		})
	}
}

// relationshipDeclarations yields every (t, f) ∈ dom(typeF) whose field is
// a relationship definition, across object and interface types — the
// declarations DS1–DS4 and DS6 quantify over.
func (r *oracle) relationshipDeclarations() []*schema.FieldDef {
	var out []*schema.FieldDef
	for _, td := range r.s.Types() {
		if td.Kind != schema.Object && td.Kind != schema.Interface {
			continue
		}
		for _, f := range td.Fields {
			if r.s.IsRelationship(f) {
				out = append(out, f)
			}
		}
	}
	return out
}

// attributeDeclarations yields every (t, f) whose field is an attribute
// definition (DS5 quantifies over these).
func (r *oracle) attributeDeclarations() []*schema.FieldDef {
	var out []*schema.FieldDef
	for _, td := range r.s.Types() {
		if td.Kind != schema.Object && td.Kind != schema.Interface {
			continue
		}
		for _, f := range td.Fields {
			if r.s.IsAttribute(f) {
				out = append(out, f)
			}
		}
	}
	return out
}
