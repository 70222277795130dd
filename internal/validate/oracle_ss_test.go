package validate

import (
	"fmt"

	"pgschema/internal/schema"
)

// ss1 — SS1 (all nodes are justified): for all v ∈ V, λ(v) ∈ OT.
func (r *oracle) ss1(emit emitFunc) {
	for _, v := range r.g.Nodes() {
		label := r.g.NodeLabel(v)
		td := r.s.Type(label)
		if (td == nil || td.Kind != schema.Object) && !r.drop() {
			emit(Violation{
				Rule: SS1, Node: v, Edge: -1, TypeName: label,
				Message: fmt.Sprintf("%s: label %q is not an object type of the schema", nodeRef(v), label),
			})
		}
	}
}

// ss2 — SS2 (all node properties are justified): for all (v, f) ∈ dom(σ)
// with v ∈ V, f ∈ fieldsS(λ(v)) and typeF(λ(v), f) ∈ S ∪ WS.
func (r *oracle) ss2(emit emitFunc) {
	for _, v := range r.g.Nodes() {
		label := r.g.NodeLabel(v)
		td := r.s.Type(label)
		for _, name := range r.g.NodePropNames(v) {
			var fd *schema.FieldDef
			if td != nil {
				fd = td.Field(name)
			}
			if fd == nil {
				if !r.drop() {
					emit(Violation{
						Rule: SS2, Node: v, Edge: -1, TypeName: label, Property: name,
						Message: fmt.Sprintf("%s (%s): property %q is not declared as a field of %s", nodeRef(v), label, name, label),
					})
				}
				continue
			}
			if !r.s.IsAttribute(fd) && !r.drop() {
				emit(Violation{
					Rule: SS2, Node: v, Edge: -1, TypeName: label, Field: name, Property: name,
					Message: fmt.Sprintf("%s (%s): property %q corresponds to relationship field %s.%s of type %s, not an attribute",
						nodeRef(v), label, name, label, name, fd.Type),
				})
			}
		}
	}
}

// ss3 — SS3 (all edge properties are justified): for all (e, a) ∈ dom(σ)
// with ρ(e) = (v1, v2), a ∈ argsS((λ(v1), λ(e))).
func (r *oracle) ss3(emit emitFunc) {
	for _, e := range r.g.Edges() {
		props := r.g.EdgePropNames(e)
		if len(props) == 0 {
			continue
		}
		src, _ := r.g.Endpoints(e)
		srcLabel := r.g.NodeLabel(src)
		fd := r.s.Field(srcLabel, r.g.EdgeLabel(e))
		for _, name := range props {
			if (fd == nil || fd.Arg(name) == nil) && !r.drop() {
				emit(Violation{
					Rule: SS3, Node: src, Edge: e, TypeName: srcLabel, Field: r.g.EdgeLabel(e), Property: name,
					Message: fmt.Sprintf("%s (%s): property %q is not a declared argument of %s.%s",
						edgeRef(e), r.g.EdgeLabel(e), name, srcLabel, r.g.EdgeLabel(e)),
				})
			}
		}
	}
}

// ss4 — SS4 (all edges are justified): for all e ∈ E with ρ(e) = (v1, v2),
// λ(e) ∈ fieldsS(λ(v1)) and typeF(λ(v1), λ(e)) ∉ S ∪ WS.
func (r *oracle) ss4(emit emitFunc) {
	for _, e := range r.g.Edges() {
		src, _ := r.g.Endpoints(e)
		srcLabel := r.g.NodeLabel(src)
		elabel := r.g.EdgeLabel(e)
		fd := r.s.Field(srcLabel, elabel)
		if fd == nil {
			if !r.drop() {
				emit(Violation{
					Rule: SS4, Node: src, Edge: e, TypeName: srcLabel, Field: elabel,
					Message: fmt.Sprintf("%s: label %q is not a declared field of %s", edgeRef(e), elabel, srcLabel),
				})
			}
			continue
		}
		if r.s.IsAttribute(fd) && !r.drop() {
			emit(Violation{
				Rule: SS4, Node: src, Edge: e, TypeName: srcLabel, Field: elabel,
				Message: fmt.Sprintf("%s: label %q corresponds to attribute field %s.%s of type %s, not a relationship",
					edgeRef(e), elabel, srcLabel, elabel, fd.Type),
			})
		}
	}
}
