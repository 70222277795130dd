package validate

import (
	"fmt"
	"slices"
	"strings"

	"pgschema/internal/pg"
	"pgschema/internal/schema"
	"pgschema/internal/values"
)

// ds1 — DS1 (@distinct: edges identified by nodes and label): if
// (@distinct, ∅) ∈ directivesF(t, f), no two distinct f-labeled edges may
// connect the same source node (of a type ⊑ t) to the same target node.
//
// Note: the paper's definition literally writes λ(e1) ⊑S t for the edge
// e1; following the prose of §3.3 we read this as λ(v1) ⊑S t (see the
// errata section of DESIGN.md).
func (r *oracle) ds1(emit emitFunc) {
	for _, fd := range r.relationshipDeclarations() {
		if !schema.HasDirective(fd.Directives, schema.DirDistinct) {
			continue
		}
		for _, v1 := range r.nodesOfType(fd.Owner) {
			seen := make(map[pg.NodeID]int)
			for _, e := range r.g.OutEdgesLabeled(v1, fd.Name) {
				_, dst := r.g.Endpoints(e)
				seen[dst]++
				if seen[dst] == 2 && !r.drop() {
					emit(Violation{
						Rule: DS1, Node: v1, Edge: e,
						TypeName: fd.Owner, Field: fd.Name,
						Message: fmt.Sprintf("%s: multiple %q edges to %s violate @distinct on %s.%s",
							nodeRef(v1), fd.Name, nodeRef(dst), fd.Owner, fd.Name),
					})
				}
			}
		}
	}
}

// ds2 — DS2 (@noLoops): if (@noLoops, ∅) ∈ directivesF(t, f), no f-labeled
// edge from a node of a type ⊑ t may have ρ(e) = (v, v).
func (r *oracle) ds2(emit emitFunc) {
	for _, fd := range r.relationshipDeclarations() {
		if !schema.HasDirective(fd.Directives, schema.DirNoLoops) {
			continue
		}
		for _, v := range r.nodesOfType(fd.Owner) {
			for _, e := range r.g.OutEdgesLabeled(v, fd.Name) {
				if _, dst := r.g.Endpoints(e); dst == v && !r.drop() {
					emit(Violation{
						Rule: DS2, Node: v, Edge: e,
						TypeName: fd.Owner, Field: fd.Name,
						Message: fmt.Sprintf("%s: %q loop edge violates @noLoops on %s.%s",
							nodeRef(v), fd.Name, fd.Owner, fd.Name),
					})
				}
			}
		}
	}
}

// ds3 — DS3 (@uniqueForTarget: target has at most one incoming edge): if
// (@uniqueForTarget, ∅) ∈ directivesF(t, f), every possible target node
// may have at most one incoming f-labeled edge from nodes of a type ⊑ t.
//
// Note: the paper writes λ(v2) ⊑S typeS(t, f) for the *source* of the
// second edge; following the prose we require both sources ⊑ t (errata in
// DESIGN.md).
func (r *oracle) ds3(emit emitFunc) {
	if r.naive {
		r.ds3Naive(emit)
		return
	}
	for _, fd := range r.relationshipDeclarations() {
		if !schema.HasDirective(fd.Directives, schema.DirUniqueForTarget) {
			continue
		}
		for _, v3 := range r.targetNodes(fd) {
			n := 0
			var second pg.EdgeID = -1
			for _, e := range r.g.InEdgesLabeled(v3, fd.Name) {
				src, _ := r.g.Endpoints(e)
				if !r.s.SubtypeNamed(r.g.NodeLabel(src), fd.Owner) {
					continue
				}
				n++
				if n == 2 {
					second = e
				}
			}
			if n > 1 && !r.drop() {
				emit(Violation{
					Rule: DS3, Node: v3, Edge: second,
					TypeName: fd.Owner, Field: fd.Name,
					Message: fmt.Sprintf("%s: %d incoming %q edges from %s nodes violate @uniqueForTarget on %s.%s",
						nodeRef(v3), n, fd.Name, fd.Owner, fd.Owner, fd.Name),
				})
			}
		}
	}
}

// ds3Naive is the pair scan over E × E from the definition, kept for the
// index ablation benchmark. It dedups by target node, mirroring the
// indexed ds3.
func (r *oracle) ds3Naive(emit emitFunc) {
	for _, fd := range r.relationshipDeclarations() {
		if !schema.HasDirective(fd.Directives, schema.DirUniqueForTarget) {
			continue
		}
		// The indexed ds3 only examines nodes of the target type; the pair
		// scan must apply the same restriction or it reports mislabeled
		// targets (WS3's concern) that the indexed engine skips.
		targetLabels := make(map[string]bool)
		for _, l := range r.s.ConcreteTargets(fd.Type.Base()) {
			targetLabels[l] = true
		}
		edges := r.g.Edges()
		reported := make(map[pg.NodeID]bool)
		for i, e1 := range edges {
			if r.g.EdgeLabel(e1) != fd.Name {
				continue
			}
			s1, t1 := r.g.Endpoints(e1)
			if reported[t1] {
				continue
			}
			if !targetLabels[r.g.NodeLabel(t1)] {
				continue
			}
			if !r.s.SubtypeNamed(r.g.NodeLabel(s1), fd.Owner) {
				continue
			}
			// e1 is the first admissible edge into t1; counting the rest of
			// the pair scan makes the count — and the witness edge, since
			// adjacency lists are in edge-id order — byte-identical to the
			// indexed implementation's.
			n := 1
			var second pg.EdgeID = -1
			for _, e2 := range edges[i+1:] {
				if r.g.EdgeLabel(e2) != fd.Name {
					continue
				}
				s2, t2 := r.g.Endpoints(e2)
				if t1 != t2 || !r.s.SubtypeNamed(r.g.NodeLabel(s2), fd.Owner) {
					continue
				}
				n++
				if n == 2 {
					second = e2
				}
			}
			reported[t1] = true
			if n > 1 && !r.drop() {
				emit(Violation{
					Rule: DS3, Node: t1, Edge: second,
					TypeName: fd.Owner, Field: fd.Name,
					Message: fmt.Sprintf("%s: %d incoming %q edges from %s nodes violate @uniqueForTarget on %s.%s",
						nodeRef(t1), n, fd.Name, fd.Owner, fd.Owner, fd.Name),
				})
			}
		}
	}
}

// ds4 — DS4 (@requiredForTarget: target has at least one incoming edge):
// if (@requiredForTarget, ∅) ∈ directivesF(t, f), every node whose label
// is a subtype of the field's target type must have at least one incoming
// f-labeled edge from a node of a type ⊑ t.
func (r *oracle) ds4(emit emitFunc) {
	for _, fd := range r.relationshipDeclarations() {
		if !schema.HasDirective(fd.Directives, schema.DirRequiredForTarget) {
			continue
		}
		for _, v2 := range r.targetNodes(fd) {
			found := false
			for _, e := range r.g.InEdgesLabeled(v2, fd.Name) {
				src, _ := r.g.Endpoints(e)
				if r.s.SubtypeNamed(r.g.NodeLabel(src), fd.Owner) {
					found = true
					break
				}
			}
			if !found && !r.drop() {
				emit(Violation{
					Rule: DS4, Node: v2, Edge: -1,
					TypeName: fd.Owner, Field: fd.Name,
					Message: fmt.Sprintf("%s (%s): no incoming %q edge from a %s node, violating @requiredForTarget on %s.%s",
						nodeRef(v2), r.g.NodeLabel(v2), fd.Name, fd.Owner, fd.Owner, fd.Name),
				})
			}
		}
	}
}

// targetNodes yields the nodes v with λ(v) ⊑S basetype(typeF(t, f)) — the
// possible targets of the relationship. (Using the base type rather than
// the literal wrapped type closes the formal gap for non-null field types;
// see DESIGN.md errata.)
func (r *oracle) targetNodes(fd *schema.FieldDef) []pg.NodeID {
	return r.nodesOfType(fd.Type.Base())
}

// ds5 — DS5 (@required on an attribute: property is required): if
// (@required, ∅) ∈ directivesF(t, f) and typeF(t, f) ∈ S ∪ WS, every node
// of a type ⊑ t must define the property, and the value must be a
// nonempty list when the field type is a list type.
func (r *oracle) ds5(emit emitFunc) {
	for _, fd := range r.attributeDeclarations() {
		if !schema.HasDirective(fd.Directives, schema.DirRequired) {
			continue
		}
		for _, v := range r.nodesOfType(fd.Owner) {
			val, ok := r.g.NodeProp(v, fd.Name)
			switch {
			case !ok:
				if !r.drop() {
					emit(Violation{
						Rule: DS5, Node: v, Edge: -1,
						TypeName: fd.Owner, Field: fd.Name, Property: fd.Name,
						Message: fmt.Sprintf("%s (%s): missing property %q required by @required on %s.%s",
							nodeRef(v), r.g.NodeLabel(v), fd.Name, fd.Owner, fd.Name),
					})
				}
			case fd.Type.IsList() && val.Kind() == values.KindList && val.Len() == 0:
				if !r.drop() {
					emit(Violation{
						Rule: DS5, Node: v, Edge: -1,
						TypeName: fd.Owner, Field: fd.Name, Property: fd.Name,
						Message: fmt.Sprintf("%s (%s): property %q is an empty list, but @required on %s.%s demands a nonempty list",
							nodeRef(v), r.g.NodeLabel(v), fd.Name, fd.Owner, fd.Name),
					})
				}
			}
		}
	}
}

// ds6 — DS6 (@required on a relationship: edge is required): if
// (@required, ∅) ∈ directivesF(t, f) and typeF(t, f) ∉ S ∪ WS, every node
// of a type ⊑ t must have at least one outgoing f-labeled edge.
func (r *oracle) ds6(emit emitFunc) {
	for _, fd := range r.relationshipDeclarations() {
		if !schema.HasDirective(fd.Directives, schema.DirRequired) {
			continue
		}
		for _, v1 := range r.nodesOfType(fd.Owner) {
			if r.g.OutDegreeLabeled(v1, fd.Name) == 0 && !r.drop() {
				emit(Violation{
					Rule: DS6, Node: v1, Edge: -1,
					TypeName: fd.Owner, Field: fd.Name,
					Message: fmt.Sprintf("%s (%s): no outgoing %q edge, violating @required on %s.%s",
						nodeRef(v1), r.g.NodeLabel(v1), fd.Name, fd.Owner, fd.Name),
				})
			}
		}
	}
}

// ds7 — DS7 (@key: key properties identify nodes): if
// (@key, {fields: [f1 … fn]}) ∈ directivesT(t), any two nodes of types
// ⊑ t that agree on every key property (both absent, or both present and
// equal — considering only the fi whose type at t is scalar) must be the
// same node. The definitional sweep: bucket every node of the type by
// its rendered key tuple and report each bucket of two or more, anchored
// on its first node in ConcreteTargets order, ascending within a label.
func (r *oracle) ds7(emit emitFunc) {
	for _, td := range r.s.Types() {
		for _, keyFields := range td.KeyFieldSets() {
			var attrs []string
			for _, f := range keyFields {
				if fd := td.Field(f); fd != nil && r.s.IsAttribute(fd) {
					attrs = append(attrs, f)
				}
			}
			buckets := make(map[string][]pg.NodeID)
			for _, label := range r.s.ConcreteTargets(td.Name) {
				nodes := r.g.NodesLabeled(label)
				slices.Sort(nodes) // a relabeled node sits at the end of its label's list
				for _, v := range nodes {
					var key []byte
					for _, f := range attrs {
						val, ok := r.g.NodeProp(v, f)
						key = pg.AppendKeyPart(key, val, ok)
					}
					buckets[string(key)] = append(buckets[string(key)], v)
				}
			}
			for _, nodes := range buckets {
				if len(nodes) < 2 || r.drop() {
					continue
				}
				emit(Violation{
					Rule: DS7, Node: nodes[0], Edge: -1,
					TypeName: td.Name,
					Message: fmt.Sprintf("%d nodes (%s, %s, …) of type %s agree on key {%s}, violating @key",
						len(nodes), nodeRef(nodes[0]), nodeRef(nodes[1]), td.Name, strings.Join(keyFields, ", ")),
				})
			}
		}
	}
}

// nodesOfType yields the nodes v with λ(v) ⊑S t for a named type t
// (object type: one label; interface/union: the implementing/member
// labels), through the graph's label lists.
func (r *oracle) nodesOfType(named string) []pg.NodeID {
	var out []pg.NodeID
	for _, label := range r.s.ConcreteTargets(named) {
		out = append(out, r.g.NodesLabeled(label)...)
	}
	return out
}
