package validate

import (
	"fmt"
	"strings"

	"pgschema/internal/pg"
)

// ds7 — DS7 (@key: key properties identify nodes): if
// (@key, {fields: [f1 … fn]}) ∈ directivesT(t), any two nodes of types
// ⊑ t that agree on every key property (both absent, or both present and
// equal — considering only the fi whose type at t is scalar) must be the
// same node.
func (r *runner) ds7(emit emitFunc) {
	// An unrestricted sweep with a bound program reads the cached bucket
	// index instead of rebuilding it; restricted sweeps (incremental
	// revalidation) bucket only the affected types below.
	if r.bind != nil && r.onlyTypes == nil {
		for _, ks := range r.bind.keyIndex(r.s) {
			for _, nodes := range ks.buckets {
				if len(nodes) < 2 || r.drop() {
					continue
				}
				emit(Violation{
					Rule: DS7, Node: nodes[0], Edge: -1,
					TypeName: ks.typeName,
					Message: fmt.Sprintf("%d nodes (%s, %s, …) of type %s agree on key {%s}, violating @key",
						len(nodes), nodeRef(nodes[0]), nodeRef(nodes[1]), ks.typeName, strings.Join(ks.keyFields, ", ")),
				})
			}
		}
		return
	}
	for _, td := range r.s.Types() {
		if !r.typeAllowed(td.Name) {
			continue
		}
		for _, keyFields := range td.KeyFieldSets() {
			var attrs []string
			for _, f := range keyFields {
				fd := td.Field(f)
				if fd != nil && r.s.IsAttribute(fd) {
					attrs = append(attrs, f)
				}
			}
			buckets := make(map[string][]pg.NodeID)
			for _, v := range r.nodesOfType(td.Name) {
				var sb strings.Builder
				for _, f := range attrs {
					val, ok := r.g.NodeProp(v, f)
					pg.WriteKeyPart(&sb, val, ok)
				}
				key := sb.String()
				buckets[key] = append(buckets[key], v)
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

// nodesOfType yields the nodes v with λ(v) ⊑S t for a named type t,
// using the label index (object type: one label; interface/union: the
// implementing/member labels).
func (r *runner) nodesOfType(named string) []pg.NodeID {
	if r.bind != nil && r.onlyTypes == nil {
		// The bound program's enumeration covers the unrestricted case;
		// callers must not mutate the shared slice. Restricted sweeps
		// (incremental revalidation) skip it so they never force the
		// lazy O(V) enumeration build for a delta-sized region.
		r.bind.ensureNodes()
		return r.bind.nodesOf[named]
	}
	var out []pg.NodeID
	for _, label := range r.s.ConcreteTargets(named) {
		out = append(out, r.g.NodesLabeled(label)...)
	}
	return out
}
