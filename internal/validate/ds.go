package validate

import (
	"fmt"

	"pgschema/internal/pg"
)

// ds7 — DS7 (@key: key properties identify nodes): if
// (@key, {fields: [f1 … fn]}) ∈ directivesT(t), any two nodes of types
// ⊑ t that agree on every key property (both absent, or both present and
// equal — considering only the fi whose type at t is scalar) must be the
// same node.
//
// A declaration's buckets are the snapshot's shared key index over the
// type's concrete labels and key attributes (pg.Snapshot.KeyConflicts),
// built once per snapshot. A full run reports the index's conflict
// list; incremental revalidation looks up only the buckets a delta can
// have changed (ds7Buckets; see keyRegion in delta.go). A violation
// anchors on its bucket's first node — label by label in
// ConcreteTargets order, ascending within a label.
//
// decl indexes binding.keys; decl < 0 means every declaration over its
// full conflict list (the unchunked task shape), else the declaration's
// conflicts in [lo, hi).
func (r *runner) ds7(emit emitFunc, decl, lo, hi int) {
	if decl < 0 {
		for d := range r.bind.keys {
			r.ds7(emit, d, 0, len(r.bind.keyConflicts(d)))
		}
		return
	}
	for _, c := range r.bind.keyConflicts(decl)[lo:hi] {
		r.ds7Emit(emit, keyBucket{decl: decl, tuple: c.Tuple}, c.Nodes)
	}
}

// keyBucket names one DS7 bucket: a key declaration (index into
// binding.keys) and a rendered key tuple.
type keyBucket struct {
	decl  int
	tuple string
}

// keyConflicts returns declaration d's buckets of two or more nodes.
func (b *binding) keyConflicts(d int) []pg.KeyConflict {
	k := &b.keys[d]
	return b.snap.KeyConflicts(k.labels, k.props)
}

// ds7Buckets re-checks the buckets r.keyBuckets[lo:hi] against the
// current snapshot — the delta-local form of ds7.
func (r *runner) ds7Buckets(emit emitFunc, lo, hi int) {
	for _, kb := range r.keyBuckets[lo:hi] {
		k := &r.bind.keys[kb.decl]
		r.ds7Emit(emit, kb, r.bind.snap.KeyBucketIn(k.labels, k.props, kb.tuple))
	}
}

// ds7Emit reports bucket kb when it holds two or more nodes, and notes
// the bucket's tuple beside the violation so a later Revalidate can
// find the bucket again after its nodes have changed.
func (r *runner) ds7Emit(emit emitFunc, kb keyBucket, nodes []pg.NodeID) {
	if len(nodes) < 2 || r.drop() {
		return
	}
	k := &r.bind.keys[kb.decl]
	v := Violation{
		Rule: DS7, Node: nodes[0], Edge: -1,
		TypeName: k.typeName,
		Message: fmt.Sprintf("%d nodes (%s, %s, …) of type %s agree on key {%s}, violating @key",
			len(nodes), nodeRef(nodes[0]), nodeRef(nodes[1]), k.typeName, k.keyFields),
	}
	emit(v)
	r.coll.noteKey(v, kb)
}
