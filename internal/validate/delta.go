package validate

import (
	"context"
	"math/bits"

	"pgschema/internal/pg"
	"pgschema/internal/schema"
)

// Delta lists the graph elements touched by a mutation batch: nodes that
// were added, relabeled, or had properties changed, and edges that were
// added, removed, or had properties changed. Removed edges may be listed
// (their endpoints are still resolvable); removed nodes may be listed
// too (they are skipped as tombstones, and their incident-edge removals
// pull the former neighbours into the region).
type Delta struct {
	Nodes []pg.NodeID
	Edges []pg.EdgeID
	// Labels lists the former labels of relabeled or removed nodes (the
	// current label is derived from Nodes automatically). The key
	// conflicts previously reported for types above these labels are
	// re-checked, so a node that left a bucket cannot leave a stale
	// report behind.
	Labels []string
}

// DeltaFor translates the mutation summary of a pg.Graph.Apply into the
// Delta Revalidate consumes. The correspondence is direct — Touched
// already lists every element whose rule inputs changed plus the former
// labels DS7 needs.
func DeltaFor(t pg.Touched) Delta {
	return Delta{Nodes: t.Nodes, Edges: t.Edges, Labels: t.Labels}
}

// idBits is a dense bitset over element IDs. Region construction and
// membership tests sit on the small-delta hot path (they rival the rule
// work itself for ≤1% deltas), so the sets are bit vectors sized to the
// graph bound rather than hash maps: set/has are a shift and a mask,
// and flattening to a sorted scan list is a word-wise sweep with no
// sort call.
type idBits []uint64

func newIDBits(bound int) idBits { return make(idBits, (bound+63)/64) }

// setBit marks id, growing the vector when id lies beyond the graph
// bound (undone additions — kept only so splicing can match them).
func (b *idBits) setBit(id int) {
	w := id >> 6
	if w >= len(*b) {
		grown := make(idBits, w+1)
		copy(grown, *b)
		*b = grown
	}
	(*b)[w] |= 1 << (uint(id) & 63)
}

func (b idBits) has(id int) bool {
	w := id >> 6
	return w < len(b) && b[w]&(1<<(uint(id)&63)) != 0
}

func (b idBits) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// deltaRegion is the blast radius of a delta, split by the element
// space each rule group quantifies over.
type deltaRegion struct {
	nodeSet   idBits          // WS1, SS1, SS2, DS5: the delta nodes
	edgeSet   idBits          // WS2, WS3, SS3, SS4: delta + incident edges
	sourceSet idBits          // WS4, DS1, DS2, DS6: delta nodes ∪ sources of region edges
	targetSet idBits          // DS3, DS4: delta nodes ∪ targets of region edges
	affected  map[string]bool // DS7: the delta's current and former labels
	keys      map[keyBucket]bool
}

// regionOf computes the influence region of a delta on the current
// graph state:
//
//	WS1, SS1, SS2, DS5      the delta nodes themselves
//	WS2, WS3, SS3, SS4      the delta edges and all edges incident to a
//	                        delta node (λ(v1)/λ(v2) feed edge rules)
//	WS4, DS1, DS2, DS6      delta nodes and sources of region edges
//	DS3, DS4                delta nodes and targets of region edges
//	DS7                     the key buckets keyRegion derives from the
//	                        affected labels and the previous result
func regionOf(g *pg.Graph, delta Delta) deltaRegion {
	// A delta produced by an Undo can reference elements that were
	// appended by the undone Apply and popped again — their IDs sit
	// beyond the current bounds. They stay in the sets (setBit grows
	// past the bound, so splicing drops any prev violations that
	// mention them) but cannot be traversed or scanned.
	nb, eb := g.NodeBound(), g.EdgeBound()
	reg := deltaRegion{
		nodeSet:   newIDBits(nb),
		edgeSet:   newIDBits(eb),
		sourceSet: newIDBits(nb),
		targetSet: newIDBits(nb),
		affected:  make(map[string]bool, 4),
	}
	for _, n := range delta.Nodes {
		reg.nodeSet.setBit(int(n))
		reg.sourceSet.setBit(int(n))
		reg.targetSet.setBit(int(n))
		if int(n) >= nb {
			continue
		}
		// Labels whose key conflicts may have shifted. A removed node
		// answers "" here; its former label reaches the region through
		// delta.Labels (an apply's Touched.Labels carries it).
		reg.affected[g.NodeLabel(n)] = true
		// A node's label and existence feed into the edge-scoped rules
		// of every incident edge (WS2/WS3/SS3/SS4 key off λ(v1) and
		// λ(v2)), so incident edges join the region. The rows hold live
		// edges only — every edge an apply removed is already in its
		// Touched.Edges.
		for _, e := range g.OutEdgesRaw(n) {
			reg.edgeSet.setBit(int(e))
		}
		for _, e := range g.InEdgesRaw(n) {
			reg.edgeSet.setBit(int(e))
		}
	}
	for _, e := range delta.Edges {
		reg.edgeSet.setBit(int(e))
	}
	for _, e := range sortedEdgeList(reg.edgeSet, eb) {
		src, dst := g.Endpoints(e)
		reg.sourceSet.setBit(int(src))
		reg.targetSet.setBit(int(dst))
	}
	for _, l := range delta.Labels {
		reg.affected[l] = true
	}
	return reg
}

// elements is the region's total dirty-element count — the work size
// parallelism decisions key on.
func (reg deltaRegion) elements() int {
	return reg.sourceSet.count() + reg.targetSet.count() + reg.edgeSet.count()
}

// sortedNodeList flattens a dirty set into a scannable list, dropping
// IDs beyond the graph's current bound (undone additions — present in
// the set only so splicing can match them). The word-order sweep
// yields ascending IDs for free.
func sortedNodeList(set idBits, bound int) []pg.NodeID {
	out := make([]pg.NodeID, 0, set.count())
	for wi, w := range set {
		for w != 0 {
			id := wi<<6 + bits.TrailingZeros64(w)
			if id >= bound {
				return out
			}
			out = append(out, pg.NodeID(id))
			w &= w - 1
		}
	}
	return out
}

func sortedEdgeList(set idBits, bound int) []pg.EdgeID {
	out := make([]pg.EdgeID, 0, set.count())
	for wi, w := range set {
		for w != 0 {
			id := wi<<6 + bits.TrailingZeros64(w)
			if id >= bound {
				return out
			}
			out = append(out, pg.EdgeID(id))
			w &= w - 1
		}
	}
	return out
}

// Revalidate produces the full validation result after a mutation
// without re-checking the entire graph: it re-runs each rule only over
// the region the delta can influence (see regionOf and keyRegion) and
// splices the fresh findings into prev.
//
// prev must be a complete result (not Truncated, not Incomplete) for
// the same schema, mode, and rule set over the graph state before the
// mutation; the returned result then equals what a full ValidateContext
// with the same options would produce on the current state — the
// equivalence the differential harness verifies. When prev is nil,
// truncated, or incomplete there is nothing sound to splice into, and
// Revalidate falls back to a full run — as it does when prev reports a
// key conflict it must re-check without the bucket this package's runs
// note beside each DS7 violation.
//
// The region runs through delta-scoped fused passes over the epoch's
// snapshot, chunked onto the work-stealing pool when Options.Workers
// asks for it. MaxViolations is ignored — a spliced result is only
// coherent when both sides are complete. Cancellation is observed at
// chunk boundaries; a cancelled run returns with Incomplete set, and
// such a result must not seed a later Revalidate.
func Revalidate(ctx context.Context, s *schema.Schema, g *pg.Graph, prev *Result, delta Delta, opts Options) *Result {
	if prev == nil || prev.Truncated || prev.Incomplete {
		return ValidateContext(ctx, s, g, opts)
	}
	full := opts
	rules := opts.rules()
	reg := regionOf(g, delta)
	// Worker resolution keys on the dirty-element count, not the graph
	// size: a small delta on a huge graph is small work.
	autotuned := opts.Workers == 0
	opts.Workers = opts.EffectiveWorkers(reg.elements())
	out := &Result{}
	if p, err := opts.prepare(ctx, s, autotuned); err == nil {
		c := newCollector(0)
		r := &runner{s: s, g: g, opts: opts, ctx: ctx, coll: c, bind: p.bindTo(g)}
		w := wantRules(rules)
		if w.ds7 && !r.keyRegion(prev, &reg) {
			return ValidateContext(ctx, s, g, full)
		}
		timings, st := r.runChunks(r.planDirtyChunks(w, reg), rules, c)
		out = splice(r, prev, c.result(), reg)
		out.RuleTime = timings
		if opts.SchedStats {
			out.Sched = st
		}
	}
	out.Workers = opts.Workers
	out.Incomplete = ctx.Err() != nil
	return out
}

// keyRegion fills reg.keys and r.keyBuckets with the DS7 buckets a
// delta can have changed, the union of
//
//   - the current bucket of every live delta node under each key
//     declaration of its label (the buckets a node joined or stayed in),
//   - the recorded bucket of every prior DS7 violation whose type is
//     ⊒-related to an affected label or whose anchor is gone (the
//     buckets a node left — even as their anchor, or by removal — which
//     may no longer conflict).
//
// Each is one lookup in the snapshot's shared key index, so the DS7
// work is O(|delta| + prior conflicts of affected types), not a sweep of
// the affected types' nodes. It reports false when a prior violation it
// must re-check carries no recorded bucket.
func (r *runner) keyRegion(prev *Result, reg *deltaRegion) bool {
	b := r.bind
	reg.keys = make(map[keyBucket]bool)
	for _, v := range sortedNodeList(reg.nodeSet, b.snap.NodeBound()) {
		ls := b.snap.NodeLabelSym(v)
		if ls == pg.NoSym {
			continue
		}
		for _, d := range b.labels[ls].keys {
			reg.keys[keyBucket{decl: d, tuple: b.snap.KeyTuple(v, b.keys[d].props)}] = true
		}
	}
	affected := make(map[string]bool)
	for _, v := range prev.Violations {
		if v.Rule != DS7 {
			continue
		}
		hit, seen := affected[v.TypeName]
		if !seen {
			for label := range reg.affected {
				if hit = r.s.SubtypeNamed(label, v.TypeName); hit {
					break
				}
			}
			affected[v.TypeName] = hit
		}
		if !hit && r.g.HasNode(v.Node) {
			continue
		}
		kb, ok := prev.keys[v]
		if !ok {
			return false
		}
		// Declarations repeated verbatim report identical violations,
		// which share one note: re-check the bucket under each of them.
		k := b.keys[kb.decl].keyDecl
		for d := range b.keys {
			if kd := b.keys[d].keyDecl; kd.typeName == k.typeName && kd.keyFields == k.keyFields {
				reg.keys[keyBucket{decl: d, tuple: kb.tuple}] = true
			}
		}
	}
	for kb := range reg.keys {
		r.keyBuckets = append(r.keyBuckets, kb)
	}
	return true
}

// planDirtyChunks plans the delta-scoped fused work: the region's
// sorted dirty lists chunked for the work-stealing cursor, each chunk
// carrying only the rules whose influence region it covers. DS4 runs as
// a dirty pass testing candidates against each declaration's
// target-label syms (no enumeration build), and DS7 re-checks the
// runner's keyBuckets.
func (r *runner) planDirtyChunks(w fusedWant, reg deltaRegion) []fusedChunk {
	workers := r.opts.Workers
	if workers < 1 {
		workers = 1
	}
	var chunks []fusedChunk
	add := func(kind fusedTaskKind, cw fusedWant, nodes []pg.NodeID, edges []pg.EdgeID, bound int) {
		base := len(chunks)
		chunks = appendRangeChunks(chunks, kind, -1, bound, defaultSpan(bound, workers))
		for i := base; i < len(chunks); i++ {
			chunks[i].w, chunks[i].nodes, chunks[i].edges = cw, nodes, edges
		}
	}
	if cw := (fusedWant{ws1: w.ws1, ss1: w.ss1, ss2: w.ss2, ds5: w.ds5}); cw != (fusedWant{}) {
		list := sortedNodeList(reg.nodeSet, r.g.NodeBound())
		add(taskNodePass, cw, list, nil, len(list))
	}
	if cw := (fusedWant{ws4: w.ws4, ds1: w.ds1, ds2: w.ds2, ds6: w.ds6}); cw != (fusedWant{}) {
		list := sortedNodeList(reg.sourceSet, r.g.NodeBound())
		add(taskNodePass, cw, list, nil, len(list))
	}
	if w.ds3 || w.ds4 {
		list := sortedNodeList(reg.targetSet, r.g.NodeBound())
		if w.ds3 {
			add(taskNodePass, fusedWant{ds3: true}, list, nil, len(list))
		}
		if w.ds4 {
			add(taskDS4Dirty, fusedWant{ds4: true}, list, nil, len(list))
		}
	}
	if cw := (fusedWant{ws2: w.ws2, ws3: w.ws3, ss3: w.ss3, ss4: w.ss4}); cw != (fusedWant{}) {
		list := sortedEdgeList(reg.edgeSet, r.g.EdgeBound())
		add(taskEdgePass, cw, nil, list, len(list))
	}
	if w.ds7 {
		add(taskDS7Dirty, fusedWant{ds7: true}, nil, nil, len(r.keyBuckets))
	}
	return chunks
}

// splice merges a fresh region result into the previous full result:
// prior violations anchored in the recomputed region are dropped, the
// rest kept, the fresh findings added, and the whole re-sorted
// canonically. The DS7 bucket notes follow their violations.
func splice(r *runner, prev, fresh *Result, reg deltaRegion) *Result {
	out := newCollector(0)
	for _, v := range prev.Violations {
		if staleViolation(r, prev, v, reg) {
			continue
		}
		out.emit(v)
		if v.Rule != DS7 {
			continue
		}
		if kb, ok := prev.keys[v]; ok {
			out.noteKey(v, kb)
		}
	}
	for _, v := range fresh.Violations {
		out.emit(v)
	}
	for v, kb := range fresh.keys {
		out.noteKey(v, kb)
	}
	return out.result()
}

// staleViolation reports whether a prior violation lies in the region the
// delta invalidates (and was therefore recomputed).
func staleViolation(r *runner, prev *Result, v Violation, reg deltaRegion) bool {
	switch v.Rule {
	case WS1, SS1, SS2, DS5:
		return reg.nodeSet.has(int(v.Node)) || !r.g.HasNode(v.Node)
	case WS2, WS3, SS3, SS4:
		return reg.edgeSet.has(int(v.Edge)) || !r.g.HasEdge(v.Edge)
	case WS4, DS1, DS2, DS6:
		return reg.sourceSet.has(int(v.Node)) || !r.g.HasNode(v.Node)
	case DS3, DS4:
		return reg.targetSet.has(int(v.Node)) || !r.g.HasNode(v.Node)
	case DS7:
		kb, ok := prev.keys[v]
		return ok && reg.keys[kb]
	}
	return true // unknown rule: be safe, recompute path dropped it
}
