package validate

import (
	"fmt"
	"math/bits"
	"time"

	"pgschema/internal/pg"
	"pgschema/internal/sched"
	"pgschema/internal/schema"
	"pgschema/internal/values"
)

// The fused engine evaluates every applicable per-element rule in a
// single pass over the nodes and a single pass over the edges, instead
// of one full sweep per rule. Theorem 1's observation that all fifteen
// satisfaction rules are constant-depth conditions evaluable
// independently per graph element makes the fusion sound: the rules
// never exchange information, so interleaving them per element yields
// the same violation set as running them rule by rule. The differential
// test harness (differential_test.go) proves the equivalence against
// the rule-by-rule oracle in this package's test files, across worker
// counts, sharding, modes, and compiled programs.
//
// The passes run against a compiled Program bound to the graph
// (program.go) and scan the graph's columnar snapshot (pg.Snapshot):
// flat label arrays, CSR adjacency of live edges, flattened property
// rows, and per-sym presence bitsets, so the hot loops touch contiguous
// memory instead of chasing node/edge structs. Two rules quantify
// globally, both over the snapshot's shared indexes: DS4 iterates each
// @requiredForTarget declaration's target enumeration, and DS7 each
// @key declaration's list of key conflicts; both are chunkable like the
// passes.
//
// Parallel runs split every pass into many contiguous element chunks
// claimed off an atomic cursor — work stealing without deques. A skewed
// graph (all violations, or all adjacency, concentrated in one region)
// no longer pins one worker while the rest idle behind a static modulo
// split: whoever finishes a chunk first claims the next one. Chunks are
// ranges, not modulo classes, so every element is wholly processed by
// one chunk and the per-element dedup keys (WS4/DS1 by source node,
// DS3/DS4 by target node) keep the violation set byte-identical.

// nodePassRules are the rules the fused node pass evaluates, in paper
// order.
var nodePassRules = []Rule{WS1, WS4, DS1, DS2, DS3, DS5, DS6, SS1, SS2}

// edgePassRules are the rules the fused edge pass evaluates.
var edgePassRules = []Rule{WS2, WS3, SS3, SS4}

// fusedWant is the set of requested rules as branch-predictable flags
// for the fused inner loops.
type fusedWant struct {
	ws1, ws2, ws3, ws4                bool
	ds1, ds2, ds3, ds4, ds5, ds6, ds7 bool
	ss1, ss2, ss3, ss4                bool
}

func wantRules(rules []Rule) fusedWant {
	var w fusedWant
	for _, r := range rules {
		switch r {
		case WS1:
			w.ws1 = true
		case WS2:
			w.ws2 = true
		case WS3:
			w.ws3 = true
		case WS4:
			w.ws4 = true
		case DS1:
			w.ds1 = true
		case DS2:
			w.ds2 = true
		case DS3:
			w.ds3 = true
		case DS4:
			w.ds4 = true
		case DS5:
			w.ds5 = true
		case DS6:
			w.ds6 = true
		case DS7:
			w.ds7 = true
		case SS1:
			w.ss1 = true
		case SS2:
			w.ss2 = true
		case SS3:
			w.ss3 = true
		case SS4:
			w.ss4 = true
		}
	}
	return w
}

// active intersects a pass's rule list with the requested set.
func (w fusedWant) active(pass []Rule) []Rule {
	var out []Rule
	for _, r := range pass {
		switch r {
		case WS1:
			if !w.ws1 {
				continue
			}
		case WS2:
			if !w.ws2 {
				continue
			}
		case WS3:
			if !w.ws3 {
				continue
			}
		case WS4:
			if !w.ws4 {
				continue
			}
		case DS1:
			if !w.ds1 {
				continue
			}
		case DS2:
			if !w.ds2 {
				continue
			}
		case DS3:
			if !w.ds3 {
				continue
			}
		case DS5:
			if !w.ds5 {
				continue
			}
		case DS6:
			if !w.ds6 {
				continue
			}
		case SS1:
			if !w.ss1 {
				continue
			}
		case SS2:
			if !w.ss2 {
				continue
			}
		case SS3:
			if !w.ss3 {
				continue
			}
		case SS4:
			if !w.ss4 {
				continue
			}
		}
		out = append(out, r)
	}
	return out
}

// obligMask is a label's precomputed rule-group obligations: which of
// the per-node rule groups can possibly fire for a node of that label.
// The dense node kernel ANDs a node's label mask with the run's want
// mask, so a node whose label owes nothing to the requested rules
// costs two loads and one branch instead of four empty slice loops.
type obligMask uint16

const (
	obSS1 obligMask = 1 << iota // label is not a declared object type
	obWS4                       // label has a non-list field
	obDS1                       // a srcRel declaration carries @distinct
	obDS2                       // a srcRel declaration carries @noLoops
	obDS3                       // label is on the target side of @uniqueForTarget
	obDS5                       // label has @required attributes
	obDS6                       // a srcRel declaration carries @required
)

// wantMask projects the requested rules onto the obligation bits.
func wantMask(w fusedWant) obligMask {
	var m obligMask
	if w.ss1 {
		m |= obSS1
	}
	if w.ws4 {
		m |= obWS4
	}
	if w.ds1 {
		m |= obDS1
	}
	if w.ds2 {
		m |= obDS2
	}
	if w.ds3 {
		m |= obDS3
	}
	if w.ds5 {
		m |= obDS5
	}
	if w.ds6 {
		m |= obDS6
	}
	return m
}

// fusedScratch is per-worker reusable state for the node pass, so the
// violation-free path allocates nothing per node: a dense edge-label
// counter (indexed by Sym, kept all-zero between nodes via the touched
// list) for WS4 and a target-count map (cleared, not reallocated) for
// DS1.
type fusedScratch struct {
	counts  []int32
	touched []pg.Sym
	seen    map[pg.NodeID]int32
	dsts    []pg.NodeID // DS1 small-degree dedup list (map-free)
}

func newFusedScratch(symCount int) *fusedScratch {
	return &fusedScratch{
		counts: make([]int32, symCount),
		seen:   make(map[pg.NodeID]int32),
	}
}

// resize readies a pooled scratch for a graph with the given symbol
// count. The counts slice only ever grows; a fresh slice is zeroed and
// a reused one was restored to all-zero by the WS4 loop's invariant.
func (sc *fusedScratch) resize(symCount int) {
	if len(sc.counts) < symCount {
		sc.counts = make([]int32, symCount)
	}
}

// fusedNodePass evaluates WS1, WS4, DS1, DS2, DS3, DS5, DS6, SS1, and
// SS2 for every live node in [lo, hi), emitting exactly the violations
// the rule-by-rule oracle would. All reads go through the binding's
// columnar snapshot. A nil list means the dense ID range [lo, hi);
// otherwise the pass visits list[lo:hi] — the shape incremental
// revalidation chunks its dirty-node set into.
func (r *runner) fusedNodePass(w fusedWant, emit emitFunc, list []pg.NodeID, lo, hi int, sc *fusedScratch) {
	b := r.bind
	snap := b.snap
	for vi := lo; vi < hi; vi++ {
		v := pg.NodeID(vi)
		if list != nil {
			v = list[vi]
		}
		vls := snap.NodeLabelSym(v)
		if vls == pg.NoSym {
			continue // removed node
		}
		bl := b.labels[vls]
		td := bl.td
		label := bl.label

		// SS1: the label must be a declared object type.
		if w.ss1 && (td == nil || td.Kind != schema.Object) && !r.drop() {
			emit(Violation{
				Rule: SS1, Node: v, Edge: -1, TypeName: label,
				Message: fmt.Sprintf("%s: label %q is not an object type of the schema", nodeRef(v), label),
			})
		}

		// WS1 + SS2 share the flat property row.
		if w.ws1 || w.ss2 {
			plo, phi := snap.NodePropRow(v)
			for i := plo; i < phi; i++ {
				pr := snap.NodePropAt(i)
				var slot fieldSlot
				if bl.fields != nil {
					slot = bl.fields[pr.Sym]
				}
				if slot.fd == nil {
					if w.ss2 && !r.drop() {
						emit(Violation{
							Rule: SS2, Node: v, Edge: -1, TypeName: label, Property: pr.Name,
							Message: fmt.Sprintf("%s (%s): property %q is not declared as a field of %s", nodeRef(v), label, pr.Name, label),
						})
					}
					continue
				}
				if !slot.isAttr {
					if w.ss2 && !r.drop() {
						emit(Violation{
							Rule: SS2, Node: v, Edge: -1, TypeName: label, Field: pr.Name, Property: pr.Name,
							Message: fmt.Sprintf("%s (%s): property %q corresponds to relationship field %s.%s of type %s, not an attribute",
								nodeRef(v), label, pr.Name, label, pr.Name, slot.fd.Type),
						})
					}
					continue
				}
				if w.ws1 && !slot.check(pr.Value) && !r.drop() {
					emit(Violation{
						Rule: WS1, Node: v, Edge: -1,
						TypeName: label, Field: pr.Name, Property: pr.Name,
						Message: fmt.Sprintf("%s (%s): property %q = %s is not in valuesW(%s)",
							nodeRef(v), label, pr.Name, pr.Value, slot.fd.Type),
					})
				}
			}
		}

		// WS4: at most one edge per non-list field. Count out-edges per
		// label Sym in the dense scratch counter; the snapshot's CSR
		// adjacency holds live edges only.
		if w.ws4 && td != nil {
			sc.touched = sc.touched[:0]
			for _, e := range snap.OutEdgesOf(v) {
				ls := snap.EdgeLabelSym(e)
				if sc.counts[ls] == 0 {
					sc.touched = append(sc.touched, ls)
				}
				sc.counts[ls]++
			}
			for _, ls := range sc.touched {
				n := sc.counts[ls]
				sc.counts[ls] = 0
				if n < 2 {
					continue
				}
				slot := bl.fields[ls]
				if slot.fd == nil || slot.fd.Type.IsList() || r.drop() {
					continue
				}
				f := r.g.SymName(ls)
				emit(Violation{
					Rule: WS4, Node: v, Edge: -1,
					TypeName: label, Field: f,
					Message: fmt.Sprintf("%s (%s): %d outgoing %q edges, but %s.%s has non-list type %s (at most one edge allowed)",
						nodeRef(v), label, n, f, label, f, slot.fd.Type),
				})
			}
		}

		// Source-side directive rules: DS1, DS2, DS6.
		for i := range bl.srcRel {
			d := &bl.srcRel[i]
			if w.ds1 && d.distinct {
				for _, e := range snap.OutEdgesOf(v) {
					if snap.EdgeLabelSym(e) != d.sym {
						continue
					}
					_, dst := snap.Endpoints(e)
					sc.seen[dst]++
					if sc.seen[dst] == 2 && !r.drop() {
						emit(Violation{
							Rule: DS1, Node: v, Edge: e,
							TypeName: d.fd.Owner, Field: d.fd.Name,
							Message: fmt.Sprintf("%s: multiple %q edges to %s violate @distinct on %s.%s",
								nodeRef(v), d.fd.Name, nodeRef(dst), d.fd.Owner, d.fd.Name),
						})
					}
				}
				if len(sc.seen) > 0 {
					clear(sc.seen)
				}
			}
			if w.ds2 && d.noLoops {
				for _, e := range snap.OutEdgesOf(v) {
					if snap.EdgeLabelSym(e) != d.sym {
						continue
					}
					if _, dst := snap.Endpoints(e); dst == v && !r.drop() {
						emit(Violation{
							Rule: DS2, Node: v, Edge: e,
							TypeName: d.fd.Owner, Field: d.fd.Name,
							Message: fmt.Sprintf("%s: %q loop edge violates @noLoops on %s.%s",
								nodeRef(v), d.fd.Name, d.fd.Owner, d.fd.Name),
						})
					}
				}
			}
			if w.ds6 && d.required {
				found := false
				for _, e := range snap.OutEdgesOf(v) {
					if snap.EdgeLabelSym(e) == d.sym {
						found = true
						break
					}
				}
				if !found && !r.drop() {
					emit(Violation{
						Rule: DS6, Node: v, Edge: -1,
						TypeName: d.fd.Owner, Field: d.fd.Name,
						Message: fmt.Sprintf("%s (%s): no outgoing %q edge, violating @required on %s.%s",
							nodeRef(v), label, d.fd.Name, d.fd.Owner, d.fd.Name),
					})
				}
			}
		}

		// DS5: @required attribute properties. Presence is one word load
		// in the per-sym bitset; the value is fetched only for list-typed
		// fields, which must additionally be nonempty.
		if w.ds5 {
			for i := range bl.reqAttrs {
				req := &bl.reqAttrs[i]
				if !snap.NodeHasProp(v, req.sym) {
					if !r.drop() {
						emit(Violation{
							Rule: DS5, Node: v, Edge: -1,
							TypeName: req.fd.Owner, Field: req.fd.Name, Property: req.fd.Name,
							Message: fmt.Sprintf("%s (%s): missing property %q required by @required on %s.%s",
								nodeRef(v), label, req.fd.Name, req.fd.Owner, req.fd.Name),
						})
					}
					continue
				}
				if req.fd.Type.IsList() {
					if val, ok := snap.NodePropBySym(v, req.sym); ok && val.Kind() == values.KindList && val.Len() == 0 && !r.drop() {
						emit(Violation{
							Rule: DS5, Node: v, Edge: -1,
							TypeName: req.fd.Owner, Field: req.fd.Name, Property: req.fd.Name,
							Message: fmt.Sprintf("%s (%s): property %q is an empty list, but @required on %s.%s demands a nonempty list",
								nodeRef(v), label, req.fd.Name, req.fd.Owner, req.fd.Name),
						})
					}
				}
			}
		}

		// DS3 (target side): at most one incoming @uniqueForTarget edge.
		if w.ds3 {
			for i := range bl.uftIn {
				u := &bl.uftIn[i]
				n := 0
				var second pg.EdgeID = -1
				for _, e := range snap.InEdgesOf(v) {
					if snap.EdgeLabelSym(e) != u.sym {
						continue
					}
					src, _ := snap.Endpoints(e)
					if !b.labels[snap.NodeLabelSym(src)].sub[u.ownerID] {
						continue
					}
					n++
					if n == 2 {
						second = e
					}
				}
				if n > 1 && !r.drop() {
					emit(Violation{
						Rule: DS3, Node: v, Edge: second,
						TypeName: u.fd.Owner, Field: u.fd.Name,
						Message: fmt.Sprintf("%s: %d incoming %q edges from %s nodes violate @uniqueForTarget on %s.%s",
							nodeRef(v), n, u.fd.Name, u.fd.Owner, u.fd.Owner, u.fd.Name),
					})
				}
			}
		}
	}
}

// maskedWord returns set[wi] restricted to the bits whose element IDs
// lie in [lo, hi) — the boundary masks of a word-at-a-time walk over a
// chunk range. Interior words pass through untouched.
func maskedWord(set []uint64, wi, lo, hi int) uint64 {
	word := set[wi]
	if base := wi << 6; base < lo {
		word &= ^uint64(0) << (uint(lo) & 63)
	}
	if end := hi - wi<<6; end < 64 {
		word &= 1<<uint(end) - 1
	}
	return word
}

// nodeKernels runs the word-level rule kernels over [lo, hi): SS1
// (every live node of a non-object-type label violates) and DS5
// (@required attribute presence) are per-label set operations — the
// label's node bitset against the property-presence bitsets — so on a
// conformant graph they cost one AND-NOT per 64 nodes and touch no
// per-node state at all.
func (r *runner) nodeKernels(w fusedWant, emit emitFunc, kern *boundKernels, lo, hi int) {
	b := r.bind
	snap := b.snap
	wlo, whi := lo>>6, (hi+63)>>6
	for symi, set := range kern.labelBits {
		if set == nil {
			continue
		}
		bl := b.labels[symi]
		label := bl.label
		if w.ss1 && bl.oblig&obSS1 != 0 {
			for wi := wlo; wi < whi; wi++ {
				word := maskedWord(set, wi, lo, hi)
				for word != 0 {
					v := pg.NodeID(wi<<6 + bits.TrailingZeros64(word))
					word &= word - 1
					if r.drop() {
						continue
					}
					emit(Violation{
						Rule: SS1, Node: v, Edge: -1, TypeName: label,
						Message: fmt.Sprintf("%s: label %q is not an object type of the schema", nodeRef(v), label),
					})
				}
			}
		}
		if w.ds5 && bl.oblig&obDS5 != 0 {
			for i := range bl.reqAttrs {
				req := &bl.reqAttrs[i]
				pwords := snap.NodePropWords(req.sym)
				isList := req.fd.Type.IsList()
				for wi := wlo; wi < whi; wi++ {
					labelWord := maskedWord(set, wi, lo, hi)
					if labelWord == 0 {
						continue
					}
					var have uint64
					if wi < len(pwords) {
						have = pwords[wi]
					}
					miss := labelWord &^ have
					for miss != 0 {
						v := pg.NodeID(wi<<6 + bits.TrailingZeros64(miss))
						miss &= miss - 1
						if r.drop() {
							continue
						}
						emit(Violation{
							Rule: DS5, Node: v, Edge: -1,
							TypeName: req.fd.Owner, Field: req.fd.Name, Property: req.fd.Name,
							Message: fmt.Sprintf("%s (%s): missing property %q required by @required on %s.%s",
								nodeRef(v), label, req.fd.Name, req.fd.Owner, req.fd.Name),
						})
					}
					if isList {
						present := labelWord & have
						for present != 0 {
							v := pg.NodeID(wi<<6 + bits.TrailingZeros64(present))
							present &= present - 1
							if val, ok := snap.NodePropBySym(v, req.sym); ok && val.Kind() == values.KindList && val.Len() == 0 && !r.drop() {
								emit(Violation{
									Rule: DS5, Node: v, Edge: -1,
									TypeName: req.fd.Owner, Field: req.fd.Name, Property: req.fd.Name,
									Message: fmt.Sprintf("%s (%s): property %q is an empty list, but @required on %s.%s demands a nonempty list",
										nodeRef(v), label, req.fd.Name, req.fd.Owner, req.fd.Name),
								})
							}
						}
					}
				}
			}
		}
	}
}

// ds1MapThreshold is the out-degree above which DS1's duplicate-target
// detection switches from the linear scan over the scratch list to the
// map — the list is allocation- and hash-free but quadratic in degree.
const ds1MapThreshold = 128

// fusedNodePassDense is the dense-range node pass: SS1 and DS5 run as
// word kernels, and the remaining rules walk the live-node bitset with
// bits.TrailingZeros64, gating each node's body on its label's
// obligation mask — so a conformant node with no properties and no
// obligations costs a handful of word operations, with no per-rule
// branches. It emits exactly the violation set fusedNodePass emits over
// the same range (the order differs; the collector sorts canonically).
func (r *runner) fusedNodePassDense(w fusedWant, emit emitFunc, lo, hi int, sc *fusedScratch) {
	b := r.bind
	snap := b.snap
	kern := b.kernels()
	if w.ss1 || w.ds5 {
		r.nodeKernels(w, emit, kern, lo, hi)
	}
	walk := wantMask(w) &^ (obSS1 | obDS5)
	needProps := w.ws1 || w.ss2
	if walk == 0 && !needProps {
		return
	}
	labelCol := snap.NodeLabelColumn()
	live := kern.liveNodes
	wlo, whi := lo>>6, (hi+63)>>6
	for wi := wlo; wi < whi; wi++ {
		word := maskedWord(live, wi, lo, hi)
		for word != 0 {
			v := pg.NodeID(wi<<6 + bits.TrailingZeros64(word))
			word &= word - 1
			bl := b.labels[labelCol[v]]
			need := bl.oblig & walk
			plo, phi := 0, 0
			if needProps {
				plo, phi = snap.NodePropRow(v)
			}
			if need == 0 && plo == phi {
				continue
			}
			label := bl.label

			// WS1 + SS2 share the flat property row.
			{
				for i := plo; i < phi; i++ {
					pr := snap.NodePropAt(i)
					var slot fieldSlot
					if bl.fields != nil {
						slot = bl.fields[pr.Sym]
					}
					if slot.fd == nil {
						if w.ss2 && !r.drop() {
							emit(Violation{
								Rule: SS2, Node: v, Edge: -1, TypeName: label, Property: pr.Name,
								Message: fmt.Sprintf("%s (%s): property %q is not declared as a field of %s", nodeRef(v), label, pr.Name, label),
							})
						}
						continue
					}
					if !slot.isAttr {
						if w.ss2 && !r.drop() {
							emit(Violation{
								Rule: SS2, Node: v, Edge: -1, TypeName: label, Field: pr.Name, Property: pr.Name,
								Message: fmt.Sprintf("%s (%s): property %q corresponds to relationship field %s.%s of type %s, not an attribute",
									nodeRef(v), label, pr.Name, label, pr.Name, slot.fd.Type),
							})
						}
						continue
					}
					if w.ws1 && !slot.check(pr.Value) && !r.drop() {
						emit(Violation{
							Rule: WS1, Node: v, Edge: -1,
							TypeName: label, Field: pr.Name, Property: pr.Name,
							Message: fmt.Sprintf("%s (%s): property %q = %s is not in valuesW(%s)",
								nodeRef(v), label, pr.Name, pr.Value, slot.fd.Type),
						})
					}
				}
			}

			// WS4: only a node with ≥ 2 out-edges can repeat a label.
			if need&obWS4 != 0 && snap.OutDegree(v) >= 2 {
				sc.touched = sc.touched[:0]
				for _, e := range snap.OutEdgesOf(v) {
					ls := snap.EdgeLabelSym(e)
					if sc.counts[ls] == 0 {
						sc.touched = append(sc.touched, ls)
					}
					sc.counts[ls]++
				}
				for _, ls := range sc.touched {
					n := sc.counts[ls]
					sc.counts[ls] = 0
					if n < 2 {
						continue
					}
					slot := bl.fields[ls]
					if slot.fd == nil || slot.fd.Type.IsList() || r.drop() {
						continue
					}
					f := r.g.SymName(ls)
					emit(Violation{
						Rule: WS4, Node: v, Edge: -1,
						TypeName: label, Field: f,
						Message: fmt.Sprintf("%s (%s): %d outgoing %q edges, but %s.%s has non-list type %s (at most one edge allowed)",
							nodeRef(v), label, n, f, label, f, slot.fd.Type),
					})
				}
			}

			// Source-side directive rules, fused into one adjacency scan
			// per declaration (DS1 + DS2 + DS6 together; a @required-only
			// declaration breaks at the first matching edge).
			if need&(obDS1|obDS2|obDS6) != 0 {
				for i := range bl.srcRel {
					d := &bl.srcRel[i]
					doDS1 := w.ds1 && d.distinct
					doDS2 := w.ds2 && d.noLoops
					doDS6 := w.ds6 && d.required
					if !doDS1 && !doDS2 && !doDS6 {
						continue
					}
					edges := snap.OutEdgesOf(v)
					found := false
					if doDS1 || doDS2 {
						useMap := doDS1 && len(edges) > ds1MapThreshold
						if doDS1 && !useMap {
							sc.dsts = sc.dsts[:0]
						}
						for _, e := range edges {
							if snap.EdgeLabelSym(e) != d.sym {
								continue
							}
							found = true
							_, dst := snap.Endpoints(e)
							if doDS2 && dst == v && !r.drop() {
								emit(Violation{
									Rule: DS2, Node: v, Edge: e,
									TypeName: d.fd.Owner, Field: d.fd.Name,
									Message: fmt.Sprintf("%s: %q loop edge violates @noLoops on %s.%s",
										nodeRef(v), d.fd.Name, d.fd.Owner, d.fd.Name),
								})
							}
							if doDS1 {
								dup := int32(0)
								if useMap {
									sc.seen[dst]++
									dup = sc.seen[dst] - 1
								} else {
									for _, prev := range sc.dsts {
										if prev == dst {
											dup++
										}
									}
									sc.dsts = append(sc.dsts, dst)
								}
								if dup == 1 && !r.drop() {
									emit(Violation{
										Rule: DS1, Node: v, Edge: e,
										TypeName: d.fd.Owner, Field: d.fd.Name,
										Message: fmt.Sprintf("%s: multiple %q edges to %s violate @distinct on %s.%s",
											nodeRef(v), d.fd.Name, nodeRef(dst), d.fd.Owner, d.fd.Name),
									})
								}
							}
						}
						if doDS1 && useMap && len(sc.seen) > 0 {
							clear(sc.seen)
						}
					} else {
						for _, e := range edges {
							if snap.EdgeLabelSym(e) == d.sym {
								found = true
								break
							}
						}
					}
					if doDS6 && !found && !r.drop() {
						emit(Violation{
							Rule: DS6, Node: v, Edge: -1,
							TypeName: d.fd.Owner, Field: d.fd.Name,
							Message: fmt.Sprintf("%s (%s): no outgoing %q edge, violating @required on %s.%s",
								nodeRef(v), label, d.fd.Name, d.fd.Owner, d.fd.Name),
						})
					}
				}
			}

			// DS3 (target side): at most one incoming @uniqueForTarget edge.
			if need&obDS3 != 0 {
				for i := range bl.uftIn {
					u := &bl.uftIn[i]
					n := 0
					var second pg.EdgeID = -1
					for _, e := range snap.InEdgesOf(v) {
						if snap.EdgeLabelSym(e) != u.sym {
							continue
						}
						src, _ := snap.Endpoints(e)
						if !b.labels[snap.NodeLabelSym(src)].sub[u.ownerID] {
							continue
						}
						n++
						if n == 2 {
							second = e
						}
					}
					if n > 1 && !r.drop() {
						emit(Violation{
							Rule: DS3, Node: v, Edge: second,
							TypeName: u.fd.Owner, Field: u.fd.Name,
							Message: fmt.Sprintf("%s: %d incoming %q edges from %s nodes violate @uniqueForTarget on %s.%s",
								nodeRef(v), n, u.fd.Name, u.fd.Owner, u.fd.Owner, u.fd.Name),
						})
					}
				}
			}
		}
	}
}

// fusedEdgePass evaluates WS2, WS3, SS3, and SS4 for every live edge in
// [lo, hi), reading the snapshot's flat edge columns. As in
// fusedNodePass, a non-nil list switches the pass from the dense ID
// range to list[lo:hi].
func (r *runner) fusedEdgePass(w fusedWant, emit emitFunc, list []pg.EdgeID, lo, hi int) {
	b := r.bind
	snap := b.snap
	for ei := lo; ei < hi; ei++ {
		e := pg.EdgeID(ei)
		if list != nil {
			e = list[ei]
		}
		els := snap.EdgeLabelSym(e)
		if els == pg.NoSym {
			continue // removed edge
		}
		r.fusedEdgeCheck(w, emit, e, els)
	}
}

// fusedEdgePassDense is fusedEdgePass over the dense ID range [lo, hi),
// walking the live-edge bitset word-at-a-time so tombstones cost word
// operations instead of a per-element label load and branch.
func (r *runner) fusedEdgePassDense(w fusedWant, emit emitFunc, lo, hi int) {
	b := r.bind
	labelCol := b.snap.EdgeLabelColumn()
	live := b.kernels().liveEdges
	wlo, whi := lo>>6, (hi+63)>>6
	for wi := wlo; wi < whi; wi++ {
		word := maskedWord(live, wi, lo, hi)
		for word != 0 {
			e := pg.EdgeID(wi<<6 + bits.TrailingZeros64(word))
			word &= word - 1
			r.fusedEdgeCheck(w, emit, e, labelCol[e])
		}
	}
}

// fusedEdgeCheck evaluates the edge-pass rules for one live edge — the
// shared body of the list and dense edge passes.
func (r *runner) fusedEdgeCheck(w fusedWant, emit emitFunc, e pg.EdgeID, els pg.Sym) {
	b := r.bind
	snap := b.snap
	{
		src, dst := snap.Endpoints(e)
		srcInfo := b.labels[snap.NodeLabelSym(src)]
		srcLabel := srcInfo.label
		elabel := r.g.SymName(els)
		var slot fieldSlot
		if srcInfo.fields != nil {
			slot = srcInfo.fields[els]
		}
		fd := slot.fd

		// SS4: the edge label must be a declared relationship field.
		if w.ss4 {
			switch {
			case fd == nil:
				if !r.drop() {
					emit(Violation{
						Rule: SS4, Node: src, Edge: e, TypeName: srcLabel, Field: elabel,
						Message: fmt.Sprintf("%s: label %q is not a declared field of %s", edgeRef(e), elabel, srcLabel),
					})
				}
			case slot.isAttr:
				if !r.drop() {
					emit(Violation{
						Rule: SS4, Node: src, Edge: e, TypeName: srcLabel, Field: elabel,
						Message: fmt.Sprintf("%s: label %q corresponds to attribute field %s.%s of type %s, not a relationship",
							edgeRef(e), elabel, srcLabel, elabel, fd.Type),
					})
				}
			}
		}

		// WS2 + SS3 share the flat edge-property row.
		if w.ws2 || w.ss3 {
			plo, phi := snap.EdgePropRow(e)
			for i := plo; i < phi; i++ {
				pr := snap.EdgePropAt(i)
				var arg *boundArg
				for j := range slot.args {
					if slot.args[j].sym == pr.Sym {
						arg = &slot.args[j]
						break
					}
				}
				if arg == nil {
					if w.ss3 && !r.drop() {
						emit(Violation{
							Rule: SS3, Node: src, Edge: e, TypeName: srcLabel, Field: elabel, Property: pr.Name,
							Message: fmt.Sprintf("%s (%s): property %q is not a declared argument of %s.%s",
								edgeRef(e), elabel, pr.Name, srcLabel, elabel),
						})
					}
					continue
				}
				if w.ws2 && !arg.check(pr.Value) && !r.drop() {
					emit(Violation{
						Rule: WS2, Node: src, Edge: e,
						TypeName: fd.Owner, Field: fd.Name, Property: pr.Name,
						Message: fmt.Sprintf("%s (%s): property %q = %s is not in valuesW(%s)",
							edgeRef(e), fd.Name, pr.Name, pr.Value, arg.arg.Type),
					})
				}
			}
		}

		// WS3: the target's label must subtype the field's base type.
		if w.ws3 && fd != nil {
			dls := snap.NodeLabelSym(dst)
			if !b.labels[dls].sub[slot.baseID] && !r.drop() {
				base := fd.Type.Base()
				emit(Violation{
					Rule: WS3, Node: dst, Edge: e,
					TypeName: srcLabel, Field: fd.Name,
					Message: fmt.Sprintf("%s (%s): target %s has label %q, which is not a subtype of basetype(%s) = %s",
						edgeRef(e), fd.Name, nodeRef(dst), r.g.SymName(dls), fd.Type, base),
				})
			}
		}
	}
}

// ds4Fused evaluates DS4 for the declaration's target nodes in [lo, hi)
// of its enumeration — the snapshot's node lists of its target labels,
// concatenated; decl < 0 means every declaration over its full range
// (the unchunked task shape).
func (r *runner) ds4Fused(emit emitFunc, decl, lo, hi int) {
	b := r.bind
	if decl < 0 {
		for d := range b.reqTargets {
			r.ds4Fused(emit, d, 0, b.targetCount(d))
		}
		return
	}
	rt := &b.reqTargets[decl]
	for _, l := range rt.targetLabels {
		nodes := b.snap.LabelNodes(l)
		for _, v2 := range nodes[min(lo, len(nodes)):min(hi, len(nodes))] {
			r.ds4Check(emit, rt, v2)
		}
		lo, hi = max(lo-len(nodes), 0), hi-len(nodes)
		if hi <= 0 {
			return
		}
	}
}

// targetCount is the size of declaration d's DS4 target enumeration.
func (b *binding) targetCount(d int) int {
	n := 0
	for _, l := range b.reqTargets[d].targetLabels {
		n += len(b.snap.LabelNodes(l))
	}
	return n
}

// ds4Check tests one candidate target node against one declaration —
// the shared kernel of the full enumeration sweep and the dirty pass.
func (r *runner) ds4Check(emit emitFunc, rt *boundReqTarget, v2 pg.NodeID) {
	b := r.bind
	snap := b.snap
	found := false
	for _, e := range snap.InEdgesOf(v2) {
		if snap.EdgeLabelSym(e) != rt.sym {
			continue
		}
		src, _ := snap.Endpoints(e)
		if b.labels[snap.NodeLabelSym(src)].sub[rt.ownerID] {
			found = true
			break
		}
	}
	if !found && !r.drop() {
		emit(Violation{
			Rule: DS4, Node: v2, Edge: -1,
			TypeName: rt.fd.Owner, Field: rt.fd.Name,
			Message: fmt.Sprintf("%s (%s): no incoming %q edge from a %s node, violating @requiredForTarget on %s.%s",
				nodeRef(v2), r.g.SymName(snap.NodeLabelSym(v2)), rt.fd.Name, rt.fd.Owner, rt.fd.Owner, rt.fd.Name),
		})
	}
}

// ds4DirtyPass evaluates every DS4 declaration against the candidate
// nodes in list[lo:hi]: a node is a target of a declaration iff its
// current label is in the declaration's concrete-target sym set, the
// exact membership the full enumeration encodes — so checking dirty
// candidates against targetSyms yields the same violations a full
// sweep would, without materializing any enumeration.
func (r *runner) ds4DirtyPass(emit emitFunc, list []pg.NodeID, lo, hi int) {
	b := r.bind
	snap := b.snap
	for d := range b.reqTargets {
		rt := &b.reqTargets[d]
		for _, v := range list[lo:hi] {
			vls := snap.NodeLabelSym(v)
			if vls == pg.NoSym || !rt.targetSyms[vls] {
				continue
			}
			r.ds4Check(emit, rt, v)
		}
	}
}

// fusedChunk is one stealable unit of fused work: a contiguous element
// range of a node pass, edge pass, one DS4 declaration's target
// enumeration, one DS7 declaration's key conflicts, or the DS7 buckets
// an incremental run re-checks. A non-nil nodes/edges list redirects
// the range into that list, and each chunk carries its own rule set —
// incremental revalidation chunks its dirty sets this way, with
// different rules active per region.
type fusedChunk struct {
	kind   fusedTaskKind
	decl   int // DS4/DS7: index into binding.reqTargets/keys; -1 = all
	lo, hi int
	w      fusedWant
	nodes  []pg.NodeID
	edges  []pg.EdgeID
}

type fusedTaskKind int

const (
	taskNodePass fusedTaskKind = iota
	taskEdgePass
	taskDS4
	taskDS4Dirty
	taskDS7
	taskDS7Dirty

	numTaskKinds // count, for per-kind feedback accumulators
)

// span is the chunk's element span, for the scheduler's chunk-size
// histogram; whole-pass markers (DS4 all, DS7 all) count as 1.
func (t *fusedChunk) span() int {
	if n := t.hi - t.lo; n > 0 {
		return n
	}
	return 1
}

// run executes the chunk, emitting into emit. Dense ranges (nil
// node/edge lists) take the word-walk kernels; list chunks — the shape
// incremental revalidation plans — keep the per-element passes.
func (t fusedChunk) run(r *runner, sc *fusedScratch, emit emitFunc) {
	switch t.kind {
	case taskNodePass:
		if t.nodes == nil {
			r.fusedNodePassDense(t.w, emit, t.lo, t.hi, sc)
		} else {
			r.fusedNodePass(t.w, emit, t.nodes, t.lo, t.hi, sc)
		}
	case taskEdgePass:
		if t.edges == nil {
			r.fusedEdgePassDense(t.w, emit, t.lo, t.hi)
		} else {
			r.fusedEdgePass(t.w, emit, t.edges, t.lo, t.hi)
		}
	case taskDS4:
		r.ds4Fused(emit, t.decl, t.lo, t.hi)
	case taskDS4Dirty:
		r.ds4DirtyPass(emit, t.nodes, t.lo, t.hi)
	case taskDS7:
		r.ds7(emit, t.decl, t.lo, t.hi)
	default: // taskDS7Dirty
		r.ds7Buckets(emit, t.lo, t.hi)
	}
}

// rules returns the rules the chunk evaluates (already intersected with
// the requested set), for timing attribution.
func (t fusedChunk) rules() []Rule {
	switch t.kind {
	case taskNodePass:
		return t.w.active(nodePassRules)
	case taskEdgePass:
		return t.w.active(edgePassRules)
	case taskDS4, taskDS4Dirty:
		return []Rule{DS4}
	default: // taskDS7, taskDS7Dirty
		return []Rule{DS7}
	}
}

// Chunk sizing. Without feedback, aim for chunksPerWorker chunks per
// worker so the cursor can rebalance skew, but never smaller than
// minChunkSpan elements so tiny graphs don't drown in scheduling
// overhead (and tests on small graphs still exercise multi-chunk
// merges). With feedback — observed per-element pass costs on the
// compiled Program — size chunks toward targetChunkNs of work each, so
// dispatch overhead is a fixed small fraction of a chunk regardless of
// graph size, halving the span when previous runs measured high chunk
// skew (one chunk much slower than average means finer grains steal
// better).
const (
	minChunkSpan       = 16
	chunksPerWorker    = 16
	targetChunkNs      = 1e6 // ~1ms of work per chunk
	skewHalveThreshold = 2.0 // max/avg chunk time that triggers halving
	feedbackMinElems   = 1024
)

// defaultSpan is the feedback-free chunk span for a pass of the given
// element bound.
func defaultSpan(bound, workers int) int {
	span := (bound + workers*chunksPerWorker - 1) / (workers * chunksPerWorker)
	if span < minChunkSpan {
		span = minChunkSpan
	}
	return span
}

// adaptiveSpan sizes a pass's chunks from the program's scheduler
// feedback, falling back to defaultSpan when the task kind has no
// observations yet. The span is clamped to keep at least two chunks
// per worker whenever the pass is large enough to split that far.
func adaptiveSpan(kind fusedTaskKind, bound, workers int, fb *schedFeedback) int {
	if fb == nil || fb.nsPerElem[kind] <= 0 {
		return defaultSpan(bound, workers)
	}
	span := int(targetChunkNs / fb.nsPerElem[kind])
	if fb.skew[kind] > skewHalveThreshold {
		span /= 2
	}
	if span < minChunkSpan {
		span = minChunkSpan
	}
	if maxSpan := bound / (2 * workers); maxSpan >= minChunkSpan && span > maxSpan {
		span = maxSpan
	}
	return span
}

// appendRangeChunks splits [0, bound) into chunks of the given span and
// appends them as chunks of the kind.
func appendRangeChunks(chunks []fusedChunk, kind fusedTaskKind, decl, bound, span int) []fusedChunk {
	if bound <= 0 {
		return chunks
	}
	if span < 1 {
		span = 1
	}
	for lo := 0; lo < bound; lo += span {
		hi := lo + span
		if hi > bound {
			hi = bound
		}
		chunks = append(chunks, fusedChunk{kind: kind, decl: decl, lo: lo, hi: hi})
	}
	return chunks
}

// planFusedChunks plans the work units for the requested rules. Without
// ElementSharding each pass is one whole chunk (coarse tasks); with it
// the node and edge passes and every DS4 declaration split into many
// range chunks for the stealing cursor, as does every DS7 declaration's
// conflict list.
func (r *runner) planFusedChunks(w fusedWant, sharded bool, workers int, chunks []fusedChunk) []fusedChunk {
	b := r.bind
	nodePass := len(w.active(nodePassRules)) > 0
	edgePass := len(w.active(edgePassRules)) > 0
	if !sharded {
		if nodePass {
			chunks = append(chunks, fusedChunk{kind: taskNodePass, decl: -1, lo: 0, hi: b.snap.NodeBound()})
		}
		if edgePass {
			chunks = append(chunks, fusedChunk{kind: taskEdgePass, decl: -1, lo: 0, hi: b.snap.EdgeBound()})
		}
		if w.ds4 {
			chunks = append(chunks, fusedChunk{kind: taskDS4, decl: -1})
		}
		if w.ds7 {
			chunks = append(chunks, fusedChunk{kind: taskDS7, decl: -1})
		}
		for i := range chunks {
			chunks[i].w = w
		}
		return chunks
	}
	fb := b.p.sched.Load()
	if nodePass {
		bound := b.snap.NodeBound()
		chunks = appendRangeChunks(chunks, taskNodePass, -1, bound, adaptiveSpan(taskNodePass, bound, workers, fb))
	}
	if edgePass {
		bound := b.snap.EdgeBound()
		chunks = appendRangeChunks(chunks, taskEdgePass, -1, bound, adaptiveSpan(taskEdgePass, bound, workers, fb))
	}
	if w.ds4 {
		for d := range b.reqTargets {
			bound := b.targetCount(d)
			chunks = appendRangeChunks(chunks, taskDS4, d, bound, adaptiveSpan(taskDS4, bound, workers, fb))
		}
	}
	if w.ds7 {
		// Planning reads the conflict lists' lengths, so the key indexes
		// are built here, outside the timed chunks; a key-heavy graph
		// then splits its conflicts across workers.
		for d := range b.keys {
			bound := len(b.keyConflicts(d))
			chunks = appendRangeChunks(chunks, taskDS7, d, bound, adaptiveSpan(taskDS7, bound, workers, fb))
		}
	}
	for i := range chunks {
		chunks[i].w = w
	}
	return chunks
}

// attribute splits a pass's elapsed time across the rules it evaluated:
// each rule gets an equal share and the first rule absorbs the division
// remainder, so the per-rule durations sum exactly to the measured pass
// time. This is an attribution, not a per-rule measurement — the fused
// inner loop deliberately avoids per-rule clock reads.
func attribute(timings map[Rule]time.Duration, rules []Rule, elapsed time.Duration) {
	if len(rules) == 0 {
		return
	}
	share := elapsed / time.Duration(len(rules))
	rem := elapsed - share*time.Duration(len(rules))
	for i, r := range rules {
		timings[r] += share
		if i == 0 {
			timings[r] += rem
		}
	}
}

// fused runs the fused engine against the compiled program, sequentially
// or — when Options.Workers > 1 — on a work-stealing worker pool:
// workers claim range chunks off an atomic cursor and merge pooled
// per-chunk violation buffers into the collector (no mutex in the hot
// path). It returns the per-rule timings when Options.CollectTimings is
// set.
func (r *runner) fused(p *Program, rules []Rule, c *collector) (map[Rule]time.Duration, *sched.Stats) {
	r.bind = p.bindTo(r.g)
	w := wantRules(rules)
	if len(w.active(nodePassRules)) > 0 || len(w.active(edgePassRules)) > 0 {
		// The dense passes walk the live bitsets; build them outside the
		// timed chunks so the first chunk isn't charged for the build.
		r.bind.kernels()
	}
	workers := r.opts.Workers
	if workers <= 1 {
		workers = 1
	}
	sharded := r.opts.Workers > 1 && r.opts.ElementSharding
	cb := p.getChunkBuf()
	cb.chunks = r.planFusedChunks(w, sharded, workers, cb.chunks[:0])
	timings, st := r.runChunks(cb.chunks, rules, c)
	p.putChunkBuf(cb)
	return timings, st
}

// chunkBuf is a pooled chunk-plan buffer — behind a pointer so the pool
// round-trip never boxes a slice header.
type chunkBuf struct{ chunks []fusedChunk }

func (p *Program) getChunkBuf() *chunkBuf {
	cb, _ := p.chunkPool.Get().(*chunkBuf)
	if cb == nil {
		cb = &chunkBuf{}
	}
	return cb
}

func (p *Program) putChunkBuf(cb *chunkBuf) { p.chunkPool.Put(cb) }

// runChunks executes planned fused chunks — sequentially when the
// runner has one worker, else on the work-stealing scheduler — and
// returns per-rule timings when requested plus the run's scheduler
// telemetry. The runner's context is honored at chunk boundaries: a
// cancelled context stops before the next chunk claim, never mid-chunk,
// so every merged buffer holds whole-chunk results and the
// claimed-chunk-completes merge invariant survives cancellation.
//
// Both paths record per-kind element costs (and, in parallel, the
// measured efficiency and chunk skew) into the program's scheduler
// feedback, which adaptiveSpan and autotuneWorkers consult on later
// runs over the same program.
func (r *runner) runChunks(chunks []fusedChunk, rules []Rule, c *collector) (map[Rule]time.Duration, *sched.Stats) {
	var timings map[Rule]time.Duration
	if r.opts.CollectTimings {
		timings = make(map[Rule]time.Duration, len(rules))
		for _, rule := range rules {
			timings[rule] = 0 // every requested rule gets an entry
		}
	}
	p := r.bind.p

	if r.opts.Workers <= 1 {
		// Sequential: emit straight into the collector and keep scanning
		// passes after the cap fills until an emit is rejected, so a
		// sequential Truncated is exact (at pass granularity).
		sc := p.getScratch(r.bind.symCount)
		var st *sched.Stats
		if r.opts.SchedStats {
			st = &sched.Stats{Workers: 1, Chunks: len(chunks), PerWorker: make([]sched.WorkerStats, 1)}
			for i := range chunks {
				st.SpanHist[sched.SpanBucket(chunks[i].span())]++
			}
		}
		var obs schedFeedback
		var elems [numTaskKinds]int64
		start := time.Now()
		for i := range chunks {
			t := &chunks[i]
			if c.truncated() || r.cancelled() {
				break
			}
			t0 := time.Now()
			t.run(r, sc, c.emit)
			d := time.Since(t0)
			if timings != nil {
				attribute(timings, t.rules(), d)
			}
			if t.nodes == nil && t.edges == nil && t.hi > t.lo {
				obs.nsPerElem[t.kind] += float64(d) // summed ns; divided below
				elems[t.kind] += int64(t.hi - t.lo)
			}
			if st != nil {
				pw := &st.PerWorker[0]
				pw.Chunks++
				pw.Busy += d
				if d > pw.MaxChunk {
					pw.MaxChunk = d
				}
			}
		}
		if st != nil {
			st.Wall = time.Since(start)
			st.Busy = st.PerWorker[0].Busy
			st.MaxChunk = st.PerWorker[0].MaxChunk
		}
		note := false
		for k := range elems {
			if elems[k] >= feedbackMinElems {
				obs.nsPerElem[k] /= float64(elems[k])
				note = true
			} else {
				obs.nsPerElem[k] = 0
			}
		}
		if note {
			p.noteSched(&obs)
		}
		p.putScratch(sc)
		return timings, st
	}

	workers := r.opts.Workers
	pr := p.getParRun(workers, r.bind.symCount)
	body := func(worker, idx int) {
		pw := &pr.workers[worker]
		// Cancellation and cap checks happen per claim: chunks already
		// running finish and merge; unstarted ones are abandoned (or, for
		// the cap, skipped — a started chunk always merges, so overflow
		// among completed chunks is never lost; see collector.merge).
		if r.cancelled() || c.full() {
			return
		}
		t := &chunks[idx]
		t0 := time.Now()
		t.run(r, pw.sc, pw.emit)
		d := time.Since(t0)
		c.merge(pw.buf)
		pw.buf = pw.buf[:0]
		if timings != nil {
			if pw.timings == nil {
				pw.timings = make(map[Rule]time.Duration)
			}
			attribute(pw.timings, t.rules(), d)
		}
		if t.nodes == nil && t.edges == nil && t.hi > t.lo {
			k := t.kind
			pw.kindNs[k] += int64(d)
			pw.kindElems[k] += int64(t.hi - t.lo)
			pw.kindChunks[k]++
			if int64(d) > pw.kindMax[k] {
				pw.kindMax[k] = int64(d)
			}
		}
	}
	// Stats are always collected in parallel runs — the efficiency
	// feedback that drives worker autotuning needs them even when the
	// caller didn't ask to see them. When nobody will see them, the
	// Stats object itself is recycled from the pooled run state; when
	// the caller gets them (SchedStats), it must own a fresh one.
	var reuse *sched.Stats
	if !r.opts.SchedStats {
		reuse = pr.st
	}
	st := sched.Run(workers, len(chunks), body, sched.Options{
		Collect: true,
		Span:    func(i int) int { return chunks[i].span() },
		Reuse:   reuse,
	})
	if !r.opts.SchedStats {
		pr.st = st
	}

	// Post-run, single-threaded: merge per-worker timings (no mutex ever
	// touched the hot path) and fold the observations into the program's
	// feedback.
	obs := &schedFeedback{efficiency: st.Efficiency()}
	var ns, el, cnt, mx [numTaskKinds]int64
	for i := range pr.workers {
		pw := &pr.workers[i]
		if pw.timings != nil {
			for rule, d := range pw.timings {
				timings[rule] += d
			}
			pw.timings = nil
		}
		for k := 0; k < int(numTaskKinds); k++ {
			ns[k] += pw.kindNs[k]
			el[k] += pw.kindElems[k]
			cnt[k] += pw.kindChunks[k]
			if pw.kindMax[k] > mx[k] {
				mx[k] = pw.kindMax[k]
			}
		}
		pw.kindNs = [numTaskKinds]int64{}
		pw.kindElems = [numTaskKinds]int64{}
		pw.kindChunks = [numTaskKinds]int64{}
		pw.kindMax = [numTaskKinds]int64{}
	}
	for k := range ns {
		if el[k] >= feedbackMinElems {
			obs.nsPerElem[k] = float64(ns[k]) / float64(el[k])
			if cnt[k] > 0 {
				if avg := float64(ns[k]) / float64(cnt[k]); avg > 0 {
					obs.skew[k] = float64(mx[k]) / avg
				}
			}
		}
	}
	p.noteSched(obs)
	p.putParRun(pr)
	return timings, st
}

// parRun is the pooled per-run state of the parallel engine: one
// parWorker per worker, each holding reusable scratch, a violation
// buffer, and an emit closure bound to that buffer — so a warm parallel
// run allocates no per-chunk (or even per-worker) buffers and closures,
// the flat-allocation contract TestParallelAllocBudget pins.
type parRun struct {
	workers []parWorker

	// st is the recycled scheduler-telemetry object for runs where the
	// caller did not ask to see the stats (the common case).
	st *sched.Stats
}

type parWorker struct {
	sc      *fusedScratch
	buf     []Violation
	emit    emitFunc
	timings map[Rule]time.Duration

	// Per-task-kind accumulators for the scheduler feedback, reset
	// after every run's post-merge.
	kindNs, kindElems, kindChunks, kindMax [numTaskKinds]int64
}

// getScratch hands out a pooled sequential-pass scratch.
func (p *Program) getScratch(symCount int) *fusedScratch {
	sc, _ := p.scratchPool.Get().(*fusedScratch)
	if sc == nil {
		return newFusedScratch(symCount)
	}
	sc.resize(symCount)
	return sc
}

func (p *Program) putScratch(sc *fusedScratch) { p.scratchPool.Put(sc) }

// getParRun hands out the pooled parallel run state, sized for the
// worker count.
func (p *Program) getParRun(workers, symCount int) *parRun {
	pr, _ := p.runPool.Get().(*parRun)
	if pr == nil {
		pr = &parRun{}
	}
	if cap(pr.workers) < workers {
		// The emit closures capture element addresses, so growing must
		// rebuild the slice wholesale rather than append into it.
		pr.workers = make([]parWorker, workers)
	}
	pr.workers = pr.workers[:workers]
	for i := range pr.workers {
		pw := &pr.workers[i]
		if pw.sc == nil {
			pw.sc = newFusedScratch(symCount)
		} else {
			pw.sc.resize(symCount)
		}
		if pw.emit == nil {
			pw.emit = func(v Violation) { pw.buf = append(pw.buf, v) }
		}
	}
	return pr
}

func (p *Program) putParRun(pr *parRun) { p.runPool.Put(pr) }
