package pg

import (
	"bytes"
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"pgschema/internal/values"
)

// Derived snapshot indexes: the per-label node enumerations and the
// key-bucket indexes that root list scans, @key lookups and validation
// (DS4's target enumerations, DS7's key conflicts) read. They
// are pure functions of the snapshot's immutable content, so they are
// built lazily, once per snapshot, and shared by every reader bound to
// it — a query plan compiled for a new query text, or a validation
// run, pays no O(V) build when another reader already paid it on the
// same snapshot.
//
// A Snapshot holds them behind a pointer: Undo's by-value re-stamp of
// the pre-apply snapshot (identical content, new epoch) then shares the
// indexes already built instead of copying a lock.

// snapIndexes is the memo of one snapshot's derived indexes. Safe for
// concurrent use.
type snapIndexes struct {
	enumOnce sync.Once
	enumDone atomic.Bool // byLabel is built (set inside enumOnce)
	byLabel  [][]NodeID  // byLabel[sym]: live nodes labeled exactly sym, ascending
	labelTip []*tip      // labelTip[sym] guards in-place appends to byLabel[sym]

	mu   sync.Mutex
	keys map[Sym][]*keyIndex // by first label sym
}

// keyIndex groups the live nodes of one or more distinct labels by
// their rendered key tuple over props. A bucket lists its nodes label
// by label in the index's label order, ascending within a label (for a
// single label, plain ascending id order).
//
// A from-scratch build holds bucket b as nodes[off[b]:off[b+1]],
// buckets numbered in the order their first node is met. A patched
// index (base != nil) holds only the buckets that differ from base, the
// from-scratch build it descends from; every other bucket is base's.
type keyIndex struct {
	labels, props []Sym
	once          sync.Once
	built         atomic.Bool       // set after the build; before publication for a patched index
	bucketOf      map[string]uint32 // rendered tuple → bucket
	off           []uint32
	nodes         []NodeID

	base *keyIndex
	over map[string][]NodeID // tuple → bucket where it differs from base's (nil: now empty)

	conflictOnce sync.Once
	conflicts    []KeyConflict
}

// KeyConflict is one key bucket holding at least two nodes: the
// rendered tuple they agree on and the bucket itself.
type KeyConflict struct {
	Tuple string
	Nodes []NodeID
}

func newSnapIndexes() *snapIndexes { return &snapIndexes{keys: make(map[Sym][]*keyIndex)} }

// AppendKeyPart appends one component of a rendered key tuple to buf:
// "P"+Value.Key() for a present value, "A" for an absent one, each
// NUL-terminated. It is the single rendering behind the snapshot's
// key-bucket indexes (which DS7 and key lookups share) and a lookup's
// wanted tuple, so their buckets always agree. Value.Key is not
// injective across kinds, so a bucket hit must still be verified with
// values.Equal.
func AppendKeyPart(buf []byte, v values.Value, present bool) []byte {
	if present {
		buf = append(buf, 'P')
		buf = append(buf, v.Key()...)
	} else {
		buf = append(buf, 'A')
	}
	return append(buf, 0)
}

// LabelNodes returns the live nodes whose label is exactly sym (no
// subtype closure), in ascending id order; nil for NoSym or a label no
// live node carries. Every label's list is built in one counting pass
// of the label column on first use. The slice is shared — read-only.
func (s *Snapshot) LabelNodes(sym Sym) []NodeID {
	x := s.idx
	x.enumOnce.Do(func() {
		x.byLabel = s.buildLabelNodes()
		x.enumDone.Store(true)
	})
	if sym < 0 || int(sym) >= len(x.byLabel) {
		return nil
	}
	return slices.Clip(x.byLabel[sym])
}

func (s *Snapshot) buildLabelNodes() [][]NodeID {
	counts := make([]int, len(s.symNames)+1)
	for _, ch := range s.nodeLabels.chunks {
		for _, ls := range ch.data {
			if ls != NoSym {
				counts[ls+1]++
			}
		}
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	flat := make([]NodeID, counts[len(counts)-1])
	next := append([]int(nil), counts[:len(counts)-1]...)
	for ci, ch := range s.nodeLabels.chunks {
		for j, ls := range ch.data {
			if ls != NoSym {
				flat[next[ls]] = NodeID(ci<<ChunkShift + j)
				next[ls]++
			}
		}
	}
	out := make([][]NodeID, len(s.symNames))
	for sym := range out {
		if lo, hi := counts[sym], counts[sym+1]; lo < hi {
			out[sym] = flat[lo:hi:hi]
		}
	}
	return out
}

// KeyBucket returns the candidates for a key lookup: the live nodes
// labeled exactly label whose key tuple over props renders to tuple
// (see AppendKeyPart), in ascending id order. The index for (label,
// props) is built on first use and shared by every later caller; a
// prop that is NoSym renders absent for every node. Callers verify
// candidates with values.Equal. The slice is shared — read-only.
func (s *Snapshot) KeyBucket(label Sym, props []Sym, tuple string) []NodeID {
	if label < 0 {
		return nil
	}
	labels := [1]Sym{label}
	return s.KeyBucketIn(labels[:], props, tuple)
}

// KeyBucketIn is KeyBucket over the union of several labels — the
// nodes of an interface or union type. The bucket lists the nodes label
// by label in the order of labels, ascending within each label. Labels
// must be distinct valid syms.
func (s *Snapshot) KeyBucketIn(labels, props []Sym, tuple string) []NodeID {
	if len(labels) == 0 {
		return nil
	}
	return s.keyIndex(labels, props).lookup(tuple)
}

// lookup returns the bucket of tuple, nil when no node renders to it.
func (k *keyIndex) lookup(tuple string) []NodeID {
	if k.base != nil {
		if nodes, ok := k.over[tuple]; ok {
			return nodes
		}
		k = k.base
	}
	b, ok := k.bucketOf[tuple]
	if !ok {
		return nil
	}
	return k.bucket(b)
}

func (k *keyIndex) bucket(b uint32) []NodeID {
	lo, hi := k.off[b], k.off[b+1]
	return k.nodes[lo:hi:hi]
}

// KeyConflicts returns the buckets of the (labels, props) key index
// that hold at least two nodes, in the order their first node is met —
// DS7's violations. The list is built once per snapshot and shared —
// read-only.
func (s *Snapshot) KeyConflicts(labels, props []Sym) []KeyConflict {
	if len(labels) == 0 {
		return nil
	}
	return s.keyIndex(labels, props).conflictList(s)
}

// conflictList memoises KeyConflicts for k on s. A from-scratch build
// lists its buckets of two or more nodes by bucket number. A patched
// index takes its base's list less the overridden tuples, adds its
// overrides of two or more nodes, and re-sorts by first node in
// enumeration order — the order a from-scratch build would number
// them in.
func (k *keyIndex) conflictList(s *Snapshot) []KeyConflict {
	k.conflictOnce.Do(func() {
		if k.base != nil {
			for _, c := range k.base.conflictList(s) {
				if _, ok := k.over[c.Tuple]; !ok {
					k.conflicts = append(k.conflicts, c)
				}
			}
			for tuple, nodes := range k.over {
				if len(nodes) >= 2 {
					k.conflicts = append(k.conflicts, KeyConflict{Tuple: tuple, Nodes: nodes})
				}
			}
			order := k.enumOrder(s)
			slices.SortFunc(k.conflicts, func(x, y KeyConflict) int { return order(x.Nodes[0], y.Nodes[0]) })
			return
		}
		type numbered struct {
			b     uint32
			tuple string
		}
		var found []numbered
		for tuple, b := range k.bucketOf {
			if k.off[b+1]-k.off[b] >= 2 {
				found = append(found, numbered{b, tuple})
			}
		}
		slices.SortFunc(found, func(x, y numbered) int { return cmp.Compare(x.b, y.b) })
		k.conflicts = make([]KeyConflict, len(found))
		for i, f := range found {
			k.conflicts[i] = KeyConflict{Tuple: f.tuple, Nodes: k.bucket(f.b)}
		}
	})
	return k.conflicts
}

// enumOrder compares two of k's nodes of snapshot s by their position
// in k's enumeration: label position in k.labels, then id.
func (k *keyIndex) enumOrder(s *Snapshot) func(a, b NodeID) int {
	if len(k.labels) == 1 {
		return cmp.Compare[NodeID]
	}
	return func(a, b NodeID) int {
		return cmp.Or(
			cmp.Compare(slices.Index(k.labels, s.NodeLabelSym(a)), slices.Index(k.labels, s.NodeLabelSym(b))),
			cmp.Compare(a, b))
	}
}

// KeyTuple renders node v's key tuple over props — the string the key
// indexes bucket v under.
func (s *Snapshot) KeyTuple(v NodeID, props []Sym) string {
	return string(s.appendKeyTuple(nil, v, props))
}

func (s *Snapshot) appendKeyTuple(buf []byte, v NodeID, props []Sym) []byte {
	for _, p := range props {
		val, ok := s.NodePropBySym(v, p)
		buf = AppendKeyPart(buf, val, ok)
	}
	return buf
}

// keyIndex returns the built (labels, props) index, building it on
// first use: one pass numbers each node's bucket, a counting sort
// groups the nodes.
func (s *Snapshot) keyIndex(labels, props []Sym) *keyIndex {
	x := s.idx
	x.mu.Lock()
	var k *keyIndex
	for _, c := range x.keys[labels[0]] {
		if slices.Equal(c.labels, labels) && slices.Equal(c.props, props) {
			k = c
			break
		}
	}
	if k == nil {
		k = &keyIndex{labels: slices.Clone(labels), props: slices.Clone(props)}
		x.keys[labels[0]] = append(x.keys[labels[0]], k)
	}
	x.mu.Unlock()
	if k.built.Load() {
		return k
	}
	k.once.Do(func() {
		n := 0
		for _, l := range k.labels {
			n += len(s.LabelNodes(l))
		}
		k.bucketOf = make(map[string]uint32, n)
		of := make([]uint32, 0, n) // bucket of each node, in enumeration order
		var sizes []uint32
		var buf []byte
		for _, l := range k.labels {
			for _, v := range s.LabelNodes(l) {
				buf = s.appendKeyTuple(buf[:0], v, k.props)
				b, ok := k.bucketOf[string(buf)]
				if !ok {
					b = uint32(len(sizes))
					k.bucketOf[string(buf)] = b
					sizes = append(sizes, 0)
				}
				sizes[b]++
				of = append(of, b)
			}
		}
		k.off = make([]uint32, len(sizes)+1)
		for b, c := range sizes {
			k.off[b+1] = k.off[b] + c
		}
		next := sizes // reused as each bucket's fill cursor
		copy(next, k.off)
		k.nodes = make([]NodeID, n)
		i := 0
		for _, l := range k.labels {
			for _, v := range s.LabelNodes(l) {
				k.nodes[next[of[i]]] = v
				next[of[i]]++
				i++
			}
		}
		k.built.Store(true)
	})
	return k
}

// patchIndexes returns the memo of s, the snapshot the fold
// derived from old under plan p. Nothing is rebuilt from scratch: the
// label lists come forward with only the changed labels' lists
// rewritten, and every built key index comes forward — untouched ones
// as they are, touched ones patched (patchedKey), unless patching would
// outgrow the fold limit; the next reader rebuilds those.
func (x *snapIndexes) patchIndexes(old, s *Snapshot, p *patchPlan) *snapIndexes {
	nx := newSnapIndexes()
	if x.enumDone.Load() {
		byLabel, tips := x.patchLabelNodes(old, s, p)
		nx.enumOnce.Do(func() {
			nx.byLabel, nx.labelTip = byLabel, tips
			nx.enumDone.Store(true)
		})
	}
	touched := func(l Sym) bool {
		_, ok := p.touchedLabels[l]
		return ok
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	for first, ks := range x.keys {
		for _, k := range ks {
			if !k.built.Load() {
				continue
			}
			if slices.ContainsFunc(k.labels, touched) {
				if k = k.patchedKey(old, s, p.nodeDirty); k == nil {
					continue
				}
			}
			nx.keys[first] = append(nx.keys[first], k)
		}
	}
	return nx
}

// labelOf returns λ(v) in s, NoSym for a removed node or an id past
// s's bound.
func (s *Snapshot) labelOf(v NodeID) Sym {
	if int(v) >= s.NodeBound() {
		return NoSym
	}
	return s.NodeLabelSym(v)
}

// patchLabelNodes derives s's label lists from x's, those of old: only
// a label that gained or lost a dirty node gets a new list. A label that
// only gained appended nodes appends them to its list — in place when
// old's list is its tip (see tip), so that costs the delta; any other
// change rebuilds the label's list, the old one less the nodes it lost
// plus those it gained.
func (x *snapIndexes) patchLabelNodes(old, s *Snapshot, p *patchPlan) ([][]NodeID, []*tip) {
	if !p.nodeLabelsChanged {
		return x.byLabel, x.labelTip
	}
	type change struct{ gained, lost []NodeID } // ascending, as nodeDirty is
	changes := make(map[Sym]*change)
	at := func(l Sym) *change {
		c := changes[l]
		if c == nil {
			c = &change{}
			changes[l] = c
		}
		return c
	}
	for _, v := range p.nodeDirty {
		was, is := old.labelOf(v), s.labelOf(v)
		if was == is {
			continue
		}
		if was != NoSym {
			at(was).lost = append(at(was).lost, v)
		}
		if is != NoSym {
			at(is).gained = append(at(is).gained, v)
		}
	}
	if len(changes) == 0 {
		return x.byLabel, x.labelTip
	}
	n := max(len(x.byLabel), len(s.symNames))
	out, tips := make([][]NodeID, n), make([]*tip, n)
	copy(out, x.byLabel)
	copy(tips, x.labelTip)
	oldNN := NodeID(old.NodeBound())
	for l, c := range changes {
		if len(c.lost) == 0 && c.gained[0] >= oldNN {
			list, claimed := extend(out[l], tips[l])
			list = append(list, c.gained...)
			out[l], tips[l] = list, settleTip(tips[l], claimed, out[l], list)
			continue
		}
		list := make([]NodeID, 0, len(out[l])+len(c.gained))
		for _, v := range out[l] {
			if _, lost := slices.BinarySearch(c.lost, v); !lost {
				list = append(list, v)
			}
		}
		list = append(list, c.gained...)
		if len(c.gained) > 0 && c.gained[0] < oldNN {
			slices.Sort(list) // a relabelled node joins mid-list; new ids sort last
		}
		if len(list) == 0 {
			list = nil
		}
		out[l], tips[l] = list, nil
	}
	return out, tips
}

// patchedKey returns k carried forward from old to s across the dirty
// nodes (ascending): k itself when no dirty node entered, left or moved
// within k; otherwise a patched index whose overrides replace each
// bucket a dirty node left or joined, recomputed from the current
// bucket without the changed nodes plus the changed nodes that now
// render to it. It returns nil — a fold: the next reader rebuilds from
// scratch — when the overrides would outgrow 1/patchFraction of the
// base's buckets.
func (k *keyIndex) patchedKey(old, s *Snapshot, dirty []NodeID) *keyIndex {
	changed := make(map[NodeID]bool)
	joined := make(map[string][]NodeID) // affected tuple → changed nodes now in its bucket
	var was, is []byte
	for _, v := range dirty {
		oldL, newL := old.labelOf(v), s.labelOf(v)
		oldIn, newIn := oldL != NoSym && slices.Contains(k.labels, oldL), newL != NoSym && slices.Contains(k.labels, newL)
		if !oldIn && !newIn {
			continue
		}
		if oldIn {
			was = old.appendKeyTuple(was[:0], v, k.props)
		}
		if newIn {
			is = s.appendKeyTuple(is[:0], v, k.props)
		}
		if oldIn && newIn && oldL == newL && bytes.Equal(was, is) {
			continue
		}
		changed[v] = true
		if oldIn {
			if _, ok := joined[string(was)]; !ok {
				joined[string(was)] = nil
			}
		}
		if newIn {
			joined[string(is)] = append(joined[string(is)], v)
		}
	}
	if len(changed) == 0 {
		return k
	}
	base := k
	if k.base != nil {
		base = k.base
	}
	n := len(k.over)
	for tuple := range joined {
		if _, ok := k.over[tuple]; !ok {
			n++
		}
	}
	if n*patchFraction > len(base.off)-1 {
		return nil
	}
	over := make(map[string][]NodeID, n)
	maps.Copy(over, k.over)
	order := k.enumOrder(s)
	for tuple, in := range joined {
		cur := k.lookup(tuple)
		b := make([]NodeID, 0, len(cur)+len(in))
		for _, v := range cur {
			if !changed[v] {
				b = append(b, v)
			}
		}
		b = append(b, in...)
		slices.SortFunc(b, order)
		if len(b) == 0 {
			b = nil
		}
		over[tuple] = slices.Clip(b)
	}
	nk := &keyIndex{labels: k.labels, props: k.props, base: base, over: over}
	nk.built.Store(true)
	return nk
}

// VerifyIndexes checks the indexes built so far on the graph's cached
// snapshot — patched forward by a fold or built on it — against a
// from-scratch build over the same columns: every label list, and every
// key index's buckets and conflicts. It reports the first difference. It
// costs a full index build, so it is for tests and fuzz targets.
func (g *Graph) VerifyIndexes() error {
	s := g.snap.Load()
	if s == nil || s.epoch != g.epoch {
		return nil // no snapshot of the current state: nothing was patched
	}
	fresh := *s
	fresh.idx = newSnapIndexes()
	x := s.idx
	if x.enumDone.Load() {
		for sym := range max(len(x.byLabel), len(fresh.symNames)) {
			if got, want := s.LabelNodes(Sym(sym)), fresh.LabelNodes(Sym(sym)); !slices.Equal(got, want) {
				return fmt.Errorf("LabelNodes(sym %d) = %v, want %v", sym, got, want)
			}
		}
	}
	x.mu.Lock()
	var built []*keyIndex
	for _, ks := range x.keys {
		for _, k := range ks {
			if k.built.Load() {
				built = append(built, k)
			}
		}
	}
	x.mu.Unlock()
	for _, k := range built {
		want := fresh.keyIndex(k.labels, k.props)
		tuples := maps.Clone(want.bucketOf)
		maps.Copy(tuples, k.bucketOf)
		if k.base != nil {
			maps.Copy(tuples, k.base.bucketOf)
			for tuple := range k.over {
				tuples[tuple] = 0
			}
		}
		for tuple := range tuples {
			if got, want := k.lookup(tuple), want.lookup(tuple); !slices.Equal(got, want) {
				return fmt.Errorf("key index %v over %v: bucket %q = %v, want %v", k.labels, k.props, tuple, got, want)
			}
		}
		got, wantC := k.conflictList(s), want.conflictList(&fresh)
		for i := range max(len(got), len(wantC)) {
			if i >= len(got) || i >= len(wantC) || got[i].Tuple != wantC[i].Tuple || !slices.Equal(got[i].Nodes, wantC[i].Nodes) {
				return fmt.Errorf("key index %v over %v: conflicts differ from position %d (%d conflicts, want %d)", k.labels, k.props, i, len(got), len(wantC))
			}
		}
	}
	return nil
}
