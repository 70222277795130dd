package pg

import (
	"cmp"
	"slices"
	"sync"

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
	byLabel  [][]NodeID // byLabel[sym]: live nodes labeled exactly sym, ascending

	mu   sync.Mutex
	keys map[Sym][]*keyIndex // by first label sym
}

// keyIndex groups the live nodes of one or more labels by their
// rendered key tuple over props. Bucket b holds nodes[off[b]:off[b+1]],
// label by label in the index's label order, ascending within a label
// (for a single label, plain ascending id order); buckets are numbered
// in the order their first node is met.
type keyIndex struct {
	labels, props []Sym
	once          sync.Once
	bucketOf      map[string]uint32 // rendered tuple → bucket
	off           []uint32
	nodes         []NodeID

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
	x.enumOnce.Do(func() { x.byLabel = s.buildLabelNodes() })
	if sym < 0 || int(sym) >= len(x.byLabel) {
		return nil
	}
	return x.byLabel[sym]
}

func (s *Snapshot) buildLabelNodes() [][]NodeID {
	counts := make([]int, len(s.symNames)+1)
	for _, ls := range s.nodeLabels {
		if ls != NoSym {
			counts[ls+1]++
		}
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	flat := make([]NodeID, counts[len(counts)-1])
	next := append([]int(nil), counts[:len(counts)-1]...)
	for v, ls := range s.nodeLabels {
		if ls != NoSym {
			flat[next[ls]] = NodeID(v)
			next[ls]++
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
// must be valid syms.
func (s *Snapshot) KeyBucketIn(labels, props []Sym, tuple string) []NodeID {
	if len(labels) == 0 {
		return nil
	}
	k := s.keyIndex(labels, props)
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
	k := s.keyIndex(labels, props)
	k.conflictOnce.Do(func() {
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
	})
	return k
}
