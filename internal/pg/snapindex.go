package pg

import (
	"slices"
	"strings"
	"sync"

	"pgschema/internal/values"
)

// Derived snapshot indexes: the per-label node enumerations and the
// key-bucket indexes that root list scans and @key lookups read. They
// are pure functions of the snapshot's immutable content, so they are
// built lazily, once per snapshot, and shared by every reader bound to
// it — a query plan compiled for a new query text pays no O(V) build
// when another plan already paid it on the same snapshot.
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
	keys map[Sym][]*keyIndex // by label sym
}

// keyIndex groups one label's live nodes by their rendered key tuple
// over props, each bucket in ascending node-id order.
type keyIndex struct {
	props   []Sym
	once    sync.Once
	buckets map[string][]NodeID
}

func newSnapIndexes() *snapIndexes { return &snapIndexes{keys: make(map[Sym][]*keyIndex)} }

// WriteKeyPart appends one component of a rendered key tuple:
// "P"+Value.Key() for a present value, "A" for an absent one, each
// NUL-terminated. It is the single rendering behind DS7's key buckets,
// the snapshot's key-bucket indexes and a lookup's wanted tuple, so
// their buckets always agree. Value.Key is not injective across kinds,
// so a bucket hit must still be verified with values.Equal.
func WriteKeyPart(sb *strings.Builder, v values.Value, present bool) {
	if present {
		sb.WriteByte('P')
		sb.WriteString(v.Key())
	} else {
		sb.WriteByte('A')
	}
	sb.WriteByte(0)
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
// (see WriteKeyPart), in ascending id order. The index for (label,
// props) is built on first use and shared by every later caller; a
// prop that is NoSym renders absent for every node. Callers verify
// candidates with values.Equal. The slice is shared — read-only.
func (s *Snapshot) KeyBucket(label Sym, props []Sym, tuple string) []NodeID {
	if label < 0 {
		return nil
	}
	k := s.idx.keyIndex(label, props)
	k.once.Do(func() { k.buckets = s.buildKeyIndex(label, props) })
	return k.buckets[tuple]
}

func (x *snapIndexes) keyIndex(label Sym, props []Sym) *keyIndex {
	x.mu.Lock()
	defer x.mu.Unlock()
	for _, k := range x.keys[label] {
		if slices.Equal(k.props, props) {
			return k
		}
	}
	k := &keyIndex{props: slices.Clone(props)}
	x.keys[label] = append(x.keys[label], k)
	return k
}

func (s *Snapshot) buildKeyIndex(label Sym, props []Sym) map[string][]NodeID {
	buckets := make(map[string][]NodeID)
	var sb strings.Builder
	for _, v := range s.LabelNodes(label) {
		sb.Reset()
		for _, p := range props {
			val, ok := s.NodePropBySym(v, p)
			WriteKeyPart(&sb, val, ok)
		}
		key := sb.String()
		buckets[key] = append(buckets[key], v)
	}
	return buckets
}
