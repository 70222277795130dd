package pg

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"pgschema/internal/values"
)

// Patched-index properties: whatever Apply, Undo or log replay does,
// every index a patched snapshot carries — label lists, key buckets,
// key conflicts — equals a from-scratch build of the same state
// (Graph.VerifyIndexes).

// keyedLabels are the labels the key indexes of keyedGraph range over;
// "Filler" nodes keep each delta a small fraction of the graph.
var keyedLabels = []string{"A", "B", "C"}

// keyValue draws a key value from a domain small enough that random
// edits create and dissolve conflicts, including an Int/Float pair that
// renders the same tuple.
func keyValue(rnd *rand.Rand) values.Value {
	switch n := rnd.Intn(64); {
	case n == 0:
		return values.Int(1)
	case n == 1:
		return values.Float(1)
	default:
		return values.ID(fmt.Sprintf("k%d", n))
	}
}

func keyedGraph(rnd *rand.Rand, fillers, keyed int) *Graph {
	g := New()
	for i := 0; i < fillers; i++ {
		g.AddNode("Filler")
	}
	for i := 0; i < keyed; i++ {
		v := g.AddNode(keyedLabels[i%len(keyedLabels)])
		if i%7 != 0 { // some nodes lack the key: they share the absent bucket
			g.SetNodeProp(v, "k", keyValue(rnd))
		}
		g.SetNodeProp(v, "j", values.Int(int64(i%3)))
		if i > 0 {
			g.MustAddEdge(v, NodeID(fillers+rnd.Intn(i)), "rel")
		}
	}
	return g
}

// keySpec names one key index the tests build: labels in index order
// and key properties.
type keySpec struct{ labels, props []string }

// keySpecs covers a single-label index, a two-label (interface) index
// in both label orders, a two-property key, and a key with few distinct
// tuples, which folds on almost every patch.
var keySpecs = []keySpec{
	{[]string{"A"}, []string{"k"}},
	{[]string{"A", "B"}, []string{"k"}},
	{[]string{"B", "A"}, []string{"k", "j"}},
	{[]string{"C"}, []string{"j"}},
}

func (ks keySpec) syms(t testing.TB, g *Graph) (labels, props []Sym) {
	t.Helper()
	for _, l := range ks.labels {
		s, ok := g.Sym(l)
		if !ok {
			t.Fatalf("label %s not interned", l)
		}
		labels = append(labels, s)
	}
	for _, p := range ks.props {
		s, ok := g.Sym(p)
		if !ok {
			t.Fatalf("property %s not interned", p)
		}
		props = append(props, s)
	}
	return labels, props
}

// touchIndexes makes sure every index of keySpecs and every label list
// is built on s (a patched one already is; a folded one rebuilds).
func touchIndexes(t testing.TB, g *Graph, s *Snapshot) {
	t.Helper()
	s.LabelNodes(0)
	for _, ks := range keySpecs {
		labels, props := ks.syms(t, g)
		s.KeyConflicts(labels, props)
	}
}

// patchedCount reports how many of keySpecs' indexes on s are patched
// (carry overrides over an older build).
func patchedCount(t testing.TB, g *Graph, s *Snapshot) int {
	n := 0
	for _, ks := range keySpecs {
		labels, props := ks.syms(t, g)
		if s.keyIndex(labels, props).base != nil {
			n++
		}
	}
	return n
}

// randomKeyedDelta draws one to three edits of keyed nodes: additions
// (sometimes new-labelled), removals — half of them the first node of
// a conflicting bucket of the interface index —, relabels across the
// keyed labels, key edits and deletions, and edge additions that dirty
// adjacency only.
func randomKeyedDelta(t testing.TB, g *Graph, rnd *rand.Rand) Delta {
	s := g.Snapshot()
	var live []NodeID
	for _, l := range keyedLabels {
		if sym, ok := g.Sym(l); ok {
			live = append(live, s.LabelNodes(sym)...)
		}
	}
	pick := func() NodeID { return live[rnd.Intn(len(live))] }
	var d Delta
	removed := map[NodeID]bool{}
	for range 1 + rnd.Intn(3) {
		switch rnd.Intn(8) {
		case 0:
			sp := AddNodeSpec{Label: keyedLabels[rnd.Intn(len(keyedLabels))]}
			if rnd.Intn(4) != 0 {
				sp.Props = append(sp.Props, PropEntry{Name: "k", Value: keyValue(rnd)})
			}
			sp.Props = append(sp.Props, PropEntry{Name: "j", Value: values.Int(int64(rnd.Intn(3)))})
			d.AddNodes = append(d.AddNodes, sp)
		case 1:
			if v := pick(); !removed[v] {
				removed[v] = true
				d.RemoveNodes = append(d.RemoveNodes, v)
			}
		case 2:
			labels, props := keySpecs[1].syms(t, g)
			if cs := s.KeyConflicts(labels, props); len(cs) > 0 {
				if v := cs[rnd.Intn(len(cs))].Nodes[0]; !removed[v] {
					removed[v] = true
					d.RemoveNodes = append(d.RemoveNodes, v)
				}
			}
		case 3:
			d.RelabelNodes = append(d.RelabelNodes, RelabelSpec{Node: pick(), Label: keyedLabels[rnd.Intn(len(keyedLabels))]})
		case 4, 5:
			d.SetNodeProps = append(d.SetNodeProps, NodePropSpec{Node: pick(), Name: "k", Value: keyValue(rnd)})
		case 6:
			d.DelNodeProps = append(d.DelNodeProps, NodePropDelSpec{Node: pick(), Name: "k"})
		case 7:
			d.AddEdges = append(d.AddEdges, AddEdgeSpec{Src: pick(), Dst: pick(), Label: "rel"})
		}
	}
	return d
}

// TestPatchedIndexesMatchFresh applies random keyed deltas, undoing
// some, and checks after each that every index the patched snapshot
// carries equals a fresh build — and that patching, not rebuilding, is
// what most steps did.
func TestPatchedIndexesMatchFresh(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		g := keyedGraph(rnd, 2000, 300)
		touchIndexes(t, g, g.Snapshot())
		patched, steps := 0, 300
		for step := range steps {
			u, err := g.Apply(randomKeyedDelta(t, g, rnd))
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if rnd.Intn(5) == 0 {
				if err := u.Undo(); err != nil {
					t.Fatal(err)
				}
			}
			if err := g.VerifyIndexes(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			s := g.Snapshot()
			touchIndexes(t, g, s)
			patched += patchedCount(t, g, s)
		}
		if patched < steps {
			t.Fatalf("seed %d: only %d patched indexes over %d steps", seed, patched, steps)
		}
	}
}

// TestPatchedKeyConflictOrder pins the conflict order of a two-label
// index (B before A) through the edits that move a bucket's first
// node: removing it, relabelling it across the index's labels, and a
// key edit that dissolves a conflict.
func TestPatchedKeyConflictOrder(t *testing.T) {
	g := New()
	for i := 0; i < 64; i++ {
		g.AddNode("Filler")
	}
	add := func(label, key string) NodeID {
		v := g.AddNode(label)
		g.SetNodeProp(v, "k", values.ID(key))
		return v
	}
	a0, a1 := add("A", "x"), add("A", "x")
	b0, b1 := add("B", "x"), add("B", "y")
	a2 := add("A", "y")
	for i := 0; i < 40; i++ { // lone buckets, so the edits below patch rather than fold
		add("A", fmt.Sprintf("u%d", i))
	}
	labels := []Sym{mustSym(t, g, "B"), mustSym(t, g, "A")}
	props := []Sym{mustSym(t, g, "k")}
	first := func() []NodeID {
		var out []NodeID
		for _, c := range g.Snapshot().KeyConflicts(labels, props) {
			out = append(out, c.Nodes[0])
		}
		return out
	}
	if got := first(); !slices.Equal(got, []NodeID{b0, b1}) {
		t.Fatalf("initial conflict anchors %v, want %v", got, []NodeID{b0, b1})
	}
	for _, step := range []struct {
		name string
		d    Delta
		want []NodeID
	}{
		// Bucket x loses its first node b0: A's a0 now leads it, after
		// bucket y's B node.
		{"remove first", Delta{RemoveNodes: []NodeID{b0}}, []NodeID{b1, a0}},
		// a1 becomes a B: it now leads bucket x, ahead of bucket y's b1.
		{"relabel into first label", Delta{RelabelNodes: []RelabelSpec{{Node: a1, Label: "B"}}}, []NodeID{a1, b1}},
		// a0 leaves bucket x for a bucket of its own: x dissolves.
		{"dissolve", Delta{SetNodeProps: []NodePropSpec{{Node: a0, Name: "k", Value: values.ID("z")}}}, []NodeID{b1}},
		// a2 joins bucket x again and b1's bucket y dissolves.
		{"move", Delta{SetNodeProps: []NodePropSpec{{Node: a2, Name: "k", Value: values.ID("x")}}}, []NodeID{a1}},
	} {
		before := g.Snapshot()
		if _, err := g.Apply(step.d); err != nil {
			t.Fatal(err)
		}
		if s := g.snap.Load(); s == before || s.Epoch() != g.Epoch() || s.keyIndex(labels, props).base == nil {
			t.Fatalf("%s: the key index was not patched", step.name)
		}
		if got := first(); !slices.Equal(got, step.want) {
			t.Fatalf("%s: conflict anchors %v, want %v", step.name, got, step.want)
		}
		if err := g.VerifyIndexes(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
	}
}

// TestPatchedKeyFolds: overrides may reach 1/patchFraction of the
// base's buckets; the apply that would outgrow it drops the index from
// the successor, the next reader rebuilds it from scratch, and the apply
// after that patches the new build.
func TestPatchedKeyFolds(t *testing.T) {
	g := New()
	for i := 0; i < 2000; i++ {
		g.AddNode("Filler")
	}
	var nodes []NodeID
	for i := 0; i < 80; i++ { // 80 buckets: up to 10 overrides patch
		v := g.AddNode("A")
		g.SetNodeProp(v, "k", values.Int(int64(i)))
		nodes = append(nodes, v)
	}
	label, props := mustSym(t, g, "A"), []Sym{mustSym(t, g, "k")}
	index := func(s *Snapshot) *keyIndex {
		for _, k := range s.idx.keys[label] {
			return k
		}
		return nil
	}
	s := g.Snapshot()
	s.KeyBucket(label, props, "")
	base := index(s)
	// Each edit moves one node to a fresh key: two overridden buckets.
	edit := func(i int) *Snapshot {
		t.Helper()
		if _, err := g.Apply(Delta{SetNodeProps: []NodePropSpec{{Node: nodes[i], Name: "k", Value: values.Int(int64(1000 + i))}}}); err != nil {
			t.Fatal(err)
		}
		if err := g.VerifyIndexes(); err != nil {
			t.Fatal(err)
		}
		return g.Snapshot()
	}
	for i := range 5 {
		k := index(edit(i))
		if k == nil || k.base != base || len(k.over) != 2*(i+1) {
			t.Fatalf("edit %d: want a patch of the first build with %d overrides, got %+v", i, 2*(i+1), k)
		}
	}
	s = edit(5)
	if k := index(s); k != nil {
		t.Fatalf("12 overrides over 80 buckets: want a fold, got an index with %d overrides", len(k.over))
	}
	if got := s.KeyBucket(label, props, string(AppendKeyPart(nil, values.Int(1005), true))); !slices.Equal(got, nodes[5:6]) {
		t.Fatalf("bucket of the last edit after the fold: %v", got)
	}
	rebuilt := index(s)
	if rebuilt == nil || rebuilt.base != nil {
		t.Fatal("the reader after a fold did not rebuild from scratch")
	}
	if k := index(edit(6)); k == nil || k.base != rebuilt || len(k.over) != 2 {
		t.Fatal("the apply after a fold did not patch the rebuilt index")
	}
}

// TestReplayPatchesBuiltIndexes replays a long log — undone records
// included — into a snapshot whose indexes were built before the
// replay: the one merged patch must carry them forward equal to a fresh
// build of the replayed state.
func TestReplayPatchesBuiltIndexes(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	live := keyedGraph(rnd, 6000, 300)
	dir := t.TempDir()
	snapPath, logPath := filepath.Join(dir, "t.pgsnap"), filepath.Join(dir, "t.pglog")
	if err := os.WriteFile(snapPath, snapBytes(t, live), 0o644); err != nil {
		t.Fatal(err)
	}
	id, err := ReadSnapshotID(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	l, err := CreateLog(logPath, id)
	if err != nil {
		t.Fatal(err)
	}
	for range 80 {
		d := randomKeyedDelta(t, live, rnd)
		rec := LogRecord{Before: live.Epoch(), Delta: d}
		u, err := live.Apply(d)
		if err != nil {
			t.Fatal(err)
		}
		if rnd.Intn(4) == 0 {
			if err := u.Undo(); err != nil {
				t.Fatal(err)
			}
			rec.Undone = true
		}
		rec.After = live.Epoch()
		if err := l.Append(&rec); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}

	g, err := OpenSnapshot(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	touchIndexes(t, g, g.Snapshot())
	info := ReplayInfo{Snapshot: id}
	if err := g.replay(data, &info); err != nil {
		t.Fatal(err)
	}
	if info.Records != 80 || g.Epoch() != live.Epoch() {
		t.Fatalf("replayed %d records to epoch %d, want 80 to %d", info.Records, g.Epoch(), live.Epoch())
	}
	s := g.snap.Load()
	if s.Epoch() != g.Epoch() || !s.idx.enumDone.Load() {
		t.Fatal("replay did not carry the label lists into its patched snapshot")
	}
	if err := g.VerifyIndexes(); err != nil {
		t.Fatal(err)
	}
	if string(canonicalBytes(t, g)) != string(canonicalBytes(t, live)) {
		t.Fatal("replayed state differs from the live graph")
	}
}

// TestPatchedIndexesConcurrentReaders reads the latest snapshot's
// indexes from several goroutines while applies patch successor
// snapshots from it — under -race this checks that patching only reads
// what readers share, and that readers need no lock once an index is
// built. Readers check each answer against the snapshot's own columns.
func TestPatchedIndexesConcurrentReaders(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	g := keyedGraph(rnd, 2000, 300)
	s0 := g.Snapshot()
	touchIndexes(t, g, s0)
	var specs [][2][]Sym
	for _, ks := range keySpecs {
		labels, props := ks.syms(t, g)
		specs = append(specs, [2][]Sym{labels, props})
	}
	var latest atomic.Pointer[Snapshot]
	latest.Store(s0)
	var stop atomic.Bool
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for r := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rr := rand.New(rand.NewSource(int64(r)))
			for !stop.Load() {
				s := latest.Load()
				if err := checkSnapshotReads(s, specs[rr.Intn(len(specs))], rr); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for step := range 150 {
		if _, err := g.Apply(randomKeyedDelta(t, g, rnd)); err != nil {
			t.Fatal(err)
		}
		s := g.Snapshot()
		touchIndexes(t, g, s)
		latest.Store(s)
		if step%10 == 0 {
			if err := g.VerifyIndexes(); err != nil {
				t.Fatal(err)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// checkSnapshotReads checks one key index and the label lists of s
// against s's columns: every conflict's nodes render its tuple, are at
// least two, and are in enumeration order; a random labelled node sits
// in its own bucket; label lists are ascending and exact.
func checkSnapshotReads(s *Snapshot, spec [2][]Sym, rr *rand.Rand) error {
	labels, props := spec[0], spec[1]
	for _, c := range s.KeyConflicts(labels, props) {
		if len(c.Nodes) < 2 {
			return fmt.Errorf("conflict %q of %d nodes", c.Tuple, len(c.Nodes))
		}
		for _, v := range c.Nodes {
			if s.KeyTuple(v, props) != c.Tuple {
				return fmt.Errorf("node %d in conflict %q renders %q", v, c.Tuple, s.KeyTuple(v, props))
			}
		}
	}
	for _, l := range labels {
		list := s.LabelNodes(l)
		for i, v := range list {
			if s.NodeLabelSym(v) != l || (i > 0 && list[i-1] >= v) {
				return fmt.Errorf("LabelNodes(%d)[%d] = %d is not an ascending node of the label", l, i, v)
			}
		}
		if len(list) > 0 {
			v := list[rr.Intn(len(list))]
			if !slices.Contains(s.KeyBucketIn(labels, props, s.KeyTuple(v, props)), v) {
				return fmt.Errorf("node %d missing from its own bucket", v)
			}
		}
	}
	return nil
}
