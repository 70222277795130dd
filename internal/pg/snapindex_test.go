package pg

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"pgschema/internal/values"
)

// indexFixture has two labels, a tombstone, an absent key, a duplicated
// key, and an Int/Float pair whose Value.Key renderings collide, after
// 64 filler nodes so that a small delta patches the snapshot instead of
// rebuilding it.
func indexFixture() *Graph {
	g := New()
	for i := 0; i < 64; i++ {
		g.AddNode("Filler")
	}
	for i, k := range []values.Value{values.ID("a"), values.Int(1), values.ID("a"), values.Float(1), values.ID("b")} {
		v := g.AddNode("Item")
		g.SetNodeProp(v, "k", k)
		if i == 1 {
			g.AddNode("Other")
		}
	}
	bare := g.AddNode("Item") // no key property
	g.RemoveNode(67)          // the second "a"; 64 keeps it
	g.MustAddEdge(bare, 0, "rel")
	return g
}

// checkIndexes compares a snapshot's derived indexes with a naive scan
// of its columns: exact-label live enumerations in ascending order, and
// key buckets holding exactly the label's nodes whose rendered tuple
// matches, ascending.
func checkIndexes(t *testing.T, g *Graph, s *Snapshot) {
	t.Helper()
	for _, name := range []string{"Item", "Other"} {
		sym, ok := g.Sym(name)
		if !ok {
			t.Fatalf("label %s not interned", name)
		}
		var want []NodeID
		for v := 0; v < s.NodeBound(); v++ {
			if s.NodeLabelSym(NodeID(v)) == sym {
				want = append(want, NodeID(v))
			}
		}
		if got := s.LabelNodes(sym); !slices.Equal(got, want) {
			t.Errorf("LabelNodes(%s) = %v, want %v", name, got, want)
		}
		kSym, _ := g.Sym("k")
		for _, props := range [][]Sym{{kSym}, {NoSym}, {kSym, NoSym}} {
			tuples := map[string][]NodeID{}
			for _, v := range want {
				var tuple []byte
				for _, p := range props {
					val, ok := s.NodePropBySym(v, p)
					tuple = AppendKeyPart(tuple, val, ok)
				}
				tuples[string(tuple)] = append(tuples[string(tuple)], v)
			}
			for tuple, ids := range tuples {
				if got := s.KeyBucket(sym, props, tuple); !slices.Equal(got, ids) {
					t.Errorf("KeyBucket(%s, %v, %q) = %v, want %v", name, props, tuple, got, ids)
				}
			}
			if got := s.KeyBucket(sym, props, "Ps:missing\x00"); got != nil {
				t.Errorf("KeyBucket(%s, %v) of a missing tuple = %v", name, props, got)
			}
		}
	}
	// The merged index over two labels, Other first: its buckets list
	// Other's nodes before Item's, and its conflicts are the buckets of
	// two or more nodes ordered by first node.
	var labels []Sym
	for _, name := range []string{"Other", "Item"} {
		sym, _ := g.Sym(name)
		labels = append(labels, sym)
	}
	kSym, _ := g.Sym("k")
	props := []Sym{kSym}
	tuples := map[string][]NodeID{}
	var enum []NodeID
	for _, l := range labels {
		for _, v := range s.LabelNodes(l) {
			enum = append(enum, v)
			val, ok := s.NodePropBySym(v, kSym)
			tuple := string(AppendKeyPart(nil, val, ok))
			if got := s.KeyTuple(v, props); got != tuple {
				t.Errorf("KeyTuple(%d) = %q, want %q", v, got, tuple)
			}
			tuples[tuple] = append(tuples[tuple], v)
		}
	}
	var conflicts []KeyConflict
	for tuple, ids := range tuples {
		if got := s.KeyBucketIn(labels, props, tuple); !slices.Equal(got, ids) {
			t.Errorf("KeyBucketIn(%q) = %v, want %v", tuple, got, ids)
		}
		if len(ids) >= 2 {
			conflicts = append(conflicts, KeyConflict{Tuple: tuple, Nodes: ids})
		}
	}
	// Other's lone node comes first in the enumeration, so the
	// conflicts are in first-met order, not in id order.
	slices.SortFunc(conflicts, func(a, b KeyConflict) int {
		return slices.Index(enum, a.Nodes[0]) - slices.Index(enum, b.Nodes[0])
	})
	got := s.KeyConflicts(labels, props)
	if !slices.EqualFunc(got, conflicts, func(a, b KeyConflict) bool {
		return a.Tuple == b.Tuple && slices.Equal(a.Nodes, b.Nodes)
	}) {
		t.Errorf("KeyConflicts = %v, want %v", got, conflicts)
	}
	if got := s.LabelNodes(NoSym); got != nil {
		t.Errorf("LabelNodes(NoSym) = %v", got)
	}
	if got := s.KeyBucket(NoSym, nil, ""); got != nil {
		t.Errorf("KeyBucket(NoSym) = %v", got)
	}
}

// TestSnapshotIndexesEveryConstructor checks the derived indexes on
// each way a snapshot is made: a rebuild, Apply's patch, Undo's
// re-stamp, a streamed CSV load, and a mapped .pgsnap.
func TestSnapshotIndexesEveryConstructor(t *testing.T) {
	g := indexFixture()
	built := g.Snapshot()
	checkIndexes(t, g, built)

	u, err := g.Apply(Delta{
		AddNodes:     []AddNodeSpec{{Label: "Item", Props: []PropEntry{{Name: "k", Value: values.ID("b")}}}},
		SetNodeProps: []NodePropSpec{{Node: 64, Name: "k", Value: values.ID("z")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	patched := g.snap.Load()
	if patched.Epoch() != g.Epoch() {
		t.Fatal("Apply did not patch the snapshot")
	}
	if patched.idx == built.idx {
		t.Fatal("patched snapshot shares the pre-apply indexes")
	}
	checkIndexes(t, g, patched)
	if err := u.Undo(); err != nil {
		t.Fatal(err)
	}
	restamped := g.Snapshot()
	if restamped == built || restamped.idx != built.idx {
		t.Fatal("Undo's re-stamped snapshot should be a new snapshot sharing the pre-apply indexes")
	}
	checkIndexes(t, g, restamped)

	streamed, err := ReadCSVStream(strings.NewReader("id,label,k\n1,Item,a\n2,Other,\n3,Item,1\n4,Item,a\n"),
		strings.NewReader("source,target,label\n1,3,rel\n"))
	if err != nil {
		t.Fatal(err)
	}
	checkIndexes(t, streamed, streamed.Snapshot())

	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, g.Snapshot()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.pgsnap")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	m1, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m1.Close()
	m2, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	checkIndexes(t, m1, m1.Snapshot())
	if m1.Snapshot().idx == m2.Snapshot().idx {
		t.Fatal("two graphs opened from one file share an index")
	}
}

// TestKeyPartRendering pins the tuple format: present values render
// "P"+Value.Key(), absent ones "A", each NUL-terminated — and Int 1 and
// Float 1 collide, which is why lookups verify with values.Equal.
func TestKeyPartRendering(t *testing.T) {
	tuple := AppendKeyPart(nil, values.ID("x"), true)
	tuple = AppendKeyPart(tuple, values.Value{}, false)
	if got, want := string(tuple), "Ps:x\x00A\x00"; got != want {
		t.Fatalf("rendered %q, want %q", got, want)
	}
	a, b := AppendKeyPart(nil, values.Int(1), true), AppendKeyPart(nil, values.Float(1), true)
	if string(a) != string(b) {
		t.Fatalf("Int 1 renders %q, Float 1 renders %q", a, b)
	}
}

// TestPatchCarriesUntouchedIndexes checks that a patched snapshot keeps
// the derived indexes the apply could not have changed: after a
// Book-only property edit, the Author key index is the very index the
// old snapshot built, and its buckets equal a fresh build's; the Book
// index is rebuilt. A node addition drops the label enumeration, and
// with it every index over the added node's label.
func TestPatchCarriesUntouchedIndexes(t *testing.T) {
	g := New()
	var books []NodeID
	for i := 0; i < 64; i++ {
		a := g.AddNode("Author")
		g.SetNodeProp(a, "name", values.String("author-"+string(rune('a'+i%20))))
		b := g.AddNode("Book")
		g.SetNodeProp(b, "pages", values.Int(int64(i)))
		g.MustAddEdge(a, b, "favoriteBook")
		books = append(books, b)
	}
	author, name := mustSym(t, g, "Author"), mustSym(t, g, "name")
	book, pages := mustSym(t, g, "Book"), mustSym(t, g, "pages")
	keyOf := func(s *Snapshot, label, prop Sym) *keyIndex {
		return s.keyIndex([]Sym{label}, []Sym{prop})
	}
	old := g.Snapshot()
	oldAuthors, oldBooks := keyOf(old, author, name), keyOf(old, book, pages)

	if _, err := g.Apply(Delta{SetNodeProps: []NodePropSpec{{Node: books[3], Name: "pages", Value: values.Int(999)}}}); err != nil {
		t.Fatal(err)
	}
	patched := g.Snapshot()
	if patched == old {
		t.Fatal("apply did not install a new snapshot")
	}
	if !patched.idx.enumDone.Load() {
		t.Fatal("label enumeration not carried over a property-only apply")
	}
	if k := keyOf(patched, author, name); k != oldAuthors {
		t.Fatal("Author key index rebuilt after a Book-only apply")
	}
	if k := keyOf(patched, book, pages); k == oldBooks {
		t.Fatal("Book key index carried over an apply that edited a Book")
	}
	fresh := g.buildSnapshot()
	for _, lp := range [][2]Sym{{author, name}, {book, pages}} {
		got, want := keyOf(patched, lp[0], lp[1]), keyOf(fresh, lp[0], lp[1])
		if !slices.Equal(got.off, want.off) || !slices.Equal(got.nodes, want.nodes) || len(got.bucketOf) != len(want.bucketOf) {
			t.Fatalf("index over %v differs from a fresh build", lp)
		}
		for tuple, b := range want.bucketOf {
			if gb, ok := got.bucketOf[tuple]; !ok || !slices.Equal(got.bucket(gb), want.bucket(b)) {
				t.Fatalf("index over %v: bucket %q differs from a fresh build", lp, tuple)
			}
		}
		if !slices.EqualFunc(patched.KeyConflicts(lp[:1], lp[1:]), fresh.KeyConflicts(lp[:1], lp[1:]), func(a, b KeyConflict) bool {
			return a.Tuple == b.Tuple && slices.Equal(a.Nodes, b.Nodes)
		}) {
			t.Fatalf("index over %v: conflicts differ from a fresh build", lp)
		}
	}

	before := keyOf(patched, author, name)
	if _, err := g.Apply(Delta{AddNodes: []AddNodeSpec{{Label: "Book"}}}); err != nil {
		t.Fatal(err)
	}
	added := g.Snapshot()
	if added.idx.enumDone.Load() {
		t.Fatal("label enumeration carried over a node addition")
	}
	if keyOf(added, author, name) != before {
		t.Fatal("Author key index rebuilt after a Book addition")
	}
	if got, want := added.LabelNodes(book), g.buildSnapshot().LabelNodes(book); !slices.Equal(got, want) {
		t.Fatalf("Book enumeration after an addition: %v, want %v", got, want)
	}
}
