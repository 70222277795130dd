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
				var sb strings.Builder
				for _, p := range props {
					val, ok := s.NodePropBySym(v, p)
					WriteKeyPart(&sb, val, ok)
				}
				tuples[sb.String()] = append(tuples[sb.String()], v)
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
	var sb strings.Builder
	WriteKeyPart(&sb, values.ID("x"), true)
	WriteKeyPart(&sb, values.Value{}, false)
	if got, want := sb.String(), "Ps:x\x00A\x00"; got != want {
		t.Fatalf("rendered %q, want %q", got, want)
	}
	var a, b strings.Builder
	WriteKeyPart(&a, values.Int(1), true)
	WriteKeyPart(&b, values.Float(1), true)
	if a.String() != b.String() {
		t.Fatalf("Int 1 renders %q, Float 1 renders %q", a.String(), b.String())
	}
}
