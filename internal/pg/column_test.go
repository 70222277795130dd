package pg

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"pgschema/internal/values"
)

// chunkedGraph is a keyed chain of cities spanning several column
// chunks: each node has a name (its key), a population and a tag list,
// each edge a weight.
func chunkedGraph(t testing.TB, n int) *Graph {
	t.Helper()
	var nb, eb strings.Builder
	nb.WriteString("id,label,name,pop,tags\n")
	eb.WriteString("source,target,label,w\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&nb, "c%d,City,city-%d,%d,\"[t%d]\"\n", i, i, i, i%5)
		if i > 0 {
			fmt.Fprintf(&eb, "c%d,c%d,twin,%d\n", i, i-1, i)
		}
	}
	g, err := ReadCSVStream(strings.NewReader(nb.String()), strings.NewReader(eb.String()))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// bases returns the graph as the two snapshot kinds a fold starts from:
// its heap columns, and a mapping of its .pgsnap image.
func bases(t *testing.T, g *Graph) map[string]func() *Graph {
	path := writeSnapFile(t, g)
	return map[string]func() *Graph{
		"heap": func() *Graph { return g.Clone() },
		"mapped": func() *Graph {
			m, err := OpenSnapshot(path)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { m.Close() })
			return m
		},
	}
}

// TestChunkedFoldMatchesRebuild folds random deltas — property writes,
// appends that cross chunk boundaries, relabels, removals — into a
// multi-chunk heap and mapped base, and checks each fold against a
// from-scratch build, row by row and as .pgsnap bytes, and that the
// base it folded from still reads as it did.
func TestChunkedFoldMatchesRebuild(t *testing.T) {
	for name, open := range bases(t, chunkedGraph(t, 3*chunkLen+100)) {
		t.Run(name, func(t *testing.T) {
			g := open()
			rnd := rand.New(rand.NewSource(1))
			for step := 0; step < 40; step++ {
				before := g.Snapshot()
				want := snapBytes(t, g)
				nb, eb := g.NodeBound(), g.EdgeBound()
				var d Delta
				for i := 0; i < 1+rnd.Intn(4); i++ {
					v := NodeID(rnd.Intn(nb))
					switch rnd.Intn(7) {
					case 0, 1:
						d.SetNodeProps = append(d.SetNodeProps, NodePropSpec{Node: v, Name: "pop", Value: values.String(fmt.Sprintf("p%d-%d", step, i))})
					case 2:
						d.AddNodes = append(d.AddNodes, AddNodeSpec{Label: "City", Props: []PropEntry{
							{Name: "name", Value: values.String(fmt.Sprintf("new-%d-%d", step, i))},
							{Name: "tags", Value: values.List(values.Int(int64(step)))},
						}})
						for k := 0; k < chunkLen/8; k++ {
							d.AddNodes = append(d.AddNodes, AddNodeSpec{Label: "Filler"})
						}
						d.AddEdges = append(d.AddEdges, AddEdgeSpec{Src: NewNodeRef(len(d.AddNodes) - 1), Dst: v, Label: "twin"})
					case 3:
						d.RelabelNodes = append(d.RelabelNodes, RelabelSpec{Node: v, Label: "Town"})
					case 4:
						d.DelNodeProps = append(d.DelNodeProps, NodePropDelSpec{Node: v, Name: "tags"})
					case 5:
						d.SetEdgeProps = append(d.SetEdgeProps, EdgePropSpec{Edge: EdgeID(rnd.Intn(eb)), Name: "w", Value: values.Float(float64(step))})
					case 6:
						d.RemoveNodes = append(d.RemoveNodes, v)
					}
				}
				if _, err := g.Apply(d); err != nil {
					continue // a random delta may name a removed element
				}
				snapEqual(t, g.Snapshot(), rebuilt(g))
				s := g.Snapshot()
				rowCount(t, "out", &s.out)
				rowCount(t, "in", &s.in)
				rowCount(t, "nodeProps", &s.nodeProps)
				rowCount(t, "edgeProps", &s.edgeProps)
				rowCount(t, "nodeRecs", &s.nodeRecs)
				rowCount(t, "edgeRecs", &s.edgeRecs)
				// A mapped fold's image keeps its overflow arena's stale
				// strings; a heap fold's must equal a rebuild's.
				if name == "heap" && !bytes.Equal(snapBytes(t, g), canonicalBytes(t, g)) {
					t.Fatalf("step %d: folded snapshot bytes differ from a rebuild", step)
				}
				var buf bytes.Buffer
				if err := WriteSnapshot(&buf, before); err != nil || !bytes.Equal(buf.Bytes(), want) {
					t.Fatalf("step %d: the fold changed the snapshot it folded from (%v)", step, err)
				}
			}
			if err := g.VerifyIndexes(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// rowCount checks a row column's tracked row total against its rows.
func rowCount[T any](t *testing.T, name string, c *col[T]) {
	t.Helper()
	n := 0
	for i := 0; i < c.n && len(c.chunks) > 0; i++ {
		n += c.rowLen(i)
	}
	if n != c.rows {
		t.Fatalf("%s: tracks %d rows, holds %d", name, c.rows, n)
	}
}

// TestStreamedColumnsExact: a CSV load keeps no spare capacity — every
// chunk of every column, offsets and bitset words included, is
// allocated at exactly its length.
func TestStreamedColumnsExact(t *testing.T) {
	s := chunkedGraph(t, 2*chunkLen+77).Snapshot()
	n := exactChunks(t, "nodeLabels", &s.nodeLabels) + exactChunks(t, "edgeLabels", &s.edgeLabels) +
		exactChunks(t, "edgeSrc", &s.edgeSrc) + exactChunks(t, "edgeDst", &s.edgeDst) +
		exactChunks(t, "out", &s.out) + exactChunks(t, "in", &s.in) +
		exactChunks(t, "nodeProps", &s.nodeProps) + exactChunks(t, "edgeProps", &s.edgeProps)
	for sym := range s.nodePropSet {
		n += exactChunks(t, fmt.Sprintf("nodePropSet[%d]", sym), &s.nodePropSet[sym])
	}
	if n < 24 {
		t.Fatalf("only %d chunks inspected", n)
	}
}

// exactChunks reports every chunk of c holding spare capacity, and
// returns the number of chunks.
func exactChunks[T any](t *testing.T, name string, c *col[T]) int {
	t.Helper()
	for ci, ch := range c.chunks {
		if len(ch.data) != cap(ch.data) || len(ch.off) != cap(ch.off) {
			t.Errorf("%s chunk %d: length %d, capacity %d; offsets %d/%d", name, ci, len(ch.data), cap(ch.data), len(ch.off), cap(ch.off))
		}
	}
	return len(c.chunks)
}

// pinnedView is what TestPinnedSnapshotImmutable reads off the pinned
// snapshot.
type pinnedView struct {
	label   Sym
	props   string
	pop     string
	list    []NodeID
	bucket  []NodeID
	outRows []EdgeID
}

func (p pinnedView) String() string {
	last := NodeID(-1)
	if len(p.list) > 0 {
		last = p.list[len(p.list)-1]
	}
	return fmt.Sprintf("{label %d, props %s, node 5 %s, %d listed ending %d, bucket %v, out %v}",
		p.label, p.props, p.pop, len(p.list), last, p.bucket, p.outRows)
}

// TestPinnedSnapshotImmutable: a fold appends to the overflow arena, the
// list table and a label's node list in place only from their tip, so a
// snapshot a reader still holds never changes. Apply A, pin A's
// snapshot, then Undo and Apply B — which folds from the same base and
// under a tip-blind rule would overwrite A's appended bytes — over and
// over while readers re-read A's new rows, arena strings, list values,
// label list and key-index answers. Run under -race.
func TestPinnedSnapshotImmutable(t *testing.T) {
	for name, open := range bases(t, chunkedGraph(t, chunkLen+10)) {
		t.Run(name, func(t *testing.T) {
			g := open()
			city, _ := g.Sym("City")
			nameSym, _ := g.Sym("name")
			keyProps := []Sym{nameSym}
			base := g.Snapshot()
			base.KeyBucket(city, keyProps, "") // build the key index, so folds patch it
			base.LabelNodes(city)
			add := func(tag string) Delta {
				return Delta{
					AddNodes: []AddNodeSpec{{Label: "City", Props: []PropEntry{
						{Name: "name", Value: values.String("pinned-" + tag)},
						{Name: "tags", Value: values.List(values.String(tag))},
					}}},
					AddEdges:     []AddEdgeSpec{{Src: NewNodeRef(0), Dst: 3, Label: "twin"}},
					SetNodeProps: []NodePropSpec{{Node: 5, Name: "pop", Value: values.String("pop-" + tag)}},
				}
			}
			// Two warm applies put the arena, list table and City list at
			// their tips, so A appends in place.
			for _, tag := range []string{"w1", "w2"} {
				if _, err := g.Apply(add(tag)); err != nil {
					t.Fatal(err)
				}
			}
			ua, err := g.Apply(add("A"))
			if err != nil {
				t.Fatal(err)
			}
			a := g.Snapshot()
			v := ua.NewNodes()[0]
			tuple := a.KeyTuple(v, keyProps)
			read := func() pinnedView {
				return pinnedView{
					label:   a.NodeLabelSym(v),
					props:   fmt.Sprint(a.NodePropsOf(v)),
					pop:     fmt.Sprint(a.NodePropsOf(5)),
					list:    slices.Clone(a.LabelNodes(city)),
					bucket:  slices.Clone(a.KeyBucket(city, keyProps, tuple)),
					outRows: slices.Clone(a.OutEdgesOf(v)),
				}
			}
			want := read()
			if !strings.Contains(want.props, "pinned-A") || !strings.Contains(want.pop, "pop-A") ||
				!slices.Equal(want.bucket, []NodeID{v}) || want.list[len(want.list)-1] != v {
				t.Fatalf("A's snapshot does not show A: %+v", want)
			}
			var stop atomic.Bool
			var wg sync.WaitGroup
			errs := make(chan string, 4)
			for r := 0; r < 3; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for !stop.Load() {
						if got := read(); fmt.Sprint(got) != fmt.Sprint(want) {
							errs <- fmt.Sprintf("pinned snapshot changed: %s, want %s", got, want)
							return
						}
					}
				}()
			}
			for i := 0; i < 20; i++ {
				if err := ua.Undo(); err != nil {
					t.Fatal(err)
				}
				if ua, err = g.Apply(add(fmt.Sprintf("B%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			stop.Store(true)
			wg.Wait()
			close(errs)
			for e := range errs {
				t.Fatal(e)
			}
			if got := read(); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("pinned snapshot changed: %s, want %s", got, want)
			}
			snapEqual(t, g.Snapshot(), rebuilt(g))
			if err := g.VerifyIndexes(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestApplyCostIndependentOfSize: a write costs its delta. The bytes one
// Apply allocates — a property set, or a node added with an edge — on a
// heap and a mapped base of ~10⁴ elements and of ~2·10⁵ stay within a
// factor of two of each other: a fold copies the chunks a dirty row
// falls in and the directories of the columns it touches, not the
// columns.
func TestApplyCostIndependentOfSize(t *testing.T) {
	perApply := func(t *testing.T, g *Graph, shape string) uint64 {
		n := g.NodeBound()
		delta := func(i int) Delta {
			if shape == "prop" {
				return Delta{SetNodeProps: []NodePropSpec{{Node: NodeID(i * 37 % n), Name: "pop", Value: values.String(fmt.Sprint("p", i))}}}
			}
			return Delta{
				AddNodes: []AddNodeSpec{{Label: "City", Props: []PropEntry{{Name: "name", Value: values.String(fmt.Sprint("new", i))}}}},
				AddEdges: []AddEdgeSpec{{Src: NewNodeRef(0), Dst: NodeID(i * 37 % n), Label: "twin"}},
			}
		}
		const warm, runs = 3, 10
		var ms0, ms1 runtime.MemStats
		for i := 0; i < warm+runs; i++ {
			if i == warm {
				runtime.ReadMemStats(&ms0)
			}
			if _, err := g.Apply(delta(i)); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&ms1)
		return (ms1.TotalAlloc - ms0.TotalAlloc) / runs
	}
	small, large := bases(t, chunkedGraph(t, 5_000)), bases(t, chunkedGraph(t, 100_000))
	for _, base := range []string{"heap", "mapped"} {
		for _, shape := range []string{"prop", "add"} {
			s, l := perApply(t, small[base](), shape), perApply(t, large[base](), shape)
			t.Logf("%s/%s: %d bytes per apply at ~10⁴ elements, %d at ~2·10⁵", base, shape, s, l)
			if l > 2*s {
				t.Errorf("%s/%s: an apply at ~2·10⁵ elements allocated %d bytes, more than twice the %d at ~10⁴", base, shape, l, s)
			}
		}
	}
}
