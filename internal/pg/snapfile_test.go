package pg

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pgschema/internal/values"
)

// richGraph builds a graph exercising every serializable value kind —
// ints, floats, booleans, strings (including empty and non-ASCII), IDs,
// enums, nulls, lists, and nested lists — plus tombstoned elements, so
// a .pgsnap round trip covers the whole encoding surface.
func richGraph(t testing.TB) *Graph {
	t.Helper()
	g := New()
	a := g.AddNode("Person")
	b := g.AddNode("Person")
	c := g.AddNode("City")
	dead := g.AddNode("Ghost")
	g.SetNodeProp(a, "name", values.String("Åse 💚"))
	g.SetNodeProp(a, "age", values.Int(-7))
	g.SetNodeProp(a, "height", values.Float(1.75))
	g.SetNodeProp(a, "alive", values.Boolean(true))
	g.SetNodeProp(a, "id", values.ID("p-1"))
	g.SetNodeProp(a, "mood", values.Enum("HAPPY"))
	g.SetNodeProp(a, "nick", values.String(""))
	g.SetNodeProp(a, "gap", values.Null)
	g.SetNodeProp(b, "tags", values.List(values.String("x"), values.Int(3), values.Null))
	g.SetNodeProp(b, "matrix", values.List(
		values.List(values.Int(1), values.Int(2)),
		values.List(),
		values.List(values.String("deep"), values.List(values.Boolean(false))),
	))
	g.SetNodeProp(c, "name", values.String("Oslo"))
	e1 := g.MustAddEdge(a, b, "knows")
	g.MustAddEdge(a, c, "livesIn")
	eDead := g.MustAddEdge(b, c, "livesIn")
	g.SetEdgeProp(e1, "since", values.Int(2001))
	g.SetEdgeProp(e1, "weights", values.List(values.Float(0.5), values.Float(2)))
	g.RemoveEdge(eDead)
	g.RemoveNode(dead)
	return g
}

// snapBytes serializes the graph's snapshot in memory.
func snapBytes(t testing.TB, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, g.Snapshot()); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	return buf.Bytes()
}

// writeSnapFile serializes the graph's snapshot to a temp .pgsnap file.
func writeSnapFile(t testing.TB, g *Graph) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.pgsnap")
	if err := os.WriteFile(path, snapBytes(t, g), 0o644); err != nil {
		t.Fatalf("writing snapshot file: %v", err)
	}
	return path
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	for _, verify := range []bool{false, true} {
		name := "trusted"
		var opts []OpenOption
		if verify {
			name, opts = "verified", []OpenOption{Verify()}
		}
		t.Run(name, func(t *testing.T) {
			g := richGraph(t)
			want := g.Snapshot()
			mg, err := OpenSnapshot(writeSnapFile(t, g), opts...)
			if err != nil {
				t.Fatalf("OpenSnapshot: %v", err)
			}
			defer mg.Close()
			got := mg.Snapshot()
			if !got.Mapped() {
				t.Fatalf("opened snapshot is not record-backed")
			}
			snapEqual(t, got, want)
			if got.Epoch() != want.Epoch() {
				t.Fatalf("epoch: got %d, want %d", got.Epoch(), want.Epoch())
			}
			if mg.NumNodes() != g.NumNodes() || mg.NumEdges() != g.NumEdges() {
				t.Fatalf("live counts: got (%d,%d), want (%d,%d)",
					mg.NumNodes(), mg.NumEdges(), g.NumNodes(), g.NumEdges())
			}
		})
	}
}

// TestSnapshotFileRoundTripSecondGeneration writes a mapped (record-
// backed) snapshot back out — including one that grew a private
// overflow arena through Apply — and checks the copy still matches.
func TestSnapshotFileRoundTripSecondGeneration(t *testing.T) {
	g := richGraph(t)
	mg, err := OpenSnapshot(writeSnapFile(t, g))
	if err != nil {
		t.Fatalf("OpenSnapshot: %v", err)
	}
	defer mg.Close()

	// Generation 2: serialize the mapped snapshot itself.
	mg2, err := OpenSnapshot(writeSnapFile(t, mg))
	if err != nil {
		t.Fatalf("OpenSnapshot(gen2): %v", err)
	}
	defer mg2.Close()
	snapEqual(t, mg2.Snapshot(), g.Snapshot())

	// Mutate the mapped graph so its patched snapshot carries overflow-
	// arena strings, then round-trip that (exercises the arena merge).
	delta := Delta{
		AddNodes: []AddNodeSpec{{Label: "Person", Props: []PropEntry{
			{Name: "name", Value: values.String("new-in-overflow")},
			{Name: "tags", Value: values.List(values.String("fresh"))},
		}}},
	}
	if _, err := mg.Apply(delta); err != nil {
		t.Fatalf("Apply on mapped graph: %v", err)
	}
	if _, err := g.Apply(delta); err != nil {
		t.Fatalf("Apply on heap graph: %v", err)
	}
	mg3, err := OpenSnapshot(writeSnapFile(t, mg), Verify())
	if err != nil {
		t.Fatalf("OpenSnapshot(gen3): %v", err)
	}
	defer mg3.Close()
	snapEqual(t, mg3.Snapshot(), g.Snapshot())
}

// TestMappedApplyCopyOnWrite proves the mapping is never written
// through: mutating an opened graph leaves the file bytes untouched,
// and a fresh open still sees the original data.
func TestMappedApplyCopyOnWrite(t *testing.T) {
	g := richGraph(t)
	path := writeSnapFile(t, g)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantHash := sha256.Sum256(before)

	mg, err := OpenSnapshot(path)
	if err != nil {
		t.Fatalf("OpenSnapshot: %v", err)
	}
	defer mg.Close()
	if _, err := mg.Apply(Delta{
		AddNodes: []AddNodeSpec{{Label: "City", Props: []PropEntry{{Name: "name", Value: values.String("Bergen")}}}},
		SetNodeProps: []NodePropSpec{
			{Node: 0, Name: "name", Value: values.String("renamed")},
		},
		RemoveEdges: []EdgeID{0},
	}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if got, _ := mg.NodeProp(0, "name"); !got.Equal(values.String("renamed")) {
		t.Fatalf("mutation not visible on mapped graph: %v", got)
	}

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if sha256.Sum256(after) != wantHash {
		t.Fatalf("Apply on a mapped graph mutated the snapshot file")
	}
	reopened, err := OpenSnapshot(path, Verify())
	if err != nil {
		t.Fatalf("re-open after mutation: %v", err)
	}
	defer reopened.Close()
	if got, _ := reopened.NodeProp(0, "name"); !got.Equal(values.String("Åse 💚")) {
		t.Fatalf("file content changed: node 0 name = %v", got)
	}
}

// TestLoadedReadersMatchBuilt runs the same read surface against a
// mapped graph and the graph built through the mutation API it was
// written from, and requires identical answers — tombstones included.
func TestLoadedReadersMatchBuilt(t *testing.T) {
	built := richGraph(t)
	loaded, err := OpenSnapshot(writeSnapFile(t, built))
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()

	if loaded.NumNodes() != built.NumNodes() || loaded.NumEdges() != built.NumEdges() {
		t.Fatalf("counts: loaded (%d,%d), built (%d,%d)",
			loaded.NumNodes(), loaded.NumEdges(), built.NumNodes(), built.NumEdges())
	}
	if loaded.NodeBound() != built.NodeBound() || loaded.EdgeBound() != built.EdgeBound() {
		t.Fatalf("bounds differ")
	}
	if got, want := loaded.Labels(), built.Labels(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("Labels: loaded %v, built %v", got, want)
	}
	for v := 0; v < loaded.NodeBound(); v++ {
		id := NodeID(v)
		if loaded.HasNode(id) != built.HasNode(id) {
			t.Fatalf("node %d liveness: loaded %v, built %v", v, loaded.HasNode(id), built.HasNode(id))
		}
		if loaded.NodeLabel(id) != built.NodeLabel(id) || loaded.NodeLabelSym(id) != built.NodeLabelSym(id) {
			t.Fatalf("node %d label: loaded %q, built %q", v, loaded.NodeLabel(id), built.NodeLabel(id))
		}
		if lo, bo := loaded.OutEdgesRaw(id), built.OutEdgesRaw(id); !edgeListEqual(lo, bo) {
			t.Fatalf("node %d out edges: loaded %v, built %v", v, lo, bo)
		}
		if li, bi := loaded.InEdgesRaw(id), built.InEdgesRaw(id); !edgeListEqual(li, bi) {
			t.Fatalf("node %d in edges: loaded %v, built %v", v, li, bi)
		}
		if lp, bp := loaded.NodeProps(id), built.NodeProps(id); !propListEqual(lp, bp) {
			t.Fatalf("node %d props: loaded %v, built %v", v, lp, bp)
		}
		for _, name := range []string{"name", "age", "tags", "matrix", "gap", "nope"} {
			lv, lok := loaded.NodeProp(id, name)
			bv, bok := built.NodeProp(id, name)
			if lok != bok || (lok && !lv.Equal(bv)) {
				t.Fatalf("node %d prop %q: loaded (%v,%v), built (%v,%v)", v, name, lv, lok, bv, bok)
			}
		}
	}
	for e := 0; e < loaded.EdgeBound(); e++ {
		id := EdgeID(e)
		if loaded.EdgeLabel(id) != built.EdgeLabel(id) || loaded.EdgeLabelSym(id) != built.EdgeLabelSym(id) {
			t.Fatalf("edge %d label: loaded %q, built %q", e, loaded.EdgeLabel(id), built.EdgeLabel(id))
		}
		ls, ld := loaded.Endpoints(id)
		bs, bd := built.Endpoints(id)
		if ls != bs || ld != bd {
			t.Fatalf("edge %d endpoints differ", e)
		}
		if lp, bp := loaded.EdgeProps(id), built.EdgeProps(id); !propListEqual(lp, bp) {
			t.Fatalf("edge %d props: loaded %v, built %v", e, lp, bp)
		}
	}
}

// corrupt returns a copy of the snapshot image with one mutation
// applied, recomputing the header CRC when asked so the mutation is
// reached rather than masked by the checksum gate.
func corrupt(data []byte, fixCRC bool, mutate func(b []byte)) []byte {
	b := append([]byte(nil), data...)
	mutate(b)
	if fixCRC {
		tableEnd := snapHeaderSize + snapSections*snapSectionSize
		crc := crc32.Checksum(b[:76], crc32.MakeTable(crc32.Castagnoli))
		crc = crc32.Update(crc, crc32.MakeTable(crc32.Castagnoli), b[snapHeaderSize:tableEnd])
		binary.LittleEndian.PutUint32(b[76:], crc)
	}
	return b
}

func TestOpenSnapshotCorruption(t *testing.T) {
	valid := snapBytes(t, richGraph(t))
	cases := []struct {
		name    string
		verify  bool
		wantSub string
		data    []byte
	}{
		{"empty file", false, "empty", nil},
		{"truncated header", false, "truncated", valid[:40]},
		{"truncated table", false, "truncated", valid[:snapHeaderSize+10]},
		{"truncated body", false, "out of bounds", valid[:len(valid)-9]},
		{"bad magic", false, "bad magic", corrupt(valid, false, func(b []byte) { b[0] = 'X' })},
		{"future version", false, "unsupported format version", corrupt(valid, true, func(b []byte) {
			binary.LittleEndian.PutUint32(b[8:], 99)
		})},
		{"foreign byte order", false, "byte order", corrupt(valid, true, func(b []byte) {
			// The mark is written in host order (little-endian here:
			// 0D 0C 0B 0A); a big-endian writer would emit 0A 0B 0C 0D.
			b[12], b[13], b[14], b[15] = 0x0A, 0x0B, 0x0C, 0x0D
		})},
		{"header bit flip", false, "header checksum", corrupt(valid, false, func(b []byte) { b[24] ^= 1 })},
		{"section count", false, "section count", corrupt(valid, true, func(b []byte) {
			binary.LittleEndian.PutUint32(b[72:], 7)
		})},
		{"implausible counts", false, "implausible", corrupt(valid, true, func(b []byte) {
			binary.LittleEndian.PutUint64(b[40:], 1<<60) // liveNodes > nodeBound
		})},
		{"misaligned section", false, "misaligned", corrupt(valid, true, func(b []byte) {
			ent := b[snapHeaderSize+secNodeLabels*snapSectionSize:]
			binary.LittleEndian.PutUint64(ent[0:], binary.LittleEndian.Uint64(ent[0:])+4)
		})},
		{"section out of bounds", false, "out of bounds", corrupt(valid, true, func(b []byte) {
			ent := b[snapHeaderSize+secNodeLabels*snapSectionSize:]
			binary.LittleEndian.PutUint64(ent[0:], 1<<40)
		})},
		{"ragged section size", false, "not a multiple", corrupt(valid, true, func(b []byte) {
			ent := b[snapHeaderSize+secNodePropRecs*snapSectionSize:]
			binary.LittleEndian.PutUint64(ent[8:], binary.LittleEndian.Uint64(ent[8:])-1)
		})},
		{"wrong element size", false, "element size", corrupt(valid, true, func(b []byte) {
			ent := b[snapHeaderSize+secEdgeSrc*snapSectionSize:]
			binary.LittleEndian.PutUint32(ent[20:], 2)
		})},
		{"count mismatch", false, "header implies", corrupt(valid, true, func(b []byte) {
			binary.LittleEndian.PutUint64(b[24:], binary.LittleEndian.Uint64(b[24:])+1)
			binary.LittleEndian.PutUint64(b[40:], 0)
		})},
		{"symbol arena bit flip", false, "checksum mismatch", corrupt(valid, false, func(b []byte) {
			ent := b[snapHeaderSize+secSymArena*snapSectionSize:]
			b[binary.LittleEndian.Uint64(ent[0:])] ^= 0xFF
		})},
		{"data section bit flip", true, "checksum mismatch", corrupt(valid, false, func(b []byte) {
			ent := b[snapHeaderSize+secNodePropRecs*snapSectionSize:]
			b[binary.LittleEndian.Uint64(ent[0:])] ^= 0xFF
		})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "bad.pgsnap")
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			var opts []OpenOption
			if tc.verify {
				opts = append(opts, Verify())
			}
			g, err := OpenSnapshot(path, opts...)
			if err == nil {
				g.Close()
				t.Fatalf("OpenSnapshot accepted a corrupt file")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
			if !strings.Contains(err.Error(), "pgsnap") {
				t.Fatalf("error %q lacks the pgsnap prefix", err)
			}
		})
	}
}

// exerciseMapped walks every accessor surface of a successfully opened
// snapshot; under the fuzzer this asserts "verified open implies no
// panic anywhere downstream".
func exerciseMapped(g *Graph) {
	s := g.Snapshot()
	for v := 0; v < s.NodeBound(); v++ {
		id := NodeID(v)
		_ = s.NodeLabelSym(id)
		for _, p := range s.NodePropsOf(id) {
			_ = p.Value.String()
		}
		_ = s.OutEdgesOf(id)
		_ = s.InEdgesOf(id)
	}
	for e := 0; e < s.EdgeBound(); e++ {
		id := EdgeID(e)
		_ = s.EdgeLabelSym(id)
		s.Endpoints(id)
		for _, p := range s.EdgePropsOf(id) {
			_ = p.Value.String()
		}
	}
	_ = g.Labels()
}

func FuzzOpenSnapshot(f *testing.F) {
	valid := snapBytes(f, richGraph(f))
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(corrupt(valid, true, func(b []byte) { b[len(b)/2] ^= 0x40 }))
	f.Add([]byte(snapMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "f.pgsnap")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		g, err := OpenSnapshot(path, Verify())
		if err != nil {
			return // rejected: fine, as long as it did not panic
		}
		defer g.Close()
		exerciseMapped(g)
	})
}

// TestColdConcurrentInflation races point readers against Snapshot
// folding a pending overlay, on a mapped graph and on a streamed one:
// the fold only reads the graph, so under -race readers and folds may
// overlap freely, and every fold agrees with a from-scratch rebuild.
func TestColdConcurrentInflation(t *testing.T) {
	g := richGraph(t)
	path := writeSnapFile(t, g)
	var nodes, edges bytes.Buffer
	if err := g.WriteCSV(&nodes, &edges); err != nil {
		t.Fatal(err)
	}
	for _, load := range []struct {
		name string
		open func() (*Graph, error)
	}{
		{"mapped", func() (*Graph, error) { return OpenSnapshot(path) }},
		{"stream", func() (*Graph, error) {
			return ReadCSVStream(bytes.NewReader(nodes.Bytes()), bytes.NewReader(edges.Bytes()))
		}},
	} {
		t.Run(load.name, func(t *testing.T) {
			for round := 0; round < 8; round++ {
				mg, err := load.open()
				if err != nil {
					t.Fatal(err)
				}
				// Writes through the mutation API stay pending in the
				// overlay until a Snapshot call folds them.
				mg.SetNodeProp(0, "name", values.String("pending"))
				fresh := mg.AddNode("Person")
				mg.MustAddEdge(fresh, 0, "knows")
				mg.RemoveEdge(0)
				done := make(chan struct{})
				for w := 0; w < 4; w++ {
					go func() {
						defer func() { done <- struct{}{} }()
						for i := 0; i < 50; i++ {
							for v := 0; v < mg.NodeBound(); v++ {
								id := NodeID(v)
								_ = mg.NodeLabelSym(id)
								_, _ = mg.NodeProp(id, "name")
								_ = mg.OutEdgesRaw(id)
								_ = mg.InEdgesRaw(id)
							}
							_ = mg.NumNodes()
						}
					}()
				}
				folds := make(chan *Snapshot, 2)
				for w := 0; w < 2; w++ {
					go func() {
						defer func() { done <- struct{}{} }()
						folds <- mg.Snapshot()
					}()
				}
				for w := 0; w < 6; w++ {
					<-done
				}
				for w := 0; w < 2; w++ {
					snapEqual(t, <-folds, rebuilt(mg))
				}
				if got, _ := mg.NodeProp(0, "name"); !got.Equal(values.String("pending")) || mg.NumNodes() != g.NumNodes()+1 {
					t.Fatalf("after the folds: name %v, %d nodes", got, mg.NumNodes())
				}
				mg.Close()
			}
		})
	}
}

// TestOpenSnapshotAllocations checks the tentpole claim: opening a
// snapshot allocates O(symbols), not O(elements) — a graph 32× larger
// must not open with measurably more allocations.
func TestOpenSnapshotAllocations(t *testing.T) {
	build := func(n int) *Graph {
		g := New()
		var prev NodeID
		for i := 0; i < n; i++ {
			v := g.AddNode("Person")
			g.SetNodeProp(v, "name", values.String("p"))
			g.SetNodeProp(v, "age", values.Int(int64(i)))
			if i > 0 {
				g.MustAddEdge(prev, v, "knows")
			}
			prev = v
		}
		return g
	}
	measure := func(path string) float64 {
		return testing.AllocsPerRun(10, func() {
			g, err := OpenSnapshot(path)
			if err != nil {
				t.Fatal(err)
			}
			g.Close()
		})
	}
	small := measure(writeSnapFile(t, build(100)))
	large := measure(writeSnapFile(t, build(3200)))
	if large > small+8 {
		t.Fatalf("open allocations grow with graph size: %0.f for 100 nodes, %0.f for 3200", small, large)
	}
}
