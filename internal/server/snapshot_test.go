package server

import (
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"pgschema/internal/pg"
	"pgschema/internal/values"
)

// TestApplyPersistsSnapshot: with SnapshotDir configured, every
// /graph/apply leaves a verifiable .pgsnap plus a write-ahead log behind
// that together carry the committed state and epoch, so a restart can
// resume from them. The first apply writes the snapshot; the second
// only appends to the log.
func TestApplyPersistsSnapshot(t *testing.T) {
	dir := t.TempDir()
	h := newTestHandlerConfig(t, Config{SnapshotDir: dir})
	mux := h.Mux()
	path := filepath.Join(dir, TenantSnapshotFile(DefaultTenant))

	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("snapshot exists before any mutation: %v", err)
	}
	rec, out := postApply(t, mux, `{"addNodes": [{"label": "City", "props": {"name": "Utrecht"}}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}

	resumed, err := pg.OpenSnapshot(path, pg.Verify())
	if err != nil {
		t.Fatalf("opening persisted snapshot: %v", err)
	}
	defer resumed.Close()
	if resumed.Epoch() != out.Epoch {
		t.Errorf("persisted epoch %d, response says %d", resumed.Epoch(), out.Epoch)
	}
	if resumed.NumNodes() != h.def().g.NumNodes() || resumed.NumEdges() != h.def().g.NumEdges() {
		t.Errorf("persisted graph (%d,%d) != hosted (%d,%d)",
			resumed.NumNodes(), resumed.NumEdges(), h.def().g.NumNodes(), h.def().g.NumEdges())
	}
	newNode := pg.NodeID(out.NewNodes[0])
	if v, ok := resumed.NodeProp(newNode, "name"); !ok || !v.Equal(values.String("Utrecht")) {
		t.Errorf("persisted snapshot misses the new node's property: %v %v", v, ok)
	}

	// A second mutation leaves the snapshot as it is and appends to the
	// log; the loader folds it in at the newer epoch.
	snapEpoch := out.Epoch
	rec, out = postApply(t, mux, `{"addNodes": [{"label": "City", "props": {"name": "Gent"}}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	resumed2, err := pg.OpenSnapshot(path, pg.Verify())
	if err != nil {
		t.Fatalf("opening the persisted snapshot again: %v", err)
	}
	resumed2.Close()
	if resumed2.Epoch() != snapEpoch {
		t.Errorf("snapshot rewritten by an apply that should only append: epoch %d, want %d", resumed2.Epoch(), snapEpoch)
	}
	loaded, info, err := LoadTenantGraph(path)
	if err != nil {
		t.Fatalf("loading snapshot and log: %v", err)
	}
	defer loaded.Close()
	if loaded.Epoch() != out.Epoch || info.Records != 1 {
		t.Errorf("loaded epoch %d from %d log records, response says %d", loaded.Epoch(), info.Records, out.Epoch)
	}
	if v, ok := loaded.NodeProp(pg.NodeID(out.NewNodes[0]), "name"); !ok || !v.Equal(values.String("Gent")) {
		t.Errorf("loaded graph misses the logged node's property: %v %v", v, ok)
	}
}

// TestServeOverMappedSnapshot hosts the HTTP surface directly over a
// graph opened from a .pgsnap file — the restart path — and drives a
// mutation through it, proving the mapped graph is a full citizen.
func TestServeOverMappedSnapshot(t *testing.T) {
	seed := newTestHandler(t)
	dir := t.TempDir()
	path := filepath.Join(dir, SnapshotFileName)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pg.WriteSnapshot(f, seed.def().g.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	mg, err := pg.OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mg.Close()
	h, err := New(seed.def().s, mg, Config{SnapshotDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mux := h.Mux()

	rec, out := postApply(t, mux, `{"addNodes": [{"label": "City", "props": {"name": "Utrecht"}}], "revalidate": true}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if !out.Applied || out.Validation == nil || !out.Validation.OK {
		t.Fatalf("mutation over mapped graph: %+v", out)
	}
	if mg.NumNodes() != seed.def().g.NumNodes()+1 {
		t.Errorf("mapped graph did not grow: %d nodes", mg.NumNodes())
	}
}
