package server

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pgschema/internal/pg"
)

// canonicalGraph is the .pgsnap image of a heap rebuild of g: equal for
// two graphs with the same content, symbols and epoch, whether each is
// mapped, patched or replayed.
func canonicalGraph(t *testing.T, g *pg.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := pg.WriteSnapshot(&buf, g.Clone().Snapshot()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// residentGraph returns the named tenant's graph, reloading it if it
// was evicted.
func residentGraph(t *testing.T, h *Handler, name string) *pg.Graph {
	t.Helper()
	tn := h.reg.get(name)
	if tn == nil {
		t.Fatalf("no tenant %q", name)
	}
	if err := h.reg.rlock(tn); err != nil {
		t.Fatal(err)
	}
	defer tn.gmu.RUnlock()
	return tn.g
}

// applyOK posts an apply to the tenant and returns its response,
// failing the test unless the status is want.
func applyStatus(t *testing.T, h *Handler, tenant, body string, want int) applyResponse {
	t.Helper()
	rec := doRaw(t, h.Mux(), "POST", "/tenants/"+tenant+"/graph/apply", body)
	if rec.Code != want {
		t.Fatalf("apply %s: status %d, want %d: %s", body, rec.Code, want, rec.Body.String())
	}
	var out applyResponse
	if want == http.StatusOK || want == http.StatusConflict {
		decodeInto(t, rec, &out)
	}
	return out
}

func addCity(name string) string {
	return fmt.Sprintf(`{"addNodes": [{"label": "City", "props": {"name": %q}}], "addEdges": [{"src": -1, "dst": 0, "label": "twin"}]}`, name)
}

// restartMatches opens a fresh registry over dir alone and checks that
// every named tenant comes back equal to its graph in h: same epoch,
// same canonical snapshot bytes.
func restartMatches(t *testing.T, h *Handler, dir string, names ...string) *Handler {
	t.Helper()
	h2, err := NewRegistry(RegistryConfig{Config: Config{SnapshotDir: dir}})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	for _, name := range names {
		want, got := residentGraph(t, h, name), residentGraph(t, h2, name)
		if got.Epoch() != want.Epoch() {
			t.Fatalf("tenant %s restarted at epoch %d, was %d", name, got.Epoch(), want.Epoch())
		}
		if !bytes.Equal(canonicalGraph(t, got), canonicalGraph(t, want)) {
			t.Fatalf("tenant %s restarted with a different graph at epoch %d", name, got.Epoch())
		}
	}
	return h2
}

func newPersistentRegistry(t *testing.T, dir string, budget int64) *Handler {
	t.Helper()
	h, err := NewRegistry(RegistryConfig{Config: Config{SnapshotDir: dir}, MemoryBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func putTenant(t *testing.T, h *Handler, name string) {
	t.Helper()
	if rec := doRaw(t, h.Mux(), "PUT", "/tenants/"+name, tenantPutBody(t, true)); rec.Code/100 != 2 {
		t.Fatalf("put %s: %d %s", name, rec.Code, rec.Body.String())
	}
}

// TestWALAppendsInsteadOfRewriting: after creation, applies leave the
// tenant's snapshot file untouched and grow its log, and a restart
// replays the log to exactly the served graph. A rejected apply that
// named a fresh label leaves no trace a restart could disagree with.
func TestWALAppendsInsteadOfRewriting(t *testing.T) {
	dir := t.TempDir()
	h := newPersistentRegistry(t, dir, 0)
	putTenant(t, h, "alpha")
	snapPath := filepath.Join(dir, TenantSnapshotFile("alpha"))
	logPath := filepath.Join(dir, tenantLogFile("alpha"))
	snap0, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		applyStatus(t, h, "alpha", addCity(fmt.Sprintf("c%d", i)), http.StatusOK)
	}
	applyStatus(t, h, "alpha", `{"addNodes": [{"label": "Ghost"}], "removeNodes": [999]}`, http.StatusBadRequest)
	applyStatus(t, h, "alpha", `{"setNodeProps": [{"node": 0, "name": "name", "value": "Lkpg"}], "removeEdges": [0]}`, http.StatusOK)
	if snap, _ := os.ReadFile(snapPath); !bytes.Equal(snap, snap0) {
		t.Fatal("an apply rewrote the snapshot file")
	}
	if st, err := os.Stat(logPath); err != nil || st.Size() <= 32 {
		t.Fatalf("log after 6 applies: %v", err)
	}
	restartMatches(t, h, dir, "alpha")
}

// TestWALRollbackSurvivesRestart: a requireValid rollback is logged as
// an apply plus its undo, so a restart reproduces the epoch it left and
// hands out the same ids afterwards.
func TestWALRollbackSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	h := newPersistentRegistry(t, dir, 0)
	putTenant(t, h, "alpha")
	applyStatus(t, h, "alpha", addCity("Gent"), http.StatusOK)
	out := applyStatus(t, h, "alpha", `{"addNodes": [{"label": "City"}], "requireValid": true}`, http.StatusConflict)
	if out.Applied {
		t.Fatal("invalid delta was applied")
	}
	h2 := restartMatches(t, h, dir, "alpha")
	if e := residentGraph(t, h2, "alpha").Epoch(); e != out.Epoch {
		t.Fatalf("restart at epoch %d, rollback answered %d", e, out.Epoch)
	}
	a := applyStatus(t, h, "alpha", addCity("Brno"), http.StatusOK)
	b := applyStatus(t, h2, "alpha", addCity("Brno"), http.StatusOK)
	if a.Epoch != b.Epoch || a.NewNodes[0] != b.NewNodes[0] || a.NewEdges[0] != b.NewEdges[0] {
		t.Fatalf("after restart an apply got epoch %d ids %v/%v, the original %d ids %v/%v",
			b.Epoch, b.NewNodes, b.NewEdges, a.Epoch, a.NewNodes, a.NewEdges)
	}
}

// logFault fails the appends of every log the registry opens while
// mode is set: the write, a short write, or the sync.
type logFault struct {
	pg.LogFile
	mode *string
}

func (f *logFault) Write(p []byte) (int, error) {
	switch *f.mode {
	case "write":
		return 0, errors.New("injected write error")
	case "short":
		n, err := f.LogFile.Write(p[:len(p)/2])
		if err == nil {
			err = errors.New("injected short write")
		}
		return n, err
	}
	return f.LogFile.Write(p)
}

func (f *logFault) Sync() error {
	if *f.mode == "sync" {
		return errors.New("injected sync error")
	}
	return f.LogFile.Sync()
}

// TestWALAppendFaults: a failed append or fsync answers 500 with the
// error envelope and rolls the delta back; the tenant rewrites its
// snapshot from the rolled-back graph and starts a fresh log, so a
// restart never sees the unacknowledged delta, and the next apply
// appends again.
func TestWALAppendFaults(t *testing.T) {
	for _, mode := range []string{"write", "short", "sync"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			h := newPersistentRegistry(t, dir, 0)
			fault := ""
			h.reg.wrapLog = func(f pg.LogFile) pg.LogFile { return &logFault{LogFile: f, mode: &fault} }
			putTenant(t, h, "alpha")
			applyStatus(t, h, "alpha", addCity("Gent"), http.StatusOK)
			g := residentGraph(t, h, "alpha")
			nodes := g.NumNodes()

			fault = mode
			rec := doRaw(t, h.Mux(), "POST", "/tenants/alpha/graph/apply", addCity("Lost"))
			fault = ""
			if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), `"error"`) ||
				!strings.Contains(rec.Body.String(), "rolled back") {
				t.Fatalf("faulty append: status %d: %s", rec.Code, rec.Body.String())
			}
			if g.NumNodes() != nodes {
				t.Fatalf("faulty append kept its delta: %d nodes, want %d", g.NumNodes(), nodes)
			}
			id, err := pg.ReadSnapshotID(filepath.Join(dir, TenantSnapshotFile("alpha")))
			if err != nil || id.Epoch != g.Epoch() {
				t.Fatalf("snapshot not rewritten after the fault: %+v, %v (graph at %d)", id, err, g.Epoch())
			}
			restartMatches(t, h, dir, "alpha")

			applyStatus(t, h, "alpha", addCity("Kept"), http.StatusOK)
			if st, _ := os.Stat(filepath.Join(dir, tenantLogFile("alpha"))); st == nil || st.Size() <= 32 {
				t.Fatal("the apply after the fault did not append to the fresh log")
			}
			restartMatches(t, h, dir, "alpha")
		})
	}
}

// TestWALRebaseWithoutLog: a tenant without a log (seeded, or after a
// failure whose rewrite failed too) writes its whole graph on the next
// apply, then appends.
func TestWALRebaseWithoutLog(t *testing.T) {
	dir := t.TempDir()
	h := newPersistentRegistry(t, dir, 0)
	putTenant(t, h, "alpha")
	tn := h.reg.get("alpha")
	tn.gmu.Lock()
	tn.forgetLog()
	tn.gmu.Unlock()
	if tn.persisted.Load() {
		t.Fatal("a tenant without a log still counts as persisted")
	}
	out := applyStatus(t, h, "alpha", addCity("Gent"), http.StatusOK)
	if id, err := pg.ReadSnapshotID(filepath.Join(dir, TenantSnapshotFile("alpha"))); err != nil || id.Epoch != out.Epoch {
		t.Fatalf("rebase snapshot %+v, %v; apply answered epoch %d", id, err, out.Epoch)
	}
	applyStatus(t, h, "alpha", addCity("Lyon"), http.StatusOK)
	restartMatches(t, h, dir, "alpha")
}

// TestWALCompaction: once the log reaches the snapshot's size, the apply
// that crossed the line writes a new snapshot and starts a fresh log.
func TestWALCompaction(t *testing.T) {
	dir := t.TempDir()
	h := newPersistentRegistry(t, dir, 0)
	putTenant(t, h, "alpha")
	snapPath := filepath.Join(dir, TenantSnapshotFile("alpha"))
	id0, err := pg.ReadSnapshotID(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	compacted := false
	for i := 0; i < 200 && !compacted; i++ {
		out := applyStatus(t, h, "alpha", addCity(fmt.Sprintf("city-%03d", i)), http.StatusOK)
		id, err := pg.ReadSnapshotID(snapPath)
		if err != nil {
			t.Fatal(err)
		}
		if id != id0 {
			compacted = true
			if id.Epoch != out.Epoch {
				t.Fatalf("compaction snapshot at epoch %d, the apply answered %d", id.Epoch, out.Epoch)
			}
			if st, _ := os.Stat(filepath.Join(dir, tenantLogFile("alpha"))); st == nil || st.Size() != 32 {
				t.Fatal("compaction did not start a fresh log")
			}
		}
	}
	if !compacted {
		t.Fatal("200 applies never compacted the log")
	}
	applyStatus(t, h, "alpha", addCity("after"), http.StatusOK)
	restartMatches(t, h, dir, "alpha")
}

// TestWALCompactionCrashWindow: a crash after the new snapshot is in
// place but before the fresh log replaced the old one leaves a log bound
// to the old snapshot beside the new one; restore ignores it and starts
// from the new snapshot, which already holds every record.
func TestWALCompactionCrashWindow(t *testing.T) {
	dir := t.TempDir()
	h := newPersistentRegistry(t, dir, 0)
	putTenant(t, h, "alpha")
	for i := 0; i < 3; i++ {
		applyStatus(t, h, "alpha", addCity(fmt.Sprintf("c%d", i)), http.StatusOK)
	}
	logPath := filepath.Join(dir, tenantLogFile("alpha"))
	oldLog, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	tn := h.reg.get("alpha")
	tn.gmu.Lock()
	err = h.reg.persistTenant(tn) // the compaction, run to completion...
	tn.gmu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(logPath, oldLog, 0o644); err != nil { // ...minus its fresh log
		t.Fatal(err)
	}
	h2 := restartMatches(t, h, dir, "alpha")
	// The restored tenant replaced the stale log and appends to it.
	applyStatus(t, h, "alpha", addCity("next"), http.StatusOK)
	applyStatus(t, h2, "alpha", addCity("next"), http.StatusOK)
	restartMatches(t, h2, dir, "alpha")
}

// TestWALEvictReload: an evicted tenant reloads through the same loader
// as a restart, snapshot plus log, after N applies.
func TestWALEvictReload(t *testing.T) {
	dir := t.TempDir()
	h := newPersistentRegistry(t, dir, 1) // at most the acting tenant stays resident
	putTenant(t, h, "a")
	putTenant(t, h, "b")
	for i := 0; i < 4; i++ {
		applyStatus(t, h, "a", addCity(fmt.Sprintf("a%d", i)), http.StatusOK)
	}
	want := canonicalGraph(t, residentGraph(t, h, "a"))
	applyStatus(t, h, "b", addCity("b0"), http.StatusOK) // evicts a
	if h.reg.get("a").resident() {
		t.Fatal("a was not evicted")
	}
	g := residentGraph(t, h, "a") // reload
	if !bytes.Equal(canonicalGraph(t, g), want) {
		t.Fatal("reloaded tenant differs from the evicted one")
	}
	applyStatus(t, h, "a", addCity("a-after"), http.StatusOK)
	restartMatches(t, h, dir, "a", "b")
}

// TestWALReplaceAndDelete: replacing a tenant whose log holds records
// starts it over from the new graph; deleting one removes its log too.
func TestWALReplaceAndDelete(t *testing.T) {
	dir := t.TempDir()
	h := newPersistentRegistry(t, dir, 0)
	putTenant(t, h, "alpha")
	applyStatus(t, h, "alpha", addCity("Gent"), http.StatusOK)
	applyStatus(t, h, "alpha", addCity("Lyon"), http.StatusOK)
	old := h.reg.get("alpha")

	if rec := doRaw(t, h.Mux(), "PUT", "/tenants/alpha", tenantPutBody(t, false)); rec.Code != http.StatusOK {
		t.Fatalf("replace: %d %s", rec.Code, rec.Body.String())
	}
	if !old.dropped {
		t.Fatal("the replaced tenant was not retired")
	}
	if g := residentGraph(t, h, "alpha"); g.NumNodes() != 0 {
		t.Fatalf("replaced tenant has %d nodes", g.NumNodes())
	}
	h2 := restartMatches(t, h, dir, "alpha")
	if g := residentGraph(t, h2, "alpha"); g.NumNodes() != 0 {
		t.Fatalf("restart resurrected the replaced tenant's log: %d nodes", g.NumNodes())
	}
	applyStatus(t, h, "alpha", addCity("Oslo"), http.StatusOK)
	restartMatches(t, h, dir, "alpha")

	if rec := doRaw(t, h.Mux(), "DELETE", "/tenants/alpha", ""); rec.Code != http.StatusOK {
		t.Fatalf("delete: %d %s", rec.Code, rec.Body.String())
	}
	for _, f := range []string{TenantSnapshotFile("alpha"), tenantLogFile("alpha"), tenantSchemaFile("alpha")} {
		if _, err := os.Stat(filepath.Join(dir, f)); !os.IsNotExist(err) {
			t.Fatalf("%s survived the delete: %v", f, err)
		}
	}
	h3 := newPersistentRegistry(t, dir, 0)
	if h3.reg.get("alpha") != nil {
		t.Fatal("a deleted tenant was restored")
	}
}

// TestWALTornTailRestart: a restart over a log whose last record is
// torn drops that record, cuts the tail, and keeps appending.
func TestWALTornTailRestart(t *testing.T) {
	dir := t.TempDir()
	h := newPersistentRegistry(t, dir, 0)
	putTenant(t, h, "alpha")
	applyStatus(t, h, "alpha", addCity("Gent"), http.StatusOK)
	logPath := filepath.Join(dir, tenantLogFile("alpha"))
	st, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalGraph(t, residentGraph(t, h, "alpha"))
	applyStatus(t, h, "alpha", addCity("Torn"), http.StatusOK)
	full, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	for cut := st.Size() + 1; cut < int64(len(full)); cut += 7 {
		// Each restart cuts the torn tail off the file; put it back.
		if err := os.WriteFile(logPath, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		h2 := newPersistentRegistry(t, dir, 0)
		if !bytes.Equal(canonicalGraph(t, residentGraph(t, h2, "alpha")), want) {
			t.Fatalf("cut at %d: restart is not the state before the torn record", cut)
		}
		if cutTo, err := os.Stat(logPath); err != nil || cutTo.Size() != st.Size() {
			t.Fatalf("cut at %d: restart did not cut the log back to its %d valid bytes", cut, st.Size())
		}
		h2.reg.get("alpha").forgetLog()
	}
	h2 := newPersistentRegistry(t, dir, 0)
	applyStatus(t, h2, "alpha", addCity("Next"), http.StatusOK)
	restartMatches(t, h2, dir, "alpha")
}
