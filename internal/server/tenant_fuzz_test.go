package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"pgschema/internal/schema"
)

// tenantState is what a rejected tenant write must leave unchanged: the
// graph's epoch and snapshot image, and the schema with its source.
type tenantState struct {
	epoch  uint64
	image  []byte
	schema *schema.Schema
	sdl    string
}

func readTenantState(t *testing.T, h *Handler, name string) tenantState {
	t.Helper()
	tn := h.reg.get(name)
	tn.gmu.RLock()
	defer tn.gmu.RUnlock()
	return tenantState{epoch: tn.g.Epoch(), image: snapshotImage(t, tn.g), schema: tn.s, sdl: tn.sdl}
}

func (s tenantState) equal(o tenantState) bool {
	return s.epoch == o.epoch && bytes.Equal(s.image, o.image) && s.schema == o.schema && s.sdl == o.sdl
}

// FuzzPutTenantBody puts arbitrary bodies to /tenants/{name}, over the
// keyed tenant of FuzzApplyBody and under a fresh name. No body may
// panic the handler or earn a 5xx. A rejected PUT leaves the existing
// tenant's epoch, schema and snapshot bytes as they were and creates no
// tenant; an accepted one hosts a tenant that validates without a 5xx.
// Bodies naming a server-side snapshot path are skipped: they would
// read arbitrary files of the machine running the fuzzer.
func FuzzPutTenantBody(f *testing.F) {
	for _, body := range []string{
		`{"schema": "type Job @key(fields: [\"id\"]) { id: ID! @required }", "graph": {"json": {"nodes": [{"id": "j1", "label": "Job", "properties": {"id": "J-1"}}], "edges": []}}}`,
		`{"apiVersion": "v1", "schema": "type City { name: String! @required }", "graph": {"nodesCsv": "id,label,name\na,City,x\n", "edgesCsv": "source,target,label\n"}}`,
		`{"schema": "type City { name: String! @required twin: [City] }", "graph": {"nodesCsv": "id,label,name\na,City,x\n", "edgesCsv": "source,target,label\na,b,twin\n"}}`,
		`{"schema": "type T { x: Int }"}`,
		`{"schema": "type T { x: Int }", "graph": {"json": {"nodes": [{"id": "a"}, {"id": "a"}]}}}`,
		`{"schema": "type T { x: Int }", "graph": {"json": [1]}}`,
		`{"schema": "type T { x: Int }", "graph": {"nodesCsv": "id,label\n"}}`,
		`{"schema": "type { }"}`,
		`{"schema": "type T { x: Nope }"}`,
		`{"schema": ""}`,
		`{"apiVersion": "v2", "schema": "type T { x: Int }"}`,
		`{"schema": "type T { x: Int }", "unknown": 1}`,
		`{}`,
		``,
		`[`,
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		var req tenantPutRequest
		if json.Unmarshal([]byte(body), &req) == nil && req.Graph != nil && req.Graph.Snapshot != "" {
			t.Skip("server-side snapshot path")
		}
		h := newFuzzApplyHandler(t)
		mux := h.Mux()
		before := readTenantState(t, h, DefaultTenant)
		for _, name := range []string{DefaultTenant, "fresh"} {
			rec := doRaw(t, mux, "PUT", "/tenants/"+name, body)
			if rec.Code >= http.StatusInternalServerError {
				t.Fatalf("PUT %s %q: %d %s", name, body, rec.Code, rec.Body.String())
			}
			if rec.Code == http.StatusOK || rec.Code == http.StatusCreated {
				if v := doRaw(t, mux, "POST", "/tenants/"+name+"/validate", ""); v.Code >= http.StatusInternalServerError {
					t.Fatalf("validate after PUT %s %q: %d %s", name, body, v.Code, v.Body.String())
				}
				continue
			}
			switch name {
			case DefaultTenant:
				if !readTenantState(t, h, name).equal(before) {
					t.Fatalf("rejected PUT %q (%d) changed the tenant", body, rec.Code)
				}
			default:
				if h.reg.has(name) {
					t.Fatalf("rejected PUT %q (%d) created tenant %s", body, rec.Code, name)
				}
			}
		}
	})
}

// FuzzSchemaSwapBody posts arbitrary bodies to /tenants/{name}/schema on
// the keyed tenant of FuzzApplyBody. No body may panic the handler or
// earn a 5xx. A swap keeps the graph, so its epoch and snapshot bytes
// never move; a rejected swap also leaves the schema as it was, and an
// accepted one serves the new schema and validates without a 5xx.
func FuzzSchemaSwapBody(f *testing.F) {
	for _, body := range []string{
		`{"schema": "type City @key(fields: [\"name\"]) { name: String! @required pop: Int twin: [City] }"}`,
		`{"apiVersion": "v1", "schema": "type City { name: String }"}`,
		`{"schema": "interface Place @key(fields: [\"name\"]) { name: String } type City implements Place { name: String! @required }"}`,
		`{"schema": "type Query { x: Int }"}`,
		`{"schema": "type City { name: Nope }"}`,
		`{"schema": "type { }"}`,
		`{"schema": ""}`,
		`{"apiVersion": "v2", "schema": "type City { name: String }"}`,
		`{"schema": 7}`,
		`{}`,
		``,
		`[`,
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		h := newFuzzApplyHandler(t)
		mux := h.Mux()
		before := readTenantState(t, h, DefaultTenant)
		rec := doRaw(t, mux, "POST", "/tenants/"+DefaultTenant+"/schema", body)
		if rec.Code >= http.StatusInternalServerError {
			t.Fatalf("swap %q: %d %s", body, rec.Code, rec.Body.String())
		}
		after := readTenantState(t, h, DefaultTenant)
		if after.epoch != before.epoch || !bytes.Equal(after.image, before.image) {
			t.Fatalf("swap %q (%d) changed the graph", body, rec.Code)
		}
		if rec.Code != http.StatusOK {
			if after.schema != before.schema || after.sdl != before.sdl {
				t.Fatalf("rejected swap %q (%d) changed the schema", body, rec.Code)
			}
			return
		}
		if after.schema == before.schema {
			t.Fatalf("accepted swap %q kept the old schema", body)
		}
		if v := doRaw(t, mux, "POST", "/validate", ""); v.Code >= http.StatusInternalServerError {
			t.Fatalf("validate after swap %q: %d %s", body, v.Code, v.Body.String())
		}
	})
}
