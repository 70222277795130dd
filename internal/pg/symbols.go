package pg

// Sym is a dense integer ID for a string interned by a Graph. Node
// labels, edge labels, and property names share one namespace, so a
// compiled validation program can index per-label lookup tables
// directly by Sym instead of hashing strings. Syms are assigned in
// first-seen order, are stable for the lifetime of the graph (including
// across Clone), and are meaningless across distinct graphs.
type Sym int32

// NoSym is the Sym of a string the graph has never interned. It never
// equals a valid Sym, so lookup tables indexed by Sym can treat it as
// "matches nothing".
const NoSym Sym = -1

// symbols is the intern table: string → Sym and back.
type symbols struct {
	ids   map[string]Sym
	names []string
}

func (t *symbols) intern(name string) Sym {
	if s, ok := t.ids[name]; ok {
		return s
	}
	if t.ids == nil {
		t.ids = make(map[string]Sym)
	}
	s := Sym(len(t.names))
	t.ids[name] = s
	t.names = append(t.names, name)
	return s
}

// truncate forgets every symbol interned after the first n. Snapshots
// hold the name table capacity-capped at their own length, so later
// interning never writes through a slice one of them can see.
func (t *symbols) truncate(n int) {
	for _, name := range t.names[n:] {
		delete(t.ids, name)
	}
	t.names = t.names[:n]
}

func (t *symbols) lookup(name string) (Sym, bool) {
	s, ok := t.ids[name]
	return s, ok
}

func (t *symbols) clone() symbols {
	cp := symbols{names: append([]string(nil), t.names...)}
	if t.ids != nil {
		cp.ids = make(map[string]Sym, len(t.ids))
		for k, v := range t.ids {
			cp.ids[k] = v
		}
	}
	return cp
}
