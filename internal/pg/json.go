package pg

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"pgschema/internal/values"
)

// jsonGraph is the interchange form: a flat node list and an edge list
// referencing nodes by their position-independent "id" strings.
type jsonGraph struct {
	Nodes []jsonNode `json:"nodes"`
	Edges []jsonEdge `json:"edges"`
}

type jsonNode struct {
	ID    string                  `json:"id"`
	Label string                  `json:"label"`
	Props map[string]values.Value `json:"properties,omitempty"`
}

type jsonEdge struct {
	Src   string                  `json:"source"`
	Dst   string                  `json:"target"`
	Label string                  `json:"label"`
	Props map[string]values.Value `json:"properties,omitempty"`
}

// WriteJSON serializes the graph. Node IDs are written as "n<index>".
func (g *Graph) WriteJSON(w io.Writer) error {
	doc := jsonGraph{Nodes: []jsonNode{}, Edges: []jsonEdge{}}
	name := make(map[NodeID]string, g.NumNodes())
	for _, id := range g.Nodes() {
		nm := fmt.Sprintf("n%d", id)
		name[id] = nm
		jn := jsonNode{ID: nm, Label: g.NodeLabel(id), Props: propMap(g.NodeProps(id))}
		doc.Nodes = append(doc.Nodes, jn)
	}
	for _, id := range g.Edges() {
		src, dst := g.Endpoints(id)
		je := jsonEdge{Src: name[src], Dst: name[dst], Label: g.EdgeLabel(id), Props: propMap(g.EdgeProps(id))}
		doc.Edges = append(doc.Edges, je)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// propMap rebuilds the JSON interchange map from the sorted prop list.
func propMap(props []Prop) map[string]values.Value {
	if len(props) == 0 {
		return nil
	}
	m := make(map[string]values.Value, len(props))
	for _, p := range props {
		m[p.Name] = p.Value
	}
	return m
}

// ReadJSON deserializes a graph written by WriteJSON (or hand-authored in
// the same format). Property names are interned in sorted order, so one
// document always loads with the same Syms and snapshot bytes.
func ReadJSON(r io.Reader) (*Graph, error) {
	var doc jsonGraph
	dec := json.NewDecoder(bufio.NewReaderSize(r, csvReaderSize))
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("pg: decoding graph JSON: %w", err)
	}
	g := New()
	byName := make(map[string]NodeID, len(doc.Nodes))
	for _, jn := range doc.Nodes {
		if jn.ID == "" {
			return nil, fmt.Errorf("pg: node without id")
		}
		if _, dup := byName[jn.ID]; dup {
			return nil, fmt.Errorf("pg: duplicate node id %q", jn.ID)
		}
		id := g.AddNode(jn.Label)
		byName[jn.ID] = id
		for _, name := range sortedNames(jn.Props) {
			g.SetNodeProp(id, name, jn.Props[name])
		}
	}
	for i, je := range doc.Edges {
		src, ok := byName[je.Src]
		if !ok {
			return nil, fmt.Errorf("pg: edge %d references unknown source %q", i, je.Src)
		}
		dst, ok := byName[je.Dst]
		if !ok {
			return nil, fmt.Errorf("pg: edge %d references unknown target %q", i, je.Dst)
		}
		id, err := g.AddEdge(src, dst, je.Label)
		if err != nil {
			return nil, err
		}
		for _, name := range sortedNames(je.Props) {
			g.SetEdgeProp(id, name, je.Props[name])
		}
	}
	return g, nil
}

// sortedNames returns the property names of a JSON property map in
// sorted order.
func sortedNames(props map[string]values.Value) []string {
	names := make([]string, 0, len(props))
	for name := range props {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}
