package pg

import (
	"fmt"
	"sort"
	"strings"
)

// Stats summarizes a graph for reporting and the CLI's `stats` command.
type Stats struct {
	Nodes         int
	Edges         int
	NodeProps     int // |dom(σ) ∩ (V × Props)|
	EdgeProps     int // |dom(σ) ∩ (E × Props)|
	NodesByLabel  map[string]int
	EdgesByLabel  map[string]int
	MaxOutDegree  int
	MaxInDegree   int
	MeanOutDegree float64
	IsolatedNodes int
	SelfLoops     int
	ParallelPairs int // (src,dst,label) triples with more than one edge
}

// ComputeStats walks the graph once and returns its statistics.
func (g *Graph) ComputeStats() Stats {
	st := Stats{
		Nodes:        g.NumNodes(),
		Edges:        g.NumEdges(),
		NodesByLabel: make(map[string]int),
		EdgesByLabel: make(map[string]int),
	}
	for _, id := range g.Nodes() {
		st.NodesByLabel[g.NodeLabel(id)]++
		st.NodeProps += len(g.NodeProps(id))
		outDeg := len(g.OutEdges(id))
		inDeg := len(g.InEdges(id))
		if outDeg > st.MaxOutDegree {
			st.MaxOutDegree = outDeg
		}
		if inDeg > st.MaxInDegree {
			st.MaxInDegree = inDeg
		}
		if outDeg == 0 && inDeg == 0 {
			st.IsolatedNodes++
		}
	}
	seen := make(map[string]int)
	for _, id := range g.Edges() {
		st.EdgesByLabel[g.EdgeLabel(id)]++
		st.EdgeProps += len(g.EdgeProps(id))
		src, dst := g.Endpoints(id)
		if src == dst {
			st.SelfLoops++
		}
		key := fmt.Sprintf("%d|%d|%s", src, dst, g.EdgeLabel(id))
		seen[key]++
	}
	for _, n := range seen {
		if n > 1 {
			st.ParallelPairs++
		}
	}
	if st.Nodes > 0 {
		st.MeanOutDegree = float64(st.Edges) / float64(st.Nodes)
	}
	return st
}

// String renders the statistics as a multi-line report.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "nodes: %d  edges: %d  node-props: %d  edge-props: %d\n",
		s.Nodes, s.Edges, s.NodeProps, s.EdgeProps)
	fmt.Fprintf(&b, "max out-degree: %d  max in-degree: %d  mean out-degree: %.2f\n",
		s.MaxOutDegree, s.MaxInDegree, s.MeanOutDegree)
	fmt.Fprintf(&b, "isolated nodes: %d  self-loops: %d  parallel (src,dst,label) groups: %d\n",
		s.IsolatedNodes, s.SelfLoops, s.ParallelPairs)
	for _, kv := range sortedCounts(s.NodesByLabel) {
		fmt.Fprintf(&b, "  node label %-20s %d\n", kv.k, kv.n)
	}
	for _, kv := range sortedCounts(s.EdgesByLabel) {
		fmt.Fprintf(&b, "  edge label %-20s %d\n", kv.k, kv.n)
	}
	return b.String()
}

type countEntry struct {
	k string
	n int
}

func sortedCounts(m map[string]int) []countEntry {
	out := make([]countEntry, 0, len(m))
	for k, n := range m {
		out = append(out, countEntry{k, n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].k < out[j].k })
	return out
}
