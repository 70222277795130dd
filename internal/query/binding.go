package query

import "pgschema/internal/pg"

// planBinding joins a compiled plan to one graph at one epoch: symbol
// slots resolved to the graph's interned Syms (NoSym matches nothing),
// subtype-closure rows per live label over the plan's fragment
// conditions, and inverse-field dispatch rows per live label. It is
// immutable once built. The per-type node enumerations and key-bucket
// indexes root steps read are not the plan's: they belong to the
// snapshot (pg.Snapshot.LabelNodes, pg.Snapshot.KeyBucket), built once
// per snapshot and shared by every plan bound to it.
type planBinding struct {
	p     *Plan
	g     *pg.Graph
	epoch uint64
	snap  *pg.Snapshot

	// syms[slot] resolves Plan.symNames[slot] in this graph.
	syms []pg.Sym

	// subRows[sym][condID] ⇔ label ⊑S conds[condID]; non-nil exactly for
	// syms that are labels of live nodes (the only labels runtime
	// dispatch can see).
	subRows [][]bool

	// invRows[invIdx][sym] is the invTarget index applicable to a node
	// of that label, or -1.
	invRows [][]int32
}

// bindTo returns the plan bound to the graph at its current epoch,
// reusing the cached binding when neither the graph identity nor its
// epoch changed. Concurrent callers may race to rebuild; every built
// binding is valid and the last store wins.
func (p *Plan) bindTo(g *pg.Graph) *planBinding {
	if b := p.bound.Load(); b != nil && b.g == g && b.epoch == g.Epoch() {
		return b
	}
	b := p.newBinding(g)
	p.bound.Store(b)
	return b
}

func (p *Plan) newBinding(g *pg.Graph) *planBinding {
	b := &planBinding{p: p, g: g, epoch: g.Epoch(), snap: g.Snapshot()}
	b.syms = make([]pg.Sym, len(p.symNames))
	for i, n := range p.symNames {
		b.syms[i], _ = g.Sym(n)
	}
	b.subRows = make([][]bool, g.SymCount())
	if len(p.conds) > 0 {
		for _, l := range g.Labels() {
			sym, _ := g.Sym(l)
			row := make([]bool, len(p.conds))
			for i, cond := range p.conds {
				row[i] = p.s.SubtypeNamed(l, cond)
			}
			b.subRows[sym] = row
		}
	}
	if len(p.invs) > 0 {
		b.invRows = make([][]int32, len(p.invs))
		for i, inv := range p.invs {
			row := make([]int32, g.SymCount())
			for j := range row {
				row[j] = -1
			}
			for label, t := range inv.byLabel {
				if sym, ok := g.Sym(label); ok {
					row[sym] = t
				}
			}
			b.invRows[i] = row
		}
	}
	return b
}

// condHolds reports whether a node labeled `label` satisfies fragment
// condition condID (label ⊑S conds[condID]).
func (b *planBinding) condHolds(label pg.Sym, condID int32) bool {
	if label < 0 || int(label) >= len(b.subRows) {
		return false
	}
	row := b.subRows[label]
	return row != nil && row[condID]
}
