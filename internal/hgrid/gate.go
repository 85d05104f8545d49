package hgrid

import "hquorum/internal/quorum"

// Gate compilers: the hierarchy's quorum families as quorum.Gate formulas,
// so a cost-aware pick can price them exactly (quorum.Gate.Cheapest) and
// the analyzer can lower them to availability circuits
// (quorum.Gate.Circuit). They mirror the availability predicates of
// predicates.go. The oriented h-T-grid family needs the best full line's
// boundary row, which is not boolean, so it is expanded over the boundary:
//
//	OrientAboveLine ⇔ ∃r: (full line with bottom ≤ r) ∧ coverAbove(r)
//	OrientBelowLine ⇔ ∃r: (full line with top ≥ r) ∧ coverBelow(r)
//
// which is exact because coverAbove(r) is antitone in r (more rows to
// cover) and coverBelow(r) monotone: testing the relaxed line condition
// at every r subsumes testing the best line.

// bound is a row boundary of the h-T-grid: the partial row-cover keeps,
// and the full-line must stay within, the rows on its near side — rows
// 0..row when above (Definition 4.2, OrientAboveLine), rows row..bottom
// otherwise.
type bound struct {
	row   int
	above bool
}

// drops reports whether o lies entirely beyond the boundary.
func (b bound) drops(o *Object) bool {
	if b.above {
		return o.top > b.row
	}
	return o.top+o.height <= b.row
}

// RowCoverGate compiles the row-covers of the root (read quorums).
func (h *Hierarchy) RowCoverGate() *quorum.Gate {
	return coverGate(h.root, bound{row: h.rows, above: true})
}

// FullLineGate compiles the full-lines of the root (write quorums).
func (h *Hierarchy) FullLineGate() *quorum.Gate {
	return lineGate(h.root, bound{row: h.rows, above: true})
}

// coverGate is a partial row-cover of o: one child per child row, rows
// beyond b need nothing.
func coverGate(o *Object, b bound) *quorum.Gate {
	if b.drops(o) {
		return quorum.All()
	}
	if o.IsLeaf() {
		return quorum.Leaf(o.leaf)
	}
	rows := make([]*quorum.Gate, len(o.children))
	for r, row := range o.children {
		rows[r] = quorum.Any(eachCell(row, b, coverGate)...)
	}
	return quorum.All(rows...)
}

// lineGate is a full-line of o that stays within b.
func lineGate(o *Object, b bound) *quorum.Gate {
	if o.IsLeaf() {
		if b.drops(o) {
			return quorum.Any()
		}
		return quorum.Leaf(o.leaf)
	}
	rows := make([]*quorum.Gate, len(o.children))
	for r, row := range o.children {
		rows[r] = quorum.All(eachCell(row, b, lineGate)...)
	}
	return quorum.Any(rows...)
}

func eachCell(row []*Object, b bound, compile func(*Object, bound) *quorum.Gate) []*quorum.Gate {
	out := make([]*quorum.Gate, len(row))
	for c, cell := range row {
		out[c] = compile(cell, b)
	}
	return out
}

// LineCoverGate compiles the h-T-grid quorums of the root: a full-line
// joined with a partial row-cover up to the line's boundary row, the cover
// kept above the line (OrientAboveLine) or below it. A gate must not pay
// for a process twice, and the cover may reuse the line's processes, so
// the two are not compiled side by side: within the line's own child row
// the cover descends into one cell together with that cell's piece of the
// line, and only the other child rows are covered independently. Every
// boundary row is one alternative; a line that stops short of its
// alternative's boundary yields a superset of a proper quorum, which a
// cheapest pick never prefers.
func (h *Hierarchy) LineCoverGate(above bool) *quorum.Gate {
	alts := make([]*quorum.Gate, h.rows)
	for r := range alts {
		alts[r] = lineCoverGate(h.root, bound{row: r, above: above})
	}
	return quorum.Any(alts...)
}

// LineAndCoverGate compiles the same h-T-grid family as LineCoverGate
// with the line and the cover side by side at every boundary row. It
// holds on exactly the same live sets and lowers to a smaller circuit,
// but a process both use is paid for twice, so it is for availability
// (Eval, Circuit), not for Cheapest.
func (h *Hierarchy) LineAndCoverGate(above bool) *quorum.Gate {
	alts := make([]*quorum.Gate, h.rows)
	for r := range alts {
		b := bound{row: r, above: above}
		alts[r] = quorum.All(lineGate(h.root, b), coverGate(h.root, b))
	}
	return quorum.Any(alts...)
}

func lineCoverGate(o *Object, b bound) *quorum.Gate {
	if o.IsLeaf() {
		return lineGate(o, b)
	}
	alts := make([]*quorum.Gate, 0, len(o.children))
	for r, row := range o.children {
		lines := eachCell(row, b, lineGate)
		carriers := make([]*quorum.Gate, len(row))
		for c, cell := range row {
			parts := append([]*quorum.Gate(nil), lines...)
			parts[c] = lineCoverGate(cell, b)
			carriers[c] = quorum.All(parts...)
		}
		parts := []*quorum.Gate{quorum.Any(carriers...)}
		for r2, other := range o.children {
			if r2 != r {
				parts = append(parts, quorum.Any(eachCell(other, b, coverGate)...))
			}
		}
		alts = append(alts, quorum.All(parts...))
	}
	return quorum.Any(alts...)
}
