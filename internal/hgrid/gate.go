package hgrid

import (
	"math"

	"hquorum/internal/quorum"
)

// Gate compilers: the hierarchy's quorum families as quorum.Gate formulas.
// They are the one statement of the recursive definitions: Eval answers
// every availability question about a live set, Pick draws the random
// quorums, Cheapest prices cost-aware picks exactly, and TransversalCounts
// gives their exact availability. The oriented h-T-grid family needs the
// best full line's boundary row, which is not boolean, so it is expanded
// over the boundary:
//
//	OrientAboveLine ⇔ ∃r: LineGate(r, true) ∧ CoverGate(r, true)
//	OrientBelowLine ⇔ ∃r: LineGate(r, false) ∧ CoverGate(r, false)
//
// which is exact because the cover above r is antitone in r (more rows to
// cover) and the cover below r monotone: testing the relaxed line
// condition at every r subsumes testing the best line.

// bound is a row boundary of the h-T-grid: the partial row-cover keeps,
// and the full-line must stay within, the rows on its near side — rows
// 0..row when above (Definition 4.2, OrientAboveLine), rows row..bottom
// otherwise.
type bound struct {
	row   int
	above bool
}

// everything is the boundary that keeps every row.
var everything = bound{row: math.MaxInt, above: true}

// nothing is the constant true: the partial row-cover of a dropped object.
var nothing = quorum.All()

// drops reports whether o lies entirely beyond the boundary.
func (b bound) drops(o *Object) bool {
	if b.above {
		return o.top > b.row
	}
	return o.top+o.height <= b.row
}

// compile builds every object's gates once, on first use: the gate
// accessors call it first, so concurrent readers share one compilation
// and picks never rebuild a gate.
func (h *Hierarchy) compile() {
	h.compiled.Do(func() { compileObject(h.root) })
}

func compileObject(o *Object) {
	if o.IsLeaf() {
		o.cover = quorum.Leaf(o.leaf)
		o.line = o.cover
		return
	}
	for _, row := range o.children {
		for _, c := range row {
			compileObject(c)
		}
	}
	o.cover = coverGate(o, everything)
	o.line = linesOf(o, everything)
	// The boundaries that cut o: above row r for r in top..bottom−1,
	// below row r+1.
	o.cuts = make(map[bound]*quorum.Gate, 2*(o.height-1))
	for r := o.top; r < o.top+o.height-1; r++ {
		o.cuts[bound{r, true}] = coverGate(o, bound{r, true})
		o.cuts[bound{r + 1, false}] = coverGate(o, bound{r + 1, false})
	}
}

// coverAt is o's partial row-cover at b: nothing when b drops o, o's
// row-cover when b keeps all of it. o must be compiled.
func (o *Object) coverAt(b bound) *quorum.Gate {
	if b.drops(o) {
		return nothing
	}
	if g, ok := o.cuts[b]; ok {
		return g
	}
	return o.cover
}

// coverGate is a partial row-cover of the internal object o at b: one
// child per child row, rows beyond b need nothing. o's children must be
// compiled.
func coverGate(o *Object, b bound) *quorum.Gate {
	rows := make([]*quorum.Gate, len(o.children))
	for r, row := range o.children {
		cells := make([]*quorum.Gate, len(row))
		for c, cell := range row {
			cells[c] = cell.coverAt(b)
		}
		rows[r] = quorum.Any(cells...)
	}
	return quorum.All(rows...)
}

// lineGate is a full-line of the compiled object o that stays within b.
func lineGate(o *Object, b bound) *quorum.Gate {
	if b.drops(o) {
		return quorum.Any()
	}
	if _, cut := o.cuts[b]; !cut {
		return o.line
	}
	return linesOf(o, b)
}

// linesOf is a full-line within b of every cell of some child row of the
// internal object o, whose children must be compiled.
func linesOf(o *Object, b bound) *quorum.Gate {
	rows := make([]*quorum.Gate, len(o.children))
	for r, row := range o.children {
		rows[r] = quorum.All(eachLine(row, b)...)
	}
	return quorum.Any(rows...)
}

func eachLine(row []*Object, b bound) []*quorum.Gate {
	out := make([]*quorum.Gate, len(row))
	for c, cell := range row {
		out[c] = lineGate(cell, b)
	}
	return out
}

// RowCoverGate is the row-covers of the root (read quorums).
func (h *Hierarchy) RowCoverGate() *quorum.Gate {
	h.compile()
	return h.root.cover
}

// FullLineGate is the full-lines of the root (write quorums).
func (h *Hierarchy) FullLineGate() *quorum.Gate {
	h.compile()
	return h.root.line
}

// CoverGate is the partial row-covers of the root at boundary row: a
// row-cover of rows 0..row when above, of rows row..Rows()−1 otherwise;
// the rows beyond the boundary need nothing.
func (h *Hierarchy) CoverGate(row int, above bool) *quorum.Gate {
	h.compile()
	return h.root.coverAt(bound{row, above})
}

// LineGate compiles the full-lines of the root that lie within rows
// 0..row when above, within rows row..Rows()−1 otherwise.
func (h *Hierarchy) LineGate(row int, above bool) *quorum.Gate {
	h.compile()
	return lineGate(h.root, bound{row, above})
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
	h.compile()
	alts := make([]*quorum.Gate, h.rows)
	for r := range alts {
		alts[r] = lineCoverGate(h.root, bound{row: r, above: above})
	}
	return quorum.Any(alts...)
}

func lineCoverGate(o *Object, b bound) *quorum.Gate {
	if o.IsLeaf() {
		return lineGate(o, b)
	}
	alts := make([]*quorum.Gate, 0, len(o.children))
	for r, row := range o.children {
		lines := eachLine(row, b)
		carriers := make([]*quorum.Gate, len(row))
		for c, cell := range row {
			parts := append([]*quorum.Gate(nil), lines...)
			parts[c] = lineCoverGate(cell, b)
			carriers[c] = quorum.All(parts...)
		}
		parts := []*quorum.Gate{quorum.Any(carriers...)}
		for r2, other := range o.children {
			if r2 != r {
				covers := make([]*quorum.Gate, len(other))
				for c, cell := range other {
					covers[c] = cell.coverAt(b)
				}
				parts = append(parts, quorum.Any(covers...))
			}
		}
		alts = append(alts, quorum.All(parts...))
	}
	return quorum.Any(alts...)
}
