package hgrid

import "fmt"

// Dist is the joint availability distribution of a structure with respect to
// the two grid events: RC ("the structure can produce a row-cover") and FL
// ("the structure can produce a full-line"). The fourth probability,
// P(¬RC ∧ ¬FL), is implied.
//
// For a level-0 process with survival probability q both events coincide
// with the process being alive: Dist{Both: q}.
type Dist struct {
	Both   float64 // P(RC ∧ FL)
	RCOnly float64 // P(RC ∧ ¬FL)
	FLOnly float64 // P(FL ∧ ¬RC)
}

// RC returns P(row-cover available).
func (d Dist) RC() float64 { return d.Both + d.RCOnly }

// FL returns P(full-line available).
func (d Dist) FL() float64 { return d.Both + d.FLOnly }

// None returns P(neither available).
func (d Dist) None() float64 { return 1 - d.Both - d.RCOnly - d.FLOnly }

// Dist returns the exact joint (row-cover, full-line) availability
// distribution of the hierarchy when every process survives independently
// with probability q. The recursion applies joint at every logical object;
// sub-objects are disjoint, so independence is exact.
func (h *Hierarchy) Dist(q float64) Dist {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("hgrid: survival probability %v outside [0,1]", q))
	}
	return objectDist(h.root, q)
}

func objectDist(o *Object, q float64) Dist {
	if o.IsLeaf() {
		return Dist{Both: q}
	}
	cells := make([][]Dist, len(o.children))
	for r, row := range o.children {
		cells[r] = make([]Dist, len(row))
		for c, child := range row {
			cells[r][c] = objectDist(child, q)
		}
	}
	return joint(cells)
}

// joint computes the exact joint (RC, FL) distribution of a grid whose
// cells are independent structures with the given distributions.
// cells[r][c] is the distribution of the cell at row r, column c; rows
// may have differing lengths (the recursion only relies on row
// independence).
//
// Derivation: per row r let A_r = "some cell has RC" and B_r = "every cell
// has FL". The grid has a row-cover iff every A_r holds and a full-line iff
// some B_r holds. Rows are independent, and within a row
//
//	P(A_r)        = 1 − Π_c (1 − RC_c)
//	P(B_r)        = Π_c FL_c
//	P(B_r ∧ ¬A_r) = Π_c FLOnly_c
//
// so P(RC ∧ FL) = Π_r P(A_r) − Π_r (P(A_r) − P(A_r ∧ B_r)).
func joint(cells [][]Dist) Dist {
	prodA := 1.0     // P(all rows covered)
	prodNotB := 1.0  // P(no full row)
	prodAnotB := 1.0 // P(all rows covered with no full row)
	for _, row := range cells {
		pNoRC, pAllFL, pAllFLnoRC := 1.0, 1.0, 1.0
		for _, c := range row {
			pNoRC *= 1 - c.RC()
			pAllFL *= c.FL()
			pAllFLnoRC *= c.FLOnly
		}
		pA := 1 - pNoRC
		pB := pAllFL
		pAandB := pB - pAllFLnoRC // B_r ∧ A_r = B_r minus "all FL, none RC"
		prodA *= pA
		prodNotB *= 1 - pB
		prodAnotB *= pA - pAandB
	}
	both := prodA - prodAnotB
	return Dist{
		Both:   both,
		RCOnly: prodA - both,
		FLOnly: (1 - prodNotB) - both,
	}
}
