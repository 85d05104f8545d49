// Package hgrid implements the hierarchical grid quorum system of Kumar and
// Cheung ('91), the construction §4 of the paper modifies.
//
// Processes sit at level 0 of a multi-level hierarchy; a logical object at
// level i is a grid of level i−1 objects. Hierarchical row-covers and
// full-lines are defined recursively:
//
//   - row-cover(object) = row-cover in ≥ 1 child of every child row;
//   - full-line(object) = full-line in every child of some child row;
//   - for a process, both are simply "the process itself".
//
// A read quorum is a row-cover of the root, a write quorum a full-line of
// the root, and a read-write quorum the union of one of each. The package
// provides the structure, availability predicates, quorum generation, exact
// failure-probability DP (via grid.Joint) and the paper's Table 1
// configurations.
package hgrid

import (
	"fmt"

	"hquorum/internal/grid"
)

// Object is a node of the hierarchy: either a leaf (a process) or a grid of
// child objects.
type Object struct {
	children [][]*Object // nil for a leaf
	leaf     int         // node ID when leaf

	// Geometry in the flattened (visual) grid of processes.
	top, left     int // global position of the object's upper-left corner
	height, width int // rows/columns of processes the object spans
	size          int // number of processes
}

// IsLeaf reports whether the object is a single process.
func (o *Object) IsLeaf() bool { return o.children == nil }

// Leaf returns the process ID of a leaf object.
func (o *Object) Leaf() int { return o.leaf }

// ChildRows returns the number of child rows of an internal object.
func (o *Object) ChildRows() int { return len(o.children) }

// ChildCols returns the number of child columns of row r.
func (o *Object) ChildCols(r int) int { return len(o.children[r]) }

// Child returns the child object at child-grid position (r, c).
func (o *Object) Child(r, c int) *Object { return o.children[r][c] }

// Size returns the number of processes under the object.
func (o *Object) Size() int { return o.size }

// Span returns the visual bounding box (top, left, height, width) of the
// object in the flattened process grid.
func (o *Object) Span() (top, left, height, width int) {
	return o.top, o.left, o.height, o.width
}

// Hierarchy is a complete hierarchical grid over rows×cols processes.
// For the stand-alone constructors (Flat, Uniform, Auto) process IDs are
// raster-style — id = globalRow*Cols + globalCol — and the universe equals
// the process count. AutoRegion instead builds a hierarchy over an explicit
// ID matrix drawn from a larger universe (used for embedded sub-grids, e.g.
// the h-triang's).
type Hierarchy struct {
	root     *Object
	universe int     // bit-set capacity of live/quorum sets
	rows     int     // visual rows of the region
	cols     int     // visual columns of the region
	ids      [][]int // ids[r][c] = process ID at region position (r, c)
	rowOf    []int   // process ID -> region row (-1 outside the region)
	colOf    []int
	levels   int
}

// Root returns the top logical object.
func (h *Hierarchy) Root() *Object { return h.root }

// N returns the number of processes in the region.
func (h *Hierarchy) N() int { return h.rows * h.cols }

// Universe returns the capacity live and quorum sets must have (equal to
// N() except for region hierarchies).
func (h *Hierarchy) Universe() int { return h.universe }

// Rows returns the number of visual (global) process rows.
func (h *Hierarchy) Rows() int { return h.rows }

// Cols returns the number of visual (global) process columns.
func (h *Hierarchy) Cols() int { return h.cols }

// Levels returns the depth of the hierarchy (1 for a flat grid).
func (h *Hierarchy) Levels() int { return h.levels }

// RowOf returns the global row of process id (0 = topmost), or -1 for IDs
// outside the region. The paper's "above" relation (Definition 4.2) orders
// processes by their hierarchical row path; for every construction in this
// package that lexicographic order coincides with the global row, because
// sibling objects in the same child row always share their horizontal row
// splits.
func (h *Hierarchy) RowOf(id int) int { return h.rowOf[id] }

// ColOf returns the global column of process id, or -1 outside the region.
func (h *Hierarchy) ColOf(id int) int { return h.colOf[id] }

// IDAt returns the process ID at region position (r, c).
func (h *Hierarchy) IDAt(r, c int) int { return h.ids[r][c] }

// Flat returns a single-level hierarchy: one logical grid of rows×cols
// processes (the plain grid protocol).
func Flat(rows, cols int) *Hierarchy {
	return assemble(buildFlat(rows, cols, 0, 0), rows, cols)
}

func buildFlat(rows, cols, top, left int) *Object {
	children := make([][]*Object, rows)
	for r := range children {
		children[r] = make([]*Object, cols)
		for c := range children[r] {
			children[r][c] = &Object{top: top + r, left: left + c, height: 1, width: 1, size: 1}
		}
	}
	return &Object{children: children, top: top, left: left, height: rows, width: cols, size: rows * cols}
}

// Uniform returns a hierarchy of the given number of levels where every
// logical object is a rows×cols grid; it spans rows^levels × cols^levels
// processes. Uniform(2, 2, 2) is Figure 1's 16-process 3-level h-grid.
func Uniform(levels, rows, cols int) *Hierarchy {
	if levels < 1 {
		panic(fmt.Sprintf("hgrid: levels %d < 1", levels))
	}
	var build func(level, top, left int) *Object
	build = func(level, top, left int) *Object {
		if level == 0 {
			return &Object{top: top, left: left, height: 1, width: 1, size: 1}
		}
		h := pow(rows, level-1)
		w := pow(cols, level-1)
		children := make([][]*Object, rows)
		for r := range children {
			children[r] = make([]*Object, cols)
			for c := range children[r] {
				children[r][c] = build(level-1, top+r*h, left+c*w)
			}
		}
		return &Object{children: children, top: top, left: left,
			height: rows * h, width: cols * w, size: rows * cols * h * w}
	}
	return assemble(build(levels, 0, 0), pow(rows, levels), pow(cols, levels))
}

// Auto returns the paper's "logical grids of size 2×2 whenever possible"
// hierarchy over a visual rows×cols process grid: an object splits a
// dimension in half (ceiling first) only while that dimension exceeds 2,
// and a region with both dimensions ≤ 2 is a flat grid of processes.
// Auto(3,3), Auto(4,4), Auto(5,5) and Auto(6,4) reproduce the paper's
// Table 1 h-grid column exactly (verified in tests against all sixteen
// published failure probabilities).
func Auto(rows, cols int) *Hierarchy {
	var build func(top, left, h, w int) *Object
	build = func(top, left, h, w int) *Object {
		if h == 1 && w == 1 {
			return &Object{top: top, left: left, height: 1, width: 1, size: 1}
		}
		if h <= 2 && w <= 2 {
			return buildFlat(h, w, top, left)
		}
		rSplits := split2(h)
		cSplits := split2(w)
		children := make([][]*Object, len(rSplits))
		ro := 0
		for r, rh := range rSplits {
			children[r] = make([]*Object, len(cSplits))
			co := 0
			for c, cw := range cSplits {
				children[r][c] = build(top+ro, left+co, rh, cw)
				co += cw
			}
			ro += rh
		}
		return &Object{children: children, top: top, left: left, height: h, width: w, size: h * w}
	}
	return assemble(build(0, 0, rows, cols), rows, cols)
}

// split2 splits a length exceeding 2 into two halves (ceiling first);
// lengths 1 and 2 remain a single band.
func split2(n int) []int {
	if n <= 2 {
		return []int{n}
	}
	return []int{(n + 1) / 2, n / 2}
}

func pow(b, e int) int {
	r := 1
	for i := 0; i < e; i++ {
		r *= b
	}
	return r
}

// AutoRegion builds the Auto hierarchy over an explicit rectangular matrix
// of process IDs drawn from a universe of the given size. Live and quorum
// sets passed to the resulting hierarchy must have the universe's capacity.
func AutoRegion(ids [][]int, universe int) *Hierarchy {
	rows := len(ids)
	if rows == 0 || len(ids[0]) == 0 {
		panic("hgrid: empty region")
	}
	cols := len(ids[0])
	for r, row := range ids {
		if len(row) != cols {
			panic(fmt.Sprintf("hgrid: ragged region (row %d has %d columns, want %d)", r, len(row), cols))
		}
		for _, id := range row {
			if id < 0 || id >= universe {
				panic(fmt.Sprintf("hgrid: process ID %d outside universe %d", id, universe))
			}
		}
	}
	region := Auto(rows, cols)
	return assembleRegion(region.root, rows, cols, ids, universe)
}

// assemble finalizes a raster hierarchy: process IDs follow the visual grid.
func assemble(root *Object, rows, cols int) *Hierarchy {
	ids := make([][]int, rows)
	for r := range ids {
		ids[r] = make([]int, cols)
		for c := range ids[r] {
			ids[r][c] = r*cols + c
		}
	}
	return assembleRegion(root, rows, cols, ids, rows*cols)
}

// assembleRegion finalizes a hierarchy over an explicit ID matrix.
func assembleRegion(root *Object, rows, cols int, ids [][]int, universe int) *Hierarchy {
	h := &Hierarchy{
		root:     root,
		universe: universe,
		rows:     rows,
		cols:     cols,
		ids:      ids,
		rowOf:    make([]int, universe),
		colOf:    make([]int, universe),
	}
	for i := range h.rowOf {
		h.rowOf[i] = -1
		h.colOf[i] = -1
	}
	depth := 0
	var walk func(o *Object, d int)
	walk = func(o *Object, d int) {
		if d > depth {
			depth = d
		}
		if o.IsLeaf() {
			o.leaf = ids[o.top][o.left]
			h.rowOf[o.leaf] = o.top
			h.colOf[o.leaf] = o.left
			return
		}
		for _, row := range o.children {
			for _, c := range row {
				walk(c, d+1)
			}
		}
	}
	walk(root, 0)
	h.levels = depth
	if root.size != rows*cols || root.height != rows || root.width != cols {
		panic(fmt.Sprintf("hgrid: inconsistent hierarchy: root %dx%d size %d vs %dx%d",
			root.height, root.width, root.size, rows, cols))
	}
	return h
}

// Dist returns the exact joint (row-cover, full-line) availability
// distribution of the hierarchy when every process survives independently
// with probability q. The recursion applies grid.Joint at every logical
// object; sub-objects are disjoint, so independence is exact.
func (h *Hierarchy) Dist(q float64) grid.Dist {
	return objectDist(h.root, q)
}

func objectDist(o *Object, q float64) grid.Dist {
	if o.IsLeaf() {
		return grid.Leaf(q)
	}
	cells := make([][]grid.Dist, len(o.children))
	for r, row := range o.children {
		cells[r] = make([]grid.Dist, len(row))
		for c, child := range row {
			cells[r][c] = objectDist(child, q)
		}
	}
	return grid.Joint(cells)
}
