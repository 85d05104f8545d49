package epoch

import (
	"math/rand"
	"testing"
	"time"

	"hquorum/internal/bitset"
	"hquorum/internal/htgrid"
)

// wanMatrix builds a symmetric latency matrix from a node→region map:
// intra-region links cost intra, cross-region links cost the entry of
// cross indexed by the two regions.
func wanMatrix(region []int, intra time.Duration, cross [][]time.Duration) [][]time.Duration {
	n := len(region)
	lat := make([][]time.Duration, n)
	for i := range lat {
		lat[i] = make([]time.Duration, n)
		for j := range lat[i] {
			switch {
			case i == j:
				lat[i][j] = 0
			case region[i] == region[j]:
				lat[i][j] = intra
			default:
				lat[i][j] = cross[region[i]][region[j]]
			}
		}
	}
	return lat
}

// TestPlaceGridRegions scrambles three-region topologies across node
// indices and checks that placement recovers them, on the square 4x4 and
// on the asymmetric splits of 5x4 (bands of 3 and 2 rows) and 6x4: every
// node is placed exactly once, every top-level block of hgrid.Auto gets
// exactly its rh*cw nodes and is region-pure, the big home region fills
// the top band, and an entire h-T-grid quorum exists inside it — the
// top band's full-lines need no cover from any other band.
func TestPlaceGridRegions(t *testing.T) {
	cross := [][]time.Duration{
		{0, 10 * time.Millisecond, 30 * time.Millisecond},
		{10 * time.Millisecond, 0, 40 * time.Millisecond},
		{30 * time.Millisecond, 40 * time.Millisecond, 0},
	}
	for _, c := range []struct {
		rows, cols int
		sizes      []int // nodes per region; region 0 is home
	}{
		{4, 4, []int{8, 4, 4}},
		{5, 4, []int{12, 4, 4}},
		{6, 4, []int{12, 6, 6}},
	} {
		n := c.rows * c.cols
		var region []int
		for r, size := range c.sizes {
			for i := 0; i < size; i++ {
				region = append(region, r)
			}
		}
		rand.New(rand.NewSource(int64(n))).Shuffle(n, func(i, j int) { region[i], region[j] = region[j], region[i] })
		ids, err := PlaceGrid(wanMatrix(region, time.Millisecond, cross), c.rows, c.cols)
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]bool, n)
		for _, row := range ids {
			for _, id := range row {
				if id < 0 || id >= n || seen[id] {
					t.Fatalf("%dx%d: bad placement %v", c.rows, c.cols, ids)
				}
				seen[id] = true
			}
		}
		home := bitset.New(n)
		top := 0
		for band, rh := range placeSplit2(c.rows) {
			left := 0
			for _, cw := range placeSplit2(c.cols) {
				reg := region[ids[top][left]]
				for r := top; r < top+rh; r++ {
					for col := left; col < left+cw; col++ {
						if region[ids[r][col]] != reg {
							t.Fatalf("%dx%d: block at (%d,%d) mixes regions: %v", c.rows, c.cols, top, left, ids)
						}
						if reg == 0 {
							home.Add(r*c.cols + col)
						}
					}
				}
				if (reg == 0) != (band == 0) {
					t.Fatalf("%dx%d: block at (%d,%d) holds region %d; home must fill the top band and only it: %v",
						c.rows, c.cols, top, left, reg, ids)
				}
				left += cw
			}
			top += rh
		}
		if !htgrid.Auto(c.rows, c.cols).Available(home) {
			t.Fatalf("%dx%d: no h-T-grid quorum inside the home region %v", c.rows, c.cols, home)
		}
	}
}

// TestPlaceGridValidates rejects mis-shaped inputs.
func TestPlaceGridValidates(t *testing.T) {
	if _, err := PlaceGrid(make([][]time.Duration, 3), 2, 2); err == nil {
		t.Fatal("want size mismatch error")
	}
	bad := [][]time.Duration{{0, 0}, {0}, {0, 0}, {0, 0}}
	if _, err := PlaceGrid(bad, 2, 2); err == nil {
		t.Fatal("want ragged matrix error")
	}
	if _, err := PlaceGrid(nil, 0, 4); err == nil {
		t.Fatal("want positive grid error")
	}
}

// TestPlaceGridIdentity keeps an already-ordered topology in place:
// with uniform latencies any placement is fine, but it must still be a
// permutation and deterministic across calls.
func TestPlaceGridIdentity(t *testing.T) {
	lat := wanMatrix(make([]int, 16), time.Millisecond, [][]time.Duration{{0}})
	a, err := PlaceGrid(lat, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PlaceGrid(lat, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for r := range a {
		for c := range a[r] {
			if a[r][c] != b[r][c] {
				t.Fatalf("placement not deterministic: %v vs %v", a, b)
			}
		}
	}
}
