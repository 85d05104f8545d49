// Latency-aware grid placement: map physical nodes onto hierarchical
// grid positions so that the recursive blocks of hgrid.Auto group nodes
// that are close to each other — the "leveled quorum" idiom: cluster
// nearby nodes into leaves, form the recursive quorum system over the
// groups. A well-placed hierarchy lets a whole quorum stay inside the
// most central region: a full-line needs only one band, and an h-T-grid
// quorum covers only the rows above its line (htgrid.OrientAboveLine),
// so a line in the top band needs no other band at all. The central
// region therefore goes on top, where cost-aware picks
// (rkv.Config.PickCost) find quorums that never leave it.
package epoch

import (
	"fmt"
	"time"
)

// PlaceGrid assigns the rows×cols physical nodes of a latency matrix to
// grid positions. lat[i][j] is the one-way latency from node i to node
// j (asymmetry is tolerated: the symmetrized i↔j cost is used). The
// result ids[r][c] is the physical node index placed at grid position
// (r, c).
//
// The recursion mirrors hgrid.Auto exactly: a region splits each
// dimension exceeding 2 in half (ceiling first), and the node pool is
// partitioned among the child blocks by greedy latency clustering —
// the most remote remaining node seeds a cluster, which grows by
// repeatedly absorbing the pool node closest (summed symmetrized
// latency) to the cluster. Remote regions therefore congeal into their
// own blocks first, so every recursive block — band, sub-block, leaf
// pair — is as latency-tight as the greedy pass can make it. The blocks
// are filled from the last to the first: the periphery lands on the
// bottom band and the most central cluster, taken last, on the top one.
//
// The output feeds hgrid.AutoRegion directly, or — for epoch-versioned
// clusters whose pickers use raster grids over sorted members — acts as
// the permutation from grid position to physical node when wiring link
// latencies.
func PlaceGrid(lat [][]time.Duration, rows, cols int) ([][]int, error) {
	n := rows * cols
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("epoch: place needs a positive grid, got %dx%d", rows, cols)
	}
	if len(lat) != n {
		return nil, fmt.Errorf("epoch: latency matrix has %d rows, grid %dx%d needs %d", len(lat), rows, cols, n)
	}
	for i, row := range lat {
		if len(row) != n {
			return nil, fmt.Errorf("epoch: latency matrix row %d has %d entries, want %d", i, len(row), n)
		}
	}
	dist := func(i, j int) time.Duration { return lat[i][j] + lat[j][i] }
	ids := make([][]int, rows)
	for r := range ids {
		ids[r] = make([]int, cols)
	}
	pool := make([]int, n)
	for i := range pool {
		pool[i] = i
	}
	var place func(top, left, h, w int, pool []int)
	place = func(top, left, h, w int, pool []int) {
		if h <= 2 && w <= 2 {
			// A flat block: like the blocks, its cells fill from the last
			// to the first, so the cluster's seed — its most remote node —
			// ends up bottom right and the top row holds the nodes absorbed
			// last, the ones nearest the centre.
			k := len(pool)
			for r := 0; r < h; r++ {
				for c := 0; c < w; c++ {
					k--
					ids[top+r][left+c] = pool[k]
				}
			}
			return
		}
		rSplits := placeSplit2(h)
		cSplits := placeSplit2(w)
		remaining := pool
		ro := h
		for r := len(rSplits) - 1; r >= 0; r-- {
			rh := rSplits[r]
			ro -= rh
			co := w
			for c := len(cSplits) - 1; c >= 0; c-- {
				cw := cSplits[c]
				co -= cw
				var group []int
				group, remaining = takeCluster(dist, remaining, rh*cw)
				place(top+ro, left+co, rh, cw, group)
			}
		}
		// The splits exactly tile the region, so remaining is empty here.
	}
	place(0, 0, rows, cols, pool)
	return ids, nil
}

// placeSplit2 matches hgrid's split2: a length exceeding 2 splits into
// two halves (ceiling first); lengths 1 and 2 remain a single band.
func placeSplit2(n int) []int {
	if n <= 2 {
		return []int{n}
	}
	return []int{(n + 1) / 2, n / 2}
}

// takeCluster removes a latency-tight group of size k from the pool.
// The seed is the most remote pool node (largest summed distance to the
// rest): clustering the periphery first keeps far-flung nodes from
// being scattered as leftovers across otherwise-pure near blocks. Ties
// break toward lower node indices, so the placement is deterministic.
func takeCluster(dist func(i, j int) time.Duration, pool []int, k int) (group, rest []int) {
	if k >= len(pool) {
		return pool, nil
	}
	taken := make([]bool, len(pool))
	seedIdx := 0
	var seedSum time.Duration = -1
	for i, a := range pool {
		var sum time.Duration
		for _, b := range pool {
			sum += dist(a, b)
		}
		if sum > seedSum {
			seedSum, seedIdx = sum, i
		}
	}
	taken[seedIdx] = true
	group = append(group, pool[seedIdx])
	for len(group) < k {
		bestIdx := -1
		var bestSum time.Duration
		for i, a := range pool {
			if taken[i] {
				continue
			}
			var sum time.Duration
			for _, g := range group {
				sum += dist(a, g)
			}
			if bestIdx < 0 || sum < bestSum {
				bestIdx, bestSum = i, sum
			}
		}
		taken[bestIdx] = true
		group = append(group, pool[bestIdx])
	}
	for i, a := range pool {
		if !taken[i] {
			rest = append(rest, a)
		}
	}
	return group, rest
}
