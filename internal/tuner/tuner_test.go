package tuner

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"hquorum/internal/analysis"
	"hquorum/internal/bitset"
	"hquorum/internal/cwlog"
	"hquorum/internal/epoch"
	"hquorum/internal/hgrid"
	"hquorum/internal/hqs"
	"hquorum/internal/htgrid"
	"hquorum/internal/htriang"
	"hquorum/internal/majority"
	"hquorum/internal/paths"
	"hquorum/internal/quorum"
	"hquorum/internal/ysys"
)

// TestCandidatesIntersect is the asymmetry safety property: every (read,
// write) quorum pair a tuner-search candidate can produce intersects, for
// every member count the search supports a distinct family on. It also
// pins that every emitted candidate validates.
func TestCandidatesIntersect(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{4, 8, 9, 12, 15, 16} {
		members := epoch.MemberRange(0, n)
		cands := Candidates(members)
		if len(cands) < 2 {
			t.Fatalf("n=%d: only %d candidates", n, len(cands))
		}
		for _, p := range cands {
			if err := p.Validate(n); err != nil {
				t.Fatalf("n=%d: candidate %v invalid: %v", n, p, err)
			}
			pk, err := epoch.NewPickers(n, p)
			if err != nil {
				t.Fatalf("n=%d: %v: %v", n, p, err)
			}
			for trial := 0; trial < 60; trial++ {
				live := bitset.New(n)
				for i := 0; i < n; i++ {
					if rng.Intn(5) != 0 { // 80% alive
						live.Add(i)
					}
				}
				rq, rerr := pk.Read(rng, live)
				wq, werr := pk.Write(rng, live)
				if rerr == nil && werr == nil && !rq.Intersects(wq) {
					t.Fatalf("n=%d %v: read %v misses write %v (live %v)", n, p, rq, wq, live)
				}
			}
		}
	}
}

// TestNineSystemsIntersect extends the property to all nine analysis-side
// constructions (symmetric coteries, so read and write draws come from
// the same picker and must pairwise intersect).
func TestNineSystemsIntersect(t *testing.T) {
	log16, err := cwlog.Log(16)
	if err != nil {
		t.Fatal(err)
	}
	systems := []quorum.System{
		majority.New(9),
		hqs.Uniform(2, 3),
		hqs.Grouped(3, 5),
		log16,
		hgrid.NewRW(hgrid.Auto(4, 4)),
		hgrid.NewRW(hgrid.Flat(3, 5)),
		htgrid.Auto(4, 4),
		htriang.New(5),
		paths.New(3),
		ysys.New(3),
	}
	rng := rand.New(rand.NewSource(99))
	for _, sys := range systems {
		n := sys.Universe()
		for trial := 0; trial < 80; trial++ {
			live := bitset.New(n)
			for i := 0; i < n; i++ {
				if rng.Intn(6) != 0 {
					live.Add(i)
				}
			}
			q1, e1 := sys.Pick(rng, live)
			q2, e2 := sys.Pick(rng, live)
			if e1 != nil || e2 != nil {
				continue
			}
			if !q1.Intersects(q2) {
				t.Fatalf("%T: quorums %v and %v don't intersect (live %v)", sys, q1, q2, live)
			}
		}
	}
}

// TestOptimizerMixSensitivity pins the PR's demo behavior on 16 members:
// under a balanced mix no candidate clears both the availability floor
// and the swap gain, so the driver stays on majority; under a 95%-read
// mix a structurally asymmetric flavor becomes feasible and wins by well
// over the default MinGain.
func TestOptimizerMixSensitivity(t *testing.T) {
	cur := epoch.Params{Flavor: epoch.FlavorMajority, Members: epoch.MemberRange(0, 16)}

	d := NewDriver(Policy{HoldFor: 2, MinOps: 10})
	for i := 0; i < 5; i++ {
		dec, err := d.Evaluate(cur, Mix(Workload{}, 0.5, 1000))
		if err != nil {
			t.Fatal(err)
		}
		if dec.Swap {
			t.Fatalf("eval %d: balanced mix must not trigger a swap (best %v gain %.2f)", i, dec.Best.Params, dec.Gain)
		}
	}

	var dec Decision
	var err error
	for i := 0; i < 2; i++ {
		dec, err = d.Evaluate(cur, Mix(Workload{}, 0.95, 1000))
		if err != nil {
			t.Fatal(err)
		}
	}
	if !dec.Swap {
		t.Fatalf("read-heavy mix should swap after HoldFor evals (best %v gain %.2f hold %d)", dec.Best.Params, dec.Gain, dec.Hold)
	}
	switch dec.Best.Params.Flavor {
	case epoch.FlavorHGrid, epoch.FlavorHTGrid, epoch.FlavorHMaj:
	default:
		t.Fatalf("read-heavy winner should be a structurally asymmetric flavor, got %v", dec.Best.Params)
	}
	if dec.Gain < 1.5 {
		t.Fatalf("read-heavy gain %.2f, want >= 1.5", dec.Gain)
	}
	if !dec.Best.Score.Feasible {
		t.Fatal("winner must be feasible")
	}
}

// TestDriverHysteresis checks MinOps gating, the HoldFor streak, and the
// reset after a swap decision.
func TestDriverHysteresis(t *testing.T) {
	cur := epoch.Params{Flavor: epoch.FlavorMajority, Members: epoch.MemberRange(0, 16)}
	d := NewDriver(Policy{HoldFor: 3, MinOps: 100})

	// Thin window: never acts, never builds a streak.
	dec, err := d.Evaluate(cur, Mix(Workload{}, 0.95, 10))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Swap || dec.Hold != 0 {
		t.Fatalf("thin window must not act: %+v", dec)
	}

	for i := 1; i <= 3; i++ {
		dec, err = d.Evaluate(cur, Mix(Workload{}, 0.95, 1000))
		if err != nil {
			t.Fatal(err)
		}
		if dec.Hold != i {
			t.Fatalf("eval %d: hold %d", i, dec.Hold)
		}
		if (i < 3) && dec.Swap {
			t.Fatalf("eval %d: swapped before HoldFor", i)
		}
	}
	if !dec.Swap {
		t.Fatal("no swap after HoldFor consecutive wins")
	}
	// The streak resets after a swap decision.
	dec, err = d.Evaluate(cur, Mix(Workload{}, 0.95, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Hold != 1 || dec.Swap {
		t.Fatalf("streak should restart after swap: %+v", dec)
	}
	// An interleaved thin window also resets the streak.
	if _, err = d.Evaluate(cur, Mix(Workload{}, 0.95, 1)); err != nil {
		t.Fatal(err)
	}
	dec, err = d.Evaluate(cur, Mix(Workload{}, 0.95, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Hold != 1 {
		t.Fatalf("hold should restart after a thin window: %+v", dec)
	}
}

func TestWindowSlidingAndRoundTrip(t *testing.T) {
	w := NewWindow(800 * time.Millisecond)
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	for i := 0; i < 100; i++ {
		w.Observe(at(i), i%2 == 0, 100*time.Microsecond, false, uint64(i%4))
	}
	w.ObserveBatch(at(100), 8)
	w.ObserveWriteback(at(100), 3, 0)
	w.ObserveWriteback(at(100), 0, 40)
	wl := w.Snapshot(at(100))
	if wl.Ops() != 100 || wl.Reads != 50 || wl.Spared != 40 {
		t.Fatalf("snapshot %+v", wl)
	}
	if back, err := DecodeWorkload(wl.Encode(nil)); err != nil || back != wl {
		t.Fatalf("round trip: got %+v (%v) want %+v", back, err, wl)
	}
	if wl.WritebackFrac() != 3.0/50 {
		t.Fatalf("writeback frac %v", wl.WritebackFrac())
	}
	if wl.AvgBatch() != 8 {
		t.Fatalf("avg batch %v", wl.AvgBatch())
	}
	// Everything expires after more than a full span of silence.
	wl = w.Snapshot(at(2000))
	if wl.Ops() != 0 {
		t.Fatalf("window did not expire: %+v", wl)
	}
	// Ops land again after expiry.
	w.Observe(at(2001), true, time.Millisecond, true, 7)
	wl = w.Snapshot(at(2001))
	if wl.Ops() != 1 || wl.Errors != 1 {
		t.Fatalf("post-expiry snapshot %+v", wl)
	}

	enc := wl.Encode(nil)
	back, err := DecodeWorkload(enc)
	if err != nil {
		t.Fatal(err)
	}
	if back != wl {
		t.Fatalf("round trip: got %+v want %+v", back, wl)
	}

	w.Reset()
	if got := w.Snapshot(at(3000)); got.Ops() != 0 {
		t.Fatalf("reset window not empty: %+v", got)
	}
}

// TestWritebackPricedPerCandidate: a measured β below 1 was earned on
// read picks that contain a write quorum, so only candidates whose picks
// do may be credited with it. A majority-9 R5/W5 cluster measuring
// β = 0.05 prices its own reads at R + 0.05·W but an h-grid 3x3
// candidate's — row-covers never hold a full-line — at R + W; crediting
// the h-grid with 0.05 would swap, measure β = 1 there, and swap back.
// Where the window shows reads owing no write-back at all, nobody pays;
// where it holds too few reads to measure β, everybody pays in full — a
// handful of reads after a swap or a restart measures 0 or 1 by luck. The
// running configuration is priced at what it measured whatever its sampled
// picks say (a cost-aware h-T-grid reads on its line; the cost-blind
// samples are row-covers).
func TestWritebackPricedPerCandidate(t *testing.T) {
	maj := epoch.Params{Flavor: epoch.FlavorMajority, R: 5, W: 5, Members: epoch.MemberRange(0, 9)}
	grid := epoch.Params{Flavor: epoch.FlavorHGrid, Rows: 3, Cols: 3, Members: epoch.MemberRange(0, 9)}
	wl := Workload{Reads: 1000, Writebacks: 50, Spared: 950}
	if wl.WritebackFrac() != 0.05 {
		t.Fatalf("β = %v, want 0.05", wl.WritebackFrac())
	}
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	for _, c := range []struct {
		p      epoch.Params
		wl     Workload
		beta   float64
		covers float64
	}{
		{maj, wl, 0.05, 1},
		{grid, wl, 1, 0},
		// A non-covering current config measures β = 1: everyone pays.
		{maj, Workload{Reads: 1000, Writebacks: 1000}, 1, 1},
		{grid, Workload{Reads: 1000, Writebacks: 1000}, 1, 0},
		// Reads neither paid nor were spared: write-back is not in play.
		{maj, Workload{Reads: 1000}, 0, 1},
		{grid, Workload{Reads: 1000}, 0, 0},
		// A thin window that happened to spare every read proves nothing.
		{maj, Workload{Reads: betaMinSamples - 1, Spared: betaMinSamples - 1}, 1, 1},
		{maj, Workload{Reads: betaMinSamples, Spared: betaMinSamples}, 0, 1},
	} {
		st, err := sampledStats(c.p, 512)
		if err != nil {
			t.Fatal(err)
		}
		if st.covers != c.covers {
			t.Errorf("%v: %v of sampled read picks cover a write quorum, want %v", c.p, st.covers, c.covers)
		}
		sc, err := ScoreParams(c.p, c.wl, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if want := sc.ReadSize + c.beta*sc.WriteSize; !near(sc.Cost, want) {
			t.Errorf("%v under %+v: read cost %v, want ReadSize + %v·WriteSize = %v", c.p, c.wl, sc.Cost, c.beta, want)
		}
	}
	htg := epoch.Params{Flavor: epoch.FlavorHTGrid, Rows: 4, Cols: 4, Members: epoch.MemberRange(0, 16)}
	modelled, err := ScoreParams(htg, wl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	running, err := ScoreCurrent(htg, wl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !near(modelled.Cost, modelled.ReadSize+modelled.WriteSize) || !near(running.Cost, running.ReadSize+0.05*running.WriteSize) {
		t.Errorf("h-T-grid 4x4 measuring β = 0.05: as a candidate %v (R %v, W %v), as the running config %v; want R + W and R + 0.05·W",
			modelled.Cost, modelled.ReadSize, modelled.WriteSize, running.Cost)
	}

	// A hypothetical mix keeps the source's write-back regime, even at a
	// measured β that rounds to no write-back paid at all.
	if m := Mix(Workload{Reads: 100, Spared: 100}, 0.9, 1000); m.Reads != 900 || m.Writebacks != 0 || m.Spared != 900 {
		t.Errorf("Mix of an all-spared window = %+v, want 900 reads, all spared", m)
	}
	if m := Mix(wl, 0.5, 1000); m.Writebacks != 25 || m.Spared != 475 {
		t.Errorf("Mix of a β = 0.05 window = %+v, want 25 paid, 475 spared", m)
	}
	if m := Mix(Workload{Reads: 100}, 0.9, 1000); m.Writebacks != 0 || m.Spared != 0 {
		t.Errorf("Mix of a window without write-back = %+v, want none paid, none spared", m)
	}
}

// TestExactAvailAgainstBruteForce cross-checks the diagram-counted
// availabilities of every flavor against a direct sweep over every live
// set using the pickers themselves as the ground-truth satisfiability
// oracle.
func TestExactAvailAgainstBruteForce(t *testing.T) {
	const p = 0.2
	configs := []epoch.Params{
		{Flavor: epoch.FlavorMajority, R: 3, W: 5, Members: epoch.MemberRange(0, 7)},
		{Flavor: epoch.FlavorHMaj, Rows: 3, RL: []int{2, 2}, WL: []int{2, 3}, Members: epoch.MemberRange(0, 9)},
		{Flavor: epoch.FlavorHGrid, Rows: 3, Cols: 3, Members: epoch.MemberRange(0, 9)},
		{Flavor: epoch.FlavorHTGrid, Rows: 3, Cols: 3, Members: epoch.MemberRange(0, 9)},
		{Flavor: epoch.FlavorHTriang, Rows: 4, Members: epoch.MemberRange(0, 10)},
	}
	rng := rand.New(rand.NewSource(5))
	for _, cfg := range configs {
		m := len(cfg.Members)
		pk, err := epoch.NewPickers(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var readAvail, writeAvail, bothAvail float64
		live := bitset.New(m)
		for mask := uint64(0); mask < 1<<uint(m); mask++ {
			live.SetWord(mask)
			prob := 1.0
			for i := 0; i < m; i++ {
				if live.Contains(i) {
					prob *= 1 - p
				} else {
					prob *= p
				}
			}
			_, rerr := pk.Read(rng, live)
			_, werr := pk.Write(rng, live)
			if rerr == nil {
				readAvail += prob
			}
			if werr == nil {
				writeAvail += prob
			}
			if rerr == nil && werr == nil {
				bothAvail += prob
			}
		}
		av, err := exactAvail(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, pair := range [][2]float64{{av.read, readAvail}, {av.write, writeAvail}, {av.both, bothAvail}} {
			if math.Abs(pair[0]-pair[1]) > 1e-9 {
				t.Fatalf("%v: exact avail %v vs brute force %v", cfg, pair[0], pair[1])
			}
		}
	}
}

// TestStructuralAvailPinned pins exactAvail for the structural flavors,
// bit for bit: the rows up to 20 members at values computed by enumerating
// the flavors' bitset predicates (row-cover, full-line, the systems'
// Available), the 5×5 h-T-grid at the diagram's exact counts, which a
// 2²⁵ enumeration of the same families reproduces. The tuner ranks
// candidates by these numbers, so a gate or diagram change that moved one
// would move its swaps.
func TestStructuralAvailPinned(t *testing.T) {
	for _, c := range []struct {
		flavor     epoch.Flavor
		rows, cols int
		failP      float64
		want       availStats
	}{
		{epoch.FlavorHGrid, 3, 3, 0.05, availStats{0.9993881702363281, 0.9982909981660156, 0.9976889601582031}},
		{epoch.FlavorHGrid, 3, 3, 0.1, availStats{0.995222781, 0.987604731, 0.983106801}},
		{epoch.FlavorHGrid, 4, 4, 0.05, availStats{0.9999501255437558, 0.9996419529504361, 0.999592251606328}},
		{epoch.FlavorHGrid, 4, 4, 0.1, availStats{0.9992081368239201, 0.9949736451676959, 0.9942007035191517}},
		{epoch.FlavorHGrid, 3, 5, 0.05, availStats{0.9999972560907012, 0.9951646069276673, 0.9951619821191547}},
		{epoch.FlavorHGrid, 3, 5, 0.1, availStats{0.999914758852419, 0.967162284971829, 0.9670893128081189}},
		{epoch.FlavorHTGrid, 3, 3, 0.05, availStats{0.9993881702363281, 0.9979195806367187, 0.9976889601582031}},
		{epoch.FlavorHTGrid, 3, 3, 0.1, availStats{0.995222781, 0.984787146, 0.983106801}},
		{epoch.FlavorHTGrid, 4, 4, 0.05, availStats{0.9999501255437558, 0.9996219037331965, 0.999592251606328}},
		{epoch.FlavorHTGrid, 4, 4, 0.1, availStats{0.9992081368239201, 0.9946387865273436, 0.9942007035191517}},
		{epoch.FlavorHTGrid, 4, 5, 0.05, availStats{0.9999951371857946, 0.9995409016581762, 0.9995382752487921}},
		{epoch.FlavorHTGrid, 4, 5, 0.1, availStats{0.9998495218613436, 0.9934995083123617, 0.9934239252151029}},
		{epoch.FlavorHTriang, 4, 0, 0.05, availStats{0.99984307465625, 0.99984307465625, 0.99984307465625}},
		{epoch.FlavorHTriang, 4, 0, 0.1, availStats{0.997691904, 0.997691904, 0.997691904}},
		{epoch.FlavorHTriang, 5, 0, 0.05, availStats{0.9999762902205626, 0.9999762902205626, 0.9999762902205626}},
		{epoch.FlavorHTriang, 5, 0, 0.1, availStats{0.9993227901408, 0.9993227901408, 0.9993227901408}},
		{epoch.FlavorHTGrid, 5, 5, 0.05, availStats{0.9999929913400913, 0.9999412733816853, 0.9999366878925463}},
		{epoch.FlavorHTGrid, 5, 5, 0.1, availStats{0.9997828805944173, 0.99837918271415, 0.998247312215343}},
	} {
		m := c.rows * c.cols
		if c.flavor == epoch.FlavorHTriang {
			m = c.rows * (c.rows + 1) / 2
		}
		p := epoch.Params{Flavor: c.flavor, Rows: c.rows, Cols: c.cols, Members: epoch.MemberRange(0, m)}
		got, err := exactAvail(p, c.failP)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("%v %dx%d at FailP %v: %+v, want %+v", c.flavor, c.rows, c.cols, c.failP, got, c.want)
		}
	}
}

// TestExactAvailBeyond64Members: past 64 members no diagram reaches the
// families, and a 70-member majority scores by the fixed-seed estimate,
// within five standard errors of the closed form.
func TestExactAvailBeyond64Members(t *testing.T) {
	const m, p, samples = 70, 0.45, 200000
	av, err := exactAvail(epoch.Params{Flavor: epoch.FlavorMajority, Members: epoch.MemberRange(0, m)}, p)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - analysis.MajorityFailure(m, m/2+1, p)
	tol := 5 * math.Sqrt(want*(1-want)/samples)
	for _, got := range []float64{av.read, av.write, av.both} {
		if math.Abs(got-want) > tol {
			t.Errorf("70-member majority at p=%v: %+v, closed form %v ± %v", p, av, want, tol)
		}
	}
}
