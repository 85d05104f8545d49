package epoch

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"hquorum/internal/bitset"
	"hquorum/internal/cluster"
	"hquorum/internal/hgrid"
)

func hgrid44(members []cluster.NodeID) Params {
	return Params{Flavor: FlavorHGrid, Rows: 4, Cols: 4, Members: members}
}

// TestParseMembers: good specs parse sorted and deduplicated; bad ones,
// and members outside the ID space — a range up to the largest int
// included, which must be refused before it is expanded — do not.
func TestParseMembers(t *testing.T) {
	for _, c := range []struct {
		spec string
		want []cluster.NodeID
	}{
		{"0-3,6,9-11", []cluster.NodeID{0, 1, 2, 3, 6, 9, 10, 11}},
		{"9-11, 2,0-1,10", []cluster.NodeID{0, 1, 2, 9, 10, 11}},
		{"1,,", []cluster.NodeID{1}},
		{"15", []cluster.NodeID{15}},
		{"0-15", MemberRange(0, 16)},
	} {
		got, err := ParseMembers(c.spec, 16)
		if err != nil || !slices.Equal(got, c.want) {
			t.Errorf("ParseMembers(%q, 16) = %v, %v; want %v", c.spec, got, err, c.want)
		}
	}
	for _, bad := range []string{"", "5-2", "x", "-3", "16", "0-16", "3,16-20", "0-9223372036854775807", "9223372036854775807"} {
		if got, err := ParseMembers(bad, 16); err == nil {
			t.Errorf("ParseMembers(%q, 16) = %v, want an error", bad, got)
		}
	}
}

func TestParamsValidate(t *testing.T) {
	ok := hgrid44(MemberRange(0, 16))
	if err := ok.Validate(16); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	cases := []struct {
		name string
		p    Params
		sp   int
	}{
		{"empty", Params{Flavor: FlavorMajority}, 8},
		{"outside-space", Params{Flavor: FlavorMajority, Members: MemberRange(0, 9)}, 8},
		{"unsorted", Params{Flavor: FlavorMajority, Members: []cluster.NodeID{2, 1}}, 8},
		{"dup", Params{Flavor: FlavorMajority, Members: []cluster.NodeID{1, 1}}, 8},
		{"grid-shape", Params{Flavor: FlavorHGrid, Rows: 4, Cols: 4, Members: MemberRange(0, 9)}, 16},
		{"triang-shape", Params{Flavor: FlavorHTriang, Rows: 4, Members: MemberRange(0, 9)}, 16},
		{"bad-flavor", Params{Flavor: 99, Members: MemberRange(0, 4)}, 8},
	}
	for _, c := range cases {
		if err := c.p.Validate(c.sp); err == nil {
			t.Errorf("%s: want validation error", c.name)
		}
	}
	// htriang k=3 has 6 members.
	tri := Params{Flavor: FlavorHTriang, Rows: 3, Members: MemberRange(0, 6)}
	if err := tri.Validate(6); err != nil {
		t.Errorf("htriang k=3: %v", err)
	}
}

func TestConfigRoundTrip(t *testing.T) {
	old := Params{Flavor: FlavorMajority, Members: MemberRange(0, 9)}
	cfg := Config{Epoch: 7, Cur: hgrid44(MemberRange(0, 16)), Old: &old}
	got, err := DecodeConfig(cfg.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 7 || !got.Cur.Equal(cfg.Cur) || got.Old == nil || !got.Old.Equal(old) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if got.Fingerprint() != cfg.Fingerprint() {
		t.Fatal("fingerprint not stable across round trip")
	}
	stable := Config{Epoch: 8, Cur: cfg.Cur}
	got2, err := DecodeConfig(stable.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got2.Joint() || got2.Epoch != 8 {
		t.Fatalf("stable round trip mismatch: %+v", got2)
	}
	if got2.Fingerprint() == got.Fingerprint() {
		t.Fatal("distinct configs share a fingerprint")
	}

	p, err := DecodeParams(cfg.Cur.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !p.Equal(cfg.Cur) {
		t.Fatalf("params round trip mismatch: %+v", p)
	}
}

func TestDecodeConfigHostile(t *testing.T) {
	cases := map[string][]byte{
		"empty":        {},
		"joint-flag-2": {1, 2},
		// Member count (1<<40) far beyond the remaining bytes.
		"huge-count": {1, 0, 0, 4, 4, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
		"truncated":  Config{Epoch: 3, Cur: hgrid44(MemberRange(0, 16))}.Encode(nil)[:5],
	}
	for name, data := range cases {
		if _, err := DecodeConfig(data); err == nil {
			t.Errorf("%s: want decode error", name)
		}
	}
}

func TestStoreInstallMonotonic(t *testing.T) {
	st, err := NewStore(16, hgrid44(MemberRange(0, 16)))
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch() != 1 || st.Universe() != 16 {
		t.Fatalf("initial state: epoch %d universe %d", st.Epoch(), st.Universe())
	}
	next := Config{Epoch: 3, Cur: Params{Flavor: FlavorMajority, Members: MemberRange(0, 9)}}
	if ok, err := st.Install(next); err != nil || !ok {
		t.Fatalf("install newer: ok=%v err=%v", ok, err)
	}
	// Same and older epochs are no-ops.
	if ok, _ := st.Install(next); ok {
		t.Fatal("re-install of same epoch adopted")
	}
	if ok, _ := st.Install(Config{Epoch: 2, Cur: hgrid44(MemberRange(0, 16))}); ok {
		t.Fatal("older epoch adopted")
	}
	if st.Epoch() != 3 {
		t.Fatalf("epoch = %d, want 3", st.Epoch())
	}
	// Invalid config errors without changing state.
	if _, err := st.Install(Config{Epoch: 9, Cur: Params{Flavor: FlavorHGrid, Rows: 4, Cols: 4, Members: MemberRange(0, 9)}}); err == nil {
		t.Fatal("invalid config installed")
	}
	if st.Epoch() != 3 {
		t.Fatal("failed install changed state")
	}
}

func TestServeVerdicts(t *testing.T) {
	st, err := NewStore(9, Params{Flavor: FlavorMajority, Members: MemberRange(0, 9)})
	if err != nil {
		t.Fatal(err)
	}
	ran := false
	if v := st.Serve(1, func() { ran = true }); v != VerdictCurrent || !ran {
		t.Fatalf("matching epoch: verdict %v ran %v", v, ran)
	}
	ran = false
	if v := st.Serve(0, func() { ran = true }); v != VerdictSenderStale || ran {
		t.Fatalf("stale sender: verdict %v ran %v", v, ran)
	}
	if v := st.Serve(5, func() { ran = true }); v != VerdictSelfStale || ran {
		t.Fatalf("self stale: verdict %v ran %v", v, ran)
	}
}

// TestPickMapsDenseToGlobal checks that a config whose members sit high in
// the ID space still picks quorums made of those global IDs.
func TestPickMapsDenseToGlobal(t *testing.T) {
	members := MemberRange(7, 16) // 9 members: IDs 7..15
	st, err := NewStore(16, Params{Flavor: FlavorHTriang, Rows: 3, Members: members[:6]})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	live := bitset.Universe(16)
	for i := 0; i < 50; i++ {
		q, err := st.PickRead(rng, live)
		if err != nil {
			t.Fatal(err)
		}
		q.ForEach(func(id int) {
			if id < 7 || id > 12 {
				t.Fatalf("pick returned non-member id %d", id)
			}
		})
		if q.Count() == 0 {
			t.Fatal("empty quorum")
		}
	}
}

// TestJointPicksSpanBothConfigs checks the two-phase handoff rule: while
// the config is joint, every pick contains a quorum of the old config and
// a quorum of the new one.
func TestJointPicksSpanBothConfigs(t *testing.T) {
	oldP := Params{Flavor: FlavorMajority, Members: MemberRange(0, 9)}
	newP := hgrid44(MemberRange(0, 16))
	st, err := NewStore(16, oldP)
	if err != nil {
		t.Fatal(err)
	}
	joint := Config{Epoch: 2, Cur: newP, Old: &oldP}
	if ok, err := st.Install(joint); !ok || err != nil {
		t.Fatalf("install joint: ok=%v err=%v", ok, err)
	}
	rng := rand.New(rand.NewSource(7))
	live := bitset.Universe(16)
	for i := 0; i < 100; i++ {
		q, err := st.PickWrite(rng, live)
		if err != nil {
			t.Fatal(err)
		}
		// Old side: a majority write quorum has ≥5 of IDs 0..8.
		oldCount := 0
		for id := 0; id < 9; id++ {
			if q.Contains(id) {
				oldCount++
			}
		}
		if oldCount < 5 {
			t.Fatalf("joint write quorum has %d old members, want >=5 (%v)", oldCount, q.Indices())
		}
		// New side: members 0..15 map to grid IDs identically, so the
		// union must contain a full line of the 4x4 hierarchy.
		if !hgrid.Auto(4, 4).FullLineGate().Eval(q) {
			t.Fatalf("joint write quorum covers no new-config write quorum: %v", q.Indices())
		}
	}
	// Joint picks fail if the old side cannot form a quorum, even when the
	// new side could — the transition needs both.
	dead := bitset.Universe(16)
	for id := 0; id < 5; id++ {
		dead.Remove(id)
	}
	if _, err := st.PickWrite(rng, dead); err == nil {
		t.Fatal("joint pick succeeded without an old-config quorum")
	}
}

// TestStoreConcurrentServeInstall races replica serves against installs —
// meaningful under -race, which scripts/verify.sh runs for this package.
func TestStoreConcurrentServeInstall(t *testing.T) {
	st, err := NewStore(16, hgrid44(MemberRange(0, 16)))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			live := bitset.Universe(16)
			for {
				select {
				case <-stop:
					return
				default:
				}
				st.Serve(st.Epoch(), func() {})
				if _, err := st.PickRead(rng, live); err != nil {
					t.Error(err)
					return
				}
				st.Snapshot()
			}
		}(int64(g))
	}
	oldP := hgrid44(MemberRange(0, 16))
	for e := uint64(2); e < 50; e++ {
		cfg := Config{Epoch: e, Cur: Params{Flavor: FlavorMajority, Members: MemberRange(0, 9)}, Old: &oldP}
		if e%2 == 0 {
			cfg = Config{Epoch: e, Cur: oldP}
		}
		if _, err := st.Install(cfg); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
