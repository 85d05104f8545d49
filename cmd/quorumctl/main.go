// Command quorumctl inspects the quorum-system constructions of this
// repository: metrics, failure probabilities, sample quorums and ASCII
// renderings.
//
// Usage:
//
//	quorumctl show <system> [args]     metrics + failure probabilities + a sample quorum
//	quorumctl quorums <system> [args]  enumerate (small systems) or sample quorums
//	quorumctl nd <system> [args]       non-domination check (n ≤ 24)
//	quorumctl importance <p> <system> [args]  per-node Birnbaum importance
//	quorumctl poly <system> [args]     transversal counts (failure polynomial)
//	quorumctl compare <system> -- <system>  failure curves + crossover
//	quorumctl byz <f> <class> <system> [args]  lift to a Byzantine system
//	quorumctl render figure1|figure2   the paper's figures
//	quorumctl reconfig [flags] <flavor> [shape]  live config swap on a TCP cluster
//	quorumctl tune [flags]             score quorum configs against a node's measured workload
//	quorumctl metrics [flags] <host:port>  fetch and render a kvd node's -metrics-addr document
//	quorumctl list                     available systems
//
// Systems and their arguments:
//
//	majority n | hqs levels degree | grouped-hqs groups size | cwlog n |
//	hgrid rows cols | flatgrid rows cols | htgrid rows cols |
//	htriang k | paths ell | y k
//
// reconfig drives a running kvd cluster (see cmd/kvd) to a new
// epoch-versioned configuration through the two-phase joint-config
// handoff — no restarts, reads and writes linearizable across the swap:
//
//	quorumctl reconfig -peers peers.txt -id 16 -contact 0 \
//	    -target-members 0-15 htgrid 4 4
//
// The client's own -id must appear in the peers file (replicas reply over
// their address book). -target-members defaults to every peer except the
// client itself. The target flavor takes its shape positionally:
// majority [r w] | hgrid rows cols | htgrid rows cols | htriang k |
// hmaj degree levels r w.
//
// tune fetches a replica's sliding-window workload profile (read/write
// mix, write-back rate) and ranks every quorum configuration the
// auto-tuner considers against it — the manual half of kvd -auto-tune.
// With -apply it drives the cluster to the winner via the same epoch
// reconfiguration:
//
//	quorumctl tune -peers peers.txt -id 16 -contact 0 [-read-frac 0.95] [-apply]
//
// metrics talks plain HTTP to a node started with -metrics-addr and
// renders the JSON counter document: one line per counter, plus the
// per-op stage-timing table (package optrace) that shows where server
// time goes — decode, queue, lock, fsync, quorum, encode, send:
//
//	quorumctl metrics 127.0.0.1:9100
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"hquorum/internal/analysis"
	"hquorum/internal/bitset"
	"hquorum/internal/bqs"
	"hquorum/internal/cluster"
	"hquorum/internal/cwlog"
	"hquorum/internal/epoch"
	"hquorum/internal/experiments"
	"hquorum/internal/hgrid"
	"hquorum/internal/hqs"
	"hquorum/internal/htgrid"
	"hquorum/internal/htriang"
	"hquorum/internal/loadopt"
	"hquorum/internal/majority"
	"hquorum/internal/optrace"
	"hquorum/internal/paths"
	"hquorum/internal/quorum"
	"hquorum/internal/rkv"
	"hquorum/internal/transport"
	"hquorum/internal/tuner"
	"hquorum/internal/ysys"
)

func main() {
	seed := flag.Int64("seed", 1, "random seed for sampling")
	count := flag.Int("count", 5, "sample quorums to print for `quorums`")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	switch args[0] {
	case "reconfig":
		reconfig(args[1:])
	case "tune":
		tune(args[1:])
	case "metrics":
		metricsCmd(args[1:])
	case "list":
		fmt.Println("majority n | hqs levels degree | grouped-hqs groups size | cwlog n")
		fmt.Println("hgrid rows cols | flatgrid rows cols | htgrid rows cols")
		fmt.Println("htriang k | paths ell | y k")
	case "render":
		if len(args) != 2 {
			usage()
			os.Exit(2)
		}
		switch args[1] {
		case "figure1":
			fmt.Print(experiments.Figure1())
		case "figure2":
			fmt.Print(experiments.Figure2())
		default:
			fail("unknown figure %q", args[1])
		}
	case "show":
		sys := buildSystem(args[1:])
		show(sys, *seed)
	case "quorums":
		sys := buildSystem(args[1:])
		quorums(sys, *seed, *count)
	case "nd":
		sys := buildSystem(args[1:])
		nd, err := quorum.IsNonDominated(sys)
		if err != nil {
			fail("%v", err)
		}
		fmt.Printf("%s: non-dominated = %t", sys.Name(), nd)
		if !nd {
			if w, _, err := quorum.DominationWitness(sys); err == nil {
				fmt.Printf(" (witness: neither %v nor its complement contains a quorum)", w)
			}
		}
		fmt.Println()
	case "importance":
		if len(args) < 3 {
			usage()
			os.Exit(2)
		}
		p, err := strconv.ParseFloat(args[1], 64)
		if err != nil {
			fail("crash probability %q is not a number", args[1])
		}
		sys := buildSystem(args[2:])
		imp := analysis.Importance(sys, p)
		fmt.Printf("%s: Birnbaum importance at p=%.2f\n", sys.Name(), p)
		for i, v := range imp {
			fmt.Printf("  node %2d  %.6f\n", i, v)
		}
	case "poly":
		sys := buildSystem(args[1:])
		counts := analysis.CachedTransversalCounts(sys)
		fmt.Printf("%s: size-i transversal counts a_i (F_p = sum a_i p^i q^(n-i))\n", sys.Name())
		for i, a := range counts {
			fmt.Printf("  a_%-2d = %d\n", i, a)
		}
	case "compare":
		sep := -1
		for i, a := range args {
			if a == "--" {
				sep = i
				break
			}
		}
		if sep < 2 || sep == len(args)-1 {
			fail("usage: quorumctl compare <system...> -- <system...>")
		}
		sysA := buildSystem(args[1:sep])
		sysB := buildSystem(args[sep+1:])
		countsA := analysis.CachedTransversalCounts(sysA)
		countsB := analysis.CachedTransversalCounts(sysB)
		fmt.Printf("%-6s %14s %14s\n", "p", sysA.Name(), sysB.Name())
		for p := 0.05; p <= 0.501; p += 0.05 {
			fmt.Printf("%-6.2f %14.6f %14.6f\n", p, analysis.Failure(countsA, p), analysis.Failure(countsB, p))
		}
		if x, ok := analysis.Crossover(countsA, countsB, 0.01, 0.5); ok {
			fmt.Printf("curves cross at p ≈ %.4f\n", x)
		} else {
			fmt.Println("no crossover in (0.01, 0.5)")
		}
	case "byz":
		if len(args) < 4 {
			usage()
			os.Exit(2)
		}
		f, err := strconv.Atoi(args[1])
		if err != nil {
			fail("fault bound %q is not an integer", args[1])
		}
		class := bqs.Dissemination
		switch args[2] {
		case "dissemination":
		case "masking":
			class = bqs.Masking
		default:
			fail("unknown class %q (want dissemination|masking)", args[2])
		}
		base := buildSystem(args[3:])
		c, err := bqs.NewClustered(base, f, class)
		if err != nil {
			fail("%v", err)
		}
		fmt.Printf("base:      %s (%d elements, quorums %d..%d)\n",
			base.Name(), base.Universe(), base.MinQuorumSize(), base.MaxQuorumSize())
		fmt.Printf("byzantine: %s\n", c.Name())
		fmt.Printf("           %d servers in clusters of %d, quorums %d..%d, overlap >= %d\n",
			c.Universe(), c.ClusterSize(), c.MinQuorumSize(), c.MaxQuorumSize(), c.Overlap())
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: quorumctl [flags] show|quorums|render|reconfig|tune|metrics|list ...")
	flag.PrintDefaults()
}

// reconfig implements `quorumctl reconfig`: ask a running cluster's
// coordinator to move to a new epoch-versioned configuration and wait for
// the outcome.
func reconfig(args []string) {
	fs := flag.NewFlagSet("reconfig", flag.ExitOnError)
	peersPath := fs.String("peers", "", "peers file of the running cluster (one 'id host:port' per line)")
	id := fs.Int("id", -1, "this client's ID (must appear in the peers file; not a target member)")
	contact := fs.Int("contact", -1, "replica to coordinate the change (default: lowest target member)")
	targetMembers := fs.String("target-members", "", "target member IDs, e.g. '0-15' (default: every peer except -id)")
	retry := fs.Duration("retry", time.Second, "request retry interval (the coordinator deduplicates)")
	timeout := fs.Duration("timeout", time.Minute, "overall budget for the reconfiguration")
	dialTimeout := fs.Duration("dial-timeout", time.Second, "TCP dial timeout for peer connections")
	fs.Parse(args)

	peers, err := transport.LoadPeers(*peersPath)
	if err != nil {
		fail("reconfig: peers: %v", err)
	}
	addr, ok := peers[cluster.NodeID(*id)]
	if !ok {
		fail("reconfig: client id %d is not in the peers file", *id)
	}

	target, err := parseTarget(fs.Args())
	if err != nil {
		fail("reconfig: %v", err)
	}
	if *targetMembers != "" {
		if target.Members, err = epoch.ParseMembers(*targetMembers); err != nil {
			fail("reconfig: %v", err)
		}
	} else {
		for _, pid := range transport.PeerIDs(peers) {
			if pid != cluster.NodeID(*id) {
				target.Members = append(target.Members, pid)
			}
		}
	}
	if err := target.Validate(transport.IDSpace(peers)); err != nil {
		fail("reconfig: %v", err)
	}
	coordinator := target.Members[0]
	if *contact >= 0 {
		coordinator = cluster.NodeID(*contact)
	}
	if _, ok := peers[coordinator]; !ok {
		fail("reconfig: contact %d is not in the peers file", coordinator)
	}

	done := make(chan struct{})
	var gotEpoch uint64
	var gotErr string
	client := rkv.NewReconfigClient(coordinator, target, *retry, func(epoch uint64, errText string) {
		gotEpoch, gotErr = epoch, errText
		close(done)
	})
	tn, err := transport.NewNode(cluster.NodeID(*id), client, addr, transport.WithDialTimeout(*dialTimeout))
	if err != nil {
		fail("reconfig: %v", err)
	}
	defer tn.Close()
	tn.Connect(peers)
	tn.Start()
	tn.Kick(0, client.StartToken())

	select {
	case <-done:
		if gotErr != "" {
			fail("reconfig: coordinator %d: %s", coordinator, gotErr)
		}
		fmt.Printf("reconfigured: epoch %d now runs %v (coordinator %d)\n", gotEpoch, target, coordinator)
	case <-time.After(*timeout):
		fail("reconfig: no outcome within %v (is the cluster up?)", *timeout)
	}
}

// tune implements `quorumctl tune`: fetch a replica's measured workload
// (and current epoch config) over the wire, rank the whole candidate space
// against it with the same optimizer kvd -auto-tune runs, and optionally
// drive the cluster to the winner.
func tune(args []string) {
	fs := flag.NewFlagSet("tune", flag.ExitOnError)
	peersPath := fs.String("peers", "", "peers file of the running cluster (one 'id host:port' per line)")
	id := fs.Int("id", -1, "this client's ID (must appear in the peers file; not a replica)")
	contact := fs.Int("contact", -1, "replica to fetch the workload from (default: lowest peer that is not -id)")
	readFrac := fs.Float64("read-frac", -1, "override the measured read fraction with a hypothetical mix (0..1)")
	failP := fs.Float64("fail-p", 0, "per-node failure probability for the availability constraint (default 0.1)")
	minAvail := fs.Float64("min-avail", 0, "mix-weighted availability floor for feasibility (default 0.998)")
	top := fs.Int("top", 8, "ranked candidates to print")
	apply := fs.Bool("apply", false, "reconfigure the cluster to the winning configuration")
	retry := fs.Duration("retry", time.Second, "request retry interval")
	timeout := fs.Duration("timeout", time.Minute, "overall budget per request")
	dialTimeout := fs.Duration("dial-timeout", time.Second, "TCP dial timeout for peer connections")
	fs.Parse(args)

	peers, err := transport.LoadPeers(*peersPath)
	if err != nil {
		fail("tune: peers: %v", err)
	}
	addr, ok := peers[cluster.NodeID(*id)]
	if !ok {
		fail("tune: client id %d is not in the peers file", *id)
	}
	contactID := cluster.NodeID(-1)
	if *contact >= 0 {
		contactID = cluster.NodeID(*contact)
	} else {
		for _, pid := range transport.PeerIDs(peers) {
			if pid != cluster.NodeID(*id) {
				contactID = pid
				break
			}
		}
	}
	if _, ok := peers[contactID]; !ok {
		fail("tune: contact %d is not in the peers file", contactID)
	}

	// Fetch the profiler snapshot and current config in one round trip.
	done := make(chan struct{})
	var wl tuner.Workload
	var cfg epoch.Config
	haveCfg := false
	wc := rkv.NewWorkloadClient(contactID, *retry, func(w tuner.Workload, c epoch.Config, have bool) {
		wl, cfg, haveCfg = w, c, have
		close(done)
	})
	tn, err := transport.NewNode(cluster.NodeID(*id), wc, addr, transport.WithDialTimeout(*dialTimeout))
	if err != nil {
		fail("tune: %v", err)
	}
	tn.Connect(peers)
	tn.Start()
	tn.Kick(0, wc.StartToken())
	select {
	case <-done:
	case <-time.After(*timeout):
		tn.Close()
		fail("tune: no workload reply within %v (is the cluster up?)", *timeout)
	}
	tn.Close()
	if !haveCfg {
		fail("tune: malformed reply from replica %d: no epoch config", contactID)
	}

	fmt.Printf("replica %d measured: %d ops over %v window (%.0f%% reads, write-back β=%.2f, avg latency %v)\n",
		contactID, wl.Ops(), time.Duration(wl.SpanUs)*time.Microsecond,
		100*wl.ReadFrac(), wl.WritebackFrac(), wl.AvgLatency())
	if *readFrac >= 0 {
		ops := wl.Ops()
		if ops == 0 {
			ops = 1000
		}
		wl = tuner.Mix(wl, *readFrac, ops)
		fmt.Printf("scoring hypothetical mix: %.0f%% reads\n", 100**readFrac)
	}

	opt := tuner.Options{FailP: *failP, MinAvail: *minAvail}
	curScore, err := tuner.ScoreCurrent(cfg.Cur, wl, opt)
	if err != nil {
		fail("tune: %v", err)
	}
	ranked, err := tuner.Search(cfg.Cur.Members, wl, opt)
	if err != nil {
		fail("tune: %v", err)
	}
	best := tuner.Candidate{Params: cfg.Cur, Score: curScore}
	for _, c := range ranked {
		if c.Score.Feasible {
			best = c
			break
		}
	}

	fmt.Printf("\ncurrent (epoch %d): %v\n", cfg.Epoch, cfg.Cur)
	fmt.Printf("  %s\n", scoreLine(curScore))
	show := *top
	if show > len(ranked) {
		show = len(ranked)
	}
	fmt.Printf("\ntop %d of %d candidates:\n", show, len(ranked))
	for i, c := range ranked {
		if i >= *top {
			break
		}
		marker := " "
		if c.Params.Equal(best.Params) {
			marker = "*"
		}
		fmt.Printf("%s %2d. %v\n      %s\n", marker, i+1, c.Params, scoreLine(c.Score))
	}
	gain := curScore.Gain(best.Score)
	if best.Params.Equal(cfg.Cur) {
		fmt.Printf("\ncurrent configuration is already the winner; nothing to do\n")
		return
	}
	fmt.Printf("\nwinner saves %.2fx messages per op vs current\n", gain)
	if !*apply {
		fmt.Printf("re-run with -apply to reconfigure\n")
		return
	}

	// Drive the swap through the standard reconfiguration client. The
	// workload transport is closed, so the client ID is free to rebind.
	applyDone := make(chan struct{})
	var gotEpoch uint64
	var gotErr string
	rc := rkv.NewReconfigClient(contactID, best.Params, *retry, func(epoch uint64, errText string) {
		gotEpoch, gotErr = epoch, errText
		close(applyDone)
	})
	tn2, err := transport.NewNode(cluster.NodeID(*id), rc, addr, transport.WithDialTimeout(*dialTimeout))
	if err != nil {
		fail("tune: %v", err)
	}
	defer tn2.Close()
	tn2.Connect(peers)
	tn2.Start()
	tn2.Kick(0, rc.StartToken())
	select {
	case <-applyDone:
		if gotErr != "" {
			fail("tune: coordinator %d: %s", contactID, gotErr)
		}
		fmt.Printf("reconfigured: epoch %d now runs %v\n", gotEpoch, best.Params)
	case <-time.After(*timeout):
		fail("tune: no reconfiguration outcome within %v", *timeout)
	}
}

// scoreLine renders one Score for the tune table.
func scoreLine(s tuner.Score) string {
	feas := "feasible"
	if !s.Feasible {
		feas = "INFEASIBLE"
	}
	return fmt.Sprintf("cost %.2f msg/op (read %.2f, write %.2f)  max-load %.3f  avail %.6f  %s",
		s.Cost, s.ReadSize, s.WriteSize, s.MaxLoad, s.Avail, feas)
}

// metricsCmd implements `quorumctl metrics`: GET a kvd node's
// -metrics-addr JSON document and render it for operators — flat
// counters grouped and sorted, then the optrace stage table in pipeline
// order so "where does an op's time go" reads top to bottom.
func metricsCmd(args []string) {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	raw := fs.Bool("raw", false, "dump the raw JSON document instead of rendering")
	all := fs.Bool("all", false, "show zero-count stages in the stage table")
	timeout := fs.Duration("timeout", 5*time.Second, "HTTP fetch timeout")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fail("usage: quorumctl metrics [-raw] [-all] <host:port>")
	}
	url := fs.Arg(0)
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	url = strings.TrimSuffix(url, "/") + "/metrics"

	client := &http.Client{Timeout: *timeout}
	resp, err := client.Get(url)
	if err != nil {
		fail("metrics: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		fail("metrics: read: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		fail("metrics: %s returned %s", url, resp.Status)
	}
	if *raw {
		os.Stdout.Write(body)
		if len(body) > 0 && body[len(body)-1] != '\n' {
			fmt.Println()
		}
		return
	}
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		fail("metrics: %s is not a JSON object: %v", url, err)
	}

	trace, _ := doc["optrace"].(map[string]any)
	delete(doc, "optrace")
	groups := make([]string, 0, len(doc))
	for g := range doc {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	for _, g := range groups {
		fmt.Printf("%s:\n", g)
		printCounters("  ", doc[g])
	}
	if trace != nil {
		printTrace(trace, *all)
	}
}

// printCounters renders one metrics group: scalars as aligned key/value
// lines, nested objects flattened with dotted keys, in sorted order.
func printCounters(indent string, v any) {
	m, ok := v.(map[string]any)
	if !ok {
		fmt.Printf("%s%v\n", indent, v)
		return
	}
	var flat [][2]string
	var walk func(prefix string, mm map[string]any)
	walk = func(prefix string, mm map[string]any) {
		keys := make([]string, 0, len(mm))
		for k := range mm {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			switch x := mm[k].(type) {
			case map[string]any:
				walk(prefix+k+".", x)
			case float64:
				flat = append(flat, [2]string{prefix + k, strconv.FormatFloat(x, 'g', -1, 64)})
			default:
				flat = append(flat, [2]string{prefix + k, fmt.Sprint(x)})
			}
		}
	}
	walk("", m)
	width := 0
	for _, kv := range flat {
		if len(kv[0]) > width {
			width = len(kv[0])
		}
	}
	for _, kv := range flat {
		fmt.Printf("%s%-*s  %s\n", indent, width, kv[0], kv[1])
	}
}

// printTrace renders the optrace group: the sampling header plus a
// per-stage latency table in pipeline order (optrace.StageNames), µs.
func printTrace(trace map[string]any, showZero bool) {
	num := func(k string) float64 {
		f, _ := trace[k].(float64)
		return f
	}
	fmt.Printf("op tracing (1-in-%.0f sampling):\n", num("sample_every"))
	fmt.Printf("  sampled %.0f ops: %.0f reads, %.0f writes, %.0f other; avg batch %.2f; epoch %.0f\n",
		num("sampled"), num("reads"), num("writes"), num("other"), num("avg_batch"), num("epoch"))
	stages, _ := trace["stages"].(map[string]any)
	if stages == nil {
		return
	}
	fmt.Printf("  %-12s %10s %10s %10s %10s %10s\n", "stage", "count", "p50_us", "p99_us", "max_us", "mean_us")
	shown := 0
	for _, name := range optrace.StageNames() {
		st, ok := stages[name].(map[string]any)
		if !ok {
			continue
		}
		cell := func(k string) float64 {
			f, _ := st[k].(float64)
			return f
		}
		count := cell("count")
		if count == 0 && !showZero {
			continue
		}
		shown++
		fmt.Printf("  %-12s %10.0f %10.1f %10.1f %10.1f %10.1f\n",
			name, count, cell("p50_us"), cell("p99_us"), cell("max_us"), cell("mean_us"))
	}
	if shown == 0 {
		fmt.Println("  (no samples yet — is -trace-sample 0, or has no traffic arrived?)")
	}
}

// parseTarget reads the positional target spec: a flavor name followed by
// its shape (majority [r w] | hgrid rows cols | htgrid rows cols |
// htriang k | hmaj degree levels r w — the same r/w thresholds at every
// level). Members are filled in by the caller.
func parseTarget(args []string) (epoch.Params, error) {
	if len(args) == 0 {
		return epoch.Params{}, fmt.Errorf("missing target flavor (majority|hgrid|htgrid|htriang|hmaj)")
	}
	flavor, err := epoch.ParseFlavor(args[0])
	if err != nil {
		return epoch.Params{}, err
	}
	p := epoch.Params{Flavor: flavor}
	switch flavor {
	case epoch.FlavorMajority:
		switch len(args) {
		case 1:
		case 3:
			p.R, p.W = intArg(args, 1), intArg(args, 2)
		default:
			return epoch.Params{}, fmt.Errorf("majority takes no shape arguments, or asymmetric thresholds r w")
		}
	case epoch.FlavorHGrid, epoch.FlavorHTGrid:
		if len(args) != 3 {
			return epoch.Params{}, fmt.Errorf("%s takes rows and cols", args[0])
		}
		p.Rows, p.Cols = intArg(args, 1), intArg(args, 2)
	case epoch.FlavorHTriang:
		if len(args) != 2 {
			return epoch.Params{}, fmt.Errorf("htriang takes k")
		}
		p.Rows = intArg(args, 1)
	case epoch.FlavorHMaj:
		if len(args) != 5 {
			return epoch.Params{}, fmt.Errorf("hmaj takes degree levels r w")
		}
		p.Rows = intArg(args, 1)
		levels := intArg(args, 2)
		if levels < 1 {
			return epoch.Params{}, fmt.Errorf("hmaj levels %d (want >= 1)", levels)
		}
		r, w := intArg(args, 3), intArg(args, 4)
		p.RL, p.WL = make([]int, levels), make([]int, levels)
		for i := 0; i < levels; i++ {
			p.RL[i], p.WL[i] = r, w
		}
	}
	return p, nil
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

func intArg(args []string, i int) int {
	if i >= len(args) {
		fail("missing argument %d", i)
	}
	v, err := strconv.Atoi(args[i])
	if err != nil {
		fail("argument %q is not an integer", args[i])
	}
	return v
}

func buildSystem(args []string) quorum.System {
	if len(args) == 0 {
		fail("missing system name")
	}
	switch args[0] {
	case "majority":
		return majority.New(intArg(args, 1))
	case "hqs":
		return hqs.Uniform(intArg(args, 1), intArg(args, 2))
	case "grouped-hqs":
		return hqs.Grouped(intArg(args, 1), intArg(args, 2))
	case "cwlog":
		s, err := cwlog.Log(intArg(args, 1))
		if err != nil {
			fail("%v", err)
		}
		return s
	case "hgrid":
		return hgrid.NewRW(hgrid.Auto(intArg(args, 1), intArg(args, 2)))
	case "flatgrid":
		return hgrid.NewRW(hgrid.Flat(intArg(args, 1), intArg(args, 2)))
	case "htgrid":
		return htgrid.Auto(intArg(args, 1), intArg(args, 2))
	case "htriang":
		return htriang.New(intArg(args, 1))
	case "paths":
		return paths.New(intArg(args, 1))
	case "y":
		return ysys.New(intArg(args, 1))
	default:
		fail("unknown system %q", args[0])
		return nil
	}
}

func show(sys quorum.System, seed int64) {
	n := sys.Universe()
	fmt.Printf("system:       %s\n", sys.Name())
	fmt.Printf("universe:     %d nodes\n", n)
	fmt.Printf("quorum size:  %d..%d\n", sys.MinQuorumSize(), sys.MaxQuorumSize())
	fmt.Printf("load bound:   >= %.4f (Prop. 3.3)\n", loadopt.LowerBound(sys.MinQuorumSize(), n))
	if n <= 26 {
		fs := analysis.FailureAt(sys, experiments.Ps)
		fmt.Printf("failure prob:")
		for i, p := range experiments.Ps {
			fmt.Printf("  F(%.1f)=%.6f", p, fs[i])
		}
		fmt.Println()
	} else {
		rng := rand.New(rand.NewSource(seed))
		fmt.Printf("failure prob (Monte Carlo, 200k samples):")
		for _, p := range experiments.Ps {
			res := analysis.MonteCarloFailure(sys, p, 200000, rng)
			fmt.Printf("  F(%.1f)=%.6f±%.6f", p, res.Estimate, res.StdErr)
		}
		fmt.Println()
	}
	rng := rand.New(rand.NewSource(seed))
	q, err := sys.Pick(rng, bitset.Universe(n))
	if err != nil {
		fail("pick: %v", err)
	}
	fmt.Printf("sample:       %v (%d nodes)\n", q, q.Count())
	if r, ok := sys.(interface{ Render(bitset.Set) string }); ok {
		fmt.Println(r.Render(q))
	}
	if tri, ok := sys.(*htriang.System); ok {
		fmt.Println(tri.Render(&q))
	}
}

func quorums(sys quorum.System, seed int64, count int) {
	if e, ok := sys.(quorum.Enumerator); ok && sys.Universe() <= 20 {
		i := 0
		e.EnumerateQuorums(func(q bitset.Set) bool {
			fmt.Printf("%4d  %v\n", i, q)
			i++
			return i < 1000
		})
		if i == 1000 {
			fmt.Println("... (truncated at 1000)")
		}
		return
	}
	rng := rand.New(rand.NewSource(seed))
	live := bitset.Universe(sys.Universe())
	for i := 0; i < count; i++ {
		q, err := sys.Pick(rng, live)
		if err != nil {
			fail("pick: %v", err)
		}
		fmt.Printf("%4d  %v\n", i, q)
	}
}
