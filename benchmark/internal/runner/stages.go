package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// The product's own op tracing (rkv.Config.TraceSample, the source of
// the optrace.<stage>_p50_us metrics) has a race at the seed commit: a
// sampled record handed to a peer writer can be finished by the writer
// before the delivering goroutine checks whether it was handed off, the
// delivering goroutine then finishes it a second time, and the process
// dies on a nil pointer in optrace.(*Rec).Done. Under lan-mixed or
// gw-lease-read load at 1-in-64 sampling that happens within about half
// a minute. The benchmark may not change product code, so it keeps the
// product's tracing out of its own process: a traced run starts itself
// again as a short-lived child that boots the same system with tracing
// on, loads it for a few seconds and prints the stage medians. A child
// that dies is tried once more; if that dies too the stages read 0 and
// the run says so.

// stageSeconds is how long the child keeps the load on. Short on
// purpose: every sampled delivery is a chance to hit the race.
const stageSeconds = 2.5

// StageReport is what the child prints.
type StageReport struct {
	P50Us   map[string]float64 `json:"p50_us"`
	Sampled uint64             `json:"sampled"`
}

// RunStages is the child's side: boot with the product's tracing on,
// load, report.
func RunStages(w Workload, opt Options) (StageReport, error) {
	w.productTrace = true
	l, err := boot(w, opt, nil, "stages")
	if err != nil {
		return StageReport{}, err
	}
	time.Sleep(time.Duration(opt.Seconds * float64(time.Second)))
	p50, sampled, stageErr := l.c.StageP50s()
	if err := l.shutdown(true); err != nil {
		return StageReport{}, err
	}
	if stageErr != nil {
		return StageReport{}, fmt.Errorf("merging op-trace snapshots: %w", stageErr)
	}
	if _, v := l.e.check.finish(); len(v) > 0 {
		return StageReport{}, fmt.Errorf("correctness gate failed: %s", v[0])
	}
	return StageReport{P50Us: p50, Sampled: sampled}, nil
}

// sampleStages is the parent's side. It returns the child's report and
// a note for the run's output.
func sampleStages(w Workload, opt Options) (StageReport, string) {
	var lastErr error
	for attempt := 1; attempt <= 2; attempt++ {
		rep, err := stagesChild(w, opt)
		if err == nil {
			return rep, fmt.Sprintf("op-trace stages: %d records sampled by a child process in %.1fs (attempt %d)", rep.Sampled, stageSeconds, attempt)
		}
		lastErr = err
	}
	return StageReport{}, fmt.Sprintf("op-trace stages read 0: the stage-sampling child failed twice (%v)", lastErr)
}

func stagesChild(w Workload, opt Options) (StageReport, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, opt.Self,
		"--stages", "--workload", w.Name,
		"--seed", strconv.FormatUint(opt.Seed, 10),
		"--seconds", strconv.FormatFloat(stageSeconds, 'f', -1, 64))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	// Run waits for the child to end, also when the context kills it. A
	// child that died leaves its WAL directory behind.
	err := cmd.Run()
	if cmd.Process != nil {
		os.RemoveAll(walDir(opt, cmd.Process.Pid, "stages"))
	}
	if err != nil {
		msg := bytes.TrimSpace(stderr.Bytes())
		if i := bytes.IndexByte(msg, '\n'); i > 0 {
			msg = msg[:i]
		}
		return StageReport{}, fmt.Errorf("%w: %s", err, msg)
	}
	var rep StageReport
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), &rep); err != nil {
		return StageReport{}, fmt.Errorf("child output: %w", err)
	}
	return rep, nil
}
