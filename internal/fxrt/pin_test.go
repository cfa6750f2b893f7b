package fxrt

import (
	"errors"
	"fmt"
	"regexp"
	"sync/atomic"
	"testing"
	"time"
)

var errPinPoison = errors.New("pin: poisoned data set")

// pinCase is one row of the batch-run behaviour table: a pipeline
// configuration, and the exact counters and outputs Run/RunWithEdges must
// produce for it.
type pinCase struct {
	name string
	// configure adjusts a fresh two-stage pipeline: its fault-tolerance
	// fields, or a poisoned stage for the zero-config abort cases.
	configure func(p *Pipeline)
	// front is the replica count of stage 0 (default 2).
	front int
	// frontWork is per-data-set sleep in stage 0.
	frontWork time.Duration
	// edgeFail makes the edge transfer fail permanently for this data set
	// (-1: never); only meaningful with edges.
	edgeFail  int
	edgesOnly bool
	// want are the exact counters; dropped lists the data sets that must
	// not reach the sink.
	want    Stats
	dropped []int
	// abortMsg, when set, expects Run to abort with an error wrapping
	// errPinPoison whose message matches it, so the error names where it
	// came from.
	abortMsg string
}

// TestBatchRunBehaviourTable pins what batch Run and RunWithEdges do on the
// fault tables: exact Stats counters, every surviving data set's output
// value, and the zero-configuration abort-with-error behaviour, each with
// and without an edge transfer.
func TestBatchRunBehaviourTable(t *testing.T) {
	const n = 30
	cases := []pinCase{
		{name: "healthy", configure: func(p *Pipeline) {}, edgeFail: -1},
		{name: "healthy-ft", configure: func(p *Pipeline) {
			p.Retry = RetryPolicy{MaxRetries: 1}
		}, edgeFail: -1},
		{name: "transient-fail", edgeFail: -1, configure: func(p *Pipeline) {
			p.Retry = RetryPolicy{MaxRetries: 2, Backoff: time.Millisecond}
			p.Faults = []Fault{{Stage: 0, Instance: -1, DataSet: 7, Kind: FaultFail, Attempts: 2}}
		}, want: Stats{Retried: 2}},
		{name: "permanent-fail-drops", edgeFail: -1, configure: func(p *Pipeline) {
			p.Retry = RetryPolicy{MaxRetries: 1}
			p.Faults = []Fault{{Stage: 1, Instance: -1, DataSet: 5, Kind: FaultFail}}
		}, want: Stats{Retried: 1, Dropped: 1}, dropped: []int{5}},
		{name: "hang-deadline", edgeFail: -1, configure: func(p *Pipeline) {
			p.StageDeadline = 100 * time.Millisecond
			p.Faults = []Fault{{Stage: 0, Instance: -1, DataSet: 3, Kind: FaultHang}}
		}, want: Stats{Timeouts: 1, Dropped: 1}, dropped: []int{3}},
		{name: "slow-past-deadline-retries", edgeFail: -1, configure: func(p *Pipeline) {
			p.StageDeadline = 100 * time.Millisecond
			p.Retry = RetryPolicy{MaxRetries: 1}
			p.Faults = []Fault{{Stage: 0, Instance: -1, DataSet: 9, Kind: FaultSlow,
				Attempts: 1, Delay: 400 * time.Millisecond}}
		}, want: Stats{Timeouts: 1, Retried: 1}},
		{name: "slow", edgeFail: -1, configure: func(p *Pipeline) {
			p.Faults = []Fault{{Stage: 1, Instance: -1, DataSet: 2, Kind: FaultSlow,
				Delay: 5 * time.Millisecond}}
		}},
		{name: "death-requeue", front: 3, frontWork: 2 * time.Millisecond, edgeFail: -1,
			configure: func(p *Pipeline) {
				p.Retry = RetryPolicy{MaxRetries: 1}
				p.DeadAfter = 1
				p.Faults = []Fault{{Stage: 0, Instance: 1, DataSet: -1, Kind: FaultFail}}
			}, want: Stats{Dead: 1}},
		{name: "edge-fail-drops", edgesOnly: true, edgeFail: 4, configure: func(p *Pipeline) {
			p.Retry = RetryPolicy{MaxRetries: 1}
		}, want: Stats{Retried: 1, Dropped: 1}, dropped: []int{4}},
		{name: "zero-config-stage-abort", edgeFail: -1,
			abortMsg: `^fxrt: run aborted: fxrt: stage back instance [01] data set 7: pin: poisoned data set$`,
			configure: func(p *Pipeline) {
				p.Stages[1].Run = poisonAt(7, p.Stages[1].Run)
			}},
		{name: "zero-config-edge-abort", edgesOnly: true, edgeFail: 11,
			abortMsg:  `^fxrt: run aborted: fxrt: edge edge:pin data set 11: link down: pin: poisoned data set$`,
			configure: func(p *Pipeline) {}},
	}
	for _, tc := range cases {
		for _, withEdges := range []bool{false, true} {
			if tc.edgesOnly && !withEdges {
				continue
			}
			name := tc.name + "/plain"
			if withEdges {
				name = tc.name + "/edges"
			}
			t.Run(name, func(t *testing.T) { runPinCase(t, tc, n, withEdges) })
		}
	}
}

// poisonAt wraps a stage function so data set idx fails every attempt.
func poisonAt(idx int, run func(*StageCtx, DataSet) (DataSet, error)) func(*StageCtx, DataSet) (DataSet, error) {
	return func(ctx *StageCtx, in DataSet) (DataSet, error) {
		if in.([2]int)[0] == idx {
			return nil, errPinPoison
		}
		return run(ctx, in)
	}
}

func runPinCase(t *testing.T, tc pinCase, n int, withEdges bool) {
	front := tc.front
	if front == 0 {
		front = 2
	}
	got := make([]int64, n)
	for i := range got {
		got[i] = -1
	}
	// Data sets are (index, value) pairs: stage 0 triples the value, the
	// edge (if any) adds 1000, stage 1 adds 1 and records the result.
	p := &Pipeline{Stages: []Stage{
		{Name: "front", Workers: 1, Replicas: front, Run: func(_ *StageCtx, in DataSet) (DataSet, error) {
			if tc.frontWork > 0 {
				time.Sleep(tc.frontWork)
			}
			kv := in.([2]int)
			return [2]int{kv[0], kv[1] * 3}, nil
		}},
		{Name: "back", Workers: 1, Replicas: 2, Run: func(_ *StageCtx, in DataSet) (DataSet, error) {
			kv := in.([2]int)
			atomic.StoreInt64(&got[kv[0]], int64(kv[1]+1))
			return [2]int{kv[0], kv[1] + 1}, nil
		}},
	}}
	tc.configure(p)
	source := func(i int) DataSet { return [2]int{i, i + 10} }

	var stats Stats
	var err error
	if withEdges {
		edges := []Edge{{Name: "edge:pin", Transfer: func(_ *StageCtx, in DataSet) (DataSet, error) {
			kv := in.([2]int)
			if kv[0] == tc.edgeFail {
				return nil, fmt.Errorf("link down: %w", errPinPoison)
			}
			return [2]int{kv[0], kv[1] + 1000}, nil
		}}}
		stats, err = p.RunWithEdges(source, n, 3, edges)
	} else {
		stats, err = p.Run(source, n, 3)
	}

	if tc.abortMsg != "" {
		if !errors.Is(err, errPinPoison) {
			t.Fatalf("err = %v, want an abort wrapping %v", err, errPinPoison)
		}
		if !regexp.MustCompile(tc.abortMsg).MatchString(err.Error()) {
			t.Fatalf("err = %q, want a message matching %s", err, tc.abortMsg)
		}
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if stats.DataSets != n || stats.Retried != tc.want.Retried || stats.Dropped != tc.want.Dropped ||
		stats.Timeouts != tc.want.Timeouts || stats.Dead != tc.want.Dead {
		t.Errorf("stats DataSets=%d Retried=%d Dropped=%d Timeouts=%d Dead=%d, want %d/%d/%d/%d/%d",
			stats.DataSets, stats.Retried, stats.Dropped, stats.Timeouts, stats.Dead,
			n, tc.want.Retried, tc.want.Dropped, tc.want.Timeouts, tc.want.Dead)
	}
	if stats.Throughput <= 0 {
		t.Errorf("throughput = %g, want > 0", stats.Throughput)
	}
	isDropped := map[int]bool{}
	for _, d := range tc.dropped {
		isDropped[d] = true
	}
	for i := range got {
		want := int64((i+10)*3 + 1)
		if withEdges {
			want += 1000
		}
		if isDropped[i] {
			want = -1
		}
		if g := atomic.LoadInt64(&got[i]); g != want {
			t.Errorf("data set %d output = %d, want %d", i, g, want)
		}
	}
}
