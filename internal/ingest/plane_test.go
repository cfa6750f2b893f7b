package ingest

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pipemap/internal/fxrt"
	"pipemap/internal/obs/live"
)

// incPipeline increments an int data set at every stage.
func incPipeline(stages, replicas int) *fxrt.Pipeline {
	p := &fxrt.Pipeline{}
	for i := 0; i < stages; i++ {
		p.Stages = append(p.Stages, fxrt.Stage{
			Name: fmt.Sprintf("s%d", i), Workers: 1, Replicas: replicas,
			Run: func(_ *fxrt.StageCtx, in fxrt.DataSet) (fxrt.DataSet, error) {
				return in.(int) + 1, nil
			},
		})
	}
	return p
}

func shedReason(t *testing.T, err error) ShedReason {
	t.Helper()
	var se *ShedError
	if !errors.As(err, &se) {
		t.Fatalf("error %v is not a *ShedError", err)
	}
	return se.Reason
}

func TestPlaneSubmitCompletes(t *testing.T) {
	p, err := New(Config{}, incPipeline(2, 1), fxrt.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Drain()
	for i := 0; i < 5; i++ {
		out, err := p.Submit(context.Background(), "", i, 0)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if out.Err != nil {
			t.Fatalf("submit %d outcome: %v", i, out.Err)
		}
		if got := out.Output.(int); got != i+2 {
			t.Fatalf("submit %d: got %d, want %d", i, got, i+2)
		}
		if out.Service <= 0 {
			t.Fatalf("submit %d: non-positive service time", i)
		}
	}
	st := p.Stats()
	if st.Admitted != 5 || st.Completed != 5 {
		t.Fatalf("stats = %+v, want 5 admitted and completed", st)
	}
}

func TestPlaneQueueFullShed(t *testing.T) {
	gate := make(chan struct{})
	pl := &fxrt.Pipeline{Stages: []fxrt.Stage{{
		Name: "gated", Workers: 1, Replicas: 1,
		Run: func(_ *fxrt.StageCtx, in fxrt.DataSet) (fxrt.DataSet, error) {
			<-gate
			return in, nil
		},
	}}}
	p, err := New(Config{
		Queue:         QueueConfig{Depth: 2},
		Dispatchers:   1,
		DefaultBudget: time.Minute, // keep deadline shedding out of this test
	}, pl, fxrt.StreamOptions{Inbox: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Saturate: the dispatcher grabs the first item and blocks in the
	// pipeline; two more fill the depth-2 queue; further submissions must
	// shed queue_full.
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := p.Submit(context.Background(), "", i, 0); err != nil {
				t.Errorf("submit %d: %v", i, err)
			}
		}(i)
		time.Sleep(5 * time.Millisecond) // let the dispatcher drain between fills
	}
	deadline := time.Now().Add(2 * time.Second)
	var sawFull bool
	for time.Now().Before(deadline) {
		// A probe can win the race and get admitted before the queue fills;
		// a short context keeps that from blocking behind the gate.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		_, err := p.Submit(ctx, "", 99, 0)
		cancel()
		var se *ShedError
		if errors.As(err, &se) && se.Reason == ReasonQueueFull {
			sawFull = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !sawFull {
		t.Fatal("never shed queue_full with a saturated bounded queue")
	}
	close(gate)
	wg.Wait()
	p.Drain()
	if p.Stats().Shed[string(ReasonQueueFull)] == 0 {
		t.Fatal("queue_full shed not counted in stats")
	}
}

func TestPlaneHeadOfLineDeadlineDrop(t *testing.T) {
	gate := make(chan struct{})
	var served atomic.Int64
	pl := &fxrt.Pipeline{Stages: []fxrt.Stage{{
		Name: "gated", Workers: 1, Replicas: 1,
		Run: func(_ *fxrt.StageCtx, in fxrt.DataSet) (fxrt.DataSet, error) {
			<-gate
			served.Add(1)
			return in, nil
		},
	}}}
	p, err := New(Config{
		Queue:       QueueConfig{Depth: 8},
		Dispatchers: 1,
	}, pl, fxrt.StreamOptions{Inbox: 1})
	if err != nil {
		t.Fatal(err)
	}
	// First submission occupies the pipeline; the second waits in queue with
	// a tiny budget and must be head-dropped once its sojourn exceeds it.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := p.Submit(context.Background(), "", 0, time.Minute); err != nil {
			t.Errorf("occupying submit: %v", err)
		}
	}()
	time.Sleep(5 * time.Millisecond) // let the dispatcher pick it up
	errs := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		out, err := p.Submit(context.Background(), "", 1, 10*time.Millisecond)
		if err != nil {
			errs <- err
			return
		}
		errs <- out.Err
	}()
	time.Sleep(50 * time.Millisecond) // let its budget expire while queued
	close(gate)
	if reason := shedReason(t, <-errs); reason != ReasonDeadline {
		t.Fatalf("queued-past-budget request shed as %q, want deadline", reason)
	}
	wg.Wait()
	p.Drain()
	if got := served.Load(); got != 1 {
		t.Fatalf("pipeline served %d data sets, want 1 (expired head dropped before dispatch)", got)
	}
}

func TestPlaneDrainingShedsAndFlushes(t *testing.T) {
	p, err := New(Config{Dispatchers: 2}, incPipeline(1, 1), fxrt.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var accepted, resolved atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				out, err := p.Submit(context.Background(), fmt.Sprintf("t%d", w), i, time.Minute)
				if err != nil {
					if shedReason(t, err) != ReasonDraining {
						t.Errorf("unexpected shed: %v", err)
					}
					continue
				}
				accepted.Add(1)
				if out.Err == nil {
					resolved.Add(1)
				}
			}
		}(w)
	}
	time.Sleep(5 * time.Millisecond)
	p.Drain()
	wg.Wait()
	if accepted.Load() == 0 {
		t.Fatal("no submissions accepted before the drain")
	}
	if resolved.Load() != accepted.Load() {
		t.Fatalf("accepted %d but only %d resolved cleanly — drain lost in-flight work",
			accepted.Load(), resolved.Load())
	}
	if _, err := p.Submit(context.Background(), "", 1, 0); shedReason(t, err) != ReasonDraining {
		t.Fatalf("submit after drain = %v, want draining shed", err)
	}
}

func TestPlaneCircuitBreakerOpensOnDeadReplicas(t *testing.T) {
	pl := incPipeline(1, 2)
	pl.Retry = fxrt.RetryPolicy{MaxRetries: 3}
	pl.DeadAfter = 2
	pl.Faults = []fxrt.Fault{{Stage: 0, Instance: 0, DataSet: -1, Kind: fxrt.FaultFail}}
	pl.Monitor = live.NewMonitor(live.Config{Stages: []live.StageInfo{
		{Name: "s0", Workers: 1, Replicas: 2},
	}})
	p, err := New(Config{
		LivenessFloor: 0.9, // one death of two replicas (0.5) trips it
		BreakerProbe:  time.Millisecond,
	}, pl, fxrt.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Drain()
	// Drive work until the faulty instance dies, then the breaker opens.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		_, err := p.Submit(context.Background(), "", 1, time.Minute)
		if err != nil {
			if shedReason(t, err) == ReasonCircuitOpen {
				if !p.Stats().BreakerOpen {
					t.Fatal("breaker shed but stats report it closed")
				}
				return
			}
			t.Fatalf("unexpected shed: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("breaker never opened despite an instance death below the liveness floor")
}

func TestPlaneSubmitCancelable(t *testing.T) {
	gate := make(chan struct{})
	pl := &fxrt.Pipeline{Stages: []fxrt.Stage{{
		Name: "gated", Workers: 1, Replicas: 1,
		Run: func(_ *fxrt.StageCtx, in fxrt.DataSet) (fxrt.DataSet, error) {
			<-gate
			return in, nil
		},
	}}}
	p, err := New(Config{Dispatchers: 1}, pl, fxrt.StreamOptions{Inbox: 1})
	if err != nil {
		t.Fatal(err)
	}
	go p.Submit(context.Background(), "", 0, time.Minute) // occupy the dispatcher
	time.Sleep(5 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := p.Submit(ctx, "", 1, time.Minute); err != context.DeadlineExceeded {
		t.Fatalf("submit with expired ctx = %v, want context.DeadlineExceeded", err)
	}
	close(gate)
	p.Drain()
	if p.Stats().Canceled != 1 {
		t.Fatalf("stats = %+v, want 1 canceled", p.Stats())
	}
}

func TestPlaneSwapKeepsServing(t *testing.T) {
	p, err := New(Config{Dispatchers: 2}, incPipeline(1, 1), fxrt.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var ok atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				out, err := p.Submit(context.Background(), "", 1, time.Minute)
				if err == nil && out.Err == nil {
					ok.Add(1)
				}
			}
		}()
	}
	// Swap to a two-stage pipeline mid-traffic: results change from +1 to +2.
	time.Sleep(5 * time.Millisecond)
	if err := p.Swap(incPipeline(2, 1), fxrt.StreamOptions{}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	out, err := p.Submit(context.Background(), "", 1, time.Minute)
	if err != nil || out.Err != nil {
		t.Fatalf("submit after swap: %v / %v", err, out.Err)
	}
	if got := out.Output.(int); got != 3 {
		t.Fatalf("post-swap result = %d, want 3 (two-stage pipeline)", got)
	}
	stop.Store(true)
	wg.Wait()
	p.Drain()
	if ok.Load() == 0 {
		t.Fatal("no successful submissions across the swap")
	}
}

func TestNewBackendRejectsNil(t *testing.T) {
	if _, err := NewBackend(Config{}, nil, nil); err == nil {
		t.Fatal("NewBackend(nil) succeeded, want error")
	}
}

func TestPlaneMetricsRegistered(t *testing.T) {
	reg := live.NewRegistry(live.Options{})
	p, err := New(Config{Registry: reg}, incPipeline(1, 1), fxrt.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Submit(context.Background(), "", 1, 0); err != nil {
		t.Fatal(err)
	}
	p.Drain()
	snap := reg.Snapshot()
	if snap.Counters["ingest.admit"].Total != 1 {
		t.Fatalf("ingest.admit = %+v, want total 1", snap.Counters["ingest.admit"])
	}
	if snap.Counters["ingest.complete"].Total != 1 {
		t.Fatalf("ingest.complete = %+v, want total 1", snap.Counters["ingest.complete"])
	}
	if _, ok := snap.Histograms["ingest.service_ms"]; !ok {
		t.Fatal("ingest.service_ms histogram not registered")
	}
}
