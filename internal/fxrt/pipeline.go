package fxrt

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pipemap/internal/obs"
	"pipemap/internal/obs/live"
)

// DataSet is one unit of streaming data flowing through a pipeline.
type DataSet interface{}

// StageCtx is passed to a stage's work function.
type StageCtx struct {
	// Group is the instance's worker pool.
	Group *Group
	// Instance is the replica index of this stage instance.
	Instance int
	// Rec accumulates named operation timings for profiling.
	Rec *Recorder
}

// Stage is one module of a pipeline: a work function running on Workers
// workers, replicated Replicas times (instances process alternate data
// sets round-robin, per the paper's replication model).
type Stage struct {
	Name     string
	Workers  int
	Replicas int
	// Run processes one data set and returns the data set for the next
	// stage. It must be safe for concurrent invocation across instances
	// (each instance has its own Group; shared inputs must be treated as
	// read-only).
	Run func(ctx *StageCtx, in DataSet) (DataSet, error)
	// Deadline bounds one attempt of this stage in fault-tolerant runs,
	// overriding Pipeline.StageDeadline; zero inherits the pipeline-wide
	// value.
	Deadline time.Duration
}

// Stats reports a pipeline execution.
type Stats struct {
	// DataSets is the number of data sets processed.
	DataSets int
	// Elapsed is the wall-clock duration from first input to last output.
	Elapsed time.Duration
	// Throughput is data sets per second over the post-warmup window.
	Throughput float64
	// Latency is the mean data set traversal time.
	Latency time.Duration
	// Ops maps operation names (as recorded by stages) to mean durations
	// in seconds.
	Ops map[string]float64
	// OpStats maps operation names to mean/min/max summaries; a Max far
	// above the Mean flags a straggling or slowed instance.
	OpStats map[string]OpStat
	// Retried is the total number of retry attempts across all stages
	// (fault-tolerant runs only).
	Retried int
	// Dropped is the number of data sets abandoned after exhausting their
	// attempts at some stage; dropped data sets do not reach the sink.
	Dropped int
	// Timeouts is the number of attempts cut off by a stage deadline.
	Timeouts int
	// Dead is the number of stage instances declared dead and removed
	// from rotation during the run.
	Dead int
}

// OpStat summarizes the samples of one recorded operation.
type OpStat struct {
	Mean, Min, Max float64
	Count          int
}

// opAgg is the running aggregate behind one OpStat.
type opAgg struct {
	sum, min, max float64
	n             int
}

// Recorder accumulates named operation durations across stage instances.
type Recorder struct {
	mu  sync.Mutex
	ops map[string]*opAgg
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{ops: map[string]*opAgg{}}
}

// Observe adds one sample of the named operation.
func (r *Recorder) Observe(name string, seconds float64) {
	r.mu.Lock()
	a := r.ops[name]
	if a == nil {
		a = &opAgg{min: seconds, max: seconds}
		r.ops[name] = a
	}
	a.sum += seconds
	a.n++
	if seconds < a.min {
		a.min = seconds
	}
	if seconds > a.max {
		a.max = seconds
	}
	r.mu.Unlock()
}

// Time runs f and records its duration under name, or under name+"/error"
// when f fails, so the cost of failed (retried) attempts stays visible in
// metrics instead of silently inflating the success samples.
func (r *Recorder) Time(name string, f func() error) error {
	start := time.Now()
	err := f()
	if err != nil {
		name += "/error"
	}
	r.Observe(name, time.Since(start).Seconds())
	return err
}

// Means returns the mean duration of every recorded operation.
func (r *Recorder) Means() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.ops))
	for k, a := range r.ops {
		out[k] = a.sum / float64(a.n)
	}
	return out
}

// Summary returns mean, min and max of every recorded operation.
func (r *Recorder) Summary() map[string]OpStat {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]OpStat, len(r.ops))
	for k, a := range r.ops {
		out[k] = OpStat{Mean: a.sum / float64(a.n), Min: a.min, Max: a.max, Count: a.n}
	}
	return out
}

// Pipeline is a chain of stages executing a stream of data sets.
//
// Every execution runs on one engine, Stream: the instances of a stage pull
// data sets from a shared inbox, so the round-robin over replicas is
// dynamic and an instance that dies simply stops pulling. Run and
// RunWithEdges drive a Stream over a fixed batch. The fault-tolerance
// fields (Retry, StageDeadline, DeadAfter, Faults, or a per-stage Deadline)
// select what a failed data set does to a batch. With none set, the first
// failure stops the feed and the run returns its error. With any set,
// failed attempts are retried with capped exponential backoff, hung
// attempts are cut off by deadlines, data sets that exhaust their attempts
// are dropped and counted (never aborting the stream), and repeatedly
// failing instances are declared dead and removed from rotation while the
// surviving replicas keep serving at reduced throughput.
//
// Inboxes are buffered: a sender waits only for room in the next inbox,
// never for its receiver to take the data set. The paper's blocking
// rendezvous transfer is modelled exactly by the simulator (package sim),
// not by this runtime.
type Pipeline struct {
	Stages []Stage
	// Retry is the per-data-set retry policy applied at every stage.
	Retry RetryPolicy
	// StageDeadline bounds one attempt of any stage; zero disables
	// deadlines. A stage's own Deadline overrides it.
	StageDeadline time.Duration
	// DeadAfter declares an instance dead after this many consecutive
	// failed attempts, removing it from rotation (its in-flight data set
	// is requeued to a surviving replica); zero never declares death. The
	// last live instance of a stage is never removed.
	DeadAfter int
	// Faults injects deterministic failures for testing (see Fault).
	Faults []Fault
	// Obs receives one trace span per data set × stage × attempt, plus
	// instant events for instance deaths and dropped data sets, with one
	// named row per stage instance; nil disables tracing with no overhead.
	Obs *obs.Tracer
	// Monitor receives live per-attempt observations (completions with
	// latency, retries, timeouts, drops, instance deaths) from every
	// execution, batch or streaming, feeding the health model served by
	// obs/live. nil disables live monitoring with no overhead.
	Monitor *live.Monitor
}

// validate checks the pipeline's stages and, when withEdges is set, that
// edges has one entry per stage boundary. An empty pipeline reports "no
// stages" before any edge count mismatch.
func (p *Pipeline) validate(edges []Edge, withEdges bool) error {
	l := len(p.Stages)
	if l == 0 {
		return fmt.Errorf("fxrt: pipeline has no stages")
	}
	if withEdges && len(edges) != l-1 {
		return fmt.Errorf("fxrt: %d edges for %d stages (want %d)", len(edges), l, l-1)
	}
	for i, s := range p.Stages {
		if s.Workers < 1 || s.Replicas < 1 {
			return fmt.Errorf("fxrt: stage %d (%s) has workers=%d replicas=%d",
				i, s.Name, s.Workers, s.Replicas)
		}
		if s.Run == nil {
			return fmt.Errorf("fxrt: stage %d (%s) has no Run", i, s.Name)
		}
	}
	return nil
}

// Run streams n data sets produced by source through the pipeline and
// returns execution statistics. warmup data sets are excluded from the
// throughput window (pass 0 for n/5).
func (p *Pipeline) Run(source func(i int) DataSet, n, warmup int) (Stats, error) {
	return p.run(source, n, warmup, nil, false)
}

// RunWithEdges streams n data sets through the pipeline with explicit
// edge transfers; edges must have len(p.Stages)-1 entries (individual
// entries may have a nil Transfer). Each transfer runs on the receiving
// instance as part of the stage attempt, is retried with it, and has its
// duration recorded under the edge's Name.
func (p *Pipeline) RunWithEdges(source func(i int) DataSet, n, warmup int, edges []Edge) (Stats, error) {
	return p.run(source, n, warmup, edges, true)
}

// run is the batch driver behind Run and RunWithEdges. It opens a Stream
// whose inboxes hold the whole batch plus every possible death requeue, so
// no push blocks and no requeue drops. One goroutine pushes source(0..n-1)
// in index order, so stream indices (and with them Fault.DataSet) match
// source indices. Results arrive in completion order, which delimits the
// warmup window: retries and requeues reorder the stream, so stream index
// cannot.
func (p *Pipeline) run(source func(i int) DataSet, n, warmup int, edges []Edge, withEdges bool) (Stats, error) {
	if err := p.validate(edges, withEdges); err != nil {
		return Stats{}, err
	}
	if n <= 0 {
		return Stats{}, fmt.Errorf("fxrt: need at least one data set")
	}
	if warmup <= 0 {
		warmup = n / 5
	}
	if warmup >= n {
		warmup = n - 1
	}
	inbox := n + 1
	for _, st := range p.Stages {
		inbox += st.Replicas
	}
	s, err := p.Stream(StreamOptions{Inbox: inbox, Edges: edges})
	if err != nil {
		return Stats{}, err
	}

	results := make(chan StreamResult, n)
	var stop atomic.Bool
	fed := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(fed)
		for i := 0; i < n && !stop.Load(); i++ {
			// Cannot fail: the stream is open until the feed ends.
			_ = s.push(nil, source(i), nil, results)
		}
	}()

	abort := !p.faultTolerant()
	var latSum time.Duration
	var windowStart, windowEnd time.Time
	completed := 0
	for got := 0; got < n; got++ {
		r := <-results
		if r.Err != nil {
			if abort {
				stop.Store(true)
				<-fed
				s.Close()
				return Stats{}, fmt.Errorf("fxrt: run aborted: %w", r.Err)
			}
			continue
		}
		windowEnd = time.Now()
		latSum += r.Latency
		completed++
		if completed == warmup+1 {
			windowStart = windowEnd
		}
	}
	<-fed
	stats := s.Close()
	// The stream's own Elapsed and Throughput span its whole life; a batch
	// reports from its first push to its last completion.
	stats.Elapsed, stats.Throughput = 0, 0
	if completed > 0 {
		stats.Elapsed = windowEnd.Sub(start)
		stats.Latency = latSum / time.Duration(completed)
	}
	if window := windowEnd.Sub(windowStart); completed > warmup+1 && window > 0 {
		stats.Throughput = float64(completed-warmup-1) / window.Seconds()
	}
	return stats, nil
}
