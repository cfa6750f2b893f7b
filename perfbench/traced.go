package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pipemap/internal/core"
	"pipemap/internal/fxrt"
	"pipemap/internal/ingest"
	"pipemap/internal/kernels"
	"pipemap/internal/model"
	"pipemap/internal/obs"
	"pipemap/internal/obs/live"
	"pipemap/internal/obs/slo"
)

// perLayer lists the traced run's metrics in report order. A metric whose
// layer does not exist on a workload (a kernel of the other application,
// the in-comm of a module without a transfer edge, open-loop lateness in
// a closed loop) reads 0.
var perLayer = []struct{ name, unit string }{
	{"http.client_overhead_ms", "ms"},
	{"ingest.handler_ms", "ms"},
	{"ingest.handler_self_ms", "ms"},
	{"ingest.queue_wait_ms", "ms"},
	{"ingest.dispatching_max", "count"},
	{"ingest.queue_high_water", "count"},
	{"ingest.shed_total", "count"},
	{"ingest.shed.queue_full", "count"},
	{"ingest.shed.rate_limited", "count"},
	{"ingest.shed.deadline", "count"},
	{"ingest.shed.draining", "count"},
	{"ingest.shed.circuit_open", "count"},
	{"apps.decode_ms", "ms"},
	{"apps.encode_ms", "ms"},
	{"fxrt.push_ms", "ms"},
	{"fxrt.service_ms", "ms"},
	{"fxrt.m0.exec_ms", "ms"},
	{"fxrt.m1.exec_ms", "ms"},
	{"fxrt.m1.in_comm_ms", "ms"},
	{"fxrt.handoff_ms", "ms"},
	{"fxrt.m0.busy_frac", "frac"},
	{"fxrt.m1.busy_frac", "frac"},
	{"fxrt.bottleneck_measured", "index"},
	{"fxrt.bottleneck_predicted", "index"},
	{"fxrt.retried", "count"},
	{"fxrt.dropped", "count"},
	{"fxrt.timeouts", "count"},
	{"kernels.colffts_ms", "ms"},
	{"kernels.rowffts_ms", "ms"},
	{"kernels.hist_ms", "ms"},
	{"kernels.transpose_ms", "ms"},
	{"kernels.pulsecomp_ms", "ms"},
	{"kernels.doppler_ms", "ms"},
	{"kernels.cfar_ms", "ms"},
	{"kernels.cornerturn_ms", "ms"},
	{"kernels.track_ms", "ms"},
	{"core.solve_ms", "ms"},
	{"setup.build_ms", "ms"},
	{"runtime.alloc_kb_per_req", "KiB"},
	{"runtime.gc_per_kreq", "count"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace_overhead.latency_p50_ratio", "ratio"},
	{"trace_overhead.throughput_ratio", "ratio"},
}

// kernelOps maps fxrt recorder op names to their kernels.* metric.
var kernelOps = map[string]string{
	"exec:colffts":    "kernels.colffts_ms",
	"exec:rowffts":    "kernels.rowffts_ms",
	"exec:hist":       "kernels.hist_ms",
	"edge:transpose":  "kernels.transpose_ms",
	"exec:pulsecomp":  "kernels.pulsecomp_ms",
	"exec:doppler":    "kernels.doppler_ms",
	"exec:cfar":       "kernels.cfar_ms",
	"edge:cornerturn": "kernels.cornerturn_ms",
	"exec:track":      "kernels.track_ms",
}

// reqTimes is one request's server-side timings, filled by the wrappers.
type reqTimes struct {
	decode, push, encode, handler time.Duration
	pushed                        bool
	key                           any // the decoded data set's identity
}

// opAcc accumulates one timed operation.
type opAcc struct{ ns, n atomic.Int64 }

func (a *opAcc) add(d time.Duration) {
	a.ns.Add(int64(d))
	a.n.Add(1)
}

// layerTimer holds every wrapper's measurements. The handler wrapper keys
// a request by the goroutine serving it, because ingest.Codec methods get
// no context and SubmitHandler calls them synchronously on that goroutine;
// the backend, which runs on a dispatcher goroutine, finds the request
// through the identity of the data set the codec decoded.
type layerTimer struct {
	mu     sync.Mutex
	active map[int64]*reqTimes // serving goroutine -> request
	byDS   map[any]*reqTimes   // decoded data set -> request
	done   map[int64]*reqTimes // X-Bench-Id -> finished request
	// serving counts handler calls in progress; the report waits on it so
	// that every handler has finished writing its record.
	serving sync.WaitGroup

	exec, inComm []opAcc // per module
}

func newLayerTimer(modules int) *layerTimer {
	return &layerTimer{
		active: map[int64]*reqTimes{},
		byDS:   map[any]*reqTimes{},
		done:   map[int64]*reqTimes{},
		exec:   make([]opAcc, modules),
		inComm: make([]opAcc, modules),
	}
}

// goid returns the calling goroutine's ID from its stack header
// ("goroutine 123 [running]:").
func goid() int64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseInt(string(b), 10, 64)
	return id
}

func (lt *layerTimer) current() *reqTimes {
	g := goid()
	lt.mu.Lock()
	defer lt.mu.Unlock()
	return lt.active[g]
}

// dsKey is a data set's identity: pointer data sets compare by address,
// and a matrix by the address of its backing array.
func dsKey(ds fxrt.DataSet) any {
	if m, ok := ds.(kernels.Matrix); ok && len(m.Data) > 0 {
		return &m.Data[0]
	}
	return ds
}

// handler times SubmitHandler.
func (lt *layerTimer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		lt.serving.Add(1)
		defer lt.serving.Done()
		id, _ := strconv.ParseInt(r.Header.Get("X-Bench-Id"), 10, 64)
		rec := &reqTimes{}
		g := goid()
		lt.mu.Lock()
		lt.active[g] = rec
		lt.mu.Unlock()
		t0 := time.Now()
		h.ServeHTTP(w, r)
		rec.handler = time.Since(t0)
		lt.mu.Lock()
		delete(lt.active, g)
		if lt.byDS[rec.key] == rec {
			delete(lt.byDS, rec.key) // shed before the push
		}
		lt.done[id] = rec
		lt.mu.Unlock()
	})
}

// timedCodec times ingest.Codec.
type timedCodec struct {
	ingest.Codec
	lt *layerTimer
}

func (c timedCodec) Decode(input json.RawMessage) (fxrt.DataSet, error) {
	t0 := time.Now()
	ds, err := c.Codec.Decode(input)
	d := time.Since(t0)
	if rec := c.lt.current(); rec != nil {
		rec.decode = d
		if err == nil {
			rec.key = dsKey(ds)
			c.lt.mu.Lock()
			c.lt.byDS[rec.key] = rec
			c.lt.mu.Unlock()
		}
	}
	return ds, err
}

func (c timedCodec) Encode(out fxrt.DataSet) (any, error) {
	t0 := time.Now()
	v, err := c.Codec.Encode(out)
	d := time.Since(t0)
	if rec := c.lt.current(); rec != nil {
		rec.encode = d
	}
	return v, err
}

// timedBackend times ingest.Backend's PushTraced: the entry into fxrt,
// blocking while the first stage's inbox is full.
type timedBackend struct {
	ingest.Backend
	lt *layerTimer
}

func (b timedBackend) PushTraced(ctx context.Context, ds fxrt.DataSet, rt *obs.ReqTrace) (<-chan fxrt.StreamResult, error) {
	key := dsKey(ds)
	t0 := time.Now()
	ch, err := b.Backend.PushTraced(ctx, ds, rt)
	d := time.Since(t0)
	b.lt.mu.Lock()
	rec := b.lt.byDS[key]
	delete(b.lt.byDS, key)
	b.lt.mu.Unlock()
	if rec != nil {
		rec.push, rec.pushed = d, true
	}
	return ch, err
}

// wrapPipeline times every Stage.Run and every non-nil Edge.Transfer;
// edge i-1 is module i's in-comm.
func (lt *layerTimer) wrapPipeline(pl *fxrt.Pipeline, edges []fxrt.Edge) {
	for i := range pl.Stages {
		run, acc := pl.Stages[i].Run, &lt.exec[i]
		pl.Stages[i].Run = func(ctx *fxrt.StageCtx, in fxrt.DataSet) (fxrt.DataSet, error) {
			t0 := time.Now()
			out, err := run(ctx, in)
			acc.add(time.Since(t0))
			return out, err
		}
	}
	for i := range edges {
		if tr := edges[i].Transfer; tr != nil {
			acc := &lt.inComm[i+1]
			edges[i].Transfer = func(recv *fxrt.StageCtx, in fxrt.DataSet) (fxrt.DataSet, error) {
				t0 := time.Now()
				out, err := tr(recv, in)
				acc.add(time.Since(t0))
				return out, err
			}
		}
	}
}

// opSnap is a snapshot of one accumulator.
type opSnap struct{ ns, n int64 }

func (lt *layerTimer) snapshot() (exec, inComm []opSnap) {
	for i := range lt.exec {
		exec = append(exec, opSnap{lt.exec[i].ns.Load(), lt.exec[i].n.Load()})
		inComm = append(inComm, opSnap{lt.inComm[i].ns.Load(), lt.inComm[i].n.Load()})
	}
	return exec, inComm
}

// served is the ingest configuration the binary printed in its banner.
type served struct {
	queueDepth  int
	budget      time.Duration
	tenantRate  float64
	dispatchers int
	traceSample float64
	flightRing  int
}

var (
	admissionRE = regexp.MustCompile(`admission: queue depth (\d+), deadline budget (\S+), rate (unlimited|\S+ req/s per tenant), (\d+) dispatcher`)
	tracingRE   = regexp.MustCompile(`tracing: sample (\S+), span export \S+, flight ring (\d+)`)
)

func parseBanner(banner string) (served, error) {
	a := admissionRE.FindStringSubmatch(banner)
	t := tracingRE.FindStringSubmatch(banner)
	if a == nil || t == nil {
		return served{}, fmt.Errorf("pipemap banner lacks the admission or tracing line:\n%s", banner)
	}
	var s served
	var err error
	s.queueDepth, _ = strconv.Atoi(a[1])
	if s.budget, err = time.ParseDuration(a[2]); err != nil {
		return served{}, err
	}
	if a[3] != "unlimited" {
		s.tenantRate, _ = strconv.ParseFloat(strings.Fields(a[3])[0], 64)
	}
	s.dispatchers, _ = strconv.Atoi(a[4])
	s.traceSample, _ = strconv.ParseFloat(t[1], 64)
	s.flightRing, _ = strconv.Atoi(t[2])
	return s, nil
}

// tracedResult is the traced pass.
type tracedResult struct {
	sum      summary // whole window: the per-layer figures' base
	gated    summary // quietest third, as the untraced pass reports
	metrics  map[string]float64
	mapping  string
	joined   int      // in-window requests with server timings
	problems []string // failed correctness, accounting or reconciliation checks
}

// runTraced builds the `pipemap -ingest` stack in-process from the public
// constructors cmd/pipemap uses, with the binary's settings (parsed from
// the untraced pass's banner or mirrored in binaryDefaults), wraps each
// layer in a timer, and drives it with the same load.
func runTraced(o options, w workload, in *inputs, chain *model.Chain, plat model.Platform, untraced e2eResult) (tracedResult, error) {
	tr := tracedResult{metrics: map[string]float64{}}
	cfg, err := parseBanner(untraced.banner)
	if err != nil {
		return tr, err
	}

	// core: the DP solve, repeated for a steadier figure.
	req := core.Request{Chain: chain, Platform: plat, Metrics: obs.NewRegistry()}
	var res core.Result
	var solves []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if res, err = core.Map(req); err != nil {
			return tr, err
		}
		solves = append(solves, ms(time.Since(t0)))
	}
	tr.metrics["core.solve_ms"] = quantile(solves, 0.5)
	m := res.Mapping
	tr.mapping = m.String()

	// Build: pipeline, stream, plane, server.
	tBuild := time.Now()
	pl, edges, codec, err := buildApp(w.app, w.size, m)
	if err != nil {
		return tr, err
	}
	lt := newLayerTimer(len(pl.Stages))
	lt.wrapPipeline(pl, edges)
	mon := live.NewMonitor(live.ConfigFromMapping(m))
	pl.Monitor = mon
	reg := live.NewRegistry(live.Options{})
	flight := obs.NewFlightRecorder(cfg.flightRing)
	tracer := obs.NewReqTracer(obs.ReqTracerConfig{SampleRate: cfg.traceSample, Flight: flight})
	engine := slo.New(slo.Config{
		Objectives: []slo.Objective{
			{Name: "availability", Target: binaryDefaults.sloAvailability},
			{Name: "latency_p99", Target: 0.99, LatencyMS: ms(cfg.budget)},
		},
		PerTenant: true,
		Registry:  reg,
	})
	stream, err := pl.Stream(fxrt.StreamOptions{Edges: edges})
	if err != nil {
		return tr, err
	}
	plane, err := ingest.NewBackend(ingest.Config{
		Queue:         ingest.QueueConfig{Depth: cfg.queueDepth, Rate: cfg.tenantRate},
		Dispatchers:   cfg.dispatchers,
		DefaultBudget: cfg.budget,
		LivenessFloor: binaryDefaults.livenessFloor,
		Registry:      reg,
		Tracer:        tracer,
		SLO:           engine,
	}, timedBackend{Backend: stream, lt: lt}, mon)
	if err != nil {
		stream.Close()
		return tr, err
	}
	srv := live.NewServer(live.ServerOptions{
		Monitor:  mon,
		Registry: reg,
		Ingest:   func() any { return plane.Stats() },
		SLO:      func() any { return engine.Report() },
		Flight:   flight.Snapshot,
		Static:   req.Metrics.Snapshot,
		Extra: map[string]http.Handler{
			"/v1/submit": lt.handler(ingest.SubmitHandler(plane, timedCodec{Codec: codec, lt: lt})),
			"/v1/ingest": ingest.StatusHandler(plane),
		},
	})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		plane.Drain()
		return tr, err
	}
	tr.metrics["setup.build_ms"] = ms(time.Since(tBuild))
	base := "http://" + srv.Addr()

	// Drive it, sampling the wrappers, the Go runtime and the dispatch
	// concurrency over the window.
	var (
		ex0, ic0, ex1, ic1 []opSnap
		rt0, rt1           [2]uint64
		dispMax            atomic.Int64
		stopPoll           = make(chan struct{})
		polled             sync.WaitGroup
	)
	polled.Add(1)
	go func() {
		defer polled.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopPoll:
				return
			case <-tick.C:
				if d := plane.Stats().Dispatching; d > dispMax.Load() {
					dispMax.Store(d)
				}
			}
		}
	}()
	client := newClient(o.conns)
	lr := run(client, base+"/v1/submit", in, load{
		conns: o.conns, open: w.open, rate: w.rate, tenants: w.tenants, seed: o.seed,
		warmup: o.warmup, window: time.Duration(o.seconds) * time.Second, tagged: true,
		onWindow: func(start bool) {
			ex, ic := lt.snapshot()
			if start {
				ex0, ic0, rt0 = ex, ic, readRuntime()
				dispMax.Store(0)
			} else {
				ex1, ic1, rt1 = ex, ic, readRuntime()
			}
		},
	})
	close(stopPoll)
	polled.Wait()

	var st ingest.Stats
	var health struct {
		PredictedBottleneck int `json:"predictedBottleneck"`
	}
	errStats := getJSON(client, base+"/v1/ingest", &st)
	errHealth := getJSON(client, base+"/pipeline", &health)
	client.CloseIdleConnections()
	srv.Close()
	drain := plane.Drain()
	if err := errors.Join(lr.err, errStats, errHealth); err != nil {
		return tr, err
	}
	tr.sum = summarize(lr, w.sloMS, windowSpans(lr.marks))
	tr.gated = summarize(lr, w.sloMS, quietest(windowSpans(lr.marks)))
	if tr.sum.okN == 0 {
		return tr, fmt.Errorf("traced run: no correct 200 in the window (tally %+v)", lr.tally)
	}

	// Correctness and accounting, as for the binary.
	if lr.tally.wrong > 0 {
		tr.problems = append(tr.problems, fmt.Sprintf("traced: %d response(s) differ from the reference result", lr.tally.wrong))
	}
	final := plane.Stats()
	var shed int64
	for _, n := range final.Shed {
		shed += n
	}
	if err := reconcile(drainLine{admitted: final.Admitted, completed: final.Completed, failed: final.Failed, shed: shed}, lr.tally); err != nil {
		tr.problems = append(tr.problems, "traced: "+err.Error())
	}

	// ingest counts from /v1/ingest.
	tr.metrics["ingest.dispatching_max"] = float64(dispMax.Load())
	tr.metrics["ingest.queue_high_water"] = float64(st.QueueHighWater)
	var shedTotal int64
	for reason, n := range st.Shed {
		tr.metrics["ingest.shed."+reason] = float64(n)
		shedTotal += n
	}
	tr.metrics["ingest.shed_total"] = float64(shedTotal)

	// Per-request join and reconciliation: decode + queue wait + push +
	// wait + encode <= handler <= client latency from the actual send,
	// where push + wait is the response's service_ms (push to sink).
	lt.serving.Wait()
	lt.mu.Lock()
	done := lt.done
	lt.mu.Unlock()
	const slack = time.Microsecond
	var clientOver, handler, self, queue, decode, encode, push, service []float64
	bad := 0
	whole := windowSpans(lr.marks)
	for _, s := range lr.samples {
		if !s.ok || !inSpans(whole, s.due) {
			continue
		}
		rec := done[s.id]
		if rec == nil || !rec.pushed {
			bad++
			continue
		}
		soj := time.Duration(s.resp.SojournMS * float64(time.Millisecond))
		svc := time.Duration(s.resp.ServiceMS * float64(time.Millisecond))
		parts := rec.decode + soj + svc + rec.encode
		sent := s.lat - s.late // from the actual send, without open-loop lateness
		if parts > rec.handler+slack || rec.handler > sent+slack {
			bad++
			continue
		}
		tr.joined++
		clientOver = append(clientOver, ms(sent-rec.handler))
		handler = append(handler, ms(rec.handler))
		self = append(self, ms(rec.handler-parts))
		queue = append(queue, s.resp.SojournMS)
		decode = append(decode, ms(rec.decode))
		encode = append(encode, ms(rec.encode))
		push = append(push, ms(rec.push))
		service = append(service, s.resp.ServiceMS)
	}
	if bad > 0 {
		tr.problems = append(tr.problems, fmt.Sprintf("traced: %d of %d correct requests fail the timing reconciliation", bad, tr.sum.okN))
	}
	tr.metrics["http.client_overhead_ms"] = mean(clientOver)
	tr.metrics["ingest.handler_ms"] = mean(handler)
	tr.metrics["ingest.handler_self_ms"] = mean(self)
	tr.metrics["ingest.queue_wait_ms"] = mean(queue)
	tr.metrics["apps.decode_ms"] = mean(decode)
	tr.metrics["apps.encode_ms"] = mean(encode)
	tr.metrics["fxrt.push_ms"] = mean(push)
	tr.metrics["fxrt.service_ms"] = mean(service)

	// fxrt: per-module exec and in-comm over the window, busy fractions,
	// and the engine's handoff time.
	window := float64(lr.window)
	stageSum, busiest := 0.0, 0
	busy := make([]float64, len(pl.Stages))
	for i := range pl.Stages {
		exec := perCall(ex0[i], ex1[i])
		inComm := perCall(ic0[i], ic1[i])
		stageSum += exec + inComm
		busy[i] = float64(ex1[i].ns-ex0[i].ns+ic1[i].ns-ic0[i].ns) / (window * float64(pl.Stages[i].Replicas))
		if busy[i] > busy[busiest] {
			busiest = i
		}
		tr.metrics[fmt.Sprintf("fxrt.m%d.exec_ms", i)] = exec
		if i > 0 {
			tr.metrics[fmt.Sprintf("fxrt.m%d.in_comm_ms", i)] = inComm
		}
		tr.metrics[fmt.Sprintf("fxrt.m%d.busy_frac", i)] = busy[i]
	}
	tr.metrics["fxrt.handoff_ms"] = mean(service) - stageSum
	tr.metrics["fxrt.bottleneck_measured"] = float64(busiest)
	tr.metrics["fxrt.bottleneck_predicted"] = float64(health.PredictedBottleneck)
	tr.metrics["fxrt.retried"] = float64(drain.Stream.Retried)
	tr.metrics["fxrt.dropped"] = float64(drain.Stream.Dropped)
	tr.metrics["fxrt.timeouts"] = float64(drain.Stream.Timeouts)
	for op, name := range kernelOps {
		if s, ok := drain.Stream.OpStats[op]; ok {
			tr.metrics[name] = s.Mean * 1e3
		}
	}

	// runtime: allocation and GC per request, generator included.
	okN := float64(tr.sum.okN)
	tr.metrics["runtime.alloc_kb_per_req"] = float64(rt1[0]-rt0[0]) / 1024 / okN
	tr.metrics["runtime.gc_per_kreq"] = float64(rt1[1]-rt0[1]) * 1000 / okN
	if w.open {
		tr.metrics["loadgen.late_p99_ms"] = tr.sum.lateP99
	}
	tr.metrics["trace_overhead.latency_p50_ratio"] = tr.gated.p50 / untraced.segs[0].sum.p50
	tr.metrics["trace_overhead.throughput_ratio"] = tr.gated.throughput / untraced.segs[0].sum.throughput
	return tr, nil
}

// perCall is the mean duration in ms of the calls between two snapshots.
func perCall(a, b opSnap) float64 {
	if b.n == a.n {
		return 0
	}
	return float64(b.ns-a.ns) / float64(b.n-a.n) / float64(time.Millisecond)
}

// readRuntime returns the process's cumulative heap allocation bytes and
// GC cycles.
func readRuntime() [2]uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return [2]uint64{s[0].Value.Uint64(), s[1].Value.Uint64()}
}

func reportTraced(out io.Writer, w workload, untraced e2eResult, tr tracedResult) {
	fmt.Fprintf(out, "traced: mapping %s; %d of %d correct requests joined to server timings\n",
		tr.mapping, tr.joined, tr.sum.okN)
	fmt.Fprintf(out, "traced, whole window: %.1f req/s, latency p50 %.3f ms, p99 %.3f ms over %d samples, host steal %.1f%%\n",
		tr.sum.throughput, tr.sum.p50, tr.sum.p99, tr.sum.okN, 100*tr.sum.steal)
	fmt.Fprintf(out, "tracing-plus-hosting overhead (not gated), quietest thirds: latency p50 %.3f ms traced vs %.3f ms untraced (x%.3f); throughput %.1f vs %.1f req/s (x%.3f)\n",
		tr.gated.p50, untraced.segs[0].sum.p50, tr.metrics["trace_overhead.latency_p50_ratio"],
		tr.gated.throughput, untraced.segs[0].sum.throughput, tr.metrics["trace_overhead.throughput_ratio"])
	fmt.Fprintf(out, "bottleneck: measured m%.0f (argmax busy_frac), predicted m%.0f (/pipeline)\n",
		tr.metrics["fxrt.bottleneck_measured"], tr.metrics["fxrt.bottleneck_predicted"])
	for _, m := range perLayer {
		fmt.Fprintf(out, "  %-34s %12.4f %s\n", m.name, tr.metrics[m.name], m.unit)
	}
}
