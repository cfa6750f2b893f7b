package main

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// load is one load-generator pass: a warm-up, then a measured window.
type load struct {
	conns   int     // concurrent callers, each on its own keep-alive connection
	open    bool    // Poisson arrivals at rate instead of a closed loop
	rate    float64 // open loop: offered requests per second
	tenants int     // X-Tenant values (tenant-0 ...); <= 1 sends none
	seed    int64
	warmup  time.Duration
	window  time.Duration
	// tagged adds an X-Bench-Id header carrying the request's sample ID,
	// so the traced run can join client and server timings.
	tagged bool
	// onWindow, when set, is called at the window's start and end.
	onWindow func(start bool)
	// pid is the server process whose CPU time is marked; 0 marks none.
	pid int
}

// markEvery is the slice length of the window's marks.
const markEvery = 250 * time.Millisecond

// mark is the host's steal counters, the generator's stall time and the
// server's CPU time at one instant of the window.
type mark struct {
	at           time.Time
	steal, total int64
	stall        time.Duration
	cpu          time.Duration
}

// stallMin is the oversleep of a 1 ms sleep that counts as a stall: the
// virtual machine, or this process, did not run for that long. Host CPU
// quota throttling stalls the machine without showing as steal.
const stallMin = 5 * time.Millisecond

// takeMark reads the counters for the instant at, which has just passed.
func takeMark(at time.Time, pid int, stall *atomic.Int64) (mark, error) {
	m := mark{at: at, stall: time.Duration(stall.Load())}
	var err error
	if m.steal, m.total, err = hostSteal(); err != nil || pid == 0 {
		return m, err
	}
	m.cpu, err = procCPU(pid)
	return m, err
}

// sample is one request sent inside the measured window.
type sample struct {
	id   int64
	due  time.Time     // scheduled send (open loop) or actual send (closed loop)
	lat  time.Duration // due to response fully read
	late time.Duration // open loop: actual send minus due
	ok   bool          // 200 with a correct result
	resp response
}

// tally counts every request sent over the generator's lifetime, warm-up
// included, for the accounting reconciliation against the server.
type tally struct {
	sent, ok, wrong, s429, s503, s5xx, other, transport int64
}

func (t *tally) add(o tally) {
	t.sent += o.sent
	t.ok += o.ok
	t.wrong += o.wrong
	t.s429 += o.s429
	t.s503 += o.s503
	t.s5xx += o.s5xx
	t.other += o.other
	t.transport += o.transport
}

// loadResult is what one pass measured.
type loadResult struct {
	samples []sample // sent inside the window, in send order
	marks   []mark   // the window's start, every markEvery, and its end
	window  time.Duration
	tally   tally
	err     error // reading a mark failed
}

// newClient returns a client holding at most conns keep-alive connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

// arrival is one scheduled open-loop request.
type arrival struct {
	due    time.Duration // offset from the generator's start
	body   int
	tenant int
}

// schedule draws Poisson arrivals at rate over d, with each arrival's input
// and tenant, from seed.
func schedule(seed int64, rate float64, d time.Duration, bodies, tenants int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	var out []arrival
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= d.Seconds() {
			return out
		}
		out = append(out, arrival{
			due:    time.Duration(t * float64(time.Second)),
			body:   rng.Intn(bodies),
			tenant: rng.Intn(max(tenants, 1)),
		})
	}
}

// run drives url with l's load shape, checking every response against in.
// Closed loop: l.conns callers each send their next request when the
// previous one completes; latency is timed from the send. Open loop: the
// callers pull arrivals off a fixed schedule and latency is timed from the
// scheduled send, so a stall also charges the requests queued behind it.
func run(client *http.Client, url string, in *inputs, l load) loadResult {
	start := time.Now()
	wStart := start.Add(l.warmup)
	wEnd := wStart.Add(l.window)
	var sched []arrival
	if l.open {
		sched = schedule(l.seed, l.rate, l.warmup+l.window, len(in.bodies), l.tenants)
	}

	var (
		mu     sync.Mutex
		res    loadResult
		hooks  sync.WaitGroup
		stall  atomic.Int64
		nextID atomic.Int64
		next   atomic.Int64
		wg     sync.WaitGroup
	)
	hooks.Add(2)
	go func() {
		defer hooks.Done()
		for time.Now().Before(wEnd) {
			t := time.Now()
			time.Sleep(time.Millisecond)
			if d := time.Since(t) - time.Millisecond; d > stallMin {
				stall.Add(int64(d))
			}
		}
	}()
	go func() {
		defer hooks.Done()
		time.Sleep(time.Until(wStart))
		if l.onWindow != nil {
			l.onWindow(true)
		}
		for at := wStart; ; at = at.Add(markEvery) {
			if at.After(wEnd) {
				at = wEnd
			}
			time.Sleep(time.Until(at))
			m, err := takeMark(at, l.pid, &stall)
			res.marks = append(res.marks, m)
			res.err = errors.Join(res.err, err)
			if !at.Before(wEnd) {
				break
			}
		}
		if l.onWindow != nil {
			l.onWindow(false)
		}
	}()
	for c := 0; c < l.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var (
				mine []sample
				t    tally
			)
			rng := rand.New(rand.NewSource(l.seed*1009 + int64(c)))
			for {
				var (
					due          time.Time
					body, tenant int
				)
				if l.open {
					k := next.Add(1) - 1
					if k >= int64(len(sched)) {
						break
					}
					a := sched[k]
					due = start.Add(a.due)
					sleepUntil(due)
					body, tenant = a.body, a.tenant
				} else {
					due = time.Now()
					if !due.Before(wEnd) {
						break
					}
					body, tenant = rng.Intn(len(in.bodies)), rng.Intn(max(l.tenants, 1))
				}
				s := sample{id: nextID.Add(1), due: due}
				sent := time.Now()
				s.late = sent.Sub(due)
				s.ok, s.resp = send(client, url, in, body, tenant, l, s.id, &t)
				s.lat = time.Since(due)
				if !due.Before(wStart) && due.Before(wEnd) {
					mine = append(mine, s)
				}
			}
			mu.Lock()
			res.samples = append(res.samples, mine...)
			res.tally.add(t)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	hooks.Wait()
	sort.Slice(res.samples, func(i, j int) bool { return res.samples[i].due.Before(res.samples[j].due) })
	res.window = l.window
	return res
}

// sleepUntil sleeps until t on the kernel's high-resolution timer. The Go
// runtime's own timers can wake an idle process up to a millisecond late,
// and in the open loop that lateness would be charged to every request.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// send posts one body and classifies the outcome into t.
func send(client *http.Client, url string, in *inputs, body, tenant int, l load, id int64, t *tally) (bool, response) {
	t.sent++
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(in.bodies[body]))
	if err != nil {
		t.transport++
		return false, response{}
	}
	req.Header.Set("Content-Type", "application/json")
	if l.tenants > 1 {
		req.Header.Set("X-Tenant", "tenant-"+strconv.Itoa(tenant))
	}
	if l.tagged {
		req.Header.Set("X-Bench-Id", strconv.FormatInt(id, 10))
	}
	resp, err := client.Do(req)
	if err != nil {
		t.transport++
		return false, response{}
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.transport++
		return false, response{}
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		r, ok := in.check(body, b)
		if ok {
			t.ok++
		} else {
			t.wrong++
		}
		return ok, r
	case resp.StatusCode == http.StatusTooManyRequests:
		t.s429++
	case resp.StatusCode == http.StatusServiceUnavailable:
		t.s503++
	case resp.StatusCode >= 500:
		t.s5xx++
	default:
		t.other++
	}
	return false, response{}
}

// summary is the end-to-end view of one pass.
type summary struct {
	attempted, failed int
	okN               int // latency samples: correct 200s
	throughput        float64
	p50, p90, p99     float64 // ms; p90 and p99 as groupedQuantile gives them
	pooledP99         float64 // ms; p99 of all the samples at once
	sloAttain         float64
	lateP50, lateP99  float64 // ms; open loop only
	cpuPerReq         float64 // ms of server CPU per correct 200, when sampled
	span              time.Duration
	steal, stalled    float64 // host steal and stall shares over the summarized slices
}

// span is one slice of the window between two marks.
type span struct{ from, to mark }

func (p span) steal() float64 {
	return float64(p.to.steal-p.from.steal) / float64(max(p.to.total-p.from.total, 1))
}

func (p span) stalled() float64 {
	return float64(p.to.stall-p.from.stall) / float64(p.to.at.Sub(p.from.at))
}

// interference is the share of the slice lost to the machine's neighbours.
func (p span) interference() float64 { return p.steal() + p.stalled() }

// windowSpans cuts the window at its marks.
func windowSpans(marks []mark) []span {
	var ps []span
	for i := 1; i < len(marks); i++ {
		ps = append(ps, span{marks[i-1], marks[i]})
	}
	return ps
}

// quietShare is the least share of the window the end-to-end figures are
// taken over: its slices with the least interference (steal plus stalls).
// On a shared virtual machine, other guests take the CPUs away in bursts
// of tens of milliseconds that stall the server and the generator alike; a
// few percent of it triples p99 and takes a fifth off closed-loop
// capacity, so figures over the whole window measure the neighbours more
// than the program. Slices are ranked by the steal counter and the stall
// watcher alone, never by what was measured in them.
const quietShare = 1.0 / 3

// quietest returns the quietShare of ps (rounded up) with the least
// interference, plus every slice tied with the noisiest of them, in time
// order. On a quiet machine that is the whole window.
func quietest(ps []span) []span {
	if len(ps) == 0 {
		return nil
	}
	byNoise := slices.Clone(ps)
	sort.SliceStable(byNoise, func(i, j int) bool { return byNoise[i].interference() < byNoise[j].interference() })
	limit := byNoise[int(math.Ceil(quietShare*float64(len(ps))))-1].interference()
	var out []span
	for _, p := range ps {
		if p.interference() <= limit {
			out = append(out, p)
		}
	}
	return out
}

// summarize computes the end-to-end figures over the samples sent inside
// spans.
func summarize(r loadResult, sloMS float64, spans []span) summary {
	var s summary
	var lats, lates []float64
	var cpu time.Duration
	var steal, total int64
	var stall time.Duration
	inSLO := 0
	for _, p := range spans {
		s.span += p.to.at.Sub(p.from.at)
		stall += p.to.stall - p.from.stall
		cpu += p.to.cpu - p.from.cpu
		steal += p.to.steal - p.from.steal
		total += p.to.total - p.from.total
	}
	s.steal = float64(steal) / float64(max(total, 1))
	s.stalled = float64(stall) / float64(max(s.span, 1))
	for _, x := range r.samples {
		if !inSpans(spans, x.due) {
			continue
		}
		s.attempted++
		lates = append(lates, ms(x.late))
		if !x.ok {
			s.failed++
			continue
		}
		l := ms(x.lat)
		lats = append(lats, l)
		if l <= sloMS {
			inSLO++
		}
	}
	s.okN = len(lats)
	s.throughput = float64(len(lats)) / s.span.Seconds()
	s.p90 = groupedQuantile(lats, 0.90)
	s.p99 = groupedQuantile(lats, 0.99)
	s.pooledP99 = quantile(slices.Clone(lats), 0.99)
	s.p50 = quantile(lats, 0.50)
	if s.attempted > 0 {
		s.sloAttain = float64(inSLO) / float64(s.attempted)
	}
	if s.okN > 0 {
		s.cpuPerReq = ms(cpu) / float64(s.okN)
	}
	s.lateP99 = quantile(lates, 0.99)
	s.lateP50 = quantile(lates, 0.50)
	return s
}

// tailGroup is the least number of latency samples behind one group's
// tail quantile, so that at least ten samples lie beyond a group's p99.
const tailGroup = 1000

// groupedQuantile cuts lats, in send order, into consecutive groups of at
// least tailGroup samples and returns the median of the groups' q-quantiles:
// one burst of interference moves one group, not the figure. With fewer
// than 2*tailGroup samples it is the q-quantile of them all.
func groupedQuantile(lats []float64, q float64) float64 {
	k := max(1, len(lats)/tailGroup)
	var qs []float64
	for g := 0; g < k; g++ {
		qs = append(qs, quantile(slices.Clone(lats[g*len(lats)/k:(g+1)*len(lats)/k]), q))
	}
	return quantile(qs, 0.5)
}

func inSpans(spans []span, t time.Time) bool {
	for _, p := range spans {
		if !t.Before(p.from.at) && t.Before(p.to.at) {
			return true
		}
	}
	return false
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the nearest-rank q-quantile of xs (sorting xs); 0 when
// xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
