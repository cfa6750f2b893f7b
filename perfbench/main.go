// Command perfbench is the repository's serving benchmark. It drives the
// real `POST /v1/submit` path of `pipemap -serve -ingest` and reports either
// end-to-end metrics (--trace 0) or per-layer metrics (--trace 1).
//
// Run it through the launcher, which builds cmd/pipemap and this program
// from the tree it runs in, with every artifact under .bench_build/:
//
//	bash perfbench/run.sh --workload radar-open --seed 3 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it are a
// human-readable report with provenance and sample counts.
//
// End-to-end pass: the pipemap binary runs as a child process with its
// default ingest flags. It is cold-started several times for setup_s (exec
// to the first 200 on /readyz; median), then three fresh servers are driven
// in turn by one load generator over at most nproc keep-alive connections,
// each through a warm-up and a third of the window. Each server's
// throughput, latency, SLO attainment and CPU per request are taken over
// the quietest third of its window (see quietShare), and the metrics are
// the best over the three servers (see runChild). The report also prints every server's
// figures over its whole window, and its p90 and p99: on a shared 2-vCPU
// machine the tails moved by more than the largest allowed bound between
// sets of runs, so they are reported but not gated. Failures count over the
// whole window.
//
// Traced pass: the same stack is built in-process from the constructors
// cmd/pipemap uses, with the settings parsed from the binary's banner, and
// timing wrappers around the codec, every stage and transfer edge, the
// backend and the submit handler (traced.go). Half of --seconds drives the
// binary as an overhead baseline, the other half the traced stack.
//
// Every pass checks every response against a reference result computed at
// set-up on an independent single-module, single-worker pipeline, reconciles
// the server's accounting with the generator's tallies, and marks the result
// incorrect on any mismatch. The generator itself is checked against a
// fixed-delay stub by the tests here: cd perfbench && go test .
package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"pipemap/internal/fxrt"
	"pipemap/internal/ingest"
)

// binaryDefaults mirrors the `pipemap -ingest` settings the traced run
// cannot read from the binary's banner (cmd/pipemap ingest.go and main.go).
// Queue depth, deadline budget, tenant rate, dispatcher count, trace
// sampling and flight ring size are parsed from the banner instead.
var binaryDefaults = struct {
	retry           fxrt.RetryPolicy
	deadAfter       int
	livenessFloor   float64
	sloAvailability float64
}{
	retry:           fxrt.RetryPolicy{MaxRetries: 2, Backoff: time.Millisecond},
	deadAfter:       2,
	livenessFloor:   0.5,
	sloAvailability: 0.999,
}

// The shape of an end-to-end run: the server is cold-started setupStarts
// times (setup_s is the median) and the last segments of those servers are
// driven in turn, each through warmup and its share of the window.
const (
	setupStarts = 11
	segments    = 3
	warmup      = 2 * time.Second
)

type options struct {
	root, pipemap string
	seed          int64
	seconds       int
	trace         bool
	warmup        time.Duration
	starts        int // server starts per run behind setup_s
	segments      int // driven server lifetimes per run
	conns         int
}

func main() {
	var (
		o     options
		name  string
		trace int
	)
	flag.StringVar(&name, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed (inputs, input order and arrivals)")
	flag.IntVar(&o.seconds, "seconds", 10, "measured window per pass, in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics from the pipemap binary; 1: per-layer metrics from the traced in-process stack")
	flag.StringVar(&o.root, "root", ".", "repository root (spec files are read from here)")
	flag.StringVar(&o.pipemap, "pipemap", "", "pipemap binary built from the tree under test")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = trace == 1
	o.starts, o.segments, o.warmup = setupStarts, segments, warmup
	o.conns = runtime.NumCPU()
	if err := benchmark(os.Stdout, name, o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func benchmark(out io.Writer, name string, o options) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if o.pipemap == "" || o.seconds < 1 {
		return errors.New("need -pipemap and -seconds >= 1")
	}
	chain, plat, err := loadChain(o.root, w.spec)
	if err != nil {
		return err
	}
	in, err := makeInputs(w, chain, o.seed)
	if err != nil {
		return fmt.Errorf("expected results: %w", err)
	}
	if o.trace {
		// The untraced pass only gives the overhead baseline and the
		// banner; the two passes share the run length.
		o.starts, o.segments = 1, 1
		o.seconds = max(1, o.seconds/2)
	}
	provenance(out, w, o)

	e2e, err := runChild(o, w, &in, o.starts-o.segments, o.segments)
	if err != nil {
		return err
	}
	res := result{Metrics: map[string]metric{}}
	var problems []string
	problems = append(problems, e2e.problems...)
	// Failures count over the whole window, not only its quietest third.
	for _, seg := range e2e.segs {
		res.Attempted += seg.full.attempted
		res.Failed += seg.full.failed
	}
	reportE2E(out, "untraced", w, e2e)

	if !o.trace {
		setup := make([]float64, len(e2e.setups))
		for i, d := range e2e.setups {
			setup[i] = d.Seconds()
		}
		for k, v := range map[string]float64{
			"throughput_rps":  e2e.best(func(s segment) float64 { return s.sum.throughput }, true),
			"latency_p50_ms":  e2e.best(func(s segment) float64 { return s.sum.p50 }, false),
			"slo_attain_frac": e2e.best(func(s segment) float64 { return s.sum.sloAttain }, true),
			"cpu_ms_per_req":  e2e.best(func(s segment) float64 { return s.sum.cpuPerReq }, false),
			"rss_peak_mb":     e2e.best(func(s segment) float64 { return s.rssMB }, false),
			"setup_s":         quantile(setup, 0.5),
		} {
			res.Metrics[k] = metric{v, endToEndUnits[k]}
		}
	} else {
		tr, err := runTraced(o, w, &in, chain, plat, e2e)
		if err != nil {
			return err
		}
		problems = append(problems, tr.problems...)
		res.Attempted += tr.sum.attempted
		res.Failed += tr.sum.failed
		reportTraced(out, w, e2e, tr)
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{tr.metrics[m.name], m.unit}
		}
	}
	res.Correct = len(problems) == 0
	for _, p := range problems {
		fmt.Fprintln(out, "CHECK FAILED:", p)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(b))
	return nil
}

var endToEndUnits = map[string]string{
	"throughput_rps":  "1/s",
	"latency_p50_ms":  "ms",
	"slo_attain_frac": "frac",
	"cpu_ms_per_req":  "ms",
	"rss_peak_mb":     "MiB",
	"setup_s":         "s",
}

// e2eResult is one pass against the pipemap binary.
type e2eResult struct {
	segs     []segment
	setups   []time.Duration
	banner   string   // the first driven server's output
	problems []string // failed correctness or accounting checks
}

// segment is one driven server lifetime.
type segment struct {
	sum   summary // over the quietest third of its window
	full  summary // over its whole window
	rssMB float64
	stats ingest.Stats // /v1/ingest after the window
	drain drainLine
}

// best returns the least value of f over the segments or, with higher, the
// greatest.
func (r e2eResult) best(f func(segment) float64, higher bool) float64 {
	xs := make([]float64, len(r.segs))
	for i, s := range r.segs {
		xs[i] = f(s)
	}
	if higher {
		return slices.Max(xs)
	}
	return slices.Min(xs)
}

// runChild cold-starts idle servers for setup_s, then drives driven
// fresh servers one after another, each through a warm-up and its share
// of the window. The end-to-end figures are the best over the servers:
// interference from other guests of a shared machine only ever adds CPU
// time and latency and takes throughput away, and when it lasts longer
// than a slice, gating slices cannot remove it (a heavy minute raised
// radar-open's CPU per request by a third in every slice), so the least
// disturbed server is the best estimate of the program's own figures.
func runChild(o options, w workload, in *inputs, idle, driven int) (e2eResult, error) {
	var r e2eResult
	for i := 0; i < idle; i++ {
		c, err := startChild(o.pipemap, o.root, w)
		if err != nil {
			return r, err
		}
		r.setups = append(r.setups, c.setup)
		d, err := c.stop()
		if err != nil {
			return r, err
		}
		if err := reconcile(d, tally{}); err != nil {
			r.problems = append(r.problems, "idle start: "+err.Error())
		}
	}
	window := time.Duration(o.seconds) * time.Second / time.Duration(driven)
	for k := 0; k < driven; k++ {
		seg, err := driveChild(o, w, in, &r, window, o.seed*1000+int64(k))
		if err != nil {
			return r, err
		}
		r.segs = append(r.segs, seg)
	}
	return r, nil
}

// driveChild starts one server and drives it through a warm-up and the
// window, then reads /v1/ingest, SIGTERMs it and reconciles its drain
// accounting with the generator's tallies.
func driveChild(o options, w workload, in *inputs, r *e2eResult, window time.Duration, seed int64) (segment, error) {
	var seg segment
	c, err := startChild(o.pipemap, o.root, w)
	if err != nil {
		return seg, err
	}
	defer c.kill()
	r.setups = append(r.setups, c.setup)
	pid := c.cmd.Process.Pid

	client := newClient(o.conns)
	defer client.CloseIdleConnections()
	lr := run(client, "http://"+c.addr+"/v1/submit", in, load{
		conns: o.conns, open: w.open, rate: w.rate, tenants: w.tenants, seed: seed,
		warmup: o.warmup, window: window, pid: pid,
	})
	if lr.err != nil {
		return seg, lr.err
	}
	seg.full = summarize(lr, w.sloMS, windowSpans(lr.marks))
	seg.sum = summarize(lr, w.sloMS, quietest(windowSpans(lr.marks)))
	if seg.sum.okN == 0 {
		return seg, fmt.Errorf("no correct 200 in the window (tally %+v)\n%s", lr.tally, c.log.String())
	}
	if seg.rssMB, err = procHWM(pid); err != nil {
		return seg, err
	}
	if err := getJSON(client, "http://"+c.addr+"/v1/ingest", &seg.stats); err != nil {
		return seg, err
	}
	client.CloseIdleConnections()
	if seg.drain, err = c.stop(); err != nil {
		return seg, err
	}
	if r.banner == "" {
		r.banner = c.log.String()
	}
	if lr.tally.wrong > 0 {
		r.problems = append(r.problems, fmt.Sprintf("%d response(s) differ from the reference result", lr.tally.wrong))
	}
	if err := reconcile(seg.drain, lr.tally); err != nil {
		r.problems = append(r.problems, err.Error())
	}
	if err := statsMatchDrain(seg.stats, seg.drain); err != nil {
		r.problems = append(r.problems, err.Error())
	}
	return seg, nil
}

// statsMatchDrain checks /v1/ingest, read after the last request, against
// the drain line printed after SIGTERM: nothing may change in between.
func statsMatchDrain(st ingest.Stats, d drainLine) error {
	var shed int64
	for _, n := range st.Shed {
		shed += n
	}
	if st.Admitted != d.admitted || st.Completed != d.completed || st.Failed != d.failed || shed != d.shed {
		return fmt.Errorf("/v1/ingest (admitted %d, completed %d, failed %d, shed %d) disagrees with the drain line %+v",
			st.Admitted, st.Completed, st.Failed, shed, d)
	}
	if d.flushed != 0 {
		return fmt.Errorf("drain flushed %d request(s) after the generator finished", d.flushed)
	}
	return nil
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func loadShape(w workload, o options) string {
	shape := fmt.Sprintf("closed loop, %d clients", o.conns)
	if w.open {
		shape = fmt.Sprintf("open loop, Poisson %g req/s, at most %d connections", w.rate, o.conns)
	}
	return fmt.Sprintf("%s, %d tenant(s)", shape, max(w.tenants, 1))
}

func provenance(out io.Writer, w workload, o options) {
	fmt.Fprintf(out, "workload %s: pipemap -serve -ingest %s %s", w.name, w.app, w.spec)
	if w.size > 0 {
		fmt.Fprintf(out, " -ingest-size %d", w.size)
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "provenance: %s, %d cpus, GOMAXPROCS %d, %d connections, %s, seed %d, %ds window over %d server(s), each after a %s warm-up, commit %s\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), o.conns, loadShape(w, o),
		o.seed, o.seconds, o.segments, o.warmup, commit(o.root))
	fmt.Fprintf(out, "correctness: %d distinct inputs checked against a 1-module 1-worker reference (counts exact, floats within rel %g or abs %g); SLO limit %g ms\n",
		w.pool, relTol, absTol, w.sloMS)
}

// commit names the tree under test: the git commit when the root is a
// checkout with history, else a hash of every file outside hidden
// directories.
func commit(root string) string {
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	h := sha256.New()
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() {
			if b, err := os.ReadFile(p); err == nil {
				rel, _ := filepath.Rel(root, p)
				fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return fmt.Sprintf("tree-sha256:%x", h.Sum(nil)[:8])
}

func reportE2E(out io.Writer, label string, w workload, r e2eResult) {
	setups := make([]string, len(r.setups))
	for i, d := range r.setups {
		setups[i] = fmt.Sprintf("%.3f", d.Seconds())
	}
	fmt.Fprintf(out, "%s: setup %s s\n", label, strings.Join(setups, " "))
	for k, seg := range r.segs {
		for _, v := range []struct {
			what string
			s    summary
		}{{"quietest third (reported)", seg.sum}, {"whole window", seg.full}} {
			s := v.s
			fmt.Fprintf(out, "%s server %d, %s: %.1f s, host steal %.1f%%, stalls %.1f%%\n",
				label, k+1, v.what, s.span.Seconds(), 100*s.steal, 100*s.stalled)
			fmt.Fprintf(out, "  %.1f req/s; latency p50 %.3f ms, p90 %.3f ms, p99 %.3f ms (tails: median over groups of >= %d samples; pooled p99 %.3f ms) over %d samples; SLO %g ms attained %.4f\n",
				s.throughput, s.p50, s.p90, s.p99, tailGroup, s.pooledP99, s.okN, w.sloMS, s.sloAttain)
			fmt.Fprintf(out, "  attempted %d, failed %d (fail_frac %.4f); server CPU %.3f ms/req\n",
				s.attempted, s.failed, float64(s.failed)/float64(max(s.attempted, 1)), s.cpuPerReq)
		}
		if w.open {
			late := ""
			if seg.full.lateP99 > 1 {
				late = " (LATE: generator behind schedule; latency is still timed from the scheduled send)"
			}
			fmt.Fprintf(out, "  generator late p50 %.3f ms, p99 %.3f ms%s\n", seg.full.lateP50, seg.full.lateP99, late)
		}
		var sb strings.Builder
		for _, k := range slices.Sorted(maps.Keys(seg.stats.Shed)) {
			fmt.Fprintf(&sb, " %s=%d", k, seg.stats.Shed[k])
		}
		fmt.Fprintf(out, "  server admitted %d, completed %d, failed %d, shed%s; queue high water %d; VmHWM %.1f MiB\n",
			seg.drain.admitted, seg.drain.completed, seg.drain.failed, sb.String(), seg.stats.QueueHighWater, seg.rssMB)
	}
}
