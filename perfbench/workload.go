package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"pipemap/internal/apps"
	"pipemap/internal/core"
	"pipemap/internal/fxrt"
	"pipemap/internal/ingest"
	"pipemap/internal/model"
)

// workload is one traffic mix driven against `pipemap -serve -ingest`.
// Each stresses a different layer of the serving path; the reasons are
// recorded with the workload names in BENCHMARK.json. radar-open is not
// listed there: its CPU per request and p50 moved by a quarter between runs
// on a shared 2-vCPU machine, the largest bound allowed, because wake-up
// latencies of the host dominate its sub-millisecond requests. It stays
// runnable for its per-layer breakdown of the request plumbing.
type workload struct {
	name string
	app  string // -ingest application
	spec string // chain spec, relative to the repository root
	size int    // -ingest-size passed to the binary; 0 keeps its default

	open    bool    // open loop (Poisson arrivals) instead of a closed loop
	rate    float64 // open loop: offered requests per second
	tenants int     // requests are spread over this many X-Tenant values
	sloMS   float64 // latency limit behind slo_attain_frac

	pool  int                      // distinct inputs; expected results are precomputed for each
	input func(rng *rand.Rand) any // one request's "input" object
}

// The latency limits sit at three to eight times the seed commit's p99 on
// a 2-vCPU box, so slo_attain_frac moves on a real tail regression and not
// on noise. radar-open's 850 req/s is half the 2-caller closed-loop
// capacity first estimated for radar (about 1,700 req/s); on the box used
// to fix it, capacity measured about 4,000 req/s, but at 2,000 req/s the
// steal bursts of a shared host built queues that swamped every latency
// figure, so the lower rate stays.
var workloads = []workload{
	{
		name: "ffthist-seed", app: "ffthist", spec: "specs/ffthist256.json",
		tenants: 1, sloMS: 25, pool: 64,
		input: func(rng *rand.Rand) any { return map[string]int{"seed": rng.Intn(1 << 20)} },
	},
	{
		name: "ffthist-data", app: "ffthist", spec: "specs/ffthist256.json",
		tenants: 1, sloMS: 80, pool: 8,
		input: func(rng *rand.Rand) any {
			data := make([]float64, ffthistN*ffthistN)
			for i := range data {
				data[i] = rng.NormFloat64()
			}
			return map[string][]float64{"data": data}
		},
	},
	{
		name: "radar-open", app: "radar", spec: "specs/radar64.json", size: 64,
		open: true, rate: 850, tenants: 4, sloMS: 20, pool: 256,
		input: func(rng *rand.Rand) any {
			return map[string]int{
				"seed":           rng.Intn(1 << 20),
				"target_gate":    1 + rng.Intn(63),
				"target_doppler": 1 + rng.Intn(15),
			}
		},
	},
}

// ffthistN is the FFT-Hist matrix size the binary serves when -ingest-size
// is 0.
const ffthistN = 128

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// buildApp realizes mapping m as the application's kernel pipeline and
// codec with the sizes and fault-tolerance policy `pipemap -ingest` uses
// (cmd/pipemap buildIngestApp; the values are mirrored in defaults below).
func buildApp(app string, size int, m model.Mapping) (*fxrt.Pipeline, []fxrt.Edge, ingest.Codec, error) {
	var (
		pl    *fxrt.Pipeline
		edges []fxrt.Edge
		codec ingest.Codec
		err   error
	)
	switch app {
	case "ffthist":
		n := size
		if n == 0 {
			n = ffthistN
		}
		r := apps.FFTHistRunner{N: n}
		pl, edges, err = r.Pipeline(m)
		codec = apps.FFTHistCodec{Runner: r}
	case "radar":
		r := apps.RadarRunner{Gates: size}
		pl, _, err = r.Pipeline(m)
		codec = apps.RadarCodec{Runner: r}
	default:
		return nil, nil, nil, fmt.Errorf("no benchmark build for app %q", app)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	pl.Retry = binaryDefaults.retry
	pl.DeadAfter = binaryDefaults.deadAfter
	return pl, edges, codec, nil
}

func loadChain(root, spec string) (*model.Chain, model.Platform, error) {
	f, err := os.Open(filepath.Join(root, spec))
	if err != nil {
		return nil, model.Platform{}, err
	}
	defer f.Close()
	return core.ParseChainSpec(f)
}

// inputs is a workload's pre-marshaled request bodies with the expected
// result of each.
type inputs struct {
	bodies [][]byte
	want   []any
	app    string
}

// makeInputs draws the workload's distinct inputs from seed, marshals each
// as a POST /v1/submit body once (so the generator's own cost stays fixed),
// and computes every expected result on an independent single-module,
// single-worker pipeline of the same application through the same codec.
func makeInputs(w workload, chain *model.Chain, seed int64) (inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := inputs{app: w.app}
	for i := 0; i < w.pool; i++ {
		b, err := json.Marshal(map[string]any{"input": w.input(rng)})
		if err != nil {
			return inputs{}, err
		}
		in.bodies = append(in.bodies, b)
	}
	ref := model.Mapping{Chain: chain, Modules: []model.Module{{Lo: 0, Hi: chain.Len(), Procs: 1, Replicas: 1}}}
	pl, edges, codec, err := buildApp(w.app, w.size, ref)
	if err != nil {
		return inputs{}, err
	}
	s, err := pl.Stream(fxrt.StreamOptions{Edges: edges})
	if err != nil {
		return inputs{}, err
	}
	defer s.Close()
	for i, b := range in.bodies {
		var req ingest.SubmitRequest
		if err := json.Unmarshal(b, &req); err != nil {
			return inputs{}, err
		}
		ds, err := codec.Decode(req.Input)
		if err != nil {
			return inputs{}, fmt.Errorf("reference decode of input %d: %w", i, err)
		}
		ch, err := s.Push(nil, ds)
		if err != nil {
			return inputs{}, err
		}
		r := <-ch
		if r.Err != nil {
			return inputs{}, fmt.Errorf("reference run of input %d: %w", i, r.Err)
		}
		res, err := codec.Encode(r.DS)
		if err != nil {
			return inputs{}, err
		}
		enc, err := json.Marshal(res)
		if err != nil {
			return inputs{}, err
		}
		want, err := decodeNumbers(enc)
		if err != nil {
			return inputs{}, err
		}
		in.want = append(in.want, want)
	}
	return in, nil
}

// response is the part of a 200 submit response the benchmark reads.
type response struct {
	App       string          `json:"app"`
	Result    json.RawMessage `json:"result"`
	SojournMS float64         `json:"sojourn_ms"`
	ServiceMS float64         `json:"service_ms"`
}

// check parses a 200 body and compares its result with input i's expected
// result. It returns the parsed response and whether the result is correct.
func (in *inputs) check(i int, body []byte) (response, bool) {
	var r response
	if err := json.Unmarshal(body, &r); err != nil || r.App != in.app {
		return r, false
	}
	got, err := decodeNumbers(r.Result)
	if err != nil {
		return r, false
	}
	return r, sameResult(in.want[i], got)
}

func decodeNumbers(b []byte) (any, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var v any
	err := dec.Decode(&v)
	return v, err
}

// Float tolerance of the correctness gate. Counts (JSON integers on both
// sides) must match exactly; floats may differ by this much relatively or
// absolutely, since parallel histogram merges sum in another order than
// the single-worker reference.
const (
	relTol = 1e-9
	absTol = 1e-9
)

func sameResult(want, got any) bool {
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok || len(g) != len(w) {
			return false
		}
		for k, wv := range w {
			gv, ok := g[k]
			if !ok || !sameResult(wv, gv) {
				return false
			}
		}
		return true
	case []any:
		g, ok := got.([]any)
		if !ok || len(g) != len(w) {
			return false
		}
		for i := range w {
			if !sameResult(w[i], g[i]) {
				return false
			}
		}
		return true
	case json.Number:
		g, ok := got.(json.Number)
		if !ok {
			return false
		}
		if isInteger(w) && isInteger(g) {
			return w == g
		}
		wf, err1 := w.Float64()
		gf, err2 := g.Float64()
		if err1 != nil || err2 != nil {
			return false
		}
		d := math.Abs(wf - gf)
		return d <= absTol || d <= relTol*math.Max(math.Abs(wf), math.Abs(gf))
	default:
		return want == got
	}
}

func isInteger(n json.Number) bool { return !strings.ContainsAny(string(n), ".eE") }
