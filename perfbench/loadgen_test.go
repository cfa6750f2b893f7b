package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"
)

// stub serves every submit after a fixed delay d with a constant result.
func stub(d time.Duration) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		time.Sleep(d)
		w.Write([]byte(`{"app":"stub","result":{"n":1},"sojourn_ms":0,"service_ms":0}`))
	}))
}

func stubInputs() *inputs {
	return &inputs{
		app:    "stub",
		bodies: [][]byte{[]byte(`{}`)},
		want:   []any{map[string]any{"n": json.Number("1")}},
	}
}

// A closed loop against a fixed delay d runs at conns/d with p50 near d.
func TestClosedLoopAgainstFixedDelay(t *testing.T) {
	const (
		d     = 10 * time.Millisecond
		conns = 2
	)
	srv := stub(d)
	defer srv.Close()
	client := newClient(conns)
	defer client.CloseIdleConnections()
	r := run(client, srv.URL, stubInputs(), load{conns: conns, seed: 1, warmup: 200 * time.Millisecond, window: 2 * time.Second})
	s := summarize(r, 1000, windowSpans(r.marks))
	want := conns / d.Seconds()
	if s.throughput < 0.8*want || s.throughput > 1.02*want {
		t.Errorf("throughput %.1f req/s, want about %.0f", s.throughput, want)
	}
	if s.p50 < ms(d) || s.p50 > 1.5*ms(d) {
		t.Errorf("p50 %.2f ms, want about %.0f ms", s.p50, ms(d))
	}
	if s.failed != 0 || r.tally.sent != r.tally.ok {
		t.Errorf("failed %d, tally %+v", s.failed, r.tally)
	}
}

// An open loop offered twice the capacity builds a backlog: latency timed
// from the scheduled send grows with run time and the generator reports
// itself late, so a stall cannot hide behind coordinated omission.
func TestOpenLoopOverloadGrowsLatency(t *testing.T) {
	const (
		d     = 10 * time.Millisecond
		conns = 2
	)
	srv := stub(d)
	defer srv.Close()
	client := newClient(conns)
	defer client.CloseIdleConnections()
	r := run(client, srv.URL, stubInputs(), load{conns: conns, open: true, rate: 2 * conns / d.Seconds(), seed: 1, window: time.Second})
	s := summarize(r, 1000, windowSpans(r.marks))

	q := len(r.samples) / 4
	var first, last []float64
	for i, x := range r.samples {
		switch {
		case i < q:
			first = append(first, ms(x.lat))
		case i >= len(r.samples)-q:
			last = append(last, ms(x.lat))
		}
	}
	f, l := quantile(first, 0.5), quantile(last, 0.5)
	if l < 4*f || l < 300 {
		t.Errorf("latency did not grow with the backlog: first-quarter p50 %.1f ms, last-quarter p50 %.1f ms", f, l)
	}
	if s.lateP99 < 300 {
		t.Errorf("generator late p99 %.1f ms, want a large lateness under 2x overload", s.lateP99)
	}
}

func TestSameResultTolerance(t *testing.T) {
	parse := func(s string) any {
		v, err := decodeNumbers([]byte(s))
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	want := parse(`{"count":16384,"mean":86.66526993310441,"min":1.7e-14,"top":[{"range":3,"power":2.5}]}`)
	for _, tc := range []struct {
		got  string
		same bool
	}{
		{`{"count":16384,"mean":86.66526993310441,"min":1.7e-14,"top":[{"range":3,"power":2.5}]}`, true},
		{`{"count":16384,"mean":86.66526993310449,"min":3e-15,"top":[{"range":3,"power":2.5000000000001}]}`, true},
		{`{"count":16383,"mean":86.66526993310441,"min":1.7e-14,"top":[{"range":3,"power":2.5}]}`, false},
		{`{"count":16384,"mean":86.6653,"min":1.7e-14,"top":[{"range":3,"power":2.5}]}`, false},
		{`{"count":16384,"mean":86.66526993310441,"min":1.7e-14,"top":[]}`, false},
		{`{"count":16384,"mean":86.66526993310441,"top":[{"range":3,"power":2.5}]}`, false},
	} {
		if got := sameResult(want, parse(tc.got)); got != tc.same {
			t.Errorf("sameResult(%s) = %v, want %v", tc.got, got, tc.same)
		}
	}
}

func TestReconcile(t *testing.T) {
	d := drainLine{admitted: 10, completed: 9, failed: 1, shed: 2}
	if err := reconcile(d, tally{sent: 12, ok: 9, s5xx: 1, s429: 1, s503: 1}); err != nil {
		t.Errorf("matching accounting rejected: %v", err)
	}
	for _, bad := range []tally{
		{sent: 12, ok: 8, wrong: 0, s5xx: 1, s429: 2, s503: 1},
		{sent: 13, ok: 9, s5xx: 1, s429: 1, s503: 1},
		{sent: 12, ok: 9, s5xx: 1, s429: 1, s503: 1, transport: 1},
	} {
		if err := reconcile(d, bad); err == nil {
			t.Errorf("mismatch %+v accepted", bad)
		}
	}
}

// BENCHMARK.json must name workloads this program has, and exactly the
// metrics it reports, with the same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(spec.EndToEnd) != len(endToEndUnits) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(endToEndUnits))
	}
	for _, m := range spec.EndToEnd {
		if u, ok := endToEndUnits[m.Name]; !ok || u != m.Unit {
			t.Errorf("end-to-end metric %s (%s): program has unit %q", m.Name, m.Unit, u)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s (%s), program %s (%s)", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
