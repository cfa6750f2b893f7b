package apps

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"pipemap/internal/fxrt"
	"pipemap/internal/ingest"
	"pipemap/internal/kernels"
)

// The oracles are the codecs' decoders as written with encoding/json: the
// scanner-based decoders must accept exactly their inputs and produce
// bit-identical data sets.

func oracleFFTHist(r FFTHistRunner, input []byte) (fxrt.DataSet, error) {
	var req struct {
		Seed int       `json:"seed"`
		Data []float64 `json:"data"`
	}
	if len(input) > 0 {
		if err := json.Unmarshal(input, &req); err != nil {
			return nil, err
		}
	}
	if req.Data != nil {
		if len(req.Data) != r.N*r.N {
			return nil, errors.New("data length")
		}
		mat := kernels.NewMatrix(r.N, r.N)
		for i, v := range req.Data {
			mat.Data[i] = complex(v, 0)
		}
		return mat, nil
	}
	return r.Input(req.Seed), nil
}

func oracleRadar(r RadarRunner, input []byte) (fxrt.DataSet, error) {
	var req struct {
		Seed          int `json:"seed"`
		TargetGate    int `json:"target_gate"`
		TargetDoppler int `json:"target_doppler"`
	}
	if len(input) > 0 {
		if err := json.Unmarshal(input, &req); err != nil {
			return nil, err
		}
	}
	pulses, gates := r.dims()
	tg, td := r.target()
	if req.TargetGate != 0 {
		tg = req.TargetGate
	}
	if req.TargetDoppler != 0 {
		td = req.TargetDoppler
	}
	if tg < 0 || tg >= gates || td < 0 || td >= pulses {
		return nil, errors.New("target out of range")
	}
	return r.inputAt(req.Seed, tg, td), nil
}

func oracleStereo(r StereoRunner, input []byte) (fxrt.DataSet, error) {
	var req struct {
		Seed int `json:"seed"`
	}
	if len(input) > 0 {
		if err := json.Unmarshal(input, &req); err != nil {
			return nil, err
		}
	}
	return r.input(req.Seed), nil
}

// sameBits reports whether two decoded data sets are identical, comparing
// floats by their bits so that -0 and 0 differ.
func sameBits(a, b fxrt.DataSet) bool {
	ma, ok := a.(kernels.Matrix)
	if !ok {
		return reflect.DeepEqual(a, b)
	}
	mb, ok := b.(kernels.Matrix)
	if !ok || ma.Rows != mb.Rows || ma.Cols != mb.Cols || len(ma.Data) != len(mb.Data) {
		return false
	}
	for i, v := range ma.Data {
		w := mb.Data[i]
		if math.Float64bits(real(v)) != math.Float64bits(real(w)) ||
			math.Float64bits(imag(v)) != math.Float64bits(imag(w)) {
			return false
		}
	}
	return true
}

// checkParity decodes input with the codec and its oracle and fails unless
// they agree on acceptance and, when accepted, on the data set.
func checkParity(t *testing.T, codec ingest.Codec, oracle func([]byte) (fxrt.DataSet, error), input []byte) {
	t.Helper()
	want, wantErr := oracle(input)
	got, gotErr := codec.Decode(input)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s decode %.200q: error %v, oracle error %v", codec.App(), input, gotErr, wantErr)
	}
	if wantErr == nil && !sameBits(got, want) {
		t.Fatalf("%s decode %.200q: data set differs from the oracle's", codec.App(), input)
	}
}

// dataArray renders a JSON array of n elements, element i given by elem.
func dataArray(n int, elem func(i int) string) string {
	parts := make([]string, n)
	for i := range parts {
		parts[i] = elem(i)
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// codecSeeds are the corpus every codec fuzz target starts from: escaped
// and case-folded keys (U+017F folds to 's'), duplicates, nulls, numbers
// beyond the int and float64 ranges, -0, and bytes after the value.
var codecSeeds = []string{
	``,
	` `,
	`null`,
	` null `,
	`null x`,
	`{}`,
	`[]`,
	`"seed"`,
	`{"seed":3}`,
	`{"SEED":3}`,
	`{"s\u0065ed":4}`,
	"{\"ſeed\":5}",
	`{"seed":1,"seed":2}`,
	`{"seed":2,"seed":null}`,
	`{"seed":1e400}`,
	`{"seed":-0}`,
	`{"seed":1.0}`,
	`{"seed":9223372036854775808}`,
	`{"seed":"3"}`,
	`{"seed":3} x`,
	`{"seed":3}}`,
	`{"seed":3,}`,
	`{"other":[{"a":null},"\u0000",true]}`,
}

func FuzzFFTHistDecode(f *testing.F) {
	for _, s := range codecSeeds {
		f.Add([]byte(s))
	}
	for _, s := range []string{
		`{"data":[1,2,3,4]}`,
		`{"DATA":[null,2,-0,1e-400]}`,
		`{"data":[1e400,0,0,0]}`,
		`{"data":[1,2,3,4,5],"data":[null,null,null,null]}`,
		`{"data":[1,2,3,4],"data":[],"data":[null,null,null,null]}`,
		`{"data":[1,2,3,4],"seed":5,"data":null}`,
		`{"data":[1,2,3,4],"data":null,"data":[null,null,null,null]}`,
		`{"data":[1,2,3]}`,
		`{"data":"abcd"}`,
		`{"data":[[1],2,3,4]}`,
		`{"data":[1,2,3,4]} x`,
		`{"data":` + dataArray(16383, func(int) string { return "1" }) + `}`,
		`{"data":` + dataArray(16384, func(i int) string { return fmt.Sprint(i%7 - 3) }) + `}`,
		`{"data":` + dataArray(16385, func(int) string { return "-0" }) + `}`,
		`{"data":` + dataArray(16385, func(int) string { return "2" }) +
			`,"data":` + dataArray(16384, func(int) string { return "null" }) + `}`,
	} {
		f.Add([]byte(s))
	}
	small := FFTHistRunner{N: 2}
	full := FFTHistRunner{N: 128}
	f.Fuzz(func(t *testing.T, input []byte) {
		for _, r := range []FFTHistRunner{small, full} {
			checkParity(t, FFTHistCodec{Runner: r}, func(b []byte) (fxrt.DataSet, error) { return oracleFFTHist(r, b) }, input)
		}
	})
}

func FuzzRadarDecode(f *testing.F) {
	for _, s := range codecSeeds {
		f.Add([]byte(s))
	}
	for _, s := range []string{
		`{"target_gate":20,"target_doppler":3}`,
		`{"TARGET_GATE":63,"Target_Doppler":7,"seed":9}`,
		`{"target_gate":64}`,
		`{"target_gate":-1}`,
		`{"target_gate":5,"target_gate":null}`,
		`{"target_doppler":1e400}`,
	} {
		f.Add([]byte(s))
	}
	r := RadarRunner{Pulses: 8, Gates: 64}
	f.Fuzz(func(t *testing.T, input []byte) {
		checkParity(t, RadarCodec{Runner: r}, func(b []byte) (fxrt.DataSet, error) { return oracleRadar(r, b) }, input)
	})
}

func FuzzStereoDecode(f *testing.F) {
	for _, s := range codecSeeds {
		f.Add([]byte(s))
	}
	r := StereoRunner{W: 32, H: 16}
	f.Fuzz(func(t *testing.T, input []byte) {
		checkParity(t, StereoCodec{Runner: r}, func(b []byte) (fxrt.DataSet, error) { return oracleStereo(r, b) }, input)
	})
}

// normalDataBody is a 128×128 {"data":[...]} input as a client marshals it.
func normalDataBody(t testing.TB) []byte {
	rng := rand.New(rand.NewSource(1))
	data := make([]float64, 128*128)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	b, err := json.Marshal(map[string][]float64{"data": data})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFFTHistDecodeAllocatesOnlyTheMatrix(t *testing.T) {
	c := FFTHistCodec{Runner: FFTHistRunner{N: 128}}
	body := normalDataBody(t)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := c.Decode(body); err != nil {
			t.Fatal(err)
		}
	})
	// The matrix header boxed in the data set, and its element slice.
	if allocs > 2 {
		t.Fatalf("decoding a 128x128 data input allocates %v times, want <= 2", allocs)
	}
}

func TestCodecsDoNotRetainInput(t *testing.T) {
	for _, tc := range []struct {
		codec ingest.Codec
		input string
	}{
		{FFTHistCodec{Runner: FFTHistRunner{N: 2}}, `{"data":[1.5,-2,3e2,4]}`},
		{FFTHistCodec{Runner: FFTHistRunner{N: 2}}, `{"seed":7}`},
		{RadarCodec{Runner: RadarRunner{Pulses: 8, Gates: 64}}, `{"seed":3,"target_gate":20,"target_doppler":3}`},
		{StereoCodec{Runner: StereoRunner{W: 32, H: 16}}, `{"seed":5}`},
	} {
		buf := []byte(tc.input)
		got, err := tc.codec.Decode(buf)
		if err != nil {
			t.Fatalf("%s %s: %v", tc.codec.App(), tc.input, err)
		}
		for i := range buf {
			buf[i] = '9'
		}
		want, err := tc.codec.Decode([]byte(tc.input))
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got, want) {
			t.Fatalf("%s %s: data set changed when the input buffer was overwritten", tc.codec.App(), tc.input)
		}
	}
}

// decodeOnly serves a codec's decode through the handler with nothing
// after it: a pass-through pipeline and a constant result.
type decodeOnly struct{ ingest.Codec }

func (decodeOnly) Encode(fxrt.DataSet) (any, error) { return 0, nil }

func BenchmarkSubmitDecode(b *testing.B) {
	pl := &fxrt.Pipeline{Stages: []fxrt.Stage{{
		Name: "pass", Workers: 1, Replicas: 1,
		Run: func(_ *fxrt.StageCtx, in fxrt.DataSet) (fxrt.DataSet, error) { return in, nil },
	}}}
	p, err := ingest.New(ingest.Config{DefaultBudget: time.Minute}, pl, fxrt.StreamOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Drain()
	h := ingest.SubmitHandler(p, decodeOnly{FFTHistCodec{Runner: FFTHistRunner{N: 128}}})
	for _, bc := range []struct {
		name string
		body []byte
	}{
		{"data-128x128", []byte(`{"input":` + string(normalDataBody(b)) + `}`)},
		{"seed", []byte(`{"input":{"seed":12345}}`)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(bc.body)))
			for b.Loop() {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/submit", bytes.NewReader(bc.body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
				}
			}
		})
	}
}
