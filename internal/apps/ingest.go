package apps

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"pipemap/internal/fxrt"
	"pipemap/internal/ingest"
	"pipemap/internal/kernels"
)

// This file adapts the real applications to the ingestion data plane:
// each codec decodes a submit request's input into the pipeline's source
// data set and encodes the sink's output as a JSON-friendly result.

// decodeFields parses a codec input through s as json.Unmarshal would into
// the codec's request struct: empty input and null leave every field at its
// default; otherwise the input is one object, and field reads the value of
// each of its keys from s (skipping it with s.Skip when the key is
// unknown). Keys match fields by bytes.EqualFold and the last duplicate
// wins, as in encoding/json. field reaches s by capture rather than as an
// argument, which keeps s off the heap.
func decodeFields(s *ingest.Scanner, input []byte, field func(key []byte) error) error {
	if len(input) == 0 {
		return nil
	}
	*s = ingest.NewScanner(input)
	if !s.Null() {
		if err := s.Object(); err != nil {
			return err
		}
		for {
			key, ok, err := s.Key()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			if err := field(key); err != nil {
				return err
			}
		}
	}
	return s.End()
}

// finite replaces NaN and infinities with 0 so results always marshal.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// FFTHistCodec adapts FFT-Hist submissions: the input selects a synthetic
// seed or supplies a full real-valued matrix; the result summarizes the
// magnitude histogram.
type FFTHistCodec struct {
	Runner FFTHistRunner
}

var _ ingest.Codec = FFTHistCodec{}

// App implements ingest.Codec.
func (c FFTHistCodec) App() string { return "ffthist" }

// Decode implements ingest.Codec. An empty input synthesizes the seed-0
// data set; {"seed": k} varies it; {"data": [...]} supplies the matrix's
// real parts row-major (length N*N).
func (c FFTHistCodec) Decode(input json.RawMessage) (fxrt.DataSet, error) {
	n := c.Runner.N
	seed := 0
	data := matrixData{len: -1}
	var s ingest.Scanner
	err := decodeFields(&s, input, func(key []byte) error {
		switch {
		case bytes.EqualFold(key, []byte("seed")):
			return s.Int(&seed)
		case bytes.EqualFold(key, []byte("data")):
			return data.read(&s, n)
		}
		return s.Skip()
	})
	if err != nil {
		return nil, fmt.Errorf("ffthist input: %w", err)
	}
	if data.len >= 0 {
		if data.len != n*n {
			return nil, fmt.Errorf("ffthist input: data length %d, want %d (N=%d)", data.len, n*n, n)
		}
		return data.mat, nil
	}
	return c.Runner.Input(seed), nil
}

// matrixData decodes "data" arrays straight into an N×N matrix's real
// parts with encoding/json's semantics for a []float64 field. A repeated
// "data" key reuses the earlier array's storage, so a null element keeps
// the value an earlier array left at its index; null or [] discards the
// storage. Only indexes below N*N can reach an accepted result, so later
// elements are validated and counted but not stored.
type matrixData struct {
	mat kernels.Matrix // allocated by the first array
	len int            // length of the last array; -1 when absent or null
}

func (d *matrixData) read(s *ingest.Scanner, n int) error {
	if s.Null() {
		clear(d.mat.Data)
		d.len = -1
		return nil
	}
	if err := s.Array(); err != nil {
		return err
	}
	if d.mat.Data == nil {
		d.mat = kernels.NewMatrix(n, n)
	}
	m := d.mat.Data
	i := 0
	for ; ; i++ {
		ok, err := s.Elem()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		var v float64
		if i < len(m) {
			v = real(m[i])
		}
		if err := s.Float64(&v); err != nil {
			return err
		}
		if i < len(m) {
			m[i] = complex(v, 0)
		}
	}
	if i == 0 {
		clear(m)
	}
	d.len = i
	return nil
}

// Encode implements ingest.Codec: the final histogram's summary moments.
func (c FFTHistCodec) Encode(out fxrt.DataSet) (any, error) {
	h, ok := out.(*kernels.Histogram)
	if !ok {
		return nil, fmt.Errorf("ffthist output: got %T, want *kernels.Histogram", out)
	}
	return map[string]any{
		"count":    h.Count,
		"bins":     len(h.Bins),
		"mean":     finite(h.Mean()),
		"variance": finite(h.Variance()),
		"min":      finite(h.Min),
		"max":      finite(h.Max),
	}, nil
}

// RadarCodec adapts radar submissions: the input places the synthetic
// target; the result reports the CFAR detections.
type RadarCodec struct {
	Runner RadarRunner
}

var _ ingest.Codec = RadarCodec{}

// App implements ingest.Codec.
func (c RadarCodec) App() string { return "radar" }

// Decode implements ingest.Codec. Input fields (all optional): "seed"
// varies the clutter, "target_gate"/"target_doppler" place the echo.
func (c RadarCodec) Decode(input json.RawMessage) (fxrt.DataSet, error) {
	var (
		s                   ingest.Scanner
		seed, gate, doppler int
	)
	err := decodeFields(&s, input, func(key []byte) error {
		switch {
		case bytes.EqualFold(key, []byte("seed")):
			return s.Int(&seed)
		case bytes.EqualFold(key, []byte("target_gate")):
			return s.Int(&gate)
		case bytes.EqualFold(key, []byte("target_doppler")):
			return s.Int(&doppler)
		}
		return s.Skip()
	})
	if err != nil {
		return nil, fmt.Errorf("radar input: %w", err)
	}
	pulses, gates := c.Runner.dims()
	tg, td := c.Runner.target()
	if gate != 0 {
		tg = gate
	}
	if doppler != 0 {
		td = doppler
	}
	if tg < 0 || tg >= gates {
		return nil, fmt.Errorf("radar input: target_gate %d outside [0, %d)", tg, gates)
	}
	if td < 0 || td >= pulses {
		return nil, fmt.Errorf("radar input: target_doppler %d outside [0, %d)", td, pulses)
	}
	return c.Runner.inputAt(seed, tg, td), nil
}

// Encode implements ingest.Codec: the detection count and the strongest
// detections (up to 5, by power).
func (c RadarCodec) Encode(out fxrt.DataSet) (any, error) {
	rd, ok := out.(*RadarData)
	if !ok {
		return nil, fmt.Errorf("radar output: got %T, want radar data", out)
	}
	dets := append([]kernels.Detection(nil), rd.Dets...)
	sort.Slice(dets, func(i, j int) bool { return dets[i].Power > dets[j].Power })
	if len(dets) > 5 {
		dets = dets[:5]
	}
	top := make([]map[string]any, 0, len(dets))
	for _, d := range dets {
		top = append(top, map[string]any{
			"doppler": d.Doppler,
			"range":   d.Range,
			"power":   finite(d.Power),
		})
	}
	return map[string]any{
		"detections": len(rd.Dets),
		"top":        top,
	}, nil
}

// StereoCodec adapts stereo submissions: the input selects a synthetic
// scene; the result reports the recovered depth map's accuracy against the
// scene's true disparity.
type StereoCodec struct {
	Runner StereoRunner
}

var _ ingest.Codec = StereoCodec{}

// App implements ingest.Codec.
func (c StereoCodec) App() string { return "stereo" }

// Decode implements ingest.Codec. Input: optional {"seed": k}.
func (c StereoCodec) Decode(input json.RawMessage) (fxrt.DataSet, error) {
	var s ingest.Scanner
	seed := 0
	err := decodeFields(&s, input, func(key []byte) error {
		if bytes.EqualFold(key, []byte("seed")) {
			return s.Int(&seed)
		}
		return s.Skip()
	})
	if err != nil {
		return nil, fmt.Errorf("stereo input: %w", err)
	}
	return c.Runner.input(seed), nil
}

// Encode implements ingest.Codec: depth map dimensions, mean recovered
// disparity, and accuracy against the synthetic scene.
func (c StereoCodec) Encode(out fxrt.DataSet) (any, error) {
	sd, ok := out.(*StereoData)
	if !ok {
		return nil, fmt.Errorf("stereo output: got %T, want stereo data", out)
	}
	var mean float64
	if len(sd.Depth.Pix) > 0 {
		for _, v := range sd.Depth.Pix {
			mean += v
		}
		mean /= float64(len(sd.Depth.Pix))
	}
	return map[string]any{
		"width":      sd.Depth.W,
		"height":     sd.Depth.H,
		"mean_depth": finite(mean),
		"accuracy":   finite(c.Runner.VerifyDepth(sd)),
	}, nil
}
