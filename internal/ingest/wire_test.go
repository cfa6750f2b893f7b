package ingest

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pipemap/internal/fxrt"
)

// envelopeSeeds are the corpus every envelope and handler fuzz target
// starts from: escaped and case-folded keys, duplicates, nulls, numbers at
// and beyond the int and float64 ranges, nesting at encoding/json's depth
// limit, and bytes after the first value.
func envelopeSeeds() []string {
	deep := func(n int) string {
		return `{"input":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `}`
	}
	return []string{
		``,
		"  \n\t",
		`null`,
		`nullx`,
		`nul`,
		`{}`,
		`{"tenant":"t1","budget_ms":250,"input":{"seed":7}}`,
		`{"TENANT":"t1","Budget_MS":5,"INPUT":3}`,
		`{"t\u0065nant":"esc\n\"q\"","\u0069nput":[1,2],"budget_\u006Ds":4}`,
		`{"tenant":"\ud83d\ude00 \udc00"}`,
		`{"tenant":"a","tenant":"b","input":1,"input":2}`,
		`{"tenant":"a","tenant":null,"budget_ms":3,"budget_ms":null}`,
		`{"input":null}`,
		"{\"tenant\":\"\xff\xfeok\",\"input\":\"\xe9\"}",
		`{"tenant":"café 😀"}`,
		`{"budget_ms":1e400}`,
		`{"budget_ms":1.5}`,
		`{"budget_ms":-0}`,
		`{"budget_ms":9223372036854775807}`,
		`{"budget_ms":9223372036854775808}`,
		`{"input":{"data":[1e400,-0,null,1e-400]}}`,
		`{"input":5} trailing garbage`,
		`{"input":5}}}`,
		`{"input":5,}`,
		`{"input":5`,
		`{"input":[1,2,]}`,
		`{"input":01}`,
		`{"input":"\u12"}`,
		`{"input":"ctl` + "\x01" + `"}`,
		`{"unknown":{"a":[true,false,null,"x",-1.5e+3]},"input":4}`,
		`[1]`,
		`"str"`,
		`123`,
		deep(9999),
		deep(10000),
	}
}

// oracleEnvelope is the submit decode the scanner replaces: encoding/json's
// Decoder reading the first value of the body.
func oracleEnvelope(b []byte) (SubmitRequest, error) {
	var req SubmitRequest
	err := json.NewDecoder(bytes.NewReader(b)).Decode(&req)
	return req, err
}

func FuzzSubmitEnvelope(f *testing.F) {
	for _, s := range envelopeSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		want, wantErr := oracleEnvelope(b)
		got, gotErr := decodeSubmit(b)
		if (wantErr == nil) != (gotErr == nil) || errors.Is(wantErr, io.EOF) != errors.Is(gotErr, io.EOF) {
			t.Fatalf("decode %q: error %v, oracle error %v", b, gotErr, wantErr)
		}
		if wantErr != nil {
			return
		}
		if got.Tenant != want.Tenant || got.BudgetMS != want.BudgetMS || !bytes.Equal(got.Input, want.Input) ||
			(got.Input == nil) != (want.Input == nil) {
			t.Fatalf("decode %q: got %+v, oracle %+v", b, got, want)
		}
	})
}

// serve runs one request through a fresh plane's SubmitHandler and returns
// the recorded response after draining the plane.
func serve(t *testing.T, body []byte) (*httptest.ResponseRecorder, Stats) {
	t.Helper()
	p, err := New(Config{DefaultBudget: time.Minute}, incPipeline(2, 1), fxrt.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	SubmitHandler(p, intCodec{}).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/submit", bytes.NewReader(body)))
	p.Drain()
	return rec, p.Stats()
}

func errorReason(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	var eb ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
		t.Fatalf("error body %q: %v", rec.Body.Bytes(), err)
	}
	return eb.Error.Reason
}

func FuzzSubmitHandler(f *testing.F) {
	for _, s := range envelopeSeeds() {
		f.Add([]byte(s))
	}
	f.Add([]byte(`{"budget_ms":1,"input":2}`))
	f.Add([]byte(`{"input":"not an int"}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		rec, st := serve(t, body)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge,
			http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Fatalf("body %q: status %d (%s)", body, rec.Code, rec.Body.Bytes())
		}
		// A fresh plane has no service-time estimate, so its one request
		// is never shed for its deadline at admission: every deadline shed
		// is a head drop of an admitted request.
		headDropped := st.Shed[string(ReasonDeadline)]
		if st.Admitted != st.Completed+st.Failed+st.Canceled+headDropped {
			t.Fatalf("body %q: admitted %d != completed %d + failed %d + canceled %d + head-dropped %d",
				body, st.Admitted, st.Completed, st.Failed, st.Canceled, headDropped)
		}
	})
}

func TestSubmitBodyTooLarge(t *testing.T) {
	// Whitespace is a valid (empty) submission, so the limit alone decides.
	rec, _ := serve(t, bytes.Repeat([]byte(" "), maxSubmitBody))
	if rec.Code != http.StatusOK {
		t.Fatalf("body of exactly %d bytes: status %d (%s), want 200", maxSubmitBody, rec.Code, rec.Body.Bytes())
	}
	rec, st := serve(t, bytes.Repeat([]byte(" "), maxSubmitBody+1))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("body of %d bytes: status %d (%s), want 413", maxSubmitBody+1, rec.Code, rec.Body.Bytes())
	}
	if r := errorReason(t, rec); r != "body_too_large" {
		t.Fatalf("reason %q, want body_too_large", r)
	}
	if st.Admitted != 0 {
		t.Fatalf("oversized body admitted %d requests", st.Admitted)
	}
}

func TestBodyPoolDropsLargeBuffers(t *testing.T) {
	body := []byte(`{"input":5,"pad":"` + strings.Repeat("x", 2<<20) + `"}`)
	for i := 0; i < 4; i++ {
		if rec, _ := serve(t, body); rec.Code != http.StatusOK {
			t.Fatalf("status %d (%s)", rec.Code, rec.Body.Bytes())
		}
		// The handler ran on this goroutine, so a buffer it pooled would
		// most likely come straight back.
		buf := bodyPool.Get().(*bytes.Buffer)
		if buf.Cap() > maxPooledBody {
			t.Fatalf("pool returned a %d-byte buffer, above the %d-byte cap", buf.Cap(), maxPooledBody)
		}
	}
}
