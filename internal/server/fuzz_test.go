package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/engine"
)

// FuzzServerRun feeds arbitrary bodies to POST /v1/run. The request's
// context is cancelled before the call, so nothing simulates: a body
// that validates is keyed, and RunKeyed and RunAllKeyed then return the
// cancellation instead of a result. Whatever the body, the handler must
// not panic and must answer 200, 400 or 413, never a 5xx; a refusal's
// body is one error object, and a single spec's 200 body is one RunLine
// (a grid of one included) carrying the hex ValidKey of the spec the
// same body decodes to.
func FuzzServerRun(f *testing.F) {
	for _, tc := range validationCases() {
		if len(tc.body) <= 1<<16 {
			f.Add([]byte(tc.body))
		}
	}
	for _, kind := range engine.Kinds() {
		f.Add([]byte(`{"spec":{"app":"swim","instructions":20000,"technique":"` + string(kind) + `"}}`))
	}
	for _, kind := range circuit.NetworkKinds() {
		f.Add([]byte(`{"spec":{"app":"parser","instructions":20000,"pdn":{"Kind":"` + kind + `"}}}` + "\n"))
	}
	f.Add([]byte(`{"specs":[{"app":"swim","instructions":20000},{"app":"lucas","technique":"tuning"}]}`))

	h := New(Options{Engine: engine.New(engine.Options{Parallelism: 1}), MaxSpecs: 2}).Handler()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)).WithContext(ctx)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			var e errorJSON
			if err := decodeOne(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("status %d body %q is not one error object: %v", rec.Code, rec.Body, err)
			}
			return
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
		var rr RunRequest
		if err := decodeRun(bytes.NewReader(body), &rr); err != nil {
			t.Fatalf("served a body that does not decode: %v", err)
		}
		spec := rr.Spec
		if len(rr.Specs) == 1 {
			spec = &rr.Specs[0] // a grid of one is served as a single spec
		}
		if spec == nil {
			return
		}
		var line RunLine
		if err := decodeOne(rec.Body.Bytes(), &line); err != nil {
			t.Fatalf("single-spec body %q is not one RunLine: %v", rec.Body, err)
		}
		k, err := spec.ValidKey()
		if err != nil {
			t.Fatalf("served a spec ValidKey refuses: %v", err)
		}
		if line.Index != 0 || line.Key != k.Hex() || line.Result != nil || !strings.Contains(line.Error, context.Canceled.Error()) {
			t.Fatalf("line %+v, want index 0, key %s and the cancellation", line, k.Hex())
		}
	})
}

// decodeOne decodes b as exactly one JSON value with no unknown field.
func decodeOne(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("data after the JSON value")
	}
	return nil
}
