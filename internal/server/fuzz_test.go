package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// decodeRoutes are FuzzDecode's modes, one per request type; the fuzzed
// route byte picks one modulo their count.
var decodeRoutes = []func() interface{}{
	func() interface{} { return new(transformRequest) },
	func() interface{} { return new(planRequest) },
	func() interface{} { return new(simulateRequest) },
}

// FuzzDecode drives the request decoder through an HTTP round trip with
// each route's request type: transformRequest (/v1/transform) for route
// 0, planRequest (/v1/plan) for 1 and simulateRequest (/v1/simulate) for
// 2. It must never panic; the only outcomes are success, 400 and 413 (the
// last only for a body over maxBodyBytes); every error is the uniform
// {"error": ...} JSON document; an accepted body is one JSON value
// followed by nothing but JSON whitespace; and an accepted request
// re-encodes and decodes to an equal value. The committed corpus under
// testdata/fuzz/FuzzDecode holds valid requests for each route, fields of
// another route, unknown fields, wrong types and trailing data; the
// oversized seed is built here so it tracks maxBodyBytes.
func FuzzDecode(f *testing.F) {
	f.Add(uint8(0), []byte(`{"app":4,"quantized":true}`))
	f.Add(uint8(0), []byte(`{"app":4,"deadlineMs":24000}`))
	f.Add(uint8(1), []byte(`{"app":4,"target":"orin","deadlineMs":24000,"capacityFrac":0.21}`))
	f.Add(uint8(1), []byte(`{"app":1,"target":"`+strings.Repeat("x", maxBodyBytes)+`"}`))
	f.Add(uint8(2), []byte(`{"app":4,"target":"orin","days":1,"mode":"kodan"}`))
	f.Add(uint8(2), []byte(`{"app":4,"target":"orin","capacityFrac":0.21}`))

	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		newReq := decodeRoutes[int(route)%len(decodeRoutes)]
		req := newReq()
		handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if decode(w, r, req) {
				w.WriteHeader(http.StatusOK)
			}
		})
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)))

		switch rec.Code {
		case http.StatusOK:
			var first json.RawMessage
			dec := json.NewDecoder(bytes.NewReader(body))
			if err := dec.Decode(&first); err != nil {
				t.Fatalf("accepted body is not JSON: %v", err)
			}
			if rest := body[dec.InputOffset():]; len(bytes.Trim(rest, " \t\r\n")) > 0 {
				t.Fatalf("accepted body has trailing data %q", rest)
			}
			enc, err := json.Marshal(req)
			if err != nil {
				t.Fatalf("accepted request does not encode: %v", err)
			}
			again := newReq()
			dec = json.NewDecoder(bytes.NewReader(enc))
			dec.DisallowUnknownFields()
			if err := dec.Decode(again); err != nil {
				t.Fatalf("re-encoded request does not decode: %v\n%s", err, enc)
			}
			if !reflect.DeepEqual(again, req) {
				t.Fatalf("round trip %+v, want %+v", again, req)
			}
			return
		case http.StatusRequestEntityTooLarge:
			if len(body) <= maxBodyBytes {
				t.Fatalf("413 for a %d-byte body (limit %d)", len(body), maxBodyBytes)
			}
		case http.StatusBadRequest:
		default:
			t.Fatalf("status %d, want 200, 400 or 413", rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("error content type %q, want application/json", ct)
		}
		var eb errorBody
		dec := json.NewDecoder(rec.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&eb); err != nil || eb.Error == "" {
			t.Fatalf("error body is not the uniform {\"error\": ...} document: %v %q", err, eb.Error)
		}
	})
}
