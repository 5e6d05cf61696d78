package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"testing"
)

// uploadQueries name the programs of the two committed v4 fixtures, so
// a body the fuzzer leaves intact is accepted.
var uploadQueries = []string{
	goldenQuery, // ../core/testdata/golden.dlrn
	"workload=raytrace&procs=4&scale=2000&seed=1", // ../../cmd/delorean-trace/testdata/run.rec
}

// Upload allocation bound. A v4 frame may declare at most
// lz77.MaxDecodedLen of its payload, about 86 decoded bytes per
// compressed byte. An upload decodes the body, re-encodes it to the
// canonical form and indexes that again, so it may allocate a few
// decoded copies: uploadAllocFactor times the body size, plus a fixed
// allowance for the request, the workload's programs and the response.
const (
	uploadAllocFactor = 4 * 86
	uploadAllocFixed  = 2 << 20
)

// FuzzUpload posts arbitrary bodies to POST /v1/recordings through the
// server's handler, on a fresh server with a small residency budget per
// input. Every request must end in a 201 with a recording description,
// or a 4xx/5xx carrying the typed error body, and must allocate no more
// than uploadAllocFactor bytes per body byte plus uploadAllocFixed.
func FuzzUpload(f *testing.F) {
	for i, path := range []string{goldenPath, "../../cmd/delorean-trace/testdata/run.rec"} {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatalf("fixture: %v", err)
		}
		f.Add(uint8(i), data)
		f.Add(uint8(i), data[:len(data)/2])
		flipped := append([]byte(nil), data...)
		flipped[len(flipped)/2] ^= 0x40
		f.Add(uint8(i), flipped)
	}
	f.Add(uint8(0), []byte("DLRN"))
	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		s, err := New(Config{Workers: 1, QueueDepth: 1, MaxUploadBytes: 1 << 20, ResidencyBudget: 64 << 10})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Drain()
		query := uploadQueries[int(which)%len(uploadQueries)]
		req := httptest.NewRequest("POST", "/v1/recordings?"+query, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/octet-stream")
		w := httptest.NewRecorder()

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.ServeHTTP(w, req)
		runtime.ReadMemStats(&after)

		switch status := w.Code; {
		case status == http.StatusCreated:
			var d struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &d); err != nil || d.ID == "" {
				t.Fatalf("201 without a recording description: %v\n%s", err, w.Body.Bytes())
			}
		case status >= 400 && status < 600:
			errCode(t, w.Body.Bytes())
		default:
			t.Fatalf("status %d for a %d-byte upload: %s", status, len(body), w.Body.Bytes())
		}
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(uploadAllocFactor*len(body)+uploadAllocFixed); alloc > limit {
			t.Fatalf("a %d-byte upload allocated %d bytes, over the bound %d", len(body), alloc, limit)
		}
	})
}
