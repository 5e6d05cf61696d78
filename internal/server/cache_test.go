package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
)

// metricsBody fetches the /metrics text exposition.
func metricsBody(t *testing.T, base string) string {
	t.Helper()
	resp, body := doJSON(t, "GET", base+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	return string(body)
}

func wantMetric(t *testing.T, base, line string) {
	t.Helper()
	if body := metricsBody(t, base); !strings.Contains(body, line+"\n") {
		t.Fatalf("metrics missing %q:\n%s", line, body)
	}
}

// uploadGolden seeds the store with the golden fixture and returns its id.
func uploadGolden(t *testing.T, base string) string {
	t.Helper()
	resp, body := upload(t, base, goldenQuery, goldenBytes(t))
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: %d: %s", resp.StatusCode, body)
	}
	var rj recordingJSON
	if err := json.Unmarshal(body, &rj); err != nil {
		t.Fatal(err)
	}
	return rj.ID
}

// TestReplayVerdictCacheHit: a repeat replay with identical parameters
// is served from the verdict cache — byte-for-byte identical to the
// cold response, without another simulation — and both responses carry
// the content-addressed ETag.
func TestReplayVerdictCacheHit(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	id := uploadGolden(t, hs.URL)

	spec := map[string]any{"perturb_seed": 7}
	resp1, cold := doJSON(t, "POST", hs.URL+"/v1/recordings/"+id+"/replay", spec)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("cold replay: %d: %s", resp1.StatusCode, cold)
	}
	resp2, hot := doJSON(t, "POST", hs.URL+"/v1/recordings/"+id+"/replay", spec)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("hot replay: %d: %s", resp2.StatusCode, hot)
	}
	if !bytes.Equal(cold, hot) {
		t.Fatalf("cached replay is not byte-identical:\ncold %s\nhot  %s", cold, hot)
	}
	for _, resp := range []*http.Response{resp1, resp2} {
		if got := resp.Header.Get("ETag"); got != etagFor(id) {
			t.Fatalf("ETag = %q, want %q", got, etagFor(id))
		}
		if cc := resp.Header.Get("Cache-Control"); !strings.Contains(cc, "immutable") {
			t.Fatalf("Cache-Control = %q, want immutable", cc)
		}
	}
	wantMetric(t, hs.URL, "cache.miss 1")
	wantMetric(t, hs.URL, "cache.hit 1")
	wantMetric(t, hs.URL, "replays 2")

	// A different replay spec is a different key: another miss.
	resp3, body := doJSON(t, "POST", hs.URL+"/v1/recordings/"+id+"/replay", map[string]any{"perturb_seed": 8})
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("second spec replay: %d: %s", resp3.StatusCode, body)
	}
	wantMetric(t, hs.URL, "cache.miss 2")
}

// TestTraceCache: traced replays cache their rendered Perfetto bytes
// under the same scheme.
func TestTraceCache(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	id := uploadGolden(t, hs.URL)

	var bodies [2][]byte
	for i := range bodies {
		resp, body := doJSON(t, "GET", hs.URL+"/v1/recordings/"+id+"/trace", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("trace %d: %d", i, resp.StatusCode)
		}
		if cd := resp.Header.Get("Content-Disposition"); !strings.Contains(cd, id+".trace.json") {
			t.Fatalf("trace %d Content-Disposition = %q", i, cd)
		}
		bodies[i] = body
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatal("cached trace is not byte-identical to the cold trace")
	}
	wantMetric(t, hs.URL, "traces 2")
	wantMetric(t, hs.URL, "cache.hit 1")
}

// TestReplayCacheSingleFlight: N concurrent identical replay requests
// collapse into one simulation; every client gets the identical body.
func TestReplayCacheSingleFlight(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 4, QueueDepth: 64})
	id := uploadGolden(t, hs.URL)

	const n = 12
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := doJSON(t, "POST", hs.URL+"/v1/recordings/"+id+"/replay", map[string]any{"perturb_seed": 5})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: %d: %s", i, resp.StatusCode, body)
				return
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("client %d body differs from client 0", i)
		}
	}
	// Exactly one simulation ran: one miss; the rest were dedup waiters
	// or cache hits depending on arrival time.
	wantMetric(t, hs.URL, "cache.miss 1")
	wantMetric(t, hs.URL, "replays 12")
}

// TestCacheInvalidate: the admin DELETEs drop cached verdicts, and the
// next replay is a fresh miss whose body still matches the original.
func TestCacheInvalidate(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	id := uploadGolden(t, hs.URL)

	_, cold := doJSON(t, "POST", hs.URL+"/v1/recordings/"+id+"/replay", nil)
	resp, body := doJSON(t, "DELETE", hs.URL+"/v1/recordings/"+id+"/cache", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("invalidate: %d: %s", resp.StatusCode, body)
	}
	var inv struct {
		Invalidated int `json:"invalidated"`
	}
	if err := json.Unmarshal(body, &inv); err != nil || inv.Invalidated != 1 {
		t.Fatalf("invalidate response %s (err %v), want invalidated 1", body, err)
	}
	_, warm := doJSON(t, "POST", hs.URL+"/v1/recordings/"+id+"/replay", nil)
	if !bytes.Equal(cold, warm) {
		t.Fatal("recomputed verdict differs from the original")
	}
	wantMetric(t, hs.URL, "cache.miss 2")

	// Full clear, and a 404 for an unknown id.
	resp, body = doJSON(t, "DELETE", hs.URL+"/v1/cache", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clear: %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &inv); err != nil || inv.Invalidated != 1 {
		t.Fatalf("clear response %s, want invalidated 1", body)
	}
	resp, body = doJSON(t, "DELETE", hs.URL+"/v1/recordings/nope/cache", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id invalidate: %d: %s", resp.StatusCode, body)
	}
	if errCode(t, body) != "not_found" {
		t.Fatalf("unknown id code %s", body)
	}
}

// TestConditionalRequests: If-None-Match against the content-addressed
// ETag revalidates describe, replay, and trace with an empty 304.
func TestConditionalRequests(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	id := uploadGolden(t, hs.URL)

	for _, tc := range []struct {
		method, path string
	}{
		{"GET", "/v1/recordings/" + id},
		{"POST", "/v1/recordings/" + id + "/replay"},
		{"GET", "/v1/recordings/" + id + "/trace"},
	} {
		req, err := http.NewRequest(tc.method, hs.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("If-None-Match", etagFor(id))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotModified {
			t.Fatalf("%s %s with matching If-None-Match: %d, want 304", tc.method, tc.path, resp.StatusCode)
		}
		if got := resp.Header.Get("ETag"); got != etagFor(id) {
			t.Fatalf("304 ETag = %q", got)
		}
	}

	// A stale validator misses and gets the full response.
	req, _ := http.NewRequest("GET", hs.URL+"/v1/recordings/"+id, nil)
	req.Header.Set("If-None-Match", `"deadbeef"`)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stale If-None-Match: %d, want 200", resp.StatusCode)
	}
}

// TestHealthzDrainSequence: /healthz reports ready until BeginDrain,
// then 503 with a Retry-After hint while in-flight traffic still
// completes — the rolling-restart handshake.
func TestHealthzDrainSequence(t *testing.T) {
	s, hs := newTestServer(t, Config{})
	id := uploadGolden(t, hs.URL)

	resp, body := doJSON(t, "GET", hs.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("healthz before drain: %d %q", resp.StatusCode, body)
	}

	s.BeginDrain()
	resp, body = doJSON(t, "GET", hs.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining healthz has no Retry-After")
	}
	if string(body) != "draining\n" {
		t.Fatalf("draining healthz body %q", body)
	}

	// Draining only flips readiness; requests in flight (or still
	// arriving through the not-yet-closed listener) are served.
	resp, body = doJSON(t, "POST", hs.URL+"/v1/recordings/"+id+"/replay", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replay during drain: %d: %s", resp.StatusCode, body)
	}

	// Full drain stops the pool; readiness stays down.
	s.Drain()
	resp, _ = doJSON(t, "GET", hs.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after drain: %d, want 503", resp.StatusCode)
	}
}

// TestConcurrentDuplicateUploads: racing uploads of identical bytes all
// succeed, exactly one reports created, the store holds one entry, and
// the write-through persist runs exactly once.
func TestConcurrentDuplicateUploads(t *testing.T) {
	dir := t.TempDir()
	s, hs := newTestServer(t, Config{Dir: dir, Workers: 4, QueueDepth: 64})
	golden := goldenBytes(t)

	const n = 8
	statuses := make([]int, n)
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := upload(t, hs.URL, goldenQuery, golden)
			statuses[i] = resp.StatusCode
			var rj recordingJSON
			if err := json.Unmarshal(body, &rj); err != nil {
				t.Errorf("upload %d: bad body %s", i, body)
				return
			}
			ids[i] = rj.ID
			if !rj.Persisted {
				t.Errorf("upload %d: persisted=false", i)
			}
		}(i)
	}
	wg.Wait()

	created := 0
	for i, st := range statuses {
		switch st {
		case http.StatusCreated:
			created++
		case http.StatusOK:
		default:
			t.Fatalf("upload %d: status %d", i, st)
		}
		if ids[i] != ids[0] {
			t.Fatalf("upload %d: id %s != %s", i, ids[i], ids[0])
		}
	}
	if created != 1 {
		t.Fatalf("%d uploads reported created, want exactly 1", created)
	}
	if got := s.store.ids(); len(got) != 1 {
		t.Fatalf("store holds %d entries, want 1", len(got))
	}
	if got := s.store.persistAttempts.Load(); got != 1 {
		t.Fatalf("persist ran %d times, want exactly 1", got)
	}
	wantMetric(t, hs.URL, "store.recordings 1")
	wantMetric(t, hs.URL, "store.persist_attempts 1")
}

// keysInOrder lists c's keys' seeds, least recently used first.
func keysInOrder(c *verdictCache) []uint64 {
	var seeds []uint64
	for e := c.lru.next; e != &c.lru; e = e.next {
		seeds = append(seeds, e.key.seed)
	}
	return seeds
}

// The verdict cache evicts least recently used first, where a get or a
// re-put counts as a use, never evicts the entry being put, and honours
// the byte bound as well as the entry bound.
func TestVerdictCacheLRUOrder(t *testing.T) {
	c := newVerdictCache(3, 100)
	key := func(seed uint64) cacheKey { return cacheKey{id: "r", kind: "replay", seed: seed} }
	body := func(n int) cachedVerdict { return cachedVerdict{body: make([]byte, n)} }
	for s := uint64(1); s <= 3; s++ {
		if ev := c.put(key(s), body(10)); ev != 0 {
			t.Fatalf("put %d evicted %d", s, ev)
		}
	}
	c.get(key(1))           // order 2 3 1
	c.put(key(2), body(10)) // order 3 1 2
	if ev := c.put(key(4), body(10)); ev != 1 {
		t.Fatalf("put over the entry bound evicted %d, want 1", ev)
	}
	if got := keysInOrder(c); !slices.Equal(got, []uint64{1, 2, 4}) {
		t.Fatalf("order %v, want [1 2 4]", got)
	}
	if ev := c.put(key(5), body(85)); ev != 2 { // 10+10+85 > 100: evict 1, then 2
		t.Fatalf("put over the byte bound evicted %d, want 2", ev)
	}
	if got := keysInOrder(c); !slices.Equal(got, []uint64{4, 5}) {
		t.Fatalf("order %v, want [4 5]", got)
	}
	if n, b := c.stats(); n != 2 || b != 95 {
		t.Fatalf("stats %d entries, %d bytes; want 2, 95", n, b)
	}
	c.put(cacheKey{id: "other", seed: 6}, body(1))
	if n := c.invalidate("r"); n != 2 || len(keysInOrder(c)) != 1 {
		t.Fatalf("invalidate removed %d, left %v", n, keysInOrder(c))
	}
	if n := c.clear(); n != 1 || len(keysInOrder(c)) != 0 {
		t.Fatalf("clear removed %d, left %v", n, keysInOrder(c))
	}
}

// A hit on a full cache allocates nothing, whichever entry it refreshes.
func TestVerdictCacheHitAllocs(t *testing.T) {
	const n = 256
	c := newVerdictCache(n, 1<<20)
	for s := uint64(0); s < n; s++ {
		c.put(cacheKey{id: "r", kind: "replay", seed: s}, cachedVerdict{body: []byte("{}")})
	}
	s := uint64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := c.get(cacheKey{id: "r", kind: "replay", seed: s % n}); !ok {
			t.Fatal("miss on a cached key")
		}
		s += 7
	})
	if allocs != 0 {
		t.Fatalf("a hit allocated %v times", allocs)
	}
}
