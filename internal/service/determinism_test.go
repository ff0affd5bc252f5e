package service

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	v1 "branchcorr/internal/api/v1"
)

// mixedRequests is the differential workload: every compute endpoint,
// several traces, overlapping duplicates (so cache single-flight is
// exercised mid-burst), and parameter spellings that canonicalize onto
// each other.
func mixedRequests() []struct{ path, body string } {
	var reqs []struct{ path, body string }
	add := func(path, body string) {
		reqs = append(reqs, struct{ path, body string }{path, body})
	}
	for _, wl := range []string{"gcc", "compress", "xlisp"} {
		add("/v1/simulate", fmt.Sprintf(`{"trace":{"workload":%q},"specs":["gshare:8","bimodal:8"]}`, wl))
		add("/v1/simulate", fmt.Sprintf(`{"trace":{"workload":%q},"specs":["gshare:8","bimodal:8"]}`, wl)) // dup
		add("/v1/simulate", fmt.Sprintf(`{"trace":{"workload":%q},"specs":["gshare:10"],"bucket_size":500}`, wl))
		add("/v1/sweep", fmt.Sprintf(`{"trace":{"workload":%q},"grid":{"family":"gshare-hist","hist":[4,6,8]}}`, wl))
		add("/v1/classify", fmt.Sprintf(`{"trace":{"workload":%q}}`, wl))
	}
	add("/v1/oracle", `{"trace":{"workload":"gcc"},"window_len":8,"top_k":8}`)
	add("/v1/oracle", `{"trace":{"workload":"gcc"},"window_len":8,"top_k":8,"stage":"profile"}`)
	add("/v1/sweep", `{"trace":{"workload":"compress"},"grid":{"family":"specs","specs":["gshare:6","pas:4,4,6"]}}`)
	add("/v1/simulate", `{"trace":{"workload":"xlisp"},"specs":["gshare:8"],"per_branch":true}`)
	return reqs
}

func issue(t *testing.T, ts *httptest.Server, path, body string) []byte {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: status %d, body %s", path, body, resp.StatusCode, buf.Bytes())
	}
	return buf.Bytes()
}

// TestParallelLoadDifferential is the service's determinism pin: the
// same mixed request set served (a) sequentially at worker budget 1 and
// (b) fully concurrently at worker budget 8 — each cold-cache then
// warm-cache — produces byte-identical payloads in all four runs. Run
// under -race this also sweeps the scheduler, cache single-flight, and
// registry merges for data races.
func TestParallelLoadDifferential(t *testing.T) {
	reqs := mixedRequests()

	_, seqTS := newTestServer(t, func(c *Config) { c.Workers = 1 })
	_, parTS := newTestServer(t, func(c *Config) { c.Workers = 8; c.SimParallel = 2 })

	runSequential := func() [][]byte {
		out := make([][]byte, len(reqs))
		for i, r := range reqs {
			out[i] = issue(t, seqTS, r.path, r.body)
		}
		return out
	}
	runParallel := func() [][]byte {
		out := make([][]byte, len(reqs))
		var wg sync.WaitGroup
		for i, r := range reqs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out[i] = issue(t, parTS, r.path, r.body)
			}()
		}
		wg.Wait()
		return out
	}

	seqCold := runSequential()
	seqWarm := runSequential()
	parCold := runParallel()
	parWarm := runParallel()

	for i, r := range reqs {
		want := seqCold[i]
		for name, got := range map[string][]byte{
			"sequential-warm": seqWarm[i],
			"parallel-cold":   parCold[i],
			"parallel-warm":   parWarm[i],
		} {
			if !bytes.Equal(want, got) {
				t.Errorf("%s %s: %s payload deviates from sequential-cold\nwant: %s\ngot:  %s",
					r.path, r.body, name, want, got)
			}
		}
	}
}

// TestCacheCanonicalization is the cache-key satellite: requests that
// canonicalize onto each other (spec grammar round-trip, explicit
// defaults) hit one cache entry, while genuinely different options do
// not.
func TestCacheCanonicalization(t *testing.T) {
	s, ts := newTestServer(t, nil)
	hits := func() int64 { return s.reg.Counter("service.cache.hits").Value() }
	misses := func() int64 { return s.reg.Counter("service.cache.misses").Value() }

	// Round 1: colon grammar. Cold miss.
	b1 := issue(t, ts, "/v1/simulate", `{"trace":{"workload":"gcc"},"specs":["gshare:10"]}`)
	if hits() != 0 || misses() != 1 {
		t.Fatalf("after cold request: hits=%d misses=%d, want 0/1", hits(), misses())
	}

	// Round 2: an equivalent grammar spelling ("010" parses to the same
	// predictor). Both canonicalize to the parsed predictor's name, so
	// they share the entry.
	resp := mustDecode[v1.SimulateResponse](t, b1)
	if resp.Results[0].Spec != "gshare(10)" {
		t.Errorf("reported spec %q, want the canonical display name", resp.Results[0].Spec)
	}
	b2 := issue(t, ts, "/v1/simulate", `{"trace":{"workload":"gcc"},"specs":["gshare:010"]}`)
	if hits() != 1 || misses() != 1 {
		t.Errorf("equivalent respelling: hits=%d misses=%d, want 1/1", hits(), misses())
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("equivalent respelling returned different bytes:\n%s\n%s", b1, b2)
	}

	// The trace ref's spelling canonicalizes too: naming the default
	// length explicitly resolves to the same content address.
	b3 := issue(t, ts, "/v1/simulate", fmt.Sprintf(`{"trace":{"workload":"gcc","n":%d},"specs":["gshare:10"]}`, testN))
	if hits() != 2 {
		t.Errorf("explicit default length: hits=%d, want 2", hits())
	}
	if !bytes.Equal(b1, b3) {
		t.Error("explicit default length returned different bytes")
	}

	// Oracle: explicit defaults share the default entry.
	issue(t, ts, "/v1/oracle", `{"trace":{"workload":"gcc"},"window_len":8}`)
	preMisses := misses()
	issue(t, ts, "/v1/oracle", `{"trace":{"workload":"gcc"},"window_len":8,"top_k":16,"max_candidates":2048,"stage":"full","schemes":["back","occ"]}`)
	if misses() != preMisses {
		t.Errorf("oracle explicit defaults recomputed: misses %d -> %d", preMisses, misses())
	}

	// Non-equivalent options do not collide.
	preMisses = misses()
	issue(t, ts, "/v1/simulate", `{"trace":{"workload":"gcc"},"specs":["gshare:10"],"bucket_size":500}`)
	issue(t, ts, "/v1/simulate", `{"trace":{"workload":"gcc"},"specs":["gshare:10"],"per_branch":true}`)
	issue(t, ts, "/v1/oracle", `{"trace":{"workload":"gcc"},"window_len":8,"schemes":["occ"]}`)
	if misses() != preMisses+3 {
		t.Errorf("non-equivalent options: misses %d -> %d, want +3", preMisses, misses())
	}
}

// TestCacheEviction pins FIFO eviction: with a one-entry cache, an
// alternating request pair never hits.
func TestCacheEviction(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) { c.CacheEntries = 1 })
	a := `{"trace":{"workload":"gcc"},"specs":["gshare:8"]}`
	b := `{"trace":{"workload":"gcc"},"specs":["gshare:9"]}`
	issue(t, ts, "/v1/simulate", a)
	issue(t, ts, "/v1/simulate", b) // evicts a
	issue(t, ts, "/v1/simulate", a) // must recompute
	if hits := s.reg.Counter("service.cache.hits").Value(); hits != 0 {
		t.Errorf("hits = %d with a capacity-1 cache and alternating keys, want 0", hits)
	}
	if misses := s.reg.Counter("service.cache.misses").Value(); misses != 3 {
		t.Errorf("misses = %d, want 3", misses)
	}
}

// TestWarmRequestConstructsNothing pins the spelling memo: a repeated
// request keys the payload cache without constructing its predictors or
// grid, whose tables here are 4 MiB each, and a payload miss after a
// memo hit (the same specs on another trace) still constructs them and
// answers what a fresh server answers.
func TestWarmRequestConstructsNothing(t *testing.T) {
	_, ts := newTestServer(t, nil)
	reqs := []struct{ path, body string }{
		{"/v1/simulate", `{"trace":{"workload":"%s"},"specs":["gshare:22"]}`},
		{"/v1/sweep", `{"trace":{"workload":"%s"},"grid":{"family":"gshare-hist","hist":[22]}}`},
	}
	for _, r := range reqs {
		issue(t, ts, r.path, fmt.Sprintf(r.body, "gcc"))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		issue(t, ts, r.path, fmt.Sprintf(r.body, "gcc"))
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%s: warm request allocated %d bytes, want under 1 MiB (no 4 MiB table)", r.path, got)
		}

		got := issue(t, ts, r.path, fmt.Sprintf(r.body, "perl"))
		_, fresh := newTestServer(t, nil)
		if want := issue(t, fresh, r.path, fmt.Sprintf(r.body, "perl")); !bytes.Equal(got, want) {
			t.Errorf("%s: payload after a memo hit differs from a fresh server's:\n%s\n%s", r.path, got, want)
		}
	}
}
