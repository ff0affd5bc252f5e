package service

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	v1 "branchcorr/internal/api/v1"
	"branchcorr/internal/obs"
)

// TestReadTimeoutSparesCoalescedWaiter pins how the payload cache's
// waiters meet a server-wide ReadTimeout (cmd/bpsimd sets one): the
// connection read deadline it arms covers the headers and body only.
// net/http lifts it when the handler reads the body to EOF, before the
// background read that watches for a client hang-up, so its expiry
// while a request computes cancels nothing. Two identical requests
// outlive the deadline several times over while their shared flight is
// queued; the coalesced waiter, which returns as soon as its own
// context ends, must still get the payload.
func TestReadTimeoutSparesCoalescedWaiter(t *testing.T) {
	const readTimeout = 50 * time.Millisecond
	s, err := New(Config{
		CorpusDir:     t.TempDir(),
		DefaultTraceN: testN,
		Workers:       1,
		Registry:      obs.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Config.ReadHeaderTimeout = readTimeout
	ts.Config.ReadTimeout = readTimeout
	ts.Start()
	t.Cleanup(ts.Close)

	s.sem <- struct{}{} // occupy the only slot: the flight queues until released
	body, err := v1.Marshal(v1.SimulateRequest{Trace: v1.TraceRef{Workload: "gcc"}, Specs: []string{"gshare:8"}})
	if err != nil {
		t.Fatal(err)
	}
	type reply struct {
		status int
		b      []byte
		err    error
	}
	replies := make(chan reply, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", bytes.NewReader(body))
			if err != nil {
				replies <- reply{err: err}
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			replies <- reply{resp.StatusCode, b, err}
		}()
	}
	time.Sleep(8 * readTimeout) // one request leads the queued flight, the other waits on it
	<-s.sem

	var first []byte
	for i := 0; i < 2; i++ {
		r := <-replies
		if r.err != nil || r.status != http.StatusOK {
			t.Fatalf("reply %d: status %d, err %v, body %s", i, r.status, r.err, r.b)
		}
		if first == nil {
			first = r.b
		} else if !bytes.Equal(r.b, first) {
			t.Errorf("coalesced replies differ:\n%s\n%s", first, r.b)
		}
	}
	snap := s.reg.Snapshot()
	if hits, misses := snap.Counters["service.cache.hits"], snap.Counters["service.cache.misses"]; hits != 1 || misses != 1 {
		t.Errorf("hits, misses = %d, %d; want 1, 1 (one flight, one coalesced waiter)", hits, misses)
	}
}
