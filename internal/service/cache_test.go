package service

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"branchcorr/internal/obs"
)

// TestCacheWaiterHonoursOwnContext pins the coalesced-wait branch of the
// single-flight cache: a waiter whose own context ends stops waiting with
// the canceled wire code, while the flight it was coalesced on runs to
// completion and every other caller still gets its bytes.
func TestCacheWaiterHonoursOwnContext(t *testing.T) {
	reg := obs.New()
	c := newPayloadCache(4, reg)
	started, release := make(chan struct{}), make(chan struct{})
	payload := []byte(`{"ok":true}`)

	type result struct {
		b   []byte
		err error
	}
	leader := make(chan result, 1)
	go func() {
		b, err := c.do(context.Background(), "k", func() ([]byte, error) {
			close(started)
			<-release
			return payload, nil
		})
		leader <- result{b, err}
	}()
	<-started // the flight is registered and blocked in compute

	patient := make(chan result, 1)
	go func() {
		b, err := c.do(context.Background(), "k", func() ([]byte, error) {
			t.Error("coalesced waiter started a second flight")
			return nil, nil
		})
		patient <- result{b, err}
	}()

	ctx, cancel := context.WithCancel(context.Background())
	impatient := make(chan result, 1)
	go func() {
		b, err := c.do(ctx, "k", func() ([]byte, error) {
			t.Error("coalesced waiter started a second flight")
			return nil, nil
		})
		impatient <- result{b, err}
	}()
	cancel()
	r := <-impatient // returns while the flight is still blocked
	var re *reqError
	if !errors.As(r.err, &re) || re.code != "canceled" || !errors.Is(r.err, context.Canceled) {
		t.Fatalf("canceled waiter got (%q, %v), want the canceled code wrapping context.Canceled", r.b, r.err)
	}

	close(release)
	for name, ch := range map[string]chan result{"leader": leader, "other waiter": patient} {
		if r := <-ch; r.err != nil || !bytes.Equal(r.b, payload) {
			t.Errorf("%s got (%q, %v), want the flight's payload", name, r.b, r.err)
		}
	}
	snap := reg.Snapshot()
	if hits, misses := snap.Counters["service.cache.hits"], snap.Counters["service.cache.misses"]; hits != 1 || misses != 1 {
		t.Errorf("hits, misses = %d, %d; want 1, 1 (the canceled waiter counts as neither)", hits, misses)
	}

	// A completed entry replays even under an ended context: only a
	// real wait can be abandoned.
	if b, err := c.do(ctx, "k", nil); err != nil || !bytes.Equal(b, payload) {
		t.Errorf("completed entry under a canceled ctx = (%q, %v), want a replay", b, err)
	}
}
