package obs

import (
	"expvar"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestDebugServerCloseWhileServing opens a raw connection that has sent
// only a partial request, then closes the server: Close must return
// promptly (it aborts in-flight connections rather than draining them)
// and the listener port must be released.
func TestDebugServerCloseWhileServing(t *testing.T) {
	ds, err := ServeDebug("127.0.0.1:0", New())
	if err != nil {
		t.Fatal(err)
	}
	addr := ds.Addr()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A partial request line keeps the connection in-flight in the
	// server's read loop.
	if _, err := conn.Write([]byte("GET /metrics HT")); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { done <- ds.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close with an in-flight connection: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked on an in-flight connection")
	}

	// The port is free again: a fresh listener can bind it.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("listener not released after Close: %v", err)
	}
	ln.Close()

	// New requests are refused.
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("request succeeded after Close")
	}
}

// TestDebugServerCloseJoinsServe pins that Close waits for the serving
// goroutine: by the time it returns, Serve has returned too.
func TestDebugServerCloseJoinsServe(t *testing.T) {
	ds, err := ServeDebug("127.0.0.1:0", New())
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case <-ds.done:
	default:
		t.Fatal("Close returned before Serve did")
	}
}

// TestDebugServerDoubleClose pins that Close is safe to call twice (the
// second call reports the server already closed rather than panicking).
func TestDebugServerDoubleClose(t *testing.T) {
	ds, err := ServeDebug("127.0.0.1:0", New())
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	// http.Server.Close is documented idempotent; the second call must
	// not panic and must not block.
	if err := ds.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestPublishExpvarDirect covers PublishExpvar without going through
// ServeDebug: the "obs" expvar variable serves the registry's snapshot,
// repeated publications don't trip expvar.Publish's duplicate-name
// panic, and the variable follows the most recently published registry.
func TestPublishExpvarDirect(t *testing.T) {
	r := New()
	r.Counter("direct.published").Add(41)
	PublishExpvar(r)
	r.Counter("direct.published").Inc()

	v := expvar.Get("obs")
	if v == nil {
		t.Fatal("expvar variable \"obs\" not registered")
	}
	if s := v.String(); !strings.Contains(s, `"direct.published":42`) {
		t.Errorf("expvar obs = %q, want the published registry's counter at 42", s)
	}

	// Re-publishing switches the variable to the new registry.
	r2 := New()
	r2.Counter("direct.second").Inc()
	PublishExpvar(r2)
	if s := expvar.Get("obs").String(); !strings.Contains(s, "direct.second") {
		t.Errorf("expvar obs = %q, want the re-published registry", s)
	}
}
