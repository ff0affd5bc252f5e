package main

import (
	"net/http"
	"testing"
	"time"
)

// TestHTTPServerTimeouts pins the slowloris guard: the served
// http.Server bounds header reads, whole-request reads and idle
// keep-alive connections.
func TestHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	for name, d := range map[string]time.Duration{
		"ReadHeaderTimeout": hs.ReadHeaderTimeout,
		"ReadTimeout":       hs.ReadTimeout,
		"IdleTimeout":       hs.IdleTimeout,
	} {
		if d <= 0 {
			t.Errorf("%s = %v, want a positive bound", name, d)
		}
	}
	if hs.Handler == nil {
		t.Error("handler not installed")
	}
}
