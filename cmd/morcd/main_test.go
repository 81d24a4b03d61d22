package main

import (
	"net/http"
	"testing"
	"time"
)

// TestNewHTTPServerTimeouts pins the connection timeouts both serving
// modes share: header and idle timeouts are set, and the read/write
// timeouts that would cut long-lived SSE and proxied streams are not.
func TestNewHTTPServerTimeouts(t *testing.T) {
	h := http.NewServeMux()
	s := newHTTPServer("127.0.0.1:0", h)
	if s.Addr != "127.0.0.1:0" || s.Handler != h {
		t.Errorf("addr/handler = %q/%v, want the arguments", s.Addr, s.Handler)
	}
	if s.ReadHeaderTimeout != 10*time.Second {
		t.Errorf("ReadHeaderTimeout = %v, want 10s", s.ReadHeaderTimeout)
	}
	if s.IdleTimeout != 2*time.Minute {
		t.Errorf("IdleTimeout = %v, want 2m", s.IdleTimeout)
	}
	if s.ReadTimeout != 0 || s.WriteTimeout != 0 {
		t.Errorf("ReadTimeout/WriteTimeout = %v/%v, want 0 so streams stay open", s.ReadTimeout, s.WriteTimeout)
	}
}
