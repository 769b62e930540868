package main

import (
	"context"
	"net/http"
	"testing"
	"time"
)

// TestHTTPServerTimeouts pins the server's deadlines: headers, the whole
// request and idle connections are bounded, the request bound admits the
// 16 MiB body limit at 1 Mbit/s, and nothing bounds the write of a
// streamed detection.
func TestHTTPServerTimeouts(t *testing.T) {
	type key struct{}
	base := context.WithValue(context.Background(), key{}, "base")
	srv := newHTTPServer(base, ":0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.ReadHeaderTimeout > 30*time.Second {
		t.Errorf("ReadHeaderTimeout = %v, want a bound of at most 30 s", srv.ReadHeaderTimeout)
	}
	if body := 16 << 20 * 8 * time.Second / 1e6; srv.ReadTimeout < body {
		t.Errorf("ReadTimeout = %v, shorter than the %v a 16 MiB body takes at 1 Mbit/s", srv.ReadTimeout, body)
	}
	if srv.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want a bound", srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v: a streamed detection would be cut off", srv.WriteTimeout)
	}
	if srv.BaseContext(nil).Value(key{}) != "base" {
		t.Error("request contexts do not derive from the base context")
	}
}
