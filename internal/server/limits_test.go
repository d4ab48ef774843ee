package server

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// serveLoopback serves s from New's own http.Server on a loopback
// listener, so tests see its connection limits, and returns the address.
func serveLoopback(t *testing.T, s *Server) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Serve(l) //nolint:errcheck // Close below ends Serve
	}()
	t.Cleanup(func() {
		s.Close()
		<-done
	})
	return l.Addr().String()
}

// TestOversizedBodyRejected posts a body over maxBodyBytes to /v1/plan:
// the server answers 413 in the uniform JSON error body without reading
// the rest.
func TestOversizedBodyRejected(t *testing.T) {
	s := New(testConfig())
	base := "http://" + serveLoopback(t, s)

	// A valid JSON prefix that never closes, so the decoder reads until
	// the limit trips.
	body := `{"app":1,"target":"` + strings.Repeat("x", maxBodyBytes+1) + `"}`
	resp, data := post(t, http.DefaultClient, base+"/v1/plan", body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d (%.200s), want 413", resp.StatusCode, data)
	}
	decodeError(t, resp, data)
	if got := s.Metrics().Cache.Misses; got != 0 {
		t.Errorf("oversized request reached the cache (%d misses)", got)
	}
}

// TestSlowHeaderClientDisconnected opens a connection that never finishes
// its request headers. The server drops it after readHeaderTimeout, keeps
// serving other clients meanwhile, and answers an oversized header block
// with 431.
func TestSlowHeaderClientDisconnected(t *testing.T) {
	s := New(testConfig())
	addr := serveLoopback(t, s)

	slow, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	start := time.Now()
	if _, err := io.WriteString(slow, "POST /v1/plan HTTP/1.1\r\nHost: kodan\r\nX-Slow: "); err != nil {
		t.Fatal(err)
	}

	// Other clients are served while the slow one holds its connection.
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz beside a slow client: status %d", resp.StatusCode)
	}

	slow.SetReadDeadline(time.Now().Add(readHeaderTimeout + 5*time.Second)) //nolint:errcheck
	n, err := slow.Read(make([]byte, 1))
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("slow-header connection still open after %v", time.Since(start))
	}
	if n != 0 || err == nil {
		t.Fatalf("slow-header connection got a response (n=%d, err=%v), want it closed", n, err)
	}
	if waited := time.Since(start); waited < readHeaderTimeout-time.Second {
		t.Errorf("connection closed after %v, before the %v header timeout", waited, readHeaderTimeout)
	}

	// Headers beyond maxHeaderBytes (plus net/http's 4 KiB slack) get 431.
	big, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer big.Close()
	req := "GET /healthz HTTP/1.1\r\nHost: kodan\r\nX-Big: " + strings.Repeat("b", 2*maxHeaderBytes) + "\r\n\r\n"
	if _, err := io.WriteString(big, req); err != nil {
		t.Fatal(err)
	}
	big.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	bigResp, err := http.ReadResponse(bufio.NewReader(big), nil)
	if err != nil {
		t.Fatal(err)
	}
	bigResp.Body.Close()
	if bigResp.StatusCode != http.StatusRequestHeaderFieldsTooLarge {
		t.Fatalf("oversized headers: status %d, want 431", bigResp.StatusCode)
	}
}
