package metrics

import (
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"
)

var scrapeClient = &http.Client{Timeout: 5 * time.Second}

// get requests url and returns its status, Content-Type and body.
func get(t *testing.T, url string) (int, string, string) {
	t.Helper()
	resp, err := scrapeClient.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: body: %v", url, err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

func TestServeMetrics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("served_total", "requests").Inc()
	bound, err := Serve("127.0.0.1:0", func() *Registry { return reg })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(bound, "127.0.0.1:") || strings.HasSuffix(bound, ":0") {
		t.Fatalf("bound %q, want 127.0.0.1 and the port the kernel chose", bound)
	}
	for _, path := range []string{"/metrics", "/metrics?x=1"} {
		code, ctype, body := get(t, "http://"+bound+path)
		if code != http.StatusOK || ctype != "text/plain; version=0.0.4; charset=utf-8" {
			t.Errorf("%s: status %d, Content-Type %q", path, code, ctype)
		}
		if body != reg.Exposition() {
			t.Errorf("%s: body %q, want the exposition %q", path, body, reg.Exposition())
		}
	}
	if code, _, _ := get(t, "http://"+bound+"/other"); code != http.StatusNotFound {
		t.Errorf("/other: status %d, want 404", code)
	}
}

func TestServeNilRegistry(t *testing.T) {
	bound, err := Serve("localhost:0", func() *Registry { return nil })
	if err != nil {
		t.Fatal(err)
	}
	code, ctype, body := get(t, "http://"+bound+"/metrics")
	if code != http.StatusOK || !strings.HasPrefix(ctype, "text/plain") || body != "" {
		t.Fatalf("status %d, Content-Type %q, body %q; want an empty 200", code, ctype, body)
	}
}

// TestServeAnyAddress binds ":0" and scrapes it over IPv4 and, where the
// host has IPv6, over IPv6.
func TestServeAnyAddress(t *testing.T) {
	reg := NewRegistry()
	bound, err := Serve(":0", func() *Registry { return reg })
	if err != nil {
		t.Fatal(err)
	}
	port := bound[strings.LastIndexByte(bound, ':'):]
	hosts := []string{"127.0.0.1"}
	switch {
	case strings.HasPrefix(bound, "[::]:"):
		hosts = append(hosts, "[::1]")
	case !strings.HasPrefix(bound, "0.0.0.0:"):
		t.Fatalf("bound %q, want [::]:PORT or 0.0.0.0:PORT", bound)
	}
	for _, h := range hosts {
		if code, _, _ := get(t, "http://"+h+port+"/metrics"); code != http.StatusOK {
			t.Errorf("via %s: status %d", h, code)
		}
	}
}

func TestServeRejectsAddresses(t *testing.T) {
	for _, addr := range []string{"9090", ":99999", "example.com:80"} {
		if _, err := Serve(addr, func() *Registry { return nil }); err == nil {
			t.Errorf("Serve(%q) succeeded, want an error", addr)
		}
	}
}

// TestServeIdleClientDoesNotDelayScrape holds a connection that sends
// nothing, and one that sends a request head past the bound, while a
// scrape runs.
func TestServeIdleClientDoesNotDelayScrape(t *testing.T) {
	bound, err := Serve("127.0.0.1:0", func() *Registry { return nil })
	if err != nil {
		t.Fatal(err)
	}
	idle, err := net.Dial("tcp", bound)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	big, err := net.Dial("tcp", bound)
	if err != nil {
		t.Fatal(err)
	}
	defer big.Close()
	if _, err := big.Write([]byte(strings.Repeat("x", maxHead+1))); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	if code, _, _ := get(t, "http://"+bound+"/metrics"); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if d := time.Since(start); d > connTimeout/2 {
		t.Fatalf("scrape took %v next to an idle connection", d)
	}
	big.SetReadDeadline(time.Now().Add(connTimeout / 2))
	if n, err := big.Read(make([]byte, 1)); err == nil {
		t.Fatalf("oversized request head got %d response bytes, want the connection closed", n)
	} else if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("oversized request head: connection left open")
	}
}
