// Package maincheck checks that a program prints the same bytes on every
// run and in every tree: its tests call the program's main repeatedly
// with stdout captured and compare the bytes with a pinned digest.
package maincheck

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"testing"
)

// Deterministic runs main n times and fails t unless every run writes
// the same bytes to stdout and their sha256 is wantSHA256 (lowercase
// hex, as sha256sum prints it).
func Deterministic(t *testing.T, n int, wantSHA256 string, main func()) {
	t.Helper()
	first := capture(t, main)
	sum := sha256.Sum256(first)
	if got := hex.EncodeToString(sum[:]); got != wantSHA256 {
		t.Fatalf("stdout sha256 = %s, want %s:\n%s", got, wantSHA256, first)
	}
	for i := 1; i < n; i++ {
		if got := capture(t, main); !bytes.Equal(got, first) {
			t.Fatalf("run %d printed different bytes:\n--- run 0 ---\n%s--- run %d ---\n%s", i, first, i, got)
		}
	}
}

// capture returns what main writes to stdout.
func capture(t *testing.T, main func()) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		r.Close()
		out <- b
	}()
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	main()
	w.Close()
	return <-out
}
