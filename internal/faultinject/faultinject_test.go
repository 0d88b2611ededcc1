package faultinject

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"github.com/tracesynth/rostracer/internal/sim"
)

func TestWriterFailAfterENOSPCSemantics(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, WriteFault{Kind: WriteFailAfter, N: 10})

	// First write fits entirely.
	if n, err := w.Write(make([]byte, 6)); n != 6 || err != nil {
		t.Fatalf("write 1: n=%d err=%v", n, err)
	}
	// Second write crosses the boundary: short with the error.
	n, err := w.Write(make([]byte, 8))
	if n != 4 || !errors.Is(err, ErrDiskFull) {
		t.Fatalf("boundary write: n=%d err=%v, want 4 bytes + ErrDiskFull", n, err)
	}
	// Everything after fails outright.
	if n, err := w.Write([]byte{1}); n != 0 || !errors.Is(err, ErrDiskFull) {
		t.Fatalf("post-boundary write: n=%d err=%v", n, err)
	}
	if buf.Len() != 10 {
		t.Fatalf("underlying got %d bytes, want exactly 10", buf.Len())
	}
}

func TestWriterShortAtNthOp(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, WriteFault{Kind: WriteShortAt, N: 2})
	if n, err := w.Write(make([]byte, 4)); n != 4 || err != nil {
		t.Fatalf("op 1: n=%d err=%v", n, err)
	}
	n, err := w.Write(make([]byte, 8))
	if n != 4 || !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("op 2: n=%d err=%v, want half + ErrShortWrite", n, err)
	}
	if n, err := w.Write(make([]byte, 4)); n != 4 || err != nil {
		t.Fatalf("op 3 (recovered): n=%d err=%v", n, err)
	}
	if w.ops != 3 {
		t.Fatalf("ops = %d, want 3", w.ops)
	}
}

func TestWriterSilentFaults(t *testing.T) {
	// Bit flip at offset 3, tail truncation at offset 6 — both silent.
	var buf bytes.Buffer
	w := NewWriter(&buf,
		WriteFault{Kind: WriteFlipBit, N: 3},
		WriteFault{Kind: WriteTruncateAt, N: 6})
	src := []byte{0, 1, 2, 3, 4, 5, 6, 7}
	if n, err := w.Write(src[:4]); n != 4 || err != nil {
		t.Fatalf("write 1: n=%d err=%v", n, err)
	}
	if n, err := w.Write(src[4:]); n != 4 || err != nil {
		t.Fatalf("write 2 claims success despite truncation: n=%d err=%v", n, err)
	}
	want := []byte{0, 1, 2, 2, 4, 5} // bit 0 of byte 3 flipped; bytes 6.. gone
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("underlying = %v, want %v", buf.Bytes(), want)
	}
	// The source buffer must not be mutated by the flip.
	if src[3] != 3 {
		t.Fatalf("caller's buffer mutated: %v", src)
	}
}

func TestWriterFailAll(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, WriteFault{Kind: WriteFailAll})
	if n, err := w.Write([]byte{1, 2}); n != 0 || !errors.Is(err, ErrDiskFull) {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if buf.Len() != 0 {
		t.Fatalf("dead disk accepted %d bytes", buf.Len())
	}
}

func TestDiskScriptPerOpen(t *testing.T) {
	d := NewDisk(
		nil,
		[]WriteFault{{Kind: WriteFailAll}},
	)
	var b0, b1, b2 bytes.Buffer
	w0 := d.Wrap("seg0", &b0)
	w1 := d.Wrap("seg1", &b1)
	w2 := d.Wrap("seg2", &b2) // beyond the script: healthy

	if _, err := w0.Write([]byte{1}); err != nil {
		t.Fatalf("open 0 should be healthy: %v", err)
	}
	if w0 != io.Writer(&b0) {
		t.Fatalf("healthy open should pass the file through unwrapped")
	}
	if _, err := w1.Write([]byte{1}); !errors.Is(err, ErrDiskFull) {
		t.Fatalf("open 1 should be dead: %v", err)
	}
	if _, err := w2.Write([]byte{1}); err != nil {
		t.Fatalf("open 2 (past script) should be healthy: %v", err)
	}
	if d.Opens() != 3 {
		t.Fatalf("opens = %d, want 3", d.Opens())
	}
}

func TestRingFaultDeterministicAndBursty(t *testing.T) {
	run := func() (uint64, []bool) {
		f := NewRingFault(42, 0.1, Burst{AtOp: 5, Len: 3})
		hook := f.Hook()
		outcomes := make([]bool, 40)
		for i := range outcomes {
			outcomes[i] = hook(i % 4)
		}
		return f.Drops(), outcomes
	}
	drops1, out1 := run()
	drops2, out2 := run()
	if drops1 != drops2 {
		t.Fatalf("same seed diverged: %d vs %d drops", drops1, drops2)
	}
	for i := range out1 {
		if out1[i] != out2[i] {
			t.Fatalf("schedule diverged at op %d", i+1)
		}
	}
	// The burst covers ops 5, 6, 7 (1-based) unconditionally.
	for _, op := range []int{4, 5, 6} {
		if !out1[op] {
			t.Fatalf("op %d not dropped by burst: %v", op+1, out1[:10])
		}
	}
	if drops1 < 3 {
		t.Fatalf("drops = %d, want at least the burst", drops1)
	}
	f := NewRingFault(1, 0, Burst{AtOp: 1, Len: 1})
	hook := f.Hook()
	if first, second := hook(0), hook(0); !first || second || f.Drops() != 1 {
		t.Fatalf("outcomes %v/%v drops=%d, want the one-op burst then pass-through", first, second, f.Drops())
	}
}

func TestTransportFateExtremes(t *testing.T) {
	rng := sim.NewRNG(7)
	tr := &Transport{DropProb: 1}
	if drop, _, _ := tr.Fate(rng); !drop {
		t.Fatal("DropProb=1 did not drop")
	}
	tr = &Transport{DupProb: 1, DelayProb: 1, ExtraDelay: 5 * sim.Millisecond}
	drop, dups, extra := tr.Fate(rng)
	if drop || dups != 1 || extra != 5*sim.Millisecond {
		t.Fatalf("fate = (%v, %d, %v), want (false, 1, 5ms)", drop, dups, extra)
	}
	tr = &Transport{}
	if drop, dups, extra := tr.Fate(rng); drop || dups != 0 || extra != 0 {
		t.Fatal("zero transport perturbed a delivery")
	}
}

func TestWriteFaultStrings(t *testing.T) {
	for kind, want := range map[WriteFaultKind]string{
		WriteHealthy: "healthy", WriteFailAfter: "disk-full-after",
		WriteShortAt: "short-write", WriteFailAll: "disk-down",
		WriteFlipBit: "bit-flip", WriteTruncateAt: "torn-tail",
	} {
		if got := (WriteFault{Kind: kind}).String(); got != want {
			t.Errorf("String(%d) = %q, want %q", kind, got, want)
		}
	}
	if !strings.Contains(ErrDiskFull.Error(), "disk full") {
		t.Error("ErrDiskFull message changed")
	}
}
