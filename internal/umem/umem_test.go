package umem

import (
	"bytes"
	"testing"
	"testing/quick"
)

// read copies n bytes at a out of s.
func read(s *Space, a Addr, n int) ([]byte, error) {
	b := make([]byte, n)
	return b, s.ReadInto(a, b)
}

func TestAllocReadRoundTrip(t *testing.T) {
	s := NewSpace(1)
	a := s.AllocBytes([]byte{1, 2, 3, 4})
	got, err := read(s, a, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Fatalf("got %v", got)
	}
}

func TestNullIsNeverAllocated(t *testing.T) {
	s := NewSpace(0)
	for i := 0; i < 100; i++ {
		if a := s.Alloc(1); a.IsNull() {
			t.Fatal("allocator returned NULL")
		}
	}
}

func TestSpacesDoNotOverlap(t *testing.T) {
	s1 := NewSpace(1)
	s2 := NewSpace(2)
	a1 := s1.AllocU64(42)
	if s2.Contains(a1, 8) {
		t.Fatal("address from space 1 readable in space 2")
	}
	if _, err := read(s2, a1, 8); err == nil {
		t.Fatal("cross-space read did not fault")
	}
}

func TestReadFaults(t *testing.T) {
	s := NewSpace(3)
	a := s.AllocU64(7)
	if _, err := read(s, a, 16); err == nil {
		t.Error("overlong read did not fault")
	}
	if _, err := read(s, 0, 8); err == nil {
		t.Error("NULL read did not fault")
	}
	if _, err := read(s, a-1, 8); err == nil {
		t.Error("pre-base read did not fault")
	}
}

func TestU64RoundTrip(t *testing.T) {
	s := NewSpace(4)
	a := s.AllocU64(0xdeadbeefcafe)
	v, err := s.ReadU64(a)
	if err != nil || v != 0xdeadbeefcafe {
		t.Fatalf("v=%#x err=%v", v, err)
	}
	s.WriteU64(a, 99)
	v, _ = s.ReadU64(a)
	if v != 99 {
		t.Fatalf("after write v=%d", v)
	}
}

func TestCString(t *testing.T) {
	s := NewSpace(5)
	a := s.AllocString("lidar_front/points_raw")
	got, err := s.ReadCString(a, 64)
	if err != nil || got != "lidar_front/points_raw" {
		t.Fatalf("got %q err=%v", got, err)
	}
	// Truncated read of an unterminated region returns what fits.
	b := s.AllocBytes([]byte{'a', 'b', 'c'})
	got, err = s.ReadCString(b, 2)
	if err != nil || got != "ab" {
		t.Fatalf("truncated: got %q err=%v", got, err)
	}
}

func TestAlignment(t *testing.T) {
	s := NewSpace(6)
	s.Alloc(3) // misalign the bump pointer
	a := s.Alloc(8)
	if uint64(a)%8 != 0 {
		t.Fatalf("allocation not 8-aligned: %#x", uint64(a))
	}
}

func TestStructWriterLayout(t *testing.T) {
	s := NewSpace(7)
	topic := s.AllocString("/t1")
	w := NewStructWriter(s)
	offA := w.U64(11)
	offB := w.U64(22)
	offC := w.Ptr(topic)
	base := w.Commit()

	if offA != 0 {
		t.Errorf("offA = %d", offA)
	}
	if offB != 8 {
		t.Errorf("offB = %d", offB)
	}
	if offC != 16 {
		t.Errorf("offC = %d", offC)
	}
	if v, _ := s.ReadU64(base + Addr(offA)); v != 11 {
		t.Errorf("field A = %d", v)
	}
	if v, _ := s.ReadU64(base + Addr(offB)); v != 22 {
		t.Errorf("field B = %d", v)
	}
	p, _ := s.ReadU64(base + Addr(offC))
	str, err := s.ReadCString(Addr(p), 16)
	if err != nil || str != "/t1" {
		t.Errorf("pointer chase: %q err=%v", str, err)
	}
}

func TestPointerChaseTwoLevels(t *testing.T) {
	// Mirrors the probe pattern: struct -> pointer -> struct -> string.
	s := NewSpace(8)
	name := s.AllocString("v1/localization")
	inner := NewStructWriter(s)
	inner.U64(0x1234)
	nameOff := inner.Ptr(name)
	innerAddr := inner.Commit()
	outer := NewStructWriter(s)
	innerOff := outer.Ptr(innerAddr)
	outerAddr := outer.Commit()

	p1, err := s.ReadU64(outerAddr + Addr(innerOff))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := s.ReadU64(Addr(p1) + Addr(nameOff))
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadCString(Addr(p2), 64)
	if err != nil || got != "v1/localization" {
		t.Fatalf("got %q err=%v", got, err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(pid uint32, payload []byte) bool {
		s := NewSpace(pid % 1000)
		a := s.AllocBytes(payload)
		got, err := read(s, a, len(payload))
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestContains(t *testing.T) {
	s := NewSpace(9)
	a := s.Alloc(16)
	if !s.Contains(a, 16) {
		t.Error("Contains rejected valid range")
	}
	if s.Contains(a, 17) {
		t.Error("Contains accepted overlong range")
	}
	if s.Contains(a, -1) {
		t.Error("Contains accepted negative length")
	}
}
