// Package umem simulates per-process user-space memory.
//
// The ROS2 middleware layers allocate their C-style argument structures
// (message info blocks, topic-name strings, service request headers) in a
// Space, and pass the resulting addresses to the probed functions. eBPF
// probe programs then traverse those structures with probe_read /
// probe_read_str exactly as the paper's tracer traverses real rclcpp and
// rmw data structures.
//
// Addresses are 64-bit. Each Space carves its allocations from a virtual
// range starting at a per-space base so that addresses from different
// processes never collide, which lets tests catch cross-address-space reads
// (a class of bug real eBPF tracers also have to avoid).
package umem

import (
	"encoding/binary"
	"fmt"
)

// Addr is a simulated user-space address. The zero Addr is the NULL pointer
// and is never a valid allocation.
type Addr uint64

// IsNull reports whether a is the NULL pointer.
func (a Addr) IsNull() bool { return a == 0 }

// Space is one process's simulated memory. It is a bump allocator over a
// flat byte slice; freed memory is not reclaimed, which matches the
// lifetime pattern of tracing-relevant middleware structures (they live for
// the duration of a function call and the trace only needs them to remain
// readable until the exit probe fires).
type Space struct {
	base Addr
	mem  []byte
}

const spaceStride = 1 << 40 // virtual distance between process bases

// NewSpace returns the memory space for process pid.
func NewSpace(pid uint32) *Space {
	// Base is non-zero even for pid 0 so that offset 0 is never NULL.
	return &Space{base: Addr(uint64(pid+1) * spaceStride)}
}

// Contains reports whether [a, a+n) lies inside the space.
func (s *Space) Contains(a Addr, n int) bool {
	if a < s.base || n < 0 {
		return false
	}
	off := uint64(a - s.base)
	return off+uint64(n) <= uint64(len(s.mem))
}

// Alloc reserves n bytes (8-byte aligned) and returns their address.
func (s *Space) Alloc(n int) Addr {
	if n < 0 {
		panic("umem: negative allocation")
	}
	// Align to 8 bytes like a C allocator would.
	for len(s.mem)%8 != 0 {
		s.mem = append(s.mem, 0)
	}
	a := s.base + Addr(len(s.mem))
	s.mem = append(s.mem, make([]byte, n)...)
	return a
}

// AllocBytes copies b into fresh memory and returns its address.
func (s *Space) AllocBytes(b []byte) Addr {
	a := s.Alloc(len(b))
	copy(s.slice(a, len(b)), b)
	return a
}

// AllocString stores str as a NUL-terminated C string.
func (s *Space) AllocString(str string) Addr {
	b := make([]byte, len(str)+1)
	copy(b, str)
	return s.AllocBytes(b)
}

// AllocU64 stores a single 64-bit little-endian value.
func (s *Space) AllocU64(v uint64) Addr {
	a := s.Alloc(8)
	s.WriteU64(a, v)
	return a
}

func (s *Space) slice(a Addr, n int) []byte {
	if !s.Contains(a, n) {
		panic(fmt.Sprintf("umem: access [%#x,+%d) outside space base %#x size %d", uint64(a), n, uint64(s.base), len(s.mem)))
	}
	off := uint64(a - s.base)
	return s.mem[off : off+uint64(n)]
}

// ReadInto copies len(dst) bytes at a into dst without allocating; the
// probe_read helper's hot path. It returns an error (not a panic) for
// invalid ranges because probe programs must be able to fault
// gracefully, as real probe_read does.
func (s *Space) ReadInto(a Addr, dst []byte) error {
	if !s.Contains(a, len(dst)) {
		return fmt.Errorf("umem: fault reading [%#x,+%d)", uint64(a), len(dst))
	}
	copy(dst, s.slice(a, len(dst)))
	return nil
}

// ReadU64 reads a little-endian 64-bit value.
func (s *Space) ReadU64(a Addr) (uint64, error) {
	if !s.Contains(a, 8) {
		return 0, fmt.Errorf("umem: fault reading [%#x,+8)", uint64(a))
	}
	return binary.LittleEndian.Uint64(s.slice(a, 8)), nil
}

// cstringWindow locates the NUL-terminated string of at most max bytes at
// a, returning the backing bytes (excluding the NUL). Faults mirror the
// byte-at-a-time semantics of probe_read_str: running off the mapped
// region before a terminator (and before max bytes) is a fault.
func (s *Space) cstringWindow(a Addr, max int) ([]byte, error) {
	if max <= 0 {
		return nil, nil
	}
	avail := max
	if !s.Contains(a, avail) {
		// Clamp the window to the mapped region.
		if !s.Contains(a, 1) {
			return nil, fmt.Errorf("umem: fault reading [%#x,+1)", uint64(a))
		}
		avail = int(uint64(s.base) + uint64(len(s.mem)) - uint64(a))
	}
	win := s.slice(a, avail)
	for i, b := range win {
		if b == 0 {
			return win[:i], nil
		}
	}
	if avail < max {
		return nil, fmt.Errorf("umem: fault reading [%#x,+1)", uint64(a)+uint64(avail))
	}
	return win, nil
}

// ReadCString reads a NUL-terminated string of at most max bytes.
func (s *Space) ReadCString(a Addr, max int) (string, error) {
	win, err := s.cstringWindow(a, max)
	if err != nil {
		return "", err
	}
	return string(win), nil
}

// ReadCStringInto copies a NUL-terminated string of at most len(dst) bytes
// into dst without allocating, returning its length; the probe_read_str
// helper's hot path.
func (s *Space) ReadCStringInto(a Addr, dst []byte) (int, error) {
	win, err := s.cstringWindow(a, len(dst))
	if err != nil {
		return 0, err
	}
	copy(dst, win)
	return len(win), nil
}

// WriteU64 stores a little-endian 64-bit value at a.
func (s *Space) WriteU64(a Addr, v uint64) {
	binary.LittleEndian.PutUint64(s.slice(a, 8), v)
}

// WriteBytes copies b to a.
func (s *Space) WriteBytes(a Addr, b []byte) {
	copy(s.slice(a, len(b)), b)
}

// StructWriter lays out a C-like structure field by field, recording field
// offsets so middleware code and probe programs agree on the layout.
type StructWriter struct {
	space  *Space
	fields []fieldSpec
	size   int
}

type fieldSpec struct {
	off  int
	data []byte
}

// NewStructWriter begins a structure layout in space.
func NewStructWriter(space *Space) *StructWriter {
	return &StructWriter{space: space}
}

func (w *StructWriter) align(n int) {
	for w.size%n != 0 {
		w.size++
	}
}

// U64 appends a 64-bit field and returns its offset within the struct.
func (w *StructWriter) U64(v uint64) int {
	w.align(8)
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	off := w.size
	w.fields = append(w.fields, fieldSpec{off, b})
	w.size += 8
	return off
}

// Ptr appends a pointer-sized field holding address a.
func (w *StructWriter) Ptr(a Addr) int { return w.U64(uint64(a)) }

// Commit allocates the structure and returns its address.
func (w *StructWriter) Commit() Addr {
	a := w.space.Alloc(w.size)
	for _, f := range w.fields {
		w.space.WriteBytes(a+Addr(f.off), f.data)
	}
	return a
}
