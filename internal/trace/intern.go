package trace

import (
	"sync"
	"sync/atomic"
)

// Node and topic names recur on almost every record of a trace — a few
// dozen distinct strings across millions of events — so decoding paid one
// string allocation per record for names it had already seen. InternBytes
// returns one canonical string per distinct byte content instead.
//
// The table is shared process-wide because the harness decodes sessions
// from many worker goroutines concurrently; lookups take a read lock on
// the hit path (the overwhelmingly common case) and the map key lookup by
// string(b) does not allocate. Retention is bounded on two axes, because
// the binary codec feeds this table from untrusted trace files: names
// longer than internMaxLen bypass the table entirely (real node/topic
// names are tens of bytes), and once internMaxEntries distinct names
// have been seen — far beyond any real topic space, so reaching it means
// the input is adversarial — further misses fall back to plain
// allocation rather than growing without bound. Worst-case pinned memory
// is internMaxEntries × internMaxLen = 16 MiB.
//
// That fallback is silent by design — correctness never depends on the
// table — so the counters below exist to make it visible: a drain whose
// allocation profile regresses can be attributed to a capped table
// (every capped lookup is one string allocation per record again)
// instead of being hunted through the decode path.
type internTable struct {
	mu sync.RWMutex
	m  map[string]string
}

const (
	internMaxEntries = 1 << 16
	internMaxLen     = 256
)

var interned = internTable{m: make(map[string]string)}

// Intern traffic counters, process-global like the table itself: hits
// returned a canonical string, misses inserted a new one, capped fell
// back to plain allocation (table full, or the name exceeded
// internMaxLen). capped is the number the drain-allocation gate cares
// about: every capped lookup re-pays the per-record string allocation
// interning exists to remove.
var internHits, internMisses, internCapped atomic.Uint64

// InternStats reports cumulative intern-table traffic: canonical-string
// hits, first-sight insertions, and lookups that fell back to plain
// allocation because the table was full or the name oversized.
func InternStats() (hits, misses, capped uint64) {
	return internHits.Load(), internMisses.Load(), internCapped.Load()
}

// InternBytes returns the canonical string for the byte content of b.
func InternBytes(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if len(b) > internMaxLen {
		internCapped.Add(1)
		return string(b)
	}
	t := &interned
	t.mu.RLock()
	s, ok := t.m[string(b)]
	t.mu.RUnlock()
	if ok {
		internHits.Add(1)
		return s
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok = t.m[string(b)]; ok {
		internHits.Add(1)
		return s
	}
	s = string(b)
	if len(t.m) < internMaxEntries {
		t.m[s] = s
		internMisses.Add(1)
	} else {
		internCapped.Add(1)
	}
	return s
}
