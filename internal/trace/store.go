package trace

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Store is the "trace database" of Fig. 2: a directory of trace segments
// grouped into sessions. Segment files are named
// <session>-<segment>.rtrc and use the binary codec.
//
// Persistence is streaming on both sides: WriteSegment returns a
// SegmentWriter sink that appends records as they are observed, and
// every read path opens a session's segments as FileCursors through
// SessionCursors — StreamSession k-way merges them straight into any
// sink, QuerySession filters them, SalvageSession and Fsck recover
// what decodes. Nothing in the store materializes a session.
type Store struct {
	dir string

	// Format selects the segment format WriteSegment produces; the zero
	// value means the default, v2. Reads
	// are always version-aware — FileCursor sniffs each segment's magic —
	// so a store can hold a mix of v1 and v2 segments.
	Format Format

	// BlockRecords bounds records per v2 block (0 selects the default).
	// Smaller blocks index finer (narrow filtered reads decode less);
	// larger blocks compress better (the table and per-block index entry
	// amortize over more records).
	BlockRecords int

	// WrapWriter, when set, wraps the file every WriteSegment opens; the
	// segment writer's bytes flow through the returned writer (the file
	// itself is still closed by Close). It exists for deterministic fault
	// injection — wrapping a segment in a faultinject.Writer makes
	// disk-full and short-write scenarios scriptable — and is nil in
	// production. The read paths always read the files directly; read-side
	// damage is tested by editing segment bytes on disk.
	WrapWriter func(name string, f io.Writer) io.Writer
}

// NewStore opens (creating if needed) a trace database at dir.
func NewStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("trace: creating store: %w", err)
	}
	return &Store{dir: dir}, nil
}

func (s *Store) segPath(session string, segment int) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s-%04d.rtrc", session, segment))
}

// WriteSegment creates one segment file of a session and returns a
// SegmentWriter sink over it. Events append to disk as they are
// observed — a periodic drain can stream rings -> merge -> segment
// without ever materializing the segment — and Close finalizes the file.
func (s *Store) WriteSegment(session string, segment int) (*SegmentWriter, error) {
	path := s.segPath(session, segment)
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	var w io.Writer = f
	if s.WrapWriter != nil {
		w = s.WrapWriter(filepath.Base(path), f)
	}
	sw := NewSegmentWriterFormat(w, s.Format, s.BlockRecords)
	sw.c = f
	sw.path = path
	return sw, nil
}

// Sessions lists distinct session names in the store, sorted.
func (s *Store) Sessions() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	for _, ent := range entries {
		name := ent.Name()
		if filepath.Ext(name) != ".rtrc" {
			continue
		}
		// The session is everything before the numeric segment suffix.
		// Indexes are %04d-formatted but parsed, not sized: segment 10000
		// and beyond widen the suffix.
		base := name[:len(name)-len(".rtrc")]
		if i := strings.LastIndexByte(base, '-'); i > 0 {
			if _, ok := segmentIndex(name, base[:i]); ok {
				seen[base[:i]] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out, nil
}

// segmentIndex parses the numeric segment index out of a segment file
// name (<session>-<index>.rtrc). ok is false for names whose suffix is
// not numeric.
func segmentIndex(name, session string) (int, bool) {
	digits := name[len(session)+1 : len(name)-len(".rtrc")]
	if digits == "" {
		return 0, false
	}
	n, err := strconv.Atoi(digits)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// segmentNames lists the segment files of a session in segment order.
// Only names with a numeric index after "<session>-" belong to the
// session: a session named "run-b" is not part of session "run". Order
// is by parsed numeric index, not lexicographic: zero-padding runs out
// at segment 10000 (%04d), where a filename sort would merge "10000"
// before "9999" and break tie-resolution to the earlier segment.
func (s *Store) segmentNames(session string) ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	prefix := session + "-"
	var names []string
	for _, ent := range entries {
		name := ent.Name()
		if filepath.Ext(name) != ".rtrc" || !strings.HasPrefix(name, prefix) {
			continue
		}
		if _, ok := segmentIndex(name, session); ok {
			names = append(names, name)
		}
	}
	sort.Slice(names, func(i, j int) bool {
		ni, _ := segmentIndex(names[i], session)
		nj, _ := segmentIndex(names[j], session)
		if ni != nj {
			return ni < nj
		}
		return names[i] < names[j]
	})
	return names, nil
}

// SessionCursors opens every segment of a session and returns one
// FileCursor per segment, in segment order; decode errors name the
// segment file they came from, and records out of (Time, Seq) order are
// rejected (the merge cannot re-sort them). It is the only place a store
// opens segments for reading: StreamSession, QuerySession,
// SalvageSession and Fsck all start here. The caller owns the cursors
// and must Close each one. Every segment file is open at once — the
// single-pass k-way merge reads all heads simultaneously — so sessions
// are bounded by the process fd limit at roughly one fd per segment (a
// 1h run at the default 5s period is ~720).
func (s *Store) SessionCursors(session string) ([]*FileCursor, error) {
	names, err := s.segmentNames(session)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("trace: session %q has no segments", session)
	}
	curs := make([]*FileCursor, 0, len(names))
	for _, name := range names {
		f, err := os.Open(filepath.Join(s.dir, name))
		if err != nil {
			closeCursors(curs)
			return nil, err
		}
		fc := NewFileCursor(f)
		fc.file, fc.name, fc.strict = f, name, true
		curs = append(curs, fc)
	}
	return curs, nil
}

func closeCursors(curs []*FileCursor) {
	for _, c := range curs {
		c.Close()
	}
}

// StreamSession k-way merges all segments of a session into sink in
// (Time, Seq) order. Records decode one at a time off each segment file
// and the merge holds one event per segment cursor, so a session of any
// size streams into a model builder (or any other sink) at O(segments)
// peak memory. Segments must be internally (Time, Seq)-sorted — every
// tracer drain writes them so — since a stream cannot be re-sorted;
// ties across segments resolve to the earlier segment, as a stable sort
// of the segments' concatenation would.
func (s *Store) StreamSession(session string, sink Sink) error {
	curs, err := s.SessionCursors(session)
	if err != nil {
		return err
	}
	defer closeCursors(curs)
	cursors := make([]Cursor, len(curs))
	for i, c := range curs {
		cursors[i] = c
	}
	return NewMergeStream(cursors...).Run(sink)
}
