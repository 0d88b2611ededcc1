package trace

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzFileCursor feeds arbitrary segment bytes to the streaming reader.
// The cursor must never panic — random, truncated, or corrupted input
// included — its error must be sticky, and every event it yields (all
// of an accepted input, the valid prefix of a rejected one) must
// re-encode through NewSegmentWriter and decode back to equal events.
func FuzzFileCursor(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteBinary(&valid, &Trace{Events: sampleEvents()}); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	for _, cut := range []int{len(binMagic), len(binMagic) + 2, len(valid.Bytes()) / 2, len(valid.Bytes()) - 1} {
		f.Add(valid.Bytes()[:cut])
	}
	f.Add([]byte(binMagic))
	f.Add([]byte("not a trace file"))
	corrupt := append([]byte(nil), valid.Bytes()...)
	binary.LittleEndian.PutUint32(corrupt[len(binMagic):], 1<<19)
	f.Add(corrupt)
	f.Add(encodeV2(f, sampleEvents(), 3))

	f.Fuzz(func(t *testing.T, data []byte) {
		cur := NewFileCursor(bytes.NewReader(data))
		got, curErr := drainCursor(cur)
		if curErr != nil {
			if _, _, err := cur.Next(); err == nil {
				t.Fatal("cursor error not sticky")
			}
		}

		var buf bytes.Buffer
		sw := NewSegmentWriter(&buf)
		for _, e := range got {
			sw.Observe(e)
		}
		if err := sw.Close(); err != nil {
			t.Fatalf("decoded events failed to re-encode: %v", err)
		}
		back, err := decodeAll(&buf)
		if err != nil {
			t.Fatalf("re-encoded events failed to decode: %v", err)
		}
		if len(back.Events) != len(got) {
			t.Fatalf("round trip decoded %d events, want %d", len(back.Events), len(got))
		}
		for i := range got {
			if back.Events[i] != got[i] {
				t.Fatalf("event %d: round trip %v, cursor %v", i, back.Events[i], got[i])
			}
		}
	})
}

// FuzzSalvage feeds arbitrary segment bytes to the salvage reader. It
// must never panic and never yield a partial record: what it recovers is
// exactly the plain cursor's valid prefix, and the BytesRecovered prefix
// of the input must itself decode cleanly (through a FileCursor) to exactly
// the recovered events.
func FuzzSalvage(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteBinary(&valid, &Trace{Events: sampleEvents()}); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	for _, cut := range []int{len(binMagic) + 2, len(valid.Bytes()) / 2, len(valid.Bytes()) - 1} {
		f.Add(valid.Bytes()[:cut])
	}
	f.Add([]byte("not a trace file"))
	corrupt := append([]byte(nil), valid.Bytes()...)
	binary.LittleEndian.PutUint32(corrupt[len(binMagic):], 1<<19)
	f.Add(corrupt)
	v2 := encodeV2(f, sampleEvents(), 3)
	f.Add(v2)
	f.Add(v2[:len(v2)/2])
	f.Add(v2[:len(v2)-footerTrailerLen-1])

	f.Fuzz(func(t *testing.T, data []byte) {
		var got []Event
		rep := SalvageReader(bytes.NewReader(data), SinkFunc(func(e Event) { got = append(got, e) }))
		if rep.Events != len(got) {
			t.Fatalf("report says %d events, sink got %d", rep.Events, len(got))
		}

		// Salvage recovers exactly the plain cursor's valid prefix.
		var want []Event
		cur := NewFileCursor(bytes.NewReader(data))
		for {
			ev, ok, err := cur.Next()
			if err != nil || !ok {
				break
			}
			want = append(want, *ev)
		}
		if rep.Damaged != (cur.err != nil) {
			t.Fatalf("salvage damaged=%v, plain cursor err=%v", rep.Damaged, cur.err)
		}
		if len(got) != len(want) {
			t.Fatalf("salvage recovered %d events, cursor prefix has %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("event %d: salvage %v, cursor %v", i, got[i], want[i])
			}
		}

		// The recovered byte range is itself a valid segment — no partial
		// record counted in. For v1 it decodes to exactly the recovered
		// events; for v2, BytesRecovered is block-granular, so a torn
		// block's salvaged record prefix is yielded beyond what the byte
		// prefix re-decodes to — the prefix then holds the leading subset.
		if rep.BytesRecovered > 0 {
			tr, err := decodeAll(bytes.NewReader(data[:rep.BytesRecovered]))
			if err != nil {
				t.Fatalf("BytesRecovered prefix does not decode: %v", err)
			}
			isV2 := len(data) >= len(binMagic2) && string(data[:len(binMagic2)]) == binMagic2
			if isV2 {
				if len(tr.Events) > len(got) {
					t.Fatalf("prefix decodes to %d events, salvage recovered only %d", len(tr.Events), len(got))
				}
			} else if len(tr.Events) != len(got) {
				t.Fatalf("prefix decodes to %d events, salvage recovered %d", len(tr.Events), len(got))
			}
			for i := range tr.Events {
				if got[i] != tr.Events[i] {
					t.Fatalf("event %d: salvage %v, prefix %v", i, got[i], tr.Events[i])
				}
			}
		}
	})
}

// encodeV2 renders events as one v2 segment with the given block bound.
func encodeV2(t testing.TB, events []Event, blockRecords int) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw := NewSegmentWriterFormat(&buf, FormatV2, blockRecords)
	for _, e := range events {
		sw.Observe(e)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzV2Cursor feeds arbitrary v2-leaning segment bytes to the streaming
// reader: it must never panic, its errors must be sticky, salvage must
// recover exactly the strict prefix the plain cursor yields (failing
// exactly when it does), and any cleanly decoded input must survive a v2
// re-encode round trip.
func FuzzV2Cursor(f *testing.F) {
	valid := encodeV2(f, sampleEvents(), 3)
	f.Add(valid)
	for _, cut := range []int{len(binMagic2), len(binMagic2) + 3, len(valid) / 2, len(valid) - 1, len(valid) - footerTrailerLen - 1} {
		f.Add(valid[:cut])
	}
	stompTag := append([]byte(nil), valid...)
	stompTag[len(binMagic2)] = 0x7f
	f.Add(stompTag)
	stompFooter := append([]byte(nil), valid...)
	stompFooter[len(stompFooter)-footerTrailerLen-2] ^= 0xff
	f.Add(stompFooter)
	f.Add([]byte(binMagic2))
	f.Add([]byte("not a trace file"))

	f.Fuzz(func(t *testing.T, data []byte) {
		var got []Event
		cur := NewFileCursor(bytes.NewReader(data))
		var curErr error
		for {
			ev, ok, err := cur.Next()
			if err != nil {
				curErr = err
				break
			}
			if !ok {
				break
			}
			got = append(got, *ev)
		}
		if curErr != nil {
			if _, _, err := cur.Next(); err == nil {
				t.Fatal("cursor error not sticky")
			}
		}

		// Salvage fails (marks damage) exactly when the plain cursor errors,
		// and recovers exactly its yielded prefix.
		var salvaged []Event
		rep := SalvageReader(bytes.NewReader(data), SinkFunc(func(e Event) { salvaged = append(salvaged, e) }))
		if rep.Damaged != (curErr != nil) {
			t.Fatalf("salvage damaged=%v, cursor err=%v", rep.Damaged, curErr)
		}
		if len(salvaged) != len(got) {
			t.Fatalf("salvage recovered %d events, cursor yielded %d", len(salvaged), len(got))
		}
		for i := range got {
			if got[i] != salvaged[i] {
				t.Fatalf("event %d: salvage %v, cursor %v", i, salvaged[i], got[i])
			}
		}

		// Cleanly decoded input round-trips through the v2 encoder.
		if curErr == nil && len(got) > 0 {
			back, err := decodeAll(bytes.NewReader(encodeV2(t, got, 3)))
			if err != nil {
				t.Fatalf("re-encode of accepted events failed to decode: %v", err)
			}
			if len(back.Events) != len(got) {
				t.Fatalf("re-encode lost events: %d != %d", len(back.Events), len(got))
			}
			for i := range got {
				if got[i] != back.Events[i] {
					t.Fatalf("event %d: round trip %v != %v", i, back.Events[i], got[i])
				}
			}
		}
	})
}

// FuzzV1V2Equivalence decodes arbitrary bytes with the version-aware
// reader and, when they form a valid segment (either version),
// re-encodes the events as v2 and demands an identical decoded stream —
// the cross-version equivalence pin of the format migration.
func FuzzV1V2Equivalence(f *testing.F) {
	var v1 bytes.Buffer
	if err := WriteBinary(&v1, &Trace{Events: sampleEvents()}); err != nil {
		f.Fatal(err)
	}
	f.Add(v1.Bytes())
	f.Add(encodeV2(f, sampleEvents(), 2))
	f.Add(v1.Bytes()[:len(v1.Bytes())/2])
	f.Add([]byte("not a trace file"))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := decodeAll(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, blockRecords := range []int{1, 3, 0} {
			// Compare each event as the cursor serves it, out of its reused
			// Event, before the next Next can overwrite it.
			cur := NewFileCursor(bytes.NewReader(encodeV2(t, tr.Events, blockRecords)))
			n := 0
			for ; ; n++ {
				ev, ok, err := cur.Next()
				if err != nil {
					t.Fatalf("v2(block=%d) re-encode failed to decode: %v", blockRecords, err)
				}
				if !ok {
					break
				}
				if n >= len(tr.Events) {
					continue
				}
				if tr.Events[n] != *ev {
					t.Fatalf("v2(block=%d) event %d: %v != %v", blockRecords, n, *ev, tr.Events[n])
				}
			}
			if n != len(tr.Events) {
				t.Fatalf("v2(block=%d) lost events: %d != %d", blockRecords, n, len(tr.Events))
			}
		}
	})
}
