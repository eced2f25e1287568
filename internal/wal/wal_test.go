package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// payloads returns n deterministic, variable-length payloads.
func payloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		p := make([]byte, 1+(i*7)%53)
		for j := range p {
			p[j] = byte(i*131 + j*17)
		}
		out[i] = p
	}
	return out
}

// appendAll writes every payload and syncs.
func appendAll(t *testing.T, l *Log, ps [][]byte) {
	t.Helper()
	for i, p := range ps {
		seq, err := l.Append(p)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if want := uint64(i + 1); seq != want && l.Stats().FirstSeq == 1 {
			// Dense numbering from 1 only holds on a fresh log.
			_ = want
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
}

// replayAll collects every (seq, payload) from seq `from`.
func replayAll(t *testing.T, l *Log, from uint64) map[uint64][]byte {
	t.Helper()
	got := map[uint64][]byte{}
	err := l.Replay(from, func(seq uint64, p []byte) error {
		got[seq] = append([]byte(nil), p...)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ps := payloads(100)
	appendAll(t, l, ps)
	if c := l.Committed(); c != 100 {
		t.Fatalf("committed %d, want 100", c)
	}
	got := replayAll(t, l, 1)
	if len(got) != 100 {
		t.Fatalf("replayed %d records, want 100", len(got))
	}
	for i, p := range ps {
		if !bytes.Equal(got[uint64(i+1)], p) {
			t.Fatalf("record %d mismatch", i+1)
		}
	}
	// Idempotent replay: a second pass yields the identical set.
	again := replayAll(t, l, 1)
	if len(again) != len(got) {
		t.Fatalf("second replay %d records, want %d", len(again), len(got))
	}
	l.Close()

	// Reopen: same contents, appends continue the sequence.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := replayAll(t, l2, 1); len(got) != 100 {
		t.Fatalf("reopen replayed %d, want 100", len(got))
	}
	seq, err := l2.Append([]byte("after"))
	if err != nil || seq != 101 {
		t.Fatalf("append after reopen: seq=%d err=%v", seq, err)
	}
}

// Append stages each record in one buffer and writes it once; the bytes
// on disk must stay exactly the documented framing, record after record,
// whatever the buffer held before (a long record followed by short ones).
func TestAppendFramingBytes(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ps := append([][]byte{bytes.Repeat([]byte{0xAB}, 5000), {}}, payloads(20)...)
	appendAll(t, l, ps)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, p := range ps {
		want = binary.BigEndian.AppendUint32(want, crc32.Checksum(p, crc32.MakeTable(crc32.Castagnoli)))
		want = binary.BigEndian.AppendUint32(want, uint32(len(p)))
		want = append(want, p...)
	}
	got, err := os.ReadFile(lastSegment(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("segment holds %d bytes that differ from the %d-byte reference framing", len(got), len(want))
	}
}

func TestWaitCommittedGroupCommit(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var last uint64
	for i := 0; i < 50; i++ {
		last, err = l.Append([]byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := l.WaitCommitted(last); err != nil {
		t.Fatal(err)
	}
	if c := l.Committed(); c < last {
		t.Fatalf("committed %d < appended %d after WaitCommitted", c, last)
	}
	st := l.Stats()
	if st.Syncs <= 0 {
		t.Fatalf("no sync batches recorded")
	}
	if st.Syncs >= st.Records {
		t.Logf("group commit batched %d records into %d syncs", st.Records, st.Syncs)
	}
}

func TestSegmentRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	ps := payloads(60)
	appendAll(t, l, ps)
	st := l.Stats()
	if st.Segments < 3 {
		t.Fatalf("expected multiple segments, got %d", st.Segments)
	}
	// Truncate the first half; replay must still yield everything >= 31,
	// and may retain earlier records (segment granularity), never lose
	// later ones.
	if err := l.TruncateBefore(31); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, l, 31)
	for i := 31; i <= 60; i++ {
		if !bytes.Equal(got[uint64(i)], ps[i-1]) {
			t.Fatalf("record %d lost or corrupted after truncate", i)
		}
	}
	if l.Stats().Segments >= st.Segments {
		t.Fatalf("truncate removed no segments (%d -> %d)", st.Segments, l.Stats().Segments)
	}
	l.Close()
	// Reopen after truncation: the log resumes from the surviving tail.
	l2, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got2 := replayAll(t, l2, 31)
	for i := 31; i <= 60; i++ {
		if !bytes.Equal(got2[uint64(i)], ps[i-1]) {
			t.Fatalf("record %d lost across reopen after truncate", i)
		}
	}
}

// lastSegment returns the path of the highest-numbered segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	starts, err := listSegments(dir)
	if err != nil || len(starts) == 0 {
		t.Fatalf("no segments in %s: %v", dir, err)
	}
	return filepath.Join(dir, fmt.Sprintf("wal-%016x.seg", starts[len(starts)-1]))
}

// TestCrashAtEveryByteBoundary is the crash-point injection suite: a log of
// known records is "killed" by truncating its file at EVERY byte offset —
// including every record boundary and every torn intermediate position —
// and each resulting directory must recover exactly the longest intact
// prefix, with the tear detected (never a corrupted record surfaced, never
// a panic).
func TestCrashAtEveryByteBoundary(t *testing.T) {
	master := t.TempDir()
	l, err := Open(master, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ps := payloads(12)
	appendAll(t, l, ps)
	l.Close()
	seg := lastSegment(t, master)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Record boundaries for prefix accounting.
	bounds := []int{0}
	off := 0
	for _, p := range ps {
		off += recordHeaderSize + len(p)
		bounds = append(bounds, off)
	}
	if off != len(data) {
		t.Fatalf("segment is %d bytes, records account for %d", len(data), off)
	}
	intactBelow := func(cut int) int {
		n := 0
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= cut {
				n = i
			}
		}
		return n
	}
	for cut := 0; cut <= len(data); cut++ {
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("cut%04d", cut))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(seg)), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rl, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		want := intactBelow(cut)
		got := replayAll(t, rl, 1)
		if len(got) != want {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(got), want)
		}
		for i := 1; i <= want; i++ {
			if !bytes.Equal(got[uint64(i)], ps[i-1]) {
				t.Fatalf("cut %d: record %d corrupted after recovery", cut, i)
			}
		}
		torn := cut != bounds[want]
		if torn && rl.Stats().TornBytes == 0 {
			t.Fatalf("cut %d: torn tail not detected", cut)
		}
		// Recovery must leave an appendable log: writes after the crash
		// continue the sequence cleanly.
		seq, err := rl.Append([]byte("resume"))
		if err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		if seq != uint64(want+1) {
			t.Fatalf("cut %d: append got seq %d, want %d", cut, seq, want+1)
		}
		rl.Close()
	}
}

// TestCorruptionMidFile flips a byte inside an interior record: CRC must
// detect it and recovery must stop at the last record before the damage
// (fsync ordering means nothing after it can be trusted).
func TestCorruptionMidFile(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ps := payloads(10)
	appendAll(t, l, ps)
	l.Close()
	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a payload byte of record 4 (header is 8 bytes per record).
	off := 0
	for i := 0; i < 3; i++ {
		off += recordHeaderSize + len(ps[i])
	}
	data[off+recordHeaderSize] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rl, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open over corruption: %v", err)
	}
	defer rl.Close()
	got := replayAll(t, rl, 1)
	if len(got) != 3 {
		t.Fatalf("recovered %d records past corruption, want 3", len(got))
	}
	if rl.Stats().TornBytes == 0 {
		t.Fatal("corruption not reported in TornBytes")
	}
}

// TestCrashDropsLaterSegments: a tear in an interior segment must also
// discard every later segment — records are fsynced in order, so data
// after a tear cannot be trusted even if its own CRCs validate.
func TestCrashDropsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	ps := payloads(40)
	appendAll(t, l, ps)
	if l.Stats().Segments < 3 {
		t.Fatalf("need >= 3 segments, got %d", l.Stats().Segments)
	}
	l.Close()
	starts, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the middle segment in half.
	mid := filepath.Join(dir, fmt.Sprintf("wal-%016x.seg", starts[1]))
	info, err := os.Stat(mid)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(mid, info.Size()/2+1); err != nil {
		t.Fatal(err)
	}
	rl, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatalf("open over interior tear: %v", err)
	}
	defer rl.Close()
	got := replayAll(t, rl, 1)
	maxSeq := uint64(0)
	for seq, p := range got {
		if !bytes.Equal(p, ps[seq-1]) {
			t.Fatalf("record %d corrupted", seq)
		}
		if seq > maxSeq {
			maxSeq = seq
		}
	}
	if maxSeq >= starts[2] {
		t.Fatalf("records from a post-tear segment survived (max seq %d, third segment starts at %d)", maxSeq, starts[2])
	}
	if uint64(len(got)) != maxSeq {
		t.Fatalf("recovered set has gaps: %d records, max seq %d", len(got), maxSeq)
	}
}

// TestPreFsyncLoss models a crash before the group commit: with NoSync the
// committed watermark is a lie the OS may not honor, so the test chops the
// tail back to a record boundary below the watermark and recovery must
// surface exactly the surviving prefix — never an error, never a gap.
func TestPreFsyncLoss(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	ps := payloads(20)
	appendAll(t, l, ps)
	l.Close()
	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Lose the last 5 records (the unsynced page-cache tail).
	keep := 0
	for i := 0; i < 15; i++ {
		keep += recordHeaderSize + len(ps[i])
	}
	if err := os.WriteFile(seg, data[:keep], 0o644); err != nil {
		t.Fatal(err)
	}
	rl, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()
	got := replayAll(t, rl, 1)
	if len(got) != 15 {
		t.Fatalf("recovered %d records, want the 15 durable ones", len(got))
	}
	if c := rl.Committed(); c != 15 {
		t.Fatalf("committed watermark %d after recovery, want 15", c)
	}
}

// TestCheckpointAtomicWrite models a crash mid-checkpoint: a stray temp
// file (the torn write) must not shadow the intact previous checkpoint.
func TestCheckpointAtomicWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "checkpoint.json")
	if err := WriteFileAtomic(path, []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	// Crash mid-rewrite: the temp file holds garbage, the rename never ran.
	if err := os.WriteFile(path+".tmp-crash", []byte(`{"v":2,"TORN`), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `{"v":1}` {
		t.Fatalf("previous checkpoint damaged: %q", data)
	}
	// A completed rewrite replaces it atomically.
	if err := WriteFileAtomic(path, []byte(`{"v":2}`)); err != nil {
		t.Fatal(err)
	}
	data, _ = os.ReadFile(path)
	if string(data) != `{"v":2}` {
		t.Fatalf("rewrite not visible: %q", data)
	}
}

// TestFlusherSurvivesRotationClose pins the rotation race deterministically:
// the flusher captures the active segment, then (held at the preSync hook)
// Append's rotation path syncs and CLOSES that very file before the
// flusher's own fsync runs. The resulting ErrClosed must be recognized as
// the benign rotation race — everything the flusher meant to cover was
// synced by rotation — not a sticky I/O failure that wedges the log.
func TestFlusherSurvivesRotationClose(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	l, err := Open(dir, Options{
		SegmentBytes: 64,
		preSync: func() {
			once.Do(func() {
				close(entered)
				<-gate
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Fill the active segment past the rotation threshold; the flusher
	// captures it and parks at the hook.
	if _, err := l.Append(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	<-entered
	// This append rotates: the captured segment is synced and closed under
	// the lock while the flusher still holds its *os.File.
	if _, err := l.Append([]byte("post-rotation")); err != nil {
		t.Fatal(err)
	}
	close(gate) // flusher now fsyncs the closed file
	seq, err := l.Append([]byte("after-race"))
	if err != nil {
		t.Fatalf("append after rotation race: %v", err)
	}
	if err := l.WaitCommitted(seq); err != nil {
		t.Fatalf("log failed after rotation race: %v", err)
	}
	if got := replayAll(t, l, 1); len(got) != 3 {
		t.Fatalf("replayed %d records, want 3", len(got))
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestRotationFlusherRace hammers group commit against segment rotation:
// tiny segments make Append rotate (sync + close the active file under the
// lock) on nearly every record while the flusher fsyncs the file it captured
// outside the lock. A flusher that treats the resulting ErrClosed as an I/O
// failure marks the log permanently failed — every appender here would start
// erroring out.
func TestRotationFlusherRace(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 4, 150
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := []byte{byte(g), 0, 0}
			for i := 0; i < perWriter; i++ {
				p[1], p[2] = byte(i), byte(i>>8)
				seq, err := l.Append(p)
				if err != nil {
					t.Errorf("writer %d append %d: %v", g, i, err)
					return
				}
				if err := l.WaitCommitted(seq); err != nil {
					t.Errorf("writer %d wait %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	l2, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := replayAll(t, l2, 1); len(got) != writers*perWriter {
		t.Fatalf("recovered %d records, want %d", len(got), writers*perWriter)
	}
}

func TestOversizeRecordRejected(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(make([]byte, MaxRecordBytes+1)); err == nil {
		t.Fatal("oversize append accepted")
	}
}

// FuzzWALRecord feeds arbitrary bytes as a segment file: Open/Replay must
// never panic, never allocate unboundedly, and only surface records whose
// CRC validates. A valid-prefix seed checks the decoder still recovers real
// records when the fuzzer mutates the tail.
func FuzzWALRecord(f *testing.F) {
	// Seed: two valid records followed by junk.
	seedDir := f.TempDir()
	l, err := Open(seedDir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	l.Append([]byte("hello"))
	l.Append([]byte("world"))
	l.Sync()
	l.Close()
	starts, _ := listSegments(seedDir)
	seed, _ := os.ReadFile(filepath.Join(seedDir, fmt.Sprintf("wal-%016x.seg", starts[0])))
	f.Add(seed)
	f.Add(append(append([]byte{}, seed...), 0xDE, 0xAD, 0xBE, 0xEF))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000001.seg"), data, 0o644); err != nil {
			t.Skip()
		}
		l, err := Open(dir, Options{})
		if err != nil {
			return // I/O errors are acceptable; panics are not
		}
		n := 0
		prev := uint64(0)
		l.Replay(1, func(seq uint64, p []byte) error {
			if seq != prev+1 {
				t.Fatalf("replay seq gap: %d after %d", seq, prev)
			}
			prev = seq
			if len(p) > MaxRecordBytes {
				t.Fatalf("oversize record surfaced: %d bytes", len(p))
			}
			n++
			return nil
		})
		// The log must stay appendable after decoding arbitrary input.
		if _, err := l.Append([]byte("post")); err != nil {
			t.Fatalf("append after fuzz open: %v", err)
		}
		l.Close()
	})
}
