// Package wal is a segmented write-ahead log with CRC-framed records and
// fsync-batched group commit — the durability substrate under the engine's
// crash recovery. It is deliberately generic: payloads are opaque byte
// slices, sequence numbers are assigned densely from 1, and the engine
// layers its own record types (ingress batches) and checkpoint files on
// top.
//
// On-disk format. A log is a directory of segment files named
// wal-<%016x>.seg, where the hex field is the sequence number of the
// segment's first record. Each record is framed as
//
//	uint32 crc32c(payload) | uint32 len(payload) | payload
//
// with big-endian integers and CRC-32 (Castagnoli). Records never span
// segments. A crash can leave a torn tail — a partially written final
// record — which Open detects by short read or CRC mismatch and truncates;
// everything before the tear is intact by construction (records are
// written in order and fsynced in order).
//
// Group commit. Append serializes framing under a mutex and writes into
// the active segment's OS buffer, then returns; a dedicated flusher
// goroutine fsyncs the segment and advances the committed watermark,
// batching every append that landed while the previous fsync was in
// flight. Callers that need durability (e.g. before acking a batch
// upstream) block on WaitCommitted(seq), so one fsync commits every
// record appended since the last one — classic group commit.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// MaxRecordBytes bounds one record's payload; larger appends are rejected
// and larger length prefixes on disk are treated as corruption (bounding
// the reader's allocation no matter what a torn length field claims).
const MaxRecordBytes = 4 << 20

// DefaultSegmentBytes is the segment rotation threshold.
const DefaultSegmentBytes = 1 << 20

const recordHeaderSize = 8 // crc32 + len

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// Options tunes a log.
type Options struct {
	// SegmentBytes rotates the active segment once it exceeds this size.
	// <= 0 selects DefaultSegmentBytes.
	SegmentBytes int
	// NoSync skips the physical fsync syscalls (the committed watermark
	// still advances). Test hook modeling a volatile page cache: crash
	// simulations chop the file tail to stand in for the lost writes.
	NoSync bool
	// preSync, when non-nil, runs in the flusher between capturing the
	// active segment and fsyncing it — a test hook (unexported, so only
	// in-package tests can set it) that widens the race window against
	// Append's segment rotation.
	preSync func()
}

// Stats is a snapshot of a log's accounting.
type Stats struct {
	FirstSeq  uint64 // lowest replayable sequence number (0 when empty)
	LastSeq   uint64 // highest appended sequence number (0 when empty)
	Committed uint64 // highest durable (fsynced) sequence number
	Records   int64  // records appended this process lifetime
	Bytes     int64  // payload bytes appended this process lifetime
	Syncs     int64  // fsync batches issued (group commits)
	Segments  int    // live segment files
	TornBytes int64  // bytes discarded at Open (torn tail / trailing corruption)
}

// Log is a segmented write-ahead log. Safe for concurrent use.
type Log struct {
	dir string
	opt Options

	mu       sync.Mutex
	cond     *sync.Cond // wakes the flusher
	commitMu sync.Mutex
	commitCh *sync.Cond // broadcast when committed advances
	// closed/failed mirrors guarded by commitMu, so WaitCommitted never
	// has to take l.mu (lock order is always mu → commitMu).
	commitClosed bool
	commitErr    error

	f        *os.File // active segment
	segStart uint64   // first seq of the active segment
	segSize  int64
	segments []uint64 // start seq of every live segment, ascending (incl. active)

	firstSeq  uint64
	nextSeq   uint64 // seq the next Append receives
	appended  uint64 // highest seq written into the OS buffer
	synced    uint64 // highest seq covered by a finished fsync
	committed uint64 // published watermark (== synced, guarded by commitMu)

	records   int64
	bytes     int64
	syncs     int64
	tornBytes int64

	closed  bool
	failed  error // sticky I/O failure; appends error out after it
	flushed chan struct{}

	rec []byte // Append's framing buffer (under mu): header + payload, one write
}

// Open opens (creating if necessary) the log in dir, scanning existing
// segments and truncating any torn tail left by a crash.
func Open(dir string, opt Options) (*Log, error) {
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: mkdir %s: %w", dir, err)
	}
	l := &Log{dir: dir, opt: opt, flushed: make(chan struct{})}
	l.cond = sync.NewCond(&l.mu)
	l.commitCh = sync.NewCond(&l.commitMu)
	if err := l.scan(); err != nil {
		return nil, err
	}
	go l.flusher()
	return l, nil
}

// segPath names the segment whose first record has the given seq.
func (l *Log) segPath(start uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("wal-%016x.seg", start))
}

// listSegments returns the start seqs of on-disk segments, ascending.
func listSegments(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: reading %s: %w", dir, err)
	}
	var starts []uint64
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
			continue
		}
		v, err := strconv.ParseUint(name[4:len(name)-4], 16, 64)
		if err != nil {
			continue
		}
		starts = append(starts, v)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	return starts, nil
}

// scan walks existing segments in seq order, validating records until the
// first tear or corruption; everything from that point on (including any
// later segments) is discarded, matching the fsync order guarantee.
func (l *Log) scan() error {
	starts, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	next := uint64(1)
	if len(starts) > 0 {
		next = starts[0]
		l.firstSeq = starts[0]
	}
	valid := true
	for i, start := range starts {
		if !valid || start != next {
			// Either a previous segment ended in a tear, or the chain has a
			// gap: later records cannot be trusted (fsync order means they
			// may predate the lost ones). Drop the file.
			if info, err := os.Stat(l.segPath(start)); err == nil {
				l.tornBytes += info.Size()
			}
			if err := os.Remove(l.segPath(start)); err != nil {
				return fmt.Errorf("wal: dropping orphaned segment: %w", err)
			}
			starts[i] = 0 // mark removed
			valid = false
			continue
		}
		n, endOff, err := scanSegment(l.segPath(start))
		if err != nil {
			return err
		}
		next = start + uint64(n)
		info, statErr := os.Stat(l.segPath(start))
		if statErr == nil && info.Size() > endOff {
			// Torn tail: truncate to the last intact record.
			l.tornBytes += info.Size() - endOff
			if err := os.Truncate(l.segPath(start), endOff); err != nil {
				return fmt.Errorf("wal: truncating torn tail: %w", err)
			}
			valid = false // later segments are untrustworthy
		}
	}
	kept := starts[:0]
	for _, s := range starts {
		if s != 0 {
			if _, err := os.Stat(l.segPath(s)); err == nil {
				kept = append(kept, s)
			}
		}
	}
	l.segments = append([]uint64(nil), kept...)
	l.nextSeq = next
	l.appended = next - 1
	l.synced = next - 1
	l.committed = next - 1
	if l.firstSeq == 0 {
		l.firstSeq = 1
	}

	// Open (or create) the active segment: the last on-disk segment if it
	// has room, a fresh one otherwise.
	if len(l.segments) > 0 {
		last := l.segments[len(l.segments)-1]
		info, err := os.Stat(l.segPath(last))
		if err == nil && info.Size() < int64(l.opt.SegmentBytes) {
			f, err := os.OpenFile(l.segPath(last), os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return fmt.Errorf("wal: reopening segment: %w", err)
			}
			l.f = f
			l.segStart = last
			l.segSize = info.Size()
			return nil
		}
	}
	return l.newSegmentLocked()
}

// scanSegment validates one segment file, returning the number of intact
// records and the byte offset just past the last one.
func scanSegment(path string) (n int, endOff int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: opening segment: %w", err)
	}
	defer f.Close()
	var hdr [recordHeaderSize]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			return n, endOff, nil // clean EOF or torn header: stop here
		}
		crc := binary.BigEndian.Uint32(hdr[0:4])
		ln := binary.BigEndian.Uint32(hdr[4:8])
		if ln > MaxRecordBytes {
			return n, endOff, nil // corrupt length field
		}
		if cap(payload) < int(ln) {
			payload = make([]byte, ln)
		}
		payload = payload[:ln]
		if _, err := io.ReadFull(f, payload); err != nil {
			return n, endOff, nil // torn payload
		}
		if crc32.Checksum(payload, castagnoli) != crc {
			return n, endOff, nil // corruption: end of trustworthy log
		}
		n++
		endOff += recordHeaderSize + int64(ln)
	}
}

// newSegmentLocked rotates to a fresh segment starting at nextSeq. Callers
// hold l.mu (or are inside Open before the flusher starts).
func (l *Log) newSegmentLocked() error {
	start := l.nextSeq
	f, err := os.OpenFile(l.segPath(start), os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	l.f = f
	l.segStart = start
	l.segSize = 0
	l.segments = append(l.segments, start)
	return nil
}

// Append frames payload into the active segment and returns its sequence
// number. The record is buffered (not yet durable): pair with
// WaitCommitted to block until the group-commit fsync covers it. Header
// and payload go out in one write, staged in a buffer the log reuses.
func (l *Log) Append(payload []byte) (uint64, error) {
	if len(payload) > MaxRecordBytes {
		return 0, fmt.Errorf("wal: record %d bytes exceeds cap %d", len(payload), MaxRecordBytes)
	}
	crc := crc32.Checksum(payload, castagnoli)

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.failed != nil {
		return 0, l.failed
	}
	if l.segSize >= int64(l.opt.SegmentBytes) {
		// Rotate: fsync and close the filled segment first, so the
		// committed watermark can always advance segment by segment.
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
		l.f.Close()
		if err := l.newSegmentLocked(); err != nil {
			l.fail(err)
			return 0, err
		}
	}
	size := recordHeaderSize + len(payload)
	rec := slices.Grow(l.rec[:0], size)[:size]
	binary.BigEndian.PutUint32(rec[0:4], crc)
	binary.BigEndian.PutUint32(rec[4:8], uint32(len(payload)))
	copy(rec[recordHeaderSize:], payload)
	l.rec = rec
	if _, err := l.f.Write(rec); err != nil {
		l.fail(err)
		return 0, err
	}
	seq := l.nextSeq
	l.nextSeq++
	l.appended = seq
	l.segSize += recordHeaderSize + int64(len(payload))
	l.records++
	l.bytes += int64(len(payload))
	l.cond.Signal()
	return seq, nil
}

// syncLocked fsyncs the active segment and publishes the watermark; callers
// hold l.mu.
func (l *Log) syncLocked() error {
	if l.appended <= l.synced {
		return nil
	}
	if !l.opt.NoSync {
		if err := l.f.Sync(); err != nil {
			l.fail(err)
			return err
		}
	}
	l.syncs++
	l.synced = l.appended
	l.publishCommitted(l.synced)
	return nil
}

func (l *Log) publishCommitted(seq uint64) {
	l.commitMu.Lock()
	if seq > l.committed {
		l.committed = seq
		l.commitCh.Broadcast()
	}
	l.commitMu.Unlock()
}

// flusher is the group-commit goroutine: whenever records are appended
// beyond the synced watermark it issues one fsync covering all of them.
func (l *Log) flusher() {
	defer close(l.flushed)
	for {
		l.mu.Lock()
		for !l.closed && l.failed == nil && l.appended <= l.synced {
			l.cond.Wait()
		}
		if l.failed != nil || (l.closed && l.appended <= l.synced) {
			l.mu.Unlock()
			return
		}
		target := l.appended
		f := l.f
		noSync := l.opt.NoSync
		l.mu.Unlock()

		if l.opt.preSync != nil {
			l.opt.preSync()
		}
		var err error
		if !noSync {
			err = f.Sync()
		}

		l.mu.Lock()
		if err != nil {
			if l.f != f {
				// The segment rotated while our fsync was in flight: Append's
				// rotation path syncs the old file (advancing l.synced past
				// target) before closing it, so every record this batch meant
				// to cover is already durable and the error is the close
				// racing the fsync, not an I/O failure. Go around again for
				// whatever landed in the new segment.
				l.mu.Unlock()
				continue
			}
			l.fail(err)
			l.mu.Unlock()
			return
		}
		l.syncs++
		if target > l.synced {
			l.synced = target
		}
		done := l.closed && l.appended <= l.synced
		synced := l.synced
		l.mu.Unlock()
		l.publishCommitted(synced)
		if done {
			return
		}
	}
}

// Committed returns the highest durable sequence number.
func (l *Log) Committed() uint64 {
	l.commitMu.Lock()
	defer l.commitMu.Unlock()
	return l.committed
}

// WaitCommitted blocks until the group commit covers seq (or the log
// closes/fails, returning the error).
func (l *Log) WaitCommitted(seq uint64) error {
	l.commitMu.Lock()
	defer l.commitMu.Unlock()
	for l.committed < seq {
		if l.commitErr != nil {
			return l.commitErr
		}
		if l.commitClosed {
			return ErrClosed
		}
		l.commitCh.Wait()
	}
	return nil
}

// fail records a sticky I/O failure; callers hold l.mu.
func (l *Log) fail(err error) {
	if l.failed == nil {
		l.failed = err
	}
	l.commitMu.Lock()
	if l.commitErr == nil {
		l.commitErr = err
	}
	l.commitCh.Broadcast()
	l.commitMu.Unlock()
}

// Sync forces an immediate group commit covering every appended record.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

// Replay streams records with sequence numbers >= from, in order, to fn.
// Stops early if fn returns an error. Callers must not Append concurrently
// (recovery runs before serving) — Replay reads the segment files, which
// see every record Append has written (OS-buffered writes are visible to
// readers of the same file).
func (l *Log) Replay(from uint64, fn func(seq uint64, payload []byte) error) error {
	l.mu.Lock()
	segs := append([]uint64(nil), l.segments...)
	last := l.appended
	l.mu.Unlock()
	for i, start := range segs {
		end := last + 1
		if i+1 < len(segs) {
			end = segs[i+1]
		}
		if end <= from && end > start {
			continue // whole segment below the replay point
		}
		if err := replaySegment(l.segPath(start), start, from, fn); err != nil {
			return err
		}
	}
	return nil
}

func replaySegment(path string, start, from uint64, fn func(uint64, []byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("wal: replay open: %w", err)
	}
	defer f.Close()
	var hdr [recordHeaderSize]byte
	var payload []byte
	seq := start
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			return nil
		}
		crc := binary.BigEndian.Uint32(hdr[0:4])
		ln := binary.BigEndian.Uint32(hdr[4:8])
		if ln > MaxRecordBytes {
			return nil
		}
		if cap(payload) < int(ln) {
			payload = make([]byte, ln)
		}
		payload = payload[:ln]
		if _, err := io.ReadFull(f, payload); err != nil {
			return nil
		}
		if crc32.Checksum(payload, castagnoli) != crc {
			return nil
		}
		if seq >= from {
			if err := fn(seq, payload); err != nil {
				return err
			}
		}
		seq++
	}
}

// TruncateBefore releases records with sequence numbers < seq at segment
// granularity: whole segments whose every record is below seq are deleted.
// The active segment is never deleted.
func (l *Log) TruncateBefore(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	kept := l.segments[:0]
	for i, start := range l.segments {
		end := l.nextSeq // one past the last record of the final segment
		if i+1 < len(l.segments) {
			end = l.segments[i+1]
		}
		if end <= seq && start != l.segStart {
			if err := os.Remove(l.segPath(start)); err != nil {
				return fmt.Errorf("wal: truncate: %w", err)
			}
			continue
		}
		kept = append(kept, start)
	}
	l.segments = kept
	if len(l.segments) > 0 && l.segments[0] > l.firstSeq {
		l.firstSeq = l.segments[0]
	}
	return nil
}

// Stats snapshots the log's accounting.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := Stats{
		LastSeq:   l.appended,
		Records:   l.records,
		Bytes:     l.bytes,
		Syncs:     l.syncs,
		Segments:  len(l.segments),
		TornBytes: l.tornBytes,
	}
	if l.appended >= l.firstSeq {
		s.FirstSeq = l.firstSeq
	}
	l.commitMu.Lock()
	s.Committed = l.committed
	l.commitMu.Unlock()
	return s
}

// Close flushes outstanding records, stops the flusher and closes the
// active segment.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.cond.Signal()
	l.mu.Unlock()
	<-l.flushed
	l.commitMu.Lock()
	l.commitClosed = true
	l.commitCh.Broadcast()
	l.commitMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.syncLocked() // flusher may have exited before the last batch
	if l.f != nil {
		if cerr := l.f.Close(); err == nil {
			err = cerr
		}
		l.f = nil
	}
	return err
}

// WriteFileAtomic writes data to path via a temp file + rename, so readers
// never observe a partially written file — the checkpoint discipline: a
// crash mid-write leaves the previous checkpoint intact.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
}
