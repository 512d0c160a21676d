package storage

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
)

const (
	walName  = "wal.log"
	snapName = "snapshot.spsnap"
	tmpExt   = ".tmp"
)

// FileEngine is the WAL + snapshot engine: every record is appended to
// an on-disk write-ahead log as a CRC-framed entry, fsync'd in groups
// at the provider's epoch-commit barrier, and periodically compacted
// into a snapshot file that is written to a temp file, fsync'd, and
// atomically renamed into place.
//
// Crash semantics: a record is durable once a Sync call that covers it
// returns. Records appended but not yet synced survive a process kill
// (the bytes are in the kernel page cache) but may be lost on power
// failure; replay handles the resulting torn tail by truncating at the
// first short or CRC-failing frame.
type FileEngine struct {
	dir string

	mu        sync.Mutex // guards everything below
	f         *os.File   // wal.log, append-only
	seq       uint64     // last assigned sequence number
	base      uint64     // BaseSeq of the current snapshot (0 if none)
	written   int64      // bytes appended to the WAL
	durable   int64      // bytes covered by the last fsync
	truncated int64      // torn-tail bytes dropped at open
	closed    bool

	syncMu sync.Mutex // serializes fsyncs; group commit queues here
}

// OpenFile opens (creating if needed) a file engine rooted at dir. It
// validates the existing snapshot, scans the WAL to find the last
// sequence number, and truncates any torn tail left by a crash.
func OpenFile(dir string) (*FileEngine, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create dir: %w", err)
	}
	// Leftover temp files are failed snapshot/rotation attempts from a
	// crash mid-compaction; the rename never happened, so they are dead.
	for _, name := range []string{walName + tmpExt, snapName + tmpExt} {
		_ = os.Remove(filepath.Join(dir, name))
	}
	e := &FileEngine{dir: dir}

	// Snapshot: validated fully at open so corruption fails loudly now,
	// not mid-recovery.
	_, base, err := readSnapshotFile(e.snapPath())
	if err != nil {
		return nil, err
	}
	e.base = base
	e.seq = base

	// WAL: scan for the last sequence number; truncate a torn tail.
	walPath := filepath.Join(dir, walName)
	buf, err := os.ReadFile(walPath)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("storage: read wal: %w", err)
	}
	good, scanErr := scanFrames(buf, func(seq uint64, rec Record) error {
		if seq > e.seq {
			e.seq = seq
		}
		return nil
	})
	if scanErr != nil && !errors.Is(scanErr, errShortFrame) && !errors.Is(scanErr, ErrCorrupt) {
		return nil, scanErr
	}
	if good < len(buf) {
		e.truncated = int64(len(buf) - good)
		if err := os.Truncate(walPath, int64(good)); err != nil {
			return nil, fmt.Errorf("storage: truncate torn wal tail: %w", err)
		}
	}
	f, err := os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open wal: %w", err)
	}
	e.f = f
	e.written = int64(good)
	e.durable = int64(good) // on disk at open ⇒ treated as durable
	return e, nil
}

func (e *FileEngine) snapPath() string { return filepath.Join(e.dir, snapName) }

// WALPath returns the path of the write-ahead log, exposed for the
// fault-injection harness's byte-level surgery.
func (e *FileEngine) WALPath() string { return filepath.Join(e.dir, walName) }

// DurableOffset returns the WAL byte offset covered by the last Sync.
// The fault harness only mutilates bytes past this offset: everything
// before it was promised durable.
func (e *FileEngine) DurableOffset() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.durable
}

// Append implements Engine. The frame is written to the OS immediately
// (so journal order matches state-change order even across goroutines)
// but not forced to media until Sync.
func (e *FileEngine) Append(rec Record) (uint64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return 0, ErrClosed
	}
	e.seq++
	frame := appendFrame(nil, e.seq, rec)
	n, err := e.f.Write(frame)
	e.written += int64(n)
	if err != nil {
		return 0, fmt.Errorf("storage: wal append: %w", err)
	}
	return e.seq, nil
}

// Sync implements Engine with group commit: concurrent callers queue on
// a single fsync, and a caller whose records were already covered by a
// flush that completed while it waited returns without another fsync.
func (e *FileEngine) Sync() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	target := e.written
	if e.durable >= target {
		e.mu.Unlock()
		return nil
	}
	e.mu.Unlock()

	e.syncMu.Lock()
	defer e.syncMu.Unlock()
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	if e.durable >= target {
		e.mu.Unlock()
		return nil
	}
	covers := e.written
	f := e.f
	e.mu.Unlock()

	if err := datasync(f); err != nil {
		return fmt.Errorf("storage: wal fsync: %w", err)
	}
	e.mu.Lock()
	if covers > e.durable {
		e.durable = covers
	}
	e.mu.Unlock()
	return nil
}

// LastSeq implements Engine.
func (e *FileEngine) LastSeq() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.seq
}

// WriteSnapshot implements Engine: write snapshot.tmp, fsync, rename
// over the old snapshot, then rewrite the WAL keeping only frames with
// seq > BaseSeq. A crash between the two steps is safe — replay skips
// WAL frames the snapshot already covers by sequence number.
func (e *FileEngine) WriteSnapshot(snap *Snapshot) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	// Encode: meta frame first, then records at seq 0.
	buf := appendFrame(nil, 0, &snapshotMeta{
		Version: snapshotVersion,
		BaseSeq: snap.BaseSeq,
		Count:   uint32(len(snap.Records)),
	})
	for _, rec := range snap.Records {
		buf = appendFrame(buf, 0, rec)
	}
	if err := atomicWrite(e.snapPath(), buf); err != nil {
		return err
	}
	e.base = snap.BaseSeq

	// Rotate the WAL: keep only frames newer than the snapshot. The
	// current file handle must be closed before renaming over it.
	walPath := filepath.Join(e.dir, walName)
	if err := e.f.Sync(); err != nil {
		return fmt.Errorf("storage: wal fsync before rotate: %w", err)
	}
	old, err := os.ReadFile(walPath)
	if err != nil {
		return fmt.Errorf("storage: read wal for rotate: %w", err)
	}
	var keep []byte
	if _, err := scanFrames(old, func(seq uint64, rec Record) error {
		if seq > snap.BaseSeq {
			keep = appendFrame(keep, seq, rec)
		}
		return nil
	}); err != nil {
		return fmt.Errorf("storage: rotate scan: %w", err)
	}
	if err := atomicWrite(walPath, keep); err != nil {
		return err
	}
	if err := e.f.Close(); err != nil {
		return fmt.Errorf("storage: close rotated wal: %w", err)
	}
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("storage: reopen rotated wal: %w", err)
	}
	e.f = f
	e.written = int64(len(keep))
	e.durable = int64(len(keep))
	if snap.BaseSeq > e.seq {
		e.seq = snap.BaseSeq
	}
	return nil
}

// Replay implements Engine, streaming the snapshot then the WAL tail
// from disk. Safe to call on a freshly opened engine; the torn tail
// was already truncated at open.
func (e *FileEngine) Replay(fn func(seq uint64, rec Record) error) (Stats, error) {
	e.mu.Lock()
	snapPath, walPath := e.snapPath(), filepath.Join(e.dir, walName)
	base, truncated := e.base, e.truncated
	e.mu.Unlock()

	st := Stats{TruncatedBytes: truncated}
	snapRecs, snapBase, err := readSnapshotFile(snapPath)
	if err != nil {
		return st, err
	}
	if snapBase != base {
		// Snapshot replaced since open (or concurrent compaction);
		// trust the file.
		base = snapBase
	}
	for _, rec := range snapRecs {
		if err := fn(0, rec); err != nil {
			return st, err
		}
		st.SnapshotRecords++
	}
	buf, err := os.ReadFile(walPath)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return st, fmt.Errorf("storage: read wal: %w", err)
	}
	_, scanErr := scanFrames(buf, func(seq uint64, rec Record) error {
		if seq <= base {
			return nil // already folded into the snapshot
		}
		if err := fn(seq, rec); err != nil {
			return err
		}
		st.WALRecords++
		return nil
	})
	if scanErr != nil && !errors.Is(scanErr, errShortFrame) {
		// errShortFrame can only appear if the file grew a torn tail
		// after open — tolerate it like open does; anything else is a
		// real failure (ErrCorrupt or an fn error).
		return st, scanErr
	}
	return st, nil
}

// Close implements Engine. It does not sync; callers wanting a clean
// shutdown call Sync (or WriteSnapshot) first.
func (e *FileEngine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	return e.f.Close()
}

// readSnapshotFile parses and validates a snapshot file. A missing file
// is an empty snapshot; a malformed one is ErrCorrupt — snapshots are
// written atomically, so unlike the WAL there is no tolerated torn
// tail.
func readSnapshotFile(path string) ([]Record, uint64, error) {
	buf, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("storage: read snapshot: %w", err)
	}
	if len(buf) == 0 {
		return nil, 0, nil
	}
	recs, base, err := parseSnapshot(buf)
	if err != nil {
		return nil, 0, fmt.Errorf("storage: snapshot %s: %w", filepath.Base(path), err)
	}
	return recs, base, nil
}

// atomicWrite writes data to path via a temp file, fsync, and rename,
// then fsyncs the directory so the rename itself is durable.
func atomicWrite(path string, data []byte) error {
	tmp := path + tmpExt
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("storage: create %s: %w", filepath.Base(tmp), err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("storage: write %s: %w", filepath.Base(tmp), err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("storage: fsync %s: %w", filepath.Base(tmp), err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("storage: close %s: %w", filepath.Base(tmp), err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("storage: rename %s: %w", filepath.Base(tmp), err)
	}
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		_ = dir.Sync()
		_ = dir.Close()
	}
	return nil
}

// TornTail simulates a torn write by cutting the last n bytes off the
// file at path — the tail of the final frame never reached the platter.
func TornTail(path string, n int64) error {
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	size := info.Size() - n
	if size < 0 {
		size = 0
	}
	return os.Truncate(path, size)
}

// CorruptTail simulates a partially flushed write by flipping a bit in
// each of the last n bytes of the file at path: the length is right but
// the content is garbage, so the CRC must catch it.
func CorruptTail(path string, n int64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return err
	}
	start := info.Size() - n
	if start < 0 {
		start = 0
	}
	buf := make([]byte, info.Size()-start)
	if _, err := f.ReadAt(buf, start); err != nil {
		return err
	}
	for i := range buf {
		buf[i] ^= 0x5a
	}
	_, err = f.WriteAt(buf, start)
	return err
}

// parseSnapshot decodes an encoded snapshot file.
func parseSnapshot(buf []byte) ([]Record, uint64, error) {
	var meta *snapshotMeta
	var recs []Record
	if _, err := scanFrames(buf, func(_ uint64, rec Record) error {
		if meta == nil {
			m, ok := rec.(*snapshotMeta)
			if !ok {
				return fmt.Errorf("%w: snapshot missing meta record", ErrCorrupt)
			}
			if m.Version != snapshotVersion {
				return fmt.Errorf("storage: snapshot version %d unsupported", m.Version)
			}
			meta = m
			return nil
		}
		recs = append(recs, rec)
		return nil
	}); err != nil {
		return nil, 0, err
	}
	if meta == nil || int(meta.Count) != len(recs) {
		return nil, 0, fmt.Errorf("%w: snapshot record count", ErrCorrupt)
	}
	return recs, meta.BaseSeq, nil
}
