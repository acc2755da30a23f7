package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/bat"
	"repro/internal/catalog"
)

// The write-ahead log is a directory of numbered segment files, each a
// sequence of CRC32-checked frames holding one catalog.Commit per
// frame. Appends go to the newest segment; a checkpoint rotates to
// a fresh segment before exporting the catalog, so every record in an
// older segment is guaranteed to be covered by the snapshot (records
// race into the *new* segment during the export, which is harmless:
// each record carries its commit sequence number and replay skips
// anything the snapshot already contains).
//
// Durability is batched: appends land in the OS page cache immediately
// and a background syncer fsyncs the segment at most every SyncEvery.
// SyncEvery = 0 degrades to one fsync per commit (group commit off).
// A crash can therefore lose up to SyncEvery of committed statements —
// and, independently, tear the final record mid-write. Replay detects
// a torn or checksum-failing tail frame, truncates the segment back to
// the last whole record and stops; torn frames anywhere but the final
// segment's tail are real corruption and fail recovery.

type wal struct {
	dir string

	// syncMu serialises the fsyncs — the syncer's, a rotation's and
	// close's — and is what keeps the active file open while one runs:
	// only rotate and close, which hold it, replace or close w.f. An
	// append takes only mu, so a commit never waits out an fsync under
	// the catalog write lock (with group commit on).
	syncMu sync.Mutex

	mu      sync.Mutex // guards f, seg, dirty, pending; taken after syncMu
	f       *os.File
	seg     int
	dirty   bool
	pending int // records appended since the last fsync (batch size)

	syncEvery time.Duration
	// onFsync, when set, observes each fsync: the number of records the
	// batch covered and the fsync's own duration. It runs under syncMu,
	// outside mu — and, with group commit off, inside the catalog's
	// commit hook — so it must be cheap and lock-free (histogram
	// observations; never trace-recorder calls).
	onFsync func(records int, d time.Duration)
	// onSyncErr latches a background fsync's failure: its records were
	// acknowledged and may not be durable, and nothing else reports it.
	onSyncErr func(error)
	stopc     chan struct{}
	done      chan struct{}
}

func segName(n int) string { return fmt.Sprintf("wal-%08d.log", n) }

// listSegments returns the existing segment paths in ascending order.
func listSegments(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		var n int
		if _, err := fmt.Sscanf(e.Name(), "wal-%08d.log", &n); err == nil {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	paths := make([]string, len(names))
	for i, n := range names {
		paths[i] = filepath.Join(dir, n)
	}
	return paths, nil
}

// openWAL opens the log directory for appending. Existing segments are
// left untouched (recovery reads them); appends always start a fresh
// segment so a truncated tail is never appended after.
func openWAL(dir string, syncEvery time.Duration, onFsync func(int, time.Duration), onSyncErr func(error)) (*wal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	next := 1
	if len(segs) > 0 {
		fmt.Sscanf(filepath.Base(segs[len(segs)-1]), "wal-%08d.log", &next)
		next++
	}
	w := &wal{dir: dir, seg: next, syncEvery: syncEvery, onFsync: onFsync, onSyncErr: onSyncErr}
	if err := w.openSegmentLocked(); err != nil {
		return nil, err
	}
	if syncEvery > 0 {
		w.stopc = make(chan struct{})
		w.done = make(chan struct{})
		go w.syncLoop()
	}
	return w, nil
}

// openSegmentLocked creates the active segment file. Caller holds w.mu
// (or is the constructor).
func (w *wal) openSegmentLocked() error {
	f, err := os.OpenFile(filepath.Join(w.dir, segName(w.seg)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w.f = f
	return nil
}

// append frames one payload onto the active segment. With batching
// enabled the write is durable only after the next background fsync;
// with it off, append fsyncs before it returns.
func (w *wal) append(payload []byte) error {
	if err := w.write(payload); err != nil || w.syncEvery > 0 {
		return err
	}
	return w.sync()
}

// write frames one payload onto the active segment under mu.
func (w *wal) write(payload []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("store: wal is closed")
	}
	if err := writeFrame(w.f, payload); err != nil {
		return err
	}
	w.pending++
	w.dirty = true
	return nil
}

// sync flushes the active segment if it has unsynced appends.
func (w *wal) sync() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	f, n := w.f, w.pending
	if f == nil || !w.dirty {
		w.mu.Unlock()
		return nil
	}
	w.dirty, w.pending = false, 0
	w.mu.Unlock()
	return w.fsync(f, n)
}

// fsync flushes f, a batch of n records. Caller holds syncMu, so f
// stays open.
func (w *wal) fsync(f *os.File, n int) error {
	if w.onFsync == nil {
		return f.Sync()
	}
	t0 := time.Now()
	err := f.Sync()
	w.onFsync(n, time.Since(t0))
	return err
}

func (w *wal) syncLoop() {
	defer close(w.done)
	t := time.NewTicker(w.syncEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := w.sync(); err != nil && w.onSyncErr != nil {
				w.onSyncErr(err)
			}
		case <-w.stopc:
			return
		}
	}
}

// rotate makes the next segment the active one, then syncs and closes
// the retired one, and returns the paths of all older segments (the
// checkpoint deletes them once the snapshot is durable). Appends go to
// the next segment while the retired one syncs.
func (w *wal) rotate() ([]string, error) {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	if w.f == nil {
		w.mu.Unlock()
		return nil, fmt.Errorf("store: wal is closed")
	}
	retired, seg, dirty, n := w.f, w.seg, w.dirty, w.pending
	w.seg++
	if err := w.openSegmentLocked(); err != nil {
		w.seg--
		w.mu.Unlock()
		return nil, err
	}
	w.dirty, w.pending = false, 0
	w.mu.Unlock()
	if dirty {
		if err := w.fsync(retired, n); err != nil {
			retired.Close()
			return nil, err
		}
	}
	if err := retired.Close(); err != nil {
		return nil, err
	}
	old := make([]string, 0, seg)
	for n := 1; n <= seg; n++ {
		p := filepath.Join(w.dir, segName(n))
		if _, err := os.Stat(p); err == nil {
			old = append(old, p)
		}
	}
	return old, nil
}

// close stops the syncer and durably closes the active segment.
func (w *wal) close() error {
	if w.stopc != nil {
		close(w.stopc)
		<-w.done
		w.stopc = nil
	}
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	f, dirty, n := w.f, w.dirty, w.pending
	w.f = nil
	w.mu.Unlock()
	if f == nil {
		return nil
	}
	var err error
	if dirty {
		err = w.fsync(f, n)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// replayWAL reads every segment in order and applies each record with
// Seq > minSeq. A torn tail in the final segment is truncated away and
// reported through tornTail; a torn frame anywhere else fails. Returns
// the number of records applied.
func replayWAL(dir string, minSeq uint64, apply func(catalog.Commit, []string) error) (applied int, tornTail bool, err error) {
	segs, err := listSegments(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, false, nil
		}
		return 0, false, err
	}
	for i, seg := range segs {
		last := i == len(segs)-1
		n, torn, err := replaySegment(seg, last, minSeq, apply)
		applied += n
		if err != nil {
			return applied, torn, err
		}
		if torn {
			tornTail = true
		}
	}
	return applied, tornTail, nil
}

func replaySegment(path string, last bool, minSeq uint64, apply func(catalog.Commit, []string) error) (applied int, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	var good int64
	for {
		payload, rerr := readFrame(f)
		if rerr == io.EOF {
			return applied, false, nil
		}
		if rerr == errTornFrame {
			if !last {
				return applied, false, fmt.Errorf("store: corrupt WAL frame mid-log in %s", filepath.Base(path))
			}
			// Crash mid-append: discard the torn tail so it is never
			// replayed, and never appended after (appends use a fresh
			// segment anyway; the truncate keeps the log tidy).
			f.Close()
			if terr := os.Truncate(path, good); terr != nil {
				return applied, true, terr
			}
			return applied, true, nil
		}
		if rerr != nil {
			return applied, false, rerr
		}
		rec, names, derr := decodeCommit(payload)
		if derr != nil {
			return applied, false, fmt.Errorf("store: undecodable WAL record in %s: %w", filepath.Base(path), derr)
		}
		if rec.Seq > minSeq {
			if aerr := apply(rec, names); aerr != nil {
				return applied, false, aerr
			}
			applied++
		}
		pos, perr := f.Seek(0, io.SeekCurrent)
		if perr != nil {
			return applied, false, perr
		}
		good = pos
	}
}

// --- commit record codec --------------------------------------------------

// encodeCommit encodes a commit the catalog built. An insert lists its
// vectors by column name, in the table's column order; replay matches
// them by name, so a log that listed them in another order recovers.
func encodeCommit(c catalog.Commit) []byte {
	e := &enc{}
	e.u8(uint8(c.Kind))
	e.u64(c.Seq)
	e.str(c.Schema)
	e.str(c.Name)
	switch c.Kind {
	case catalog.CommitCreate:
		e.u32(uint32(len(c.Cols)))
		for _, d := range c.Cols {
			e.str(d.Name)
			e.u8(uint8(d.Kind))
			if d.Sorted {
				e.u8(1)
			} else {
				e.u8(0)
			}
		}
	case catalog.CommitInsert:
		e.u64(uint64(c.FirstOid))
		e.u32(uint32(c.NumRows))
		e.u32(uint32(len(c.Inserts)))
		for i, v := range c.Inserts {
			e.str(c.Table.Cols[i].Name)
			encodeVector(e, v)
		}
	case catalog.CommitDelete:
		e.u32(uint32(len(c.Deleted)))
		for _, o := range c.Deleted {
			e.u64(uint64(o))
		}
	case catalog.CommitDrop:
	}
	return e.b
}

// decodeCommit decodes one record; for an insert, names holds the
// column name of each of its vectors.
func decodeCommit(payload []byte) (c catalog.Commit, names []string, err error) {
	d := &dec{b: payload}
	c = catalog.Commit{
		Kind:   catalog.CommitKind(d.u8()),
		Seq:    d.u64(),
		Schema: d.str(),
		Name:   d.str(),
	}
	switch c.Kind {
	case catalog.CommitCreate:
		n := int(d.u32())
		for i := 0; i < n && !d.fail; i++ {
			def := catalog.ColDef{Name: d.str(), Kind: d.kind(), Sorted: d.u8() != 0}
			c.Cols = append(c.Cols, def)
		}
	case catalog.CommitInsert:
		c.FirstOid = bat.Oid(d.u64())
		c.NumRows = int(d.u32())
		// A column is at least its name's length prefix, a vector tag
		// and a count.
		n := d.count(int(d.u32()), 4+1+8)
		names = make([]string, 0, n)
		c.Inserts = make([]bat.Vector, 0, n)
		for i := 0; i < n && !d.fail; i++ {
			names = append(names, d.str())
			v := decodeVector(d)
			if v.Len() != c.NumRows {
				d.fail = true // a vector of another length than the record's
			}
			c.Inserts = append(c.Inserts, v)
		}
	case catalog.CommitDelete:
		n := d.count(int(d.u32()), 8)
		c.Deleted = make([]bat.Oid, n)
		for i := range c.Deleted {
			c.Deleted[i] = bat.Oid(d.u64())
		}
	case catalog.CommitDrop:
	default:
		// Kinds 3 (in-place update) and 5 (an event for listeners
		// only) are reserved and never written: a record carrying one,
		// or any other kind, is corrupt, not skippable.
		return c, nil, ErrCorrupt
	}
	if !d.done() {
		return c, nil, ErrCorrupt
	}
	return c, names, nil
}
