package store

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bat"
	"repro/internal/catalog"
)

// Options parametrise a Store.
type Options struct {
	// SyncEvery is the WAL fsync batching window: commits become
	// durable at most this long after they are acknowledged. 0 fsyncs
	// every commit (maximum durability, minimum throughput).
	SyncEvery time.Duration
	// OnFsync, when set, observes every WAL fsync batch: how many
	// commit records the batch covered and the fsync's duration. The
	// callback runs after the fsync, one at a time but outside the
	// lock appends take — and, when group commit is off, inside the
	// catalog's commit hook — so it must be cheap and wait-free (a
	// histogram observation; never a trace-recorder call).
	OnFsync func(records int, d time.Duration)
}

// Store is the persistence subsystem: an append-only WAL of committed
// DML, periodic full columnar snapshots, and the recycle pool image a
// graceful drain leaves for the next boot. One Store owns one data
// directory:
//
//	<dir>/snapshot.dat   latest full checkpoint
//	<dir>/wal/           commit log segments since that checkpoint
//	<dir>/pool.img       the pool image of the last graceful drain
//
// Lifecycle: Open the directory, then either Recover (a snapshot
// exists: rebuild the catalog and replay the WAL tail) or Bootstrap
// (fresh directory: attach to a generated catalog and write the
// initial checkpoint). Either path leaves the store attached — every
// subsequent committed statement is WAL-logged via the catalog's
// commit hook, in commit order, before Checkpoint folds the log back
// into a new snapshot.
type Store struct {
	dir  string
	opts Options

	wal   *wal
	spill *Spill

	mu  sync.Mutex // serialises Checkpoint/Close against each other
	cat *catalog.Catalog

	// walErr latches the first WAL append or background fsync failure
	// (e.g. disk full) since the last successful checkpoint. Commits are never blocked
	// on it — the engine stays available — but Checkpoint and Close
	// surface it as "durability was degraded in this window". A
	// successful checkpoint clears it: the new snapshot covers every
	// committed statement, logged or not, so durability is whole again.
	walErr atomic.Pointer[error]

	// TornTail reports that recovery found (and discarded) a torn
	// final WAL record — the expected artefact of a crash mid-append.
	TornTail bool
	// Replayed counts the WAL records applied by Recover.
	Replayed int
}

// Open prepares a store over the data directory, creating it if
// needed. No catalog is attached yet: call Recover or Bootstrap.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Store{dir: dir, opts: opts, spill: &Spill{path: filepath.Join(dir, imageFile)}}, nil
}

// HasSnapshot reports whether the directory holds a checkpoint to
// recover from.
func (s *Store) HasSnapshot() bool {
	_, err := os.Stat(filepath.Join(s.dir, snapshotFile))
	return err == nil
}

// Spill returns the store of the recycle pool image (never nil).
func (s *Store) Spill() *Spill { return s.spill }

// Err returns the WAL append or fsync error latched since the last
// successful checkpoint, if any.
func (s *Store) Err() error {
	if p := s.walErr.Load(); p != nil {
		return *p
	}
	return nil
}

// Recover rebuilds the catalog: load the latest snapshot, replay the
// WAL tail (skipping records the snapshot already covers, discarding a
// torn final record), rebuild the derived indexes, and attach the
// commit hook so new statements are logged.
func (s *Store) Recover() (*catalog.Catalog, error) {
	tables, seq, ok, err := loadSnapshot(s.dir)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("store: no snapshot in %s (fresh directory? use Bootstrap)", s.dir)
	}
	cat := catalog.New()
	for _, ts := range tables {
		if _, err := cat.ImportTable(ts); err != nil {
			return nil, err
		}
	}
	// Join indexes after all tables exist (parents may import later).
	for _, ts := range tables {
		t := cat.MustTable(ts.Schema, ts.Name)
		for _, j := range ts.JoinIndexes {
			parent := cat.Table(j.ParentSchema, j.ParentName)
			if parent == nil {
				return nil, fmt.Errorf("store: join index %s on %s.%s references missing table %s.%s",
					j.Name, ts.Schema, ts.Name, j.ParentSchema, j.ParentName)
			}
			t.DefineJoinIndex(j.Name, j.FKCol, parent, j.ParentKey)
		}
	}
	cat.RestoreCommitSeq(seq)
	applied, torn, err := replayWAL(filepath.Join(s.dir, "wal"), seq, func(rec catalog.Commit, names []string) error {
		// Continuity check: the log must hold every commit after the
		// snapshot. A gap means an append failed mid-run (the latched
		// walErr was never surfaced by a checkpoint before the crash)
		// and the statements after it replayed onto the wrong state —
		// fail loudly rather than recover a silently divergent catalog.
		if want := cat.CommitSeq() + 1; rec.Seq != want {
			return fmt.Errorf("store: WAL gap: expected commit seq %d, found %d (an append failed before the crash)", want, rec.Seq)
		}
		return applyCommit(cat, rec, names)
	})
	if err != nil {
		return nil, err
	}
	s.Replayed, s.TornTail = applied, torn
	if err := s.attach(cat); err != nil {
		return nil, err
	}
	return cat, nil
}

// Bootstrap attaches the store to a freshly generated catalog and
// writes the initial checkpoint, so the (possibly large) bulk load is
// captured by the snapshot instead of the log.
func (s *Store) Bootstrap(cat *catalog.Catalog) error {
	if err := s.attach(cat); err != nil {
		return err
	}
	return s.Checkpoint()
}

// attach opens the WAL for appending and installs the commit hook.
func (s *Store) attach(cat *catalog.Catalog) error {
	w, err := openWAL(filepath.Join(s.dir, "wal"), s.opts.SyncEvery, s.opts.OnFsync, func(err error) {
		s.walErr.CompareAndSwap(nil, &err)
	})
	if err != nil {
		return err
	}
	s.wal = w
	s.cat = cat
	cat.SetCommitHook(func(rec catalog.Commit) {
		// Runs under the catalog write lock: append order = commit
		// order. The append lands in the page cache; the batched
		// syncer makes it durable within SyncEvery.
		//lint:allow lockorder WAL append order must equal commit order, which only the catalog write lock provides; the hot path is a page-cache write
		if err := s.wal.append(encodeCommit(rec)); err != nil {
			s.walErr.CompareAndSwap(nil, &err)
		}
	})
	return nil
}

// Checkpoint writes a full columnar snapshot and retires the WAL
// segments it covers. Safe to call concurrently with queries and DML:
// the WAL rotates first, so any record racing the catalog export lands
// in the new segment and is skipped on replay by its commit sequence.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cat == nil || s.wal == nil {
		return fmt.Errorf("store: checkpoint before Recover/Bootstrap")
	}
	old, err := s.wal.rotate()
	if err != nil {
		return err
	}
	tables, seq := s.cat.ExportState()
	if err := writeSnapshot(s.dir, tables, seq); err != nil {
		return err
	}
	for _, p := range old {
		os.Remove(p)
	}
	// The snapshot covers every committed statement, so a WAL append
	// failure latched before this point no longer threatens recovery.
	// Report it once — the durability guarantee was degraded until
	// now — and clear the latch.
	if p := s.walErr.Swap(nil); p != nil {
		return fmt.Errorf("store: WAL appends failed since the previous checkpoint (durability was degraded; now restored): %w", *p)
	}
	return nil
}

// Close syncs and closes the WAL. It does not checkpoint; callers
// wanting a restart without replay checkpoint first.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cat != nil {
		s.cat.SetCommitHook(nil)
	}
	var err error
	if s.wal != nil {
		err = s.wal.close()
		s.wal = nil
	}
	if werr := s.Err(); err == nil {
		err = werr
	}
	return err
}

// applyCommit replays one WAL record, whose insert vectors names lists
// by column, through the catalog's regular mutation paths, so versions,
// indexes and the commit sequence advance exactly as they did before
// the crash.
func applyCommit(cat *catalog.Catalog, rec catalog.Commit, names []string) error {
	switch rec.Kind {
	case catalog.CommitCreate:
		cat.CreateTable(rec.Schema, rec.Name, rec.Cols)
		return nil
	case catalog.CommitDrop:
		cat.DropTable(rec.Schema, rec.Name)
		return nil
	}
	t := cat.Table(rec.Schema, rec.Name)
	if t == nil {
		return fmt.Errorf("store: WAL record %d for unknown table %s.%s", rec.Seq, rec.Schema, rec.Name)
	}
	switch rec.Kind {
	case catalog.CommitInsert:
		// Each vector goes to the column it names; AppendColumns refuses
		// a column left without one, and a wrong kind or length.
		cols := make([]bat.Vector, len(t.Cols))
		for j, name := range names {
			i := slices.IndexFunc(t.Cols, func(c *catalog.Column) bool { return c.Name == name })
			if i < 0 || cols[i] != nil {
				return fmt.Errorf("store: WAL record %d: %s.%s has no column %q, or the record names it twice", rec.Seq, rec.Schema, rec.Name, name)
			}
			cols[i] = rec.Inserts[j]
		}
		first, err := t.AppendColumns(cols)
		if err != nil {
			return fmt.Errorf("store: WAL record %d: %w", rec.Seq, err)
		}
		if first != rec.FirstOid {
			return fmt.Errorf("store: WAL replay diverged: record %d expected first oid %d, got %d", rec.Seq, rec.FirstOid, first)
		}
	case catalog.CommitDelete:
		t.Delete(rec.Deleted)
	default:
		return fmt.Errorf("store: WAL record %d has unknown kind %d", rec.Seq, rec.Kind)
	}
	return nil
}
