package store

import (
	"sync"
	"testing"
	"time"
)

// TestBackgroundFsyncFailureLatched: a background fsync that fails
// leaves acknowledged records non-durable, so the store latches the
// error (Err, and with it the next Checkpoint or Close) instead of
// dropping it. The active segment is closed behind the syncer's back
// while it holds an unsynced record.
func TestBackgroundFsyncFailureLatched(t *testing.T) {
	st, err := Open(t.TempDir(), Options{SyncEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	cat := seedCatalog()
	if err := st.Bootstrap(cat); err != nil {
		t.Fatal(err)
	}
	w := st.wal
	w.syncMu.Lock() // no fsync until the segment is closed
	insertPeople([2]any{int64(4), "alan"})(cat)
	w.mu.Lock()
	w.f.Close()
	w.mu.Unlock()
	w.syncMu.Unlock()
	for deadline := time.Now().Add(5 * time.Second); st.Err() == nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the failed background fsync was not reported")
		}
	}
	if err := st.Close(); err == nil {
		t.Fatal("Close after a failed fsync reported nothing")
	}
}

// TestAppendDoesNotWaitForFsync: appends take only the WAL's append
// lock, so one lands while a background fsync is still running — here
// held open by an OnFsync that blocks. The commit hook appends under
// the catalog write lock, so an append that waited would stall every
// commit, and every query's Pin behind it, for the fsync.
func TestAppendDoesNotWaitForFsync(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	w, err := openWAL(t.TempDir(), time.Millisecond, func(int, time.Duration) {
		once.Do(func() {
			close(entered)
			<-release
		})
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	defer close(release)
	if err := w.append([]byte("first")); err != nil {
		t.Fatal(err)
	}
	<-entered
	done := make(chan error, 1)
	go func() { done <- w.append([]byte("second")) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("an append waited for the fsync in flight")
	}
}
