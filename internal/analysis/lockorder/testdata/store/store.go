// Fixture package for lockorder, typechecked as
// "repro/internal/store" and importing the catalog fixture. It
// reproduces the PR 4 shape: a durable store installing a commit hook
// and registering update listeners.
package store

import (
	"os"

	"repro/internal/catalog"
)

// Store mirrors the durable store: a catalog binding plus a WAL file.
type Store struct {
	cat *catalog.Catalog
	wal *os.File
}

// badHookReenter installs a named hook that re-enters the catalog —
// deadlock, since hooks already run under the catalog write lock.
func (s *Store) badHookReenter() {
	s.cat.SetCommitHook(s.hookReenter) // want "commit hook store.\(\*Store\).hookReenter re-enters the catalog"
}

func (s *Store) hookReenter(tbl string) {
	_ = s.cat.CommitSeq()
}

// badHookLit installs a literal hook that mutates the catalog and
// writes the WAL while the catalog write lock is held.
func (s *Store) badHookLit() {
	s.cat.SetCommitHook(func(tbl string) {
		s.cat.Append(tbl, 1)   // want "calls catalog.\(\*Catalog\).Append, which acquires catalog.Catalog.mu \(rank 50\), while holding catalog.Catalog.mu \(rank 50\)"
		s.wal.WriteString(tbl) // want "performs I/O while catalog.Catalog.mu is held"
	})
}

// goodHook only copies values out; safe under the write lock.
func (s *Store) goodHook() {
	var last string
	s.cat.SetCommitHook(func(tbl string) {
		last = tbl
	})
	_ = last
}

// auditListener mutates the catalog from the commit window — the
// re-entrant shape the listener contract forbids.
type auditListener struct {
	cat *catalog.Catalog
}

func (a *auditListener) OnUpdate(tbl string, rows int) {
	if rows < 0 { // a drop
		a.cleanup(tbl) // want "catalog.UpdateListener method calls store.\(\*auditListener\).cleanup, which reaches catalog mutator catalog.\(\*Catalog\).Drop"
		return
	}
	a.cat.Append(tbl, rows) // want "catalog.UpdateListener method calls catalog mutator catalog.\(\*Catalog\).Append"
}

func (a *auditListener) cleanup(tbl string) {
	a.cat.Drop(tbl)
}

// statsListener only reads the catalog; allowed in the commit window.
type statsListener struct {
	cat *catalog.Catalog
	seq uint64
}

func (s *statsListener) OnUpdate(tbl string, rows int) {
	s.seq = s.cat.CommitSeq()
}
