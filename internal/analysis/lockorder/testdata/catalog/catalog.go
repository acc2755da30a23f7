// Fixture package for lockorder, typechecked as
// "repro/internal/catalog". It provides the UpdateListener interface
// and commit-hook surface the analyzer checks, and exercises the
// listener-notification-under-lock rule.
package catalog

import "sync"

// Table is a minimal catalog table.
type Table struct{ Name string }

// UpdateListener mirrors the real commit-window listener interface:
// one method, which a drop reaches too (rows < 0 here).
type UpdateListener interface {
	OnUpdate(tbl string, rows int)
}

// Catalog mirrors the real lock and hook fields.
type Catalog struct {
	mu        sync.RWMutex
	commitSeq uint64
	tables    map[string]*Table
	listeners []UpdateListener
	hook      func(tbl string)
}

// SetCommitHook mirrors the real contract: the hook runs under the
// catalog write lock on every commit.
func (c *Catalog) SetCommitHook(h func(tbl string)) {
	c.mu.Lock()
	c.hook = h
	c.mu.Unlock()
}

// CommitSeq reads under the catalog lock.
func (c *Catalog) CommitSeq() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.commitSeq
}

// Append is a catalog mutator; it fires the commit hook under mu.
func (c *Catalog) Append(tbl string, rows int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.commitSeq++
	if c.hook != nil {
		c.hook(tbl)
	}
}

// Drop is a catalog mutator.
func (c *Catalog) Drop(tbl string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.tables, tbl)
}

// badBroadcast notifies listeners with the catalog mutex held; the
// contract delivers notifications after release.
func (c *Catalog) badBroadcast(tbl string, rows int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, l := range c.listeners {
		l.OnUpdate(tbl, rows) // want "update listener notified while Catalog.mu is held"
	}
}

// goodBroadcast snapshots the listener list under the lock and
// notifies after releasing it.
func (c *Catalog) goodBroadcast(tbl string, rows int) {
	c.mu.Lock()
	ls := append([]UpdateListener(nil), c.listeners...)
	c.mu.Unlock()
	for _, l := range ls {
		l.OnUpdate(tbl, rows)
	}
}
