// Package store is the persistence subsystem: it makes the engine's
// catalog — and the warm recycle pool the paper's whole thesis rests
// on — survive a restart.
//
// Three cooperating parts share one binary columnar codec (CRC32-
// checked, length-prefixed frames with per-kind vector encodings):
//
//   - A write-ahead log of committed DML. The catalog's commit hook
//     appends one self-contained record per statement, in commit
//     order, with batched fsyncs; replay after a crash re-applies the
//     tail the last snapshot missed and truncates a torn final record.
//
//   - Full columnar checkpoints. A checkpoint rotates the WAL, exports
//     the catalog consistently (tables, tombstones, versions, index
//     definitions, commit sequence) and atomically replaces the
//     snapshot file, after which the covered WAL segments are deleted.
//     Recovery = load snapshot + replay WAL tail.
//
//   - The recycle pool image (recycler.SpillTier): a graceful drain
//     writes the pool's recipes — each entry's operation and operands,
//     a BAT operand named by the record that produced it — as one file
//     of CRC-framed records, replacing the previous image;
//     Recycler.Prewarm streams it back at startup and recomputes each
//     record at the catalog's current version.
package store
