package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/bat"
	"repro/internal/catalog"
)

// A snapshot is one file holding a full columnar checkpoint of the
// catalog: a header frame (magic, format version, commit sequence,
// table count), then per table a metadata frame followed by one frame
// per column vector, and a trailing end marker. Every frame is CRC32-
// checked. The file is written to a temporary name, fsynced and
// renamed over the live snapshot, so a crash mid-checkpoint leaves the
// previous snapshot intact — a snapshot either loads completely or the
// recovery fails loudly (unlike the WAL, a half snapshot is never a
// normal crash artefact).

const (
	snapshotMagic   = "RPSNAP"
	snapshotVersion = 1
	snapshotEnd     = "RPEND"
	snapshotFile    = "snapshot.dat"
)

// writeSnapshot serialises the exported tables at commit sequence seq
// into dir/snapshot.dat, atomically.
func writeSnapshot(dir string, tables []catalog.TableState, seq uint64) error {
	tmp, err := os.CreateTemp(dir, "snapshot-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())

	hdr := &enc{}
	hdr.str(snapshotMagic)
	hdr.u32(snapshotVersion)
	hdr.u64(seq)
	hdr.u32(uint32(len(tables)))
	if err := writeFrame(tmp, hdr.b); err != nil {
		tmp.Close()
		return err
	}
	for _, ts := range tables {
		meta := &enc{}
		meta.str(ts.Schema)
		meta.str(ts.Name)
		meta.u64(uint64(ts.NRows))
		meta.i64(ts.Version)
		meta.u64(ts.Created)
		meta.u32(uint32(len(ts.Cols)))
		for _, d := range ts.Cols {
			meta.str(d.Name)
			meta.u8(uint8(d.Kind))
			if d.Sorted {
				meta.u8(1)
			} else {
				meta.u8(0)
			}
		}
		meta.u32(uint32(len(ts.Deleted)))
		for _, o := range ts.Deleted {
			meta.u64(uint64(o))
		}
		meta.u32(uint32(len(ts.KeyIndexCols)))
		for _, c := range ts.KeyIndexCols {
			meta.str(c)
		}
		meta.u32(uint32(len(ts.JoinIndexes)))
		for _, j := range ts.JoinIndexes {
			meta.str(j.Name)
			meta.str(j.FKCol)
			meta.str(j.ParentSchema)
			meta.str(j.ParentName)
			meta.str(j.ParentKey)
		}
		if err := writeFrame(tmp, meta.b); err != nil {
			tmp.Close()
			return err
		}
		for _, v := range ts.Data {
			col := &enc{}
			encodeVector(col, v)
			if err := writeFrame(tmp, col.b); err != nil {
				tmp.Close()
				return err
			}
		}
	}
	end := &enc{}
	end.str(snapshotEnd)
	if err := writeFrame(tmp, end.b); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	final := filepath.Join(dir, snapshotFile)
	if err := os.Rename(tmp.Name(), final); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed file survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// loadSnapshot reads dir/snapshot.dat. ok=false reports that no
// snapshot exists (a fresh store); any other failure is corruption.
func loadSnapshot(dir string) (tables []catalog.TableState, seq uint64, ok bool, err error) {
	f, err := os.Open(filepath.Join(dir, snapshotFile))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, false, nil
		}
		return nil, 0, false, err
	}
	defer f.Close()

	frame := func() (*dec, error) {
		payload, err := readFrame(f)
		if err != nil {
			if err == io.EOF || err == errTornFrame {
				return nil, fmt.Errorf("store: snapshot truncated: %w", ErrCorrupt)
			}
			return nil, err
		}
		return &dec{b: payload}, nil
	}

	hdr, err := frame()
	if err != nil {
		return nil, 0, false, err
	}
	if hdr.str() != snapshotMagic || hdr.u32() != snapshotVersion {
		return nil, 0, false, fmt.Errorf("store: bad snapshot header: %w", ErrCorrupt)
	}
	seq = hdr.u64()
	nTables := int(hdr.u32())
	if err := hdr.err(); err != nil || !hdr.done() {
		return nil, 0, false, fmt.Errorf("store: bad snapshot header: %w", ErrCorrupt)
	}
	for i := 0; i < nTables; i++ {
		meta, err := frame()
		if err != nil {
			return nil, 0, false, err
		}
		ts := catalog.TableState{
			Schema:  meta.str(),
			Name:    meta.str(),
			NRows:   int(meta.u64()),
			Version: meta.i64(),
			Created: meta.u64(),
		}
		nCols := int(meta.u32())
		for c := 0; c < nCols && !meta.fail; c++ {
			ts.Cols = append(ts.Cols, catalog.ColDef{Name: meta.str(), Kind: meta.kind(), Sorted: meta.u8() != 0})
		}
		nDel := int(meta.u32())
		for c := 0; c < nDel && !meta.fail; c++ {
			ts.Deleted = append(ts.Deleted, bat.Oid(meta.u64()))
		}
		nKey := int(meta.u32())
		for c := 0; c < nKey && !meta.fail; c++ {
			ts.KeyIndexCols = append(ts.KeyIndexCols, meta.str())
		}
		nJoin := int(meta.u32())
		for c := 0; c < nJoin && !meta.fail; c++ {
			ts.JoinIndexes = append(ts.JoinIndexes, catalog.JoinIndexDef{
				Name: meta.str(), FKCol: meta.str(),
				ParentSchema: meta.str(), ParentName: meta.str(), ParentKey: meta.str(),
			})
		}
		if err := meta.err(); err != nil || !meta.done() {
			return nil, 0, false, fmt.Errorf("store: bad table metadata in snapshot: %w", ErrCorrupt)
		}
		for c := 0; c < len(ts.Cols); c++ {
			col, err := frame()
			if err != nil {
				return nil, 0, false, err
			}
			v := decodeVector(col)
			if err := col.err(); err != nil || !col.done() {
				return nil, 0, false, fmt.Errorf("store: bad column vector in snapshot: %w", ErrCorrupt)
			}
			ts.Data = append(ts.Data, v)
		}
		tables = append(tables, ts)
	}
	end, err := frame()
	if err != nil {
		return nil, 0, false, err
	}
	if end.str() != snapshotEnd || !end.done() {
		return nil, 0, false, fmt.Errorf("store: missing snapshot end marker: %w", ErrCorrupt)
	}
	return tables, seq, true, nil
}
