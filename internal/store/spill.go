package store

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/recycler"
)

// Spill is the disk tier of the recycle pool: one file per demoted
// intermediate, CRC-framed, keyed by the entry's canonical signature.
// It implements recycler.SpillTier.
//
// The tier is a cache, not a log: files are written without fsync
// (the CRC frames reject torn files on read), lookups that find a
// corrupt file treat it as a miss and unlink it, and a byte budget is
// enforced by deleting the oldest records first. Version validity is
// the recycler's concern — the tier stores the dependency versions the
// recycler stamped into each record and hands them back verbatim.
type Spill struct {
	dir    string
	budget int64

	mu    sync.Mutex
	files map[string]*spillFile // canonical signature -> file
	total int64
	clock int64 // admission order for budget eviction
}

type spillFile struct {
	path string
	size int64
	seq  int64
}

// openSpill opens (and scans) the spill directory. Unreadable files
// are discarded.
func openSpill(dir string, budget int64) (*Spill, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	sp := &Spill{dir: dir, budget: budget, files: make(map[string]*spillFile)}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range ents {
		if e.IsDir() || filepath.Ext(e.Name()) != ".spl" {
			continue
		}
		path := filepath.Join(dir, e.Name())
		// Only the metadata frame is decoded here — the index needs the
		// canonical signature and the file size, not the (potentially
		// large) result payload, which Prewarm reads on demand anyway.
		rec, err := readSpillMeta(path)
		if err != nil {
			os.Remove(path)
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		sp.clock++
		sp.files[rec.CanonSig] = &spillFile{path: path, size: info.Size(), seq: sp.clock}
		sp.total += info.Size()
	}
	return sp, nil
}

// Stats returns the tier's current utilisation.
func (sp *Spill) Stats() (entries int, bytes int64) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return len(sp.files), sp.total
}

// Empty implements recycler.SpillTier's cheap miss-path gate.
func (sp *Spill) Empty() bool {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return len(sp.files) == 0
}

// Purge empties the tier. Bootstrap calls it: a freshly generated
// catalog restarts table versions, so records from a previous life
// could alias fresh versions and must not survive into the new one.
func (sp *Spill) Purge() error {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	for canon, f := range sp.files {
		os.Remove(f.path)
		delete(sp.files, canon)
	}
	sp.total = 0
	return nil
}

// pathFor derives a collision-resistant file name for a canonical
// signature. Collisions are resolved by probing; the signature inside
// the file is authoritative.
func (sp *Spill) pathFor(canon string) string {
	h := fnv.New64a()
	h.Write([]byte(canon))
	base := fmt.Sprintf("%016x", h.Sum64())
	for probe := 0; ; probe++ {
		name := base
		if probe > 0 {
			name = fmt.Sprintf("%s-%d", base, probe)
		}
		path := filepath.Join(sp.dir, name+".spl")
		taken := false
		for c, f := range sp.files {
			if f.path == path {
				taken = c != canon
				break
			}
		}
		if !taken {
			return path
		}
	}
}

// Spill implements recycler.SpillTier: persist one record, overwriting
// any previous record under the same canonical signature. The file is
// written to a temporary name with no lock held — sp.mu protects only
// the index bookkeeping and the rename — so the query miss path's
// Lookup never stalls behind a large background spill write.
func (sp *Spill) Spill(rec *recycler.SpillRecord) {
	payload := encodeSpillMeta(rec)
	val := &enc{}
	encodeValue(val, rec.Result)
	size := int64(len(payload)+len(val.b)) + 16 // two frame headers
	if sp.budget > 0 && size > sp.budget {
		return
	}

	tmp, err := os.CreateTemp(sp.dir, "spill-*.tmp")
	if err != nil {
		return
	}
	werr := writeFrame(tmp, payload)
	if werr == nil {
		werr = writeFrame(tmp, val.b)
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return
	}

	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.budget > 0 {
		sp.evictUntilLocked(sp.budget - size)
	}
	path := sp.pathFor(rec.CanonSig)
	if os.Rename(tmp.Name(), path) != nil {
		os.Remove(tmp.Name())
		return
	}
	if old := sp.files[rec.CanonSig]; old != nil {
		sp.total -= old.size
		if old.path != path {
			os.Remove(old.path)
		}
	}
	sp.clock++
	sp.files[rec.CanonSig] = &spillFile{path: path, size: size, seq: sp.clock}
	sp.total += size
}

// evictUntilLocked deletes oldest-spilled records until the tier fits
// within capacity bytes. Caller holds sp.mu.
func (sp *Spill) evictUntilLocked(capacity int64) {
	for sp.total > capacity {
		var victim string
		var oldest int64
		for canon, f := range sp.files {
			if victim == "" || f.seq < oldest {
				victim, oldest = canon, f.seq
			}
		}
		if victim == "" {
			return
		}
		f := sp.files[victim]
		os.Remove(f.path)
		sp.total -= f.size
		delete(sp.files, victim)
	}
}

// Lookup implements recycler.SpillTier. A file that fails to decode is
// unlinked and reported as a miss.
func (sp *Spill) Lookup(canon string) (*recycler.SpillRecord, bool) {
	sp.mu.Lock()
	f := sp.files[canon]
	sp.mu.Unlock()
	if f == nil {
		return nil, false
	}
	rec, err := readSpillFile(f.path)
	if err != nil || rec.CanonSig != canon {
		sp.Drop(canon)
		return nil, false
	}
	return rec, true
}

// Drop implements recycler.SpillTier.
func (sp *Spill) Drop(canon string) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if f := sp.files[canon]; f != nil {
		os.Remove(f.path)
		sp.total -= f.size
		delete(sp.files, canon)
	}
}

// Metas implements recycler.SpillTier: list every stored record's
// metadata (no Result payload) for startup pre-warming. Undecodable
// files are dropped silently.
func (sp *Spill) Metas() []*recycler.SpillRecord {
	sp.mu.Lock()
	paths := make(map[string]string, len(sp.files))
	for canon, f := range sp.files {
		paths[canon] = f.path
	}
	sp.mu.Unlock()
	out := make([]*recycler.SpillRecord, 0, len(paths))
	for canon, path := range paths {
		rec, err := readSpillMeta(path)
		if err != nil || rec.CanonSig != canon {
			sp.Drop(canon)
			continue
		}
		out = append(out, rec)
	}
	return out
}

// spillFormat tags the metadata frame with the key encoding its canonical
// signatures use. Format 2 length-prefixes string literals ("s3:abc");
// an untagged record predates that, and its keys could alias new ones
// (its literal '3:abc' reads like a new 'abc'), so it does not decode
// and is removed at open like a corrupt file.
const spillFormat uint32 = 0x32_4c_50_53 // "SPL2"

func encodeSpillMeta(rec *recycler.SpillRecord) []byte {
	e := &enc{}
	e.u32(spillFormat)
	e.str(rec.CanonSig)
	e.str(rec.OpName)
	e.str(rec.Render)
	e.i64(int64(rec.Cost))
	e.i64(rec.Bytes)
	e.u64(uint64(rec.Tuples))
	e.u32(uint32(len(rec.Args)))
	for _, a := range rec.Args {
		if a.Bat {
			e.u8(1)
			e.str(a.Canon)
		} else {
			e.u8(0)
			e.str(a.Key)
		}
	}
	e.u32(uint32(len(rec.Deps)))
	for _, d := range rec.Deps {
		e.str(d.Ref.Table)
		e.str(d.Ref.Column)
		e.u64(d.Created)
		e.i64(d.Version)
	}
	return e.b
}

func decodeSpillMeta(payload []byte) (*recycler.SpillRecord, error) {
	d := &dec{b: payload}
	if d.u32() != spillFormat {
		return nil, ErrCorrupt
	}
	rec := &recycler.SpillRecord{
		CanonSig: d.str(),
		OpName:   d.str(),
		Render:   d.str(),
		Cost:     time.Duration(d.i64()),
		Bytes:    d.i64(),
		Tuples:   int(d.u64()),
	}
	nArgs := int(d.u32())
	for i := 0; i < nArgs && !d.fail; i++ {
		if d.u8() != 0 {
			rec.Args = append(rec.Args, recycler.SpillArg{Bat: true, Canon: d.str()})
		} else {
			rec.Args = append(rec.Args, recycler.SpillArg{Key: d.str()})
		}
	}
	nDeps := int(d.u32())
	for i := 0; i < nDeps && !d.fail; i++ {
		dep := recycler.SpillDep{}
		dep.Ref.Table = d.str()
		dep.Ref.Column = d.str()
		dep.Created = d.u64()
		dep.Version = d.i64()
		rec.Deps = append(rec.Deps, dep)
	}
	if err := d.err(); err != nil || !d.done() {
		return nil, ErrCorrupt
	}
	return rec, nil
}

// readSpillMeta decodes only a file's metadata frame (index scans).
func readSpillMeta(path string) (*recycler.SpillRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	meta, err := readFrame(f)
	if err != nil {
		return nil, ErrCorrupt
	}
	return decodeSpillMeta(meta)
}

func readSpillFile(path string) (*recycler.SpillRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	meta, err := readFrame(f)
	if err != nil {
		return nil, ErrCorrupt
	}
	rec, err := decodeSpillMeta(meta)
	if err != nil {
		return nil, err
	}
	val, err := readFrame(f)
	if err != nil {
		return nil, ErrCorrupt
	}
	d := &dec{b: val}
	rec.Result = decodeValue(d)
	if err := d.err(); err != nil || !d.done() {
		return nil, ErrCorrupt
	}
	return rec, nil
}
