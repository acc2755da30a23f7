package store

import (
	"bufio"
	"os"
	"path/filepath"

	"repro/internal/recycler"
)

// Spill stores the pool image: one file holding the recycle pool a
// graceful drain wrote (recycler.SpillAll) for the next boot to
// pre-warm from (recycler.Prewarm). It implements recycler.SpillTier.
//
// The image is a cache, not a log. Save writes a header frame and one
// CRC frame per record to a temporary file and renames it over the
// previous image, without fsync: a torn or damaged image fails its
// frames' checks, and Load hands on only the records before the first
// bad one. A record is a recipe — an operation and its operands, each
// a scalar or the index of an earlier record — so it holds no result
// and no version: Prewarm recomputes it over whatever catalog the
// process has.
type Spill struct {
	path string
}

// imageFile is the pool image's name inside the data directory.
const imageFile = "pool.img"

// imageFormat tags the header frame with the record layout below. An
// image without it (another layout, or a damaged header) loads empty.
const imageFormat uint32 = 0x33_47_4d_49 // "IMG3"

// Save implements recycler.SpillTier: it replaces the image with recs,
// in order.
func (sp *Spill) Save(recs []*recycler.SpillRecord) error {
	tmp, err := os.CreateTemp(filepath.Dir(sp.path), "pool-*.tmp")
	if err != nil {
		return err
	}
	w := bufio.NewWriter(tmp)
	e := &enc{}
	e.u32(imageFormat)
	werr := writeFrame(w, e.b)
	for _, rec := range recs {
		if werr != nil {
			break
		}
		e.b = e.b[:0]
		encodeSpillRecord(e, rec)
		werr = writeFrame(w, e.b)
	}
	if werr == nil {
		werr = w.Flush()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), sp.path)
	}
	if werr != nil {
		os.Remove(tmp.Name())
	}
	return werr
}

// Load implements recycler.SpillTier: it decodes the image one record
// at a time and hands each to admit, stopping at the first frame that
// is torn, fails its checksum or does not decode.
func (sp *Spill) Load(admit func(*recycler.SpillRecord)) error {
	f, err := os.Open(sp.path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	hdr, err := readFrame(r)
	if err != nil {
		return nil
	}
	if d := (&dec{b: hdr}); d.u32() != imageFormat || !d.done() {
		return nil
	}
	for {
		payload, err := readFrame(r)
		if err != nil {
			return nil
		}
		rec, err := decodeSpillRecord(payload)
		if err != nil {
			return nil
		}
		admit(rec)
	}
}

// encodeSpillRecord writes a record frame: the op name, the operand
// count, then per operand a tag — 0 for a scalar (encodeValue), 1 for
// a BAT — and the scalar or the producer's record index.
func encodeSpillRecord(e *enc, rec *recycler.SpillRecord) {
	e.str(rec.OpName)
	e.u32(uint32(len(rec.Args)))
	for _, a := range rec.Args {
		if a.Bat {
			e.u8(1)
			e.u32(uint32(a.Producer))
		} else {
			e.u8(0)
			encodeValue(e, a.Value)
		}
	}
}

func decodeSpillRecord(payload []byte) (*recycler.SpillRecord, error) {
	d := &dec{b: payload}
	rec := &recycler.SpillRecord{OpName: d.str()}
	nArgs := int(d.u32())
	for i := 0; i < nArgs && !d.fail; i++ {
		if d.u8() != 0 {
			rec.Args = append(rec.Args, recycler.SpillArg{Bat: true, Producer: int(d.u32())})
		} else {
			rec.Args = append(rec.Args, recycler.SpillArg{Value: decodeValue(d)})
		}
	}
	if err := d.err(); err != nil || !d.done() {
		return nil, ErrCorrupt
	}
	return rec, nil
}
