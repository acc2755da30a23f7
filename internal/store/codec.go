package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"repro/internal/bat"
	"repro/internal/mal"
)

// This file implements the binary columnar codec every durable artefact
// is built from. The unit of I/O is a *frame*:
//
//	u32 payload length | u32 CRC32(payload) | payload
//
// all little-endian. A frame either reads back byte-identical or it is
// rejected: a short header, a short payload or a CRC mismatch all
// surface as errTornFrame, which the WAL replayer uses to distinguish
// a torn tail (expected after a crash mid-append) from a clean end of
// log (io.EOF exactly at a frame boundary). Payloads are decoded with a
// cursor that latches the first error, so corrupt bytes degrade into
// ErrCorrupt rather than panics.

// ErrCorrupt reports a frame whose payload decoded inconsistently —
// the checksum matched but the contents violate the format.
var ErrCorrupt = errors.New("store: corrupt payload")

// errTornFrame reports a frame that ended early or failed its
// checksum; at the tail of a WAL segment this is the signature of a
// crash mid-append and is recovered from by truncation.
var errTornFrame = errors.New("store: torn frame")

// maxFramePayload bounds a frame so a corrupted length header cannot
// drive a multi-gigabyte allocation.
const maxFramePayload = 1 << 30

func writeFrame(w io.Writer, payload []byte) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame. io.EOF reports a clean end exactly at a
// frame boundary; errTornFrame reports a partial or corrupted frame.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, errTornFrame
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > maxFramePayload {
		return nil, errTornFrame
	}
	payload, err := readPayload(r, int(n))
	if err != nil {
		return nil, errTornFrame
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, errTornFrame
	}
	return payload, nil
}

// readPayload reads an n-byte payload into a buffer that grows as the
// bytes arrive, from at most 1 MiB, so a corrupted length costs memory
// for the bytes that really follow it, not for the length it claims.
func readPayload(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, min(n, 1<<20))
	for off := 0; ; {
		m, err := io.ReadFull(r, buf[off:])
		if off += m; err != nil {
			return nil, err
		}
		if off == n {
			return buf, nil
		}
		buf = slices.Grow(buf, min(n-off, off))[:off+min(n-off, off)]
	}
}

// enc builds a frame payload. Appends never fail; the frame writer
// owns the I/O error surface.
type enc struct{ b []byte }

func (e *enc) u8(v uint8) { e.b = append(e.b, v) }
func (e *enc) u32(v uint32) {
	e.b = binary.LittleEndian.AppendUint32(e.b, v)
}
func (e *enc) u64(v uint64) {
	e.b = binary.LittleEndian.AppendUint64(e.b, v)
}
func (e *enc) i64(v int64) { e.u64(uint64(v)) }
func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}

// dec is a cursor over a frame payload that latches the first error:
// after a failure every read returns zero values and err() reports
// ErrCorrupt, so decoders can run straight-line without per-field
// checks.
type dec struct {
	b    []byte
	off  int
	fail bool
}

func (d *dec) err() error {
	if d.fail {
		return ErrCorrupt
	}
	return nil
}

func (d *dec) take(n int) []byte {
	if d.fail || n < 0 || d.off+n > len(d.b) {
		d.fail = true
		return nil
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out
}

func (d *dec) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *dec) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *dec) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *dec) i64() int64 { return int64(d.u64()) }

func (d *dec) str() string {
	n := int(d.u32())
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// kind reads a column kind; one bat does not know latches the cursor,
// so a catalog is never asked to build a column of it.
func (d *dec) kind() bat.Kind {
	k := bat.Kind(d.u8())
	if k > bat.KBool {
		d.fail = true
	}
	return k
}

// count returns n, a count of elements the payload goes on to hold,
// each at least size bytes; a count the bytes left cannot hold latches
// the cursor and returns 0. It is what keeps a decoder from allocating
// for the count a corrupt frame claims rather than for the bytes that
// follow it.
func (d *dec) count(n, size int) int {
	if d.fail || n < 0 || n > (len(d.b)-d.off)/size {
		d.fail = true
		return 0
	}
	return n
}

// done reports whether the cursor consumed the payload exactly.
func (d *dec) done() bool { return !d.fail && d.off == len(d.b) }

// --- vectors ------------------------------------------------------------

// Vector tags. Dense oid sequences keep their virtual representation
// (start + length) so a round-tripped dense head stays zero-cost.
const (
	tagOids uint8 = iota
	tagDense
	tagInts
	tagFloats
	tagStrings
	tagDates
	tagBools
)

// elemSize holds the fewest bytes one element of a vector encodes in,
// by tag: a string is at least its length prefix. Zero marks a tag that
// is not a vector's.
var elemSize = [256]int{tagOids: 8, tagInts: 8, tagFloats: 8, tagStrings: 4, tagDates: 4, tagBools: 1}

// encodeVector appends the per-kind encoding of v.
func encodeVector(e *enc, v bat.Vector) {
	switch t := v.(type) {
	case *bat.Oids:
		e.u8(tagOids)
		e.u64(uint64(len(t.V)))
		for _, o := range t.V {
			e.u64(uint64(o))
		}
	case *bat.DenseOids:
		e.u8(tagDense)
		e.u64(uint64(t.Start))
		e.u64(uint64(t.N))
	case *bat.Ints:
		e.u8(tagInts)
		e.u64(uint64(len(t.V)))
		for _, x := range t.V {
			e.i64(x)
		}
	case *bat.Floats:
		e.u8(tagFloats)
		e.u64(uint64(len(t.V)))
		for _, x := range t.V {
			e.u64(math.Float64bits(x))
		}
	case *bat.Strings:
		e.u8(tagStrings)
		e.u64(uint64(len(t.C)))
		vals := t.D.Values()
		for _, c := range t.C {
			e.str(vals[c])
		}
	case *bat.Dates:
		e.u8(tagDates)
		e.u64(uint64(len(t.V)))
		for _, x := range t.V {
			e.u32(uint32(x))
		}
	case *bat.Bools:
		e.u8(tagBools)
		e.u64(uint64(len(t.V)))
		for _, x := range t.V {
			if x {
				e.u8(1)
			} else {
				e.u8(0)
			}
		}
	default:
		panic(fmt.Sprintf("store: encode of unknown vector type %T", v))
	}
}

// decodeVector reads one vector; on malformed input the cursor latches
// and a zero-length vector is returned.
func decodeVector(d *dec) bat.Vector {
	tag := d.u8()
	if tag == tagDense {
		start := bat.Oid(d.u64())
		n := int(d.u64())
		if d.fail || n < 0 {
			d.fail = true
			return bat.NewDense(0, 0)
		}
		return bat.NewDense(start, n)
	}
	if elemSize[tag] == 0 {
		d.fail = true
		return bat.NewOids(nil)
	}
	n := d.count(int(d.u64()), elemSize[tag])
	switch tag {
	case tagOids:
		v := make([]bat.Oid, n)
		for i := range v {
			v[i] = bat.Oid(d.u64())
		}
		return bat.NewOids(v)
	case tagInts:
		v := make([]int64, n)
		for i := range v {
			v[i] = d.i64()
		}
		return bat.NewInts(v)
	case tagFloats:
		v := make([]float64, n)
		for i := range v {
			v[i] = math.Float64frombits(d.u64())
		}
		return bat.NewFloats(v)
	case tagStrings:
		v := make([]string, n)
		for i := range v {
			v[i] = d.str()
		}
		return bat.NewStrings(v)
	case tagDates:
		v := make([]bat.Date, n)
		for i := range v {
			v[i] = bat.Date(d.u32())
		}
		return bat.NewDates(v)
	default: // tagBools, the last tag elemSize knows
		v := make([]bool, n)
		for i := range v {
			v[i] = d.u8() != 0
		}
		return bat.NewBools(v)
	}
}

// --- scalar values ------------------------------------------------------

// encodeValue appends a scalar runtime value: the value kind, then its
// payload. It is the pool image's encoding of a scalar operand.
func encodeValue(e *enc, v mal.Value) {
	e.u8(uint8(v.Kind))
	switch v.Kind {
	case mal.VInt:
		e.i64(v.I)
	case mal.VFloat:
		e.u64(math.Float64bits(v.F))
	case mal.VStr:
		e.str(v.S)
	case mal.VDate:
		e.u32(uint32(v.D))
	case mal.VBool:
		if v.B {
			e.u8(1)
		} else {
			e.u8(0)
		}
	case mal.VOid:
		e.u64(uint64(v.O))
	case mal.VVoid:
	default:
		panic(fmt.Sprintf("store: encode of unknown value kind %v", v.Kind))
	}
}

func decodeValue(d *dec) mal.Value {
	kind := mal.ValueKind(d.u8())
	switch kind {
	case mal.VInt:
		return mal.IntV(d.i64())
	case mal.VFloat:
		return mal.FloatV(math.Float64frombits(d.u64()))
	case mal.VStr:
		return mal.StrV(d.str())
	case mal.VDate:
		return mal.DateV(bat.Date(d.u32()))
	case mal.VBool:
		return mal.BoolV(d.u8() != 0)
	case mal.VOid:
		return mal.OidV(bat.Oid(d.u64()))
	case mal.VVoid:
		return mal.VoidV()
	}
	d.fail = true
	return mal.VoidV()
}
