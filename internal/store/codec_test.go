package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/mal"
)

// utf8Fixtures are multi-byte-rune strings (the PR 3 render fixtures):
// the codec must round-trip them byte-identically, including the nil
// sentinel and 4-byte emoji runes.
var utf8Fixtures = []string{
	"",
	bat.NilStr,
	"plain ascii",
	"héllo wörld",
	"日本語のテキスト",
	"a" + strings.Repeat("\U0001F642", 10),
	"mixed π≈3.14159 🚀 done",
}

func roundTripVector(t *testing.T, v bat.Vector) bat.Vector {
	t.Helper()
	e := &enc{}
	encodeVector(e, v)
	var buf bytes.Buffer
	if err := writeFrame(&buf, e.b); err != nil {
		t.Fatalf("writeFrame: %v", err)
	}
	payload, err := readFrame(&buf)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	d := &dec{b: payload}
	out := decodeVector(d)
	if err := d.err(); err != nil || !d.done() {
		t.Fatalf("decode: err=%v done=%v", err, d.done())
	}
	return out
}

// vectorsEqual compares contents; float comparison is bit-exact so nil
// sentinels (NaN) compare equal. Two dense vectors compare by start and
// length, which a decoded one may claim in the billions.
func vectorsEqual(a, b bat.Vector) bool {
	if a.Kind() != b.Kind() || a.Len() != b.Len() {
		return false
	}
	if da, ok := a.(*bat.DenseOids); ok {
		if db, ok := b.(*bat.DenseOids); ok {
			return *da == *db
		}
	}
	for i := 0; i < a.Len(); i++ {
		av, bv := a.Get(i), b.Get(i)
		if af, ok := av.(float64); ok {
			if math.Float64bits(af) != math.Float64bits(bv.(float64)) {
				return false
			}
			continue
		}
		if av != bv {
			return false
		}
	}
	return true
}

func TestVectorRoundTripAllKinds(t *testing.T) {
	cases := []struct {
		name string
		v    bat.Vector
	}{
		{"oids", bat.NewOids([]bat.Oid{0, 7, bat.NilOid, 1 << 40})},
		{"oids-empty", bat.NewOids(nil)},
		{"dense", bat.NewDense(42, 1000)},
		{"dense-empty", bat.NewDense(0, 0)},
		{"ints", bat.NewInts([]int64{-5, 0, bat.NilInt, math.MaxInt64})},
		{"ints-empty", bat.NewInts(nil)},
		{"floats", bat.NewFloats([]float64{-1.5, 0, bat.NilFloat(), math.MaxFloat64, math.SmallestNonzeroFloat64})},
		{"floats-empty", bat.NewFloats(nil)},
		{"strings", bat.NewStrings(utf8Fixtures)},
		{"strings-empty", bat.NewStrings(nil)},
		{"dates", bat.NewDates([]bat.Date{0, -1, bat.NilDate, 20000})},
		{"dates-empty", bat.NewDates(nil)},
		{"bools", bat.NewBools([]bool{true, false, true})},
		{"bools-empty", bat.NewBools(nil)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := roundTripVector(t, tc.v)
			if !vectorsEqual(tc.v, out) {
				t.Fatalf("round trip mismatch: in %v out %v", tc.v, out)
			}
		})
	}
}

func TestDenseHeadStaysDense(t *testing.T) {
	out := roundTripVector(t, bat.NewDense(10, 5))
	if _, ok := out.(*bat.DenseOids); !ok {
		t.Fatalf("dense vector decoded as %T: the virtual representation must survive", out)
	}
}

// TestVectorRoundTripProperty fuzzes random vectors of every kind.
func TestVectorRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	runes := []rune("aβ語🙂x\x00é")
	for iter := 0; iter < 200; iter++ {
		n := rng.Intn(50)
		var v bat.Vector
		switch iter % 6 {
		case 0:
			s := make([]bat.Oid, n)
			for i := range s {
				s[i] = bat.Oid(rng.Uint64())
			}
			v = bat.NewOids(s)
		case 1:
			v = bat.NewDense(bat.Oid(rng.Uint64()>>16), n)
		case 2:
			s := make([]int64, n)
			for i := range s {
				s[i] = rng.Int63() - rng.Int63()
			}
			v = bat.NewInts(s)
		case 3:
			s := make([]float64, n)
			for i := range s {
				s[i] = rng.NormFloat64()
			}
			v = bat.NewFloats(s)
		case 4:
			s := make([]string, n)
			for i := range s {
				var sb strings.Builder
				for k := rng.Intn(12); k > 0; k-- {
					sb.WriteRune(runes[rng.Intn(len(runes))])
				}
				s[i] = sb.String()
			}
			v = bat.NewStrings(s)
		case 5:
			s := make([]bool, n)
			for i := range s {
				s[i] = rng.Intn(2) == 1
			}
			v = bat.NewBools(s)
		}
		out := roundTripVector(t, v)
		if !vectorsEqual(v, out) {
			t.Fatalf("iter %d: round trip mismatch for %T", iter, v)
		}
	}
}

func TestValueRoundTrip(t *testing.T) {
	vals := []mal.Value{
		mal.IntV(-42),
		mal.FloatV(2.75),
		mal.StrV("héllo 🙂"),
		mal.DateV(bat.Date(12345)),
		mal.BoolV(true),
		mal.OidV(bat.Oid(99)),
		mal.VoidV(),
	}
	for _, v := range vals {
		e := &enc{}
		encodeValue(e, v)
		d := &dec{b: e.b}
		out := decodeValue(d)
		if err := d.err(); err != nil || !d.done() {
			t.Fatalf("%v: decode err=%v done=%v", v.Kind, d.err(), d.done())
		}
		if out.Kind != v.Kind {
			t.Fatalf("kind changed: %v -> %v", v.Kind, out.Kind)
		}
		if !out.EqualConst(v) && math.Float64bits(out.F) != math.Float64bits(v.F) {
			t.Fatalf("value changed: %v -> %v", v, out)
		}
	}
}

// TestFrameLengthLieAllocatesLittle: a frame header claiming far more
// payload than follows it is torn, and reading it allocates about what
// follows, not what the header claims.
func TestFrameLengthLieAllocatesLittle(t *testing.T) {
	lie := make([]byte, 8+64<<10)
	binary.LittleEndian.PutUint32(lie, maxFramePayload)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readFrame(bytes.NewReader(lie))
	runtime.ReadMemStats(&after)
	if err != errTornFrame {
		t.Fatalf("got %v, want errTornFrame", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Fatalf("reading a %d-byte frame allocated %d bytes", len(lie), grew)
	}
}

func TestFrameRejectsCorruption(t *testing.T) {
	e := &enc{}
	encodeVector(e, bat.NewInts([]int64{1, 2, 3}))
	var buf bytes.Buffer
	if err := writeFrame(&buf, e.b); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Flip one payload byte: CRC must reject.
	bad := append([]byte(nil), good...)
	bad[len(bad)-1] ^= 0xff
	if _, err := readFrame(bytes.NewReader(bad)); err != errTornFrame {
		t.Fatalf("corrupted frame: got %v, want errTornFrame", err)
	}

	// Truncate mid-payload: short read must reject.
	if _, err := readFrame(bytes.NewReader(good[:len(good)-2])); err != errTornFrame {
		t.Fatalf("truncated frame: got %v, want errTornFrame", err)
	}

	// Truncate mid-header.
	if _, err := readFrame(bytes.NewReader(good[:3])); err != errTornFrame {
		t.Fatalf("truncated header: got %v, want errTornFrame", err)
	}

	// Clean EOF at a frame boundary is not an error.
	if _, err := readFrame(bytes.NewReader(nil)); err == errTornFrame {
		t.Fatal("empty reader must be clean EOF, not torn")
	}

	// Absurd length header must not drive a giant allocation.
	huge := append([]byte(nil), good...)
	huge[0], huge[1], huge[2], huge[3] = 0xff, 0xff, 0xff, 0xff
	if _, err := readFrame(bytes.NewReader(huge)); err != errTornFrame {
		t.Fatalf("absurd length: got %v, want errTornFrame", err)
	}
}

func TestDecodeRejectsTruncatedPayload(t *testing.T) {
	e := &enc{}
	encodeVector(e, bat.NewStrings([]string{"abc", "def"}))
	for cut := 1; cut < len(e.b); cut++ {
		d := &dec{b: e.b[:cut]}
		decodeVector(d)
		if d.err() == nil && d.done() {
			t.Fatalf("cut at %d decoded cleanly", cut)
		}
	}
}

// TestDecodeCountLieAllocatesLittle: a CRC-valid frame whose record
// claims 1<<24 elements it does not hold — an insert's vector of ints,
// a delete's oid list — is corrupt, and decoding it allocates about
// what the frame holds, not what it claims (128 MiB each).
func TestDecodeCountLieAllocatesLittle(t *testing.T) {
	header := func(kind catalog.CommitKind) *enc {
		e := &enc{}
		e.u8(uint8(kind))
		e.u64(1)
		e.str("sys")
		e.str("t")
		return e
	}
	insert := header(catalog.CommitInsert)
	insert.u64(0)
	insert.u32(1 << 24)
	insert.u32(1)
	insert.str("v")
	insert.u8(tagInts)
	insert.u64(1 << 24)
	del := header(catalog.CommitDelete)
	del.u32(1 << 24)
	for name, e := range map[string]*enc{"insert": insert, "delete": del} {
		var buf bytes.Buffer
		if err := writeFrame(&buf, e.b); err != nil {
			t.Fatal(err)
		}
		payload, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err = decodeCommit(payload)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: decoding a frame that claims 1<<24 elements: %v, want ErrCorrupt", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Fatalf("%s: decoding a %d-byte payload allocated %d bytes", name, len(payload), grew)
		}
	}
}

// TestDecodeRejectsUnknownColumnKind: a CRC-valid create record whose
// column has a kind bat does not know is corrupt; replaying it would
// ask the catalog for a column of that kind, which panics.
func TestDecodeRejectsUnknownColumnKind(t *testing.T) {
	for _, k := range []uint8{uint8(bat.KBool) + 1, 255} {
		e := &enc{}
		e.u8(uint8(catalog.CommitCreate))
		e.u64(1)
		e.str("sys")
		e.str("t")
		e.u32(1)
		e.str("v")
		e.u8(k)
		e.u8(0)
		if _, _, err := decodeCommit(e.b); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("kind %d: %v, want ErrCorrupt", k, err)
		}
	}
}
