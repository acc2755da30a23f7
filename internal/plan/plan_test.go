package plan

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/bat"
	"repro/internal/mal"
)

func batVal(prov uint64) mal.Value {
	v := mal.BatV(bat.NewDenseHead(bat.NewInts([]int64{1})))
	v.Prov = prov
	return v
}

func TestSignUnmatchableOnUnknownProvenance(t *testing.T) {
	if _, ok := AppendKey(nil, "algebra.select", []mal.Value{batVal(0)}); ok {
		t.Fatal("bat arg without provenance must be unmatchable")
	}
	key, ok := AppendKey(nil, "algebra.select", []mal.Value{batVal(3), mal.IntV(7)})
	if !ok || string(key) != "algebra.select(e3,i7)" {
		t.Fatalf("key = %q, ok = %v", key, ok)
	}
}

func TestKeyScalarKinds(t *testing.T) {
	key, ok := AppendKey(nil, "x.y", []mal.Value{
		mal.IntV(-4), mal.FloatV(0.5), mal.StrV("ab"), mal.BoolV(true), mal.VoidV(),
	})
	if !ok {
		t.Fatal("scalar-only operands must encode")
	}
	if got := string(key); got != "x.y(i-4,f0.5,s2:ab,bT,v)" {
		t.Fatalf("key = %q", got)
	}
}

func TestRenderInstrTruncatesLongStrings(t *testing.T) {
	long := strings.Repeat("x", 100)
	r := RenderInstr("algebra.likeselect", []mal.Value{mal.StrV(long)})
	if len(r) > 60 {
		t.Fatalf("render too long: %d chars", len(r))
	}
}

func TestRenderInstrTruncatesOnRuneBoundary(t *testing.T) {
	// 1 ASCII byte then 4-byte runes: the cut lands mid-rune and must
	// back up instead of emitting invalid UTF-8.
	long := "a" + strings.Repeat("\U0001F642", 10)
	r := RenderInstr("algebra.likeselect", []mal.Value{mal.StrV(long)})
	if !utf8.ValidString(r) {
		t.Fatalf("render emitted invalid UTF-8: %q", r)
	}
	if !strings.Contains(r, "…") {
		t.Fatalf("long constant not truncated: %q", r)
	}
}

func TestRenderInstrHandlesDegenerateBat(t *testing.T) {
	// A BAT value with zero provenance renders as a bare "e" rather
	// than failing; render must stay total because it runs on
	// arbitrary captured instruction instances.
	r := RenderInstr("algebra.select", []mal.Value{batVal(0), mal.IntV(3)})
	if !strings.HasPrefix(r, "algebra.select(e") {
		t.Fatalf("render = %q", r)
	}
}

// TestKeysInjective: operand lists whose string literals are made of
// the encoder's own separators never share a key unless they are the
// same list.
func TestKeysInjective(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const alphabet = ",()[]:s0e1"
	randStr := func() string {
		b := make([]byte, rng.Intn(6))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	randVal := func() mal.Value {
		switch rng.Intn(4) {
		case 0:
			return batVal(uint64(1 + rng.Intn(3)))
		case 1:
			return mal.IntV(int64(rng.Intn(3)))
		default:
			return mal.StrV(randStr())
		}
	}
	describe := func(args []mal.Value) string {
		var sb strings.Builder
		for _, a := range args {
			fmt.Fprintf(&sb, "%d %q %d %d|", a.Kind, a.S, a.I, a.Prov)
		}
		return sb.String()
	}
	keys := map[string]string{}
	for i := 0; i < 50000; i++ {
		args := make([]mal.Value, 1+rng.Intn(3))
		for j := range args {
			args[j] = randVal()
		}
		desc := describe(args)
		key, ok := AppendKey(nil, "algebra.select", args)
		if !ok {
			t.Fatal("provenanced operands must encode")
		}
		if prev, seen := keys[string(key)]; seen && prev != desc {
			t.Fatalf("key %q shared by %s and %s", key, prev, desc)
		}
		keys[string(key)] = desc
	}
}
