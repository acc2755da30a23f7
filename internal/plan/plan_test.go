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
	if _, ok := Sign("algebra.select", []mal.Value{batVal(0)}); ok {
		t.Fatal("bat arg without provenance must be unmatchable")
	}
	sig, ok := Sign("algebra.select", []mal.Value{batVal(3), mal.IntV(7)})
	if !ok || sig.Key() != "algebra.select(e3,i7)" {
		t.Fatalf("key = %q, ok = %v", sig.Key(), ok)
	}
}

func TestKeyScalarKinds(t *testing.T) {
	sig, ok := Sign("x.y", []mal.Value{
		mal.IntV(-4), mal.FloatV(0.5), mal.StrV("ab"), mal.BoolV(true), mal.VoidV(),
	})
	if !ok {
		t.Fatal("scalar-only signature must sign")
	}
	if got := sig.Key(); got != "x.y(i-4,f0.5,s2:ab,bT,v)" {
		t.Fatalf("key = %q", got)
	}
}

func TestCanonicalRecursesThroughProducers(t *testing.T) {
	// e1 = bind, e2 = select over e1: the canonical form of the select
	// names the bind's canonical signature, not the entry id.
	canonOf := func(id uint64) (string, bool) {
		if id == 1 {
			return `sql.bind(ssys,st,sc,i0)`, true
		}
		return "", false
	}
	sig, _ := Sign("algebra.select", []mal.Value{batVal(1), mal.IntV(5)})
	canon, args, ok := sig.Canonical(canonOf)
	if !ok {
		t.Fatal("canonical must resolve")
	}
	want := "algebra.select([sql.bind(ssys,st,sc,i0)],i5)"
	if canon != want {
		t.Fatalf("canon = %q, want %q", canon, want)
	}
	if len(args) != 2 || !args[0].Bat || args[0].Canon == "" || args[1].Key != "i5" {
		t.Fatalf("args = %+v", args)
	}
	if CanonKey(sig.Op, args) != canon {
		t.Fatal("CanonKey must reproduce Canonical's rendering")
	}

	// An unresolvable producer (evicted, never canonical) has no
	// durable identity.
	sig2, _ := Sign("algebra.select", []mal.Value{batVal(9), mal.IntV(5)})
	if _, _, ok := sig2.Canonical(canonOf); ok {
		t.Fatal("unresolvable producer must not canonicalise")
	}
}

func TestRuntimeKeyRoundTrip(t *testing.T) {
	canonOf := func(id uint64) (string, bool) { return "sql.bind(sa,sb,sc,i0)", id == 1 }
	sig, _ := Sign("algebra.semijoin", []mal.Value{batVal(1), batVal(1)})
	_, cargs, ok := sig.Canonical(canonOf)
	if !ok {
		t.Fatal("canonical failed")
	}
	// In a later process the producer lives under a fresh entry id.
	key, deps, ok := RuntimeKey(sig.Op, cargs, func(canon string) (uint64, bool) {
		return 42, canon == "sql.bind(sa,sb,sc,i0)"
	})
	if !ok || key != "algebra.semijoin(e42,e42)" {
		t.Fatalf("key = %q, ok = %v", key, ok)
	}
	if len(deps) != 1 || deps[0] != 42 {
		t.Fatalf("deps = %v (must be distinct)", deps)
	}
	// A missing producer defers the record.
	if _, _, ok := RuntimeKey(sig.Op, cargs, func(string) (uint64, bool) { return 0, false }); ok {
		t.Fatal("unresolved canon must not produce a runtime key")
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
// the encoders' own separators never share a run-time or canonical key
// unless they are the same list.
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
	// Producers 1..3 have canonical signatures over separator-laden
	// literals too, all distinct.
	canons := map[uint64]string{}
	for p := uint64(1); p <= 3; p++ {
		canons[p] = CanonKey("sql.bind", []CanonArg{{Key: mal.StrV(fmt.Sprint(p, ",)", randStr())).Key()}})
	}
	canonOf := func(id uint64) (string, bool) { c, ok := canons[id]; return c, ok }
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
	runtime, canonical := map[string]string{}, map[string]string{}
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
		if prev, seen := runtime[string(key)]; seen && prev != desc {
			t.Fatalf("run-time key %q shared by %s and %s", key, prev, desc)
		}
		runtime[string(key)] = desc
		sig, _ := Sign("algebra.select", args)
		if sig.Key() != string(key) {
			t.Fatalf("Signature.Key %q != AppendKey %q", sig.Key(), key)
		}
		canon, _, ok := sig.Canonical(canonOf)
		if !ok {
			t.Fatal("canonical must resolve")
		}
		if prev, seen := canonical[canon]; seen && prev != desc {
			t.Fatalf("canonical key %q shared by %s and %s", canon, prev, desc)
		}
		canonical[canon] = desc
	}
}
