package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro"
	"repro/internal/recycler"
)

// FuzzPrewarmImage: whatever bytes sit at the pool image's path,
// Prewarm returns without panicking, and the pool it leaves answers a
// fixed set of queries as naive recompute does. The catalog is a few
// hundred rows, so no recipe the fuzzer builds is expensive.
//
// The seeds are a real SpillAll image, that image cut at every frame
// boundary, a bare IMG2 header and the empty file.
func FuzzPrewarmImage(f *testing.F) {
	cat := kvCatalog(300)
	want := fmt.Sprint(answers(f, repro.NewEngine(cat)))

	tier := &Spill{path: filepath.Join(f.TempDir(), imageFile)}
	eng := repro.NewEngine(cat, repro.WithRecycler(recycler.Config{Admission: recycler.KeepAll, Spill: tier}))
	answers(f, eng)
	if _, err := eng.Recycler().SpillAll(); err != nil {
		f.Fatal(err)
	}
	eng.Recycler().Close()
	image, err := os.ReadFile(tier.path)
	if err != nil {
		f.Fatal(err)
	}
	for _, end := range frameEnds(f, image) {
		f.Add(image[:end])
	}
	img2 := &enc{}
	img2.u32(0x32_47_4d_49) // "IMG2"
	var hdr bytes.Buffer
	if err := writeFrame(&hdr, img2.b); err != nil {
		f.Fatal(err)
	}
	f.Add(hdr.Bytes())
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, image []byte) {
		tier := &Spill{path: filepath.Join(t.TempDir(), imageFile)}
		if err := os.WriteFile(tier.path, image, 0o644); err != nil {
			t.Fatal(err)
		}
		eng := repro.NewEngine(cat, repro.WithRecycler(recycler.Config{
			Admission:   recycler.KeepAll,
			Subsumption: true,
			Spill:       tier,
		}))
		defer eng.Recycler().Close()
		if _, err := eng.Recycler().Prewarm(); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(answers(t, eng)); got != want {
			t.Fatalf("pre-warmed answers %s, naive %s", got, want)
		}
	})
}
