package isa_test

import (
	"encoding/binary"
	"slices"
	"testing"

	"github.com/multiflow-repro/trace/internal/isa"
	"github.com/multiflow-repro/trace/internal/testmatrix"
)

// FuzzImageDecode feeds arbitrary bytes to the §6.5.1 mask-format decoder
// and every instruction it yields to Decode: neither may panic, and a stream
// Unpack accepts packs back to itself. The seeds are images of ledger
// programs, besides the corpus checked in under testdata.
func FuzzImageDecode(f *testing.F) {
	for _, name := range []string{"fib", "sieve"} {
		src := testmatrix.Ledger.Get(f, name).Src
		for p, m := range testmatrix.Machines {
			img := testmatrix.MustCompile(f, src, m.Cfg, testmatrix.O0.Opt).Image
			f.Add(imageBytes(img.Packed), uint16(len(img.Words)), uint8(p))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, n uint16, pairs uint8) {
		cfg := testmatrix.Machines[int(pairs)%len(testmatrix.Machines)].Cfg
		packed := make([]uint32, len(data)/4)
		for i := range packed {
			packed[i] = binary.LittleEndian.Uint32(data[4*i:])
		}
		words, err := isa.Unpack(packed, int(n), cfg)
		if err != nil {
			return
		}
		if again := isa.Pack(words, cfg); !slices.Equal(again, packed) {
			t.Fatalf("%d instructions unpacked from %d words pack back to %d words", len(words), len(packed), len(again))
		}
		for _, w := range words {
			isa.Decode(w, cfg) // an error is an answer; a panic is not
		}
	})
}

// imageBytes is the little-endian byte stream of packed words.
func imageBytes(packed []uint32) []byte {
	b := make([]byte, 0, 4*len(packed))
	for _, w := range packed {
		b = binary.LittleEndian.AppendUint32(b, w)
	}
	return b
}
