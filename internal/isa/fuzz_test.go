package isa_test

import (
	"context"
	"encoding/binary"
	"os"
	"slices"
	"testing"

	"github.com/multiflow-repro/trace/internal/core"
	"github.com/multiflow-repro/trace/internal/isa"
	"github.com/multiflow-repro/trace/internal/mach"
)

// fuzzConfigs are the machines a fuzz input's pairs byte picks from.
var fuzzConfigs = []mach.Config{mach.Trace7(), mach.Trace14(), mach.Trace28()}

// FuzzImageDecode feeds arbitrary bytes to the §6.5.1 mask-format decoder
// and every instruction it yields to Decode: neither may panic, and a stream
// Unpack accepts packs back to itself. The seeds are images of ledger
// programs, besides the corpus checked in under testdata.
func FuzzImageDecode(f *testing.F) {
	for _, name := range []string{"fib", "sieve"} {
		src, err := os.ReadFile("../../bench/programs/" + name + ".mf")
		if err != nil {
			f.Fatal(err)
		}
		for p, cfg := range fuzzConfigs {
			res, err := core.Compile(context.Background(), string(src), core.Options{Config: cfg})
			if err != nil {
				f.Fatal(err)
			}
			f.Add(imageBytes(res.Image.Packed), uint16(len(res.Image.Words)), uint8(p))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, n uint16, pairs uint8) {
		cfg := fuzzConfigs[int(pairs)%len(fuzzConfigs)]
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
