package isa

import (
	"fmt"

	"github.com/multiflow-repro/trace/internal/mach"
)

// The §6.5.1 variable-length main-memory representation: "We store
// instructions in main memory in blocks of four. Each block is preceded by
// four 32-bit mask words, which specify which 32-bit fields of the
// instruction are present in the block; the others are filled in the cache
// with zeros (no-ops)."
//
// An instruction word count of 8×pairs ≤ 32 means one mask word per
// instruction exactly covers it.

// Pack compresses fixed-width instructions into the mask-word format.
func Pack(words [][]uint32, cfg mach.Config) []uint32 {
	wpi := WordsPerPair * cfg.Pairs
	var out []uint32
	for blk := 0; blk < len(words); blk += 4 {
		masks := make([]uint32, 4)
		var payload []uint32
		for i := 0; i < 4; i++ {
			if blk+i >= len(words) {
				continue
			}
			w := words[blk+i]
			for j := 0; j < wpi; j++ {
				if w[j] != 0 {
					masks[i] |= 1 << uint(j)
					payload = append(payload, w[j])
				}
			}
		}
		out = append(out, masks...)
		out = append(out, payload...)
	}
	return out
}

// Unpack expands the mask-word format back to n fixed-width instructions.
// It accepts exactly the streams Pack writes: one that ends early, names a
// word past an instruction's last or a word of an instruction past the n-th,
// carries a zero word Pack would have left out, or has words left over is
// an error, so Pack(Unpack(p)) is p.
func Unpack(packed []uint32, n int, cfg mach.Config) ([][]uint32, error) {
	wpi := WordsPerPair * cfg.Pairs
	if n < 0 || n > len(packed) { // a block of four instructions takes four masks
		return nil, fmt.Errorf("unpack: %d instructions in %d words", n, len(packed))
	}
	out := make([][]uint32, 0, n)
	pos := 0
	for len(out) < n {
		if pos+4 > len(packed) {
			return nil, fmt.Errorf("unpack: the stream ends in the masks of instruction %d", len(out))
		}
		masks := packed[pos : pos+4]
		pos += 4
		for _, m := range masks {
			if len(out) == n {
				if m != 0 {
					return nil, fmt.Errorf("unpack: a mask names an instruction past the %d-th", n)
				}
				continue
			}
			if m>>uint(wpi) != 0 {
				return nil, fmt.Errorf("unpack: mask %#x of instruction %d names words past its %d", m, len(out), wpi)
			}
			w := make([]uint32, wpi)
			for j := range w {
				if m&(1<<uint(j)) == 0 {
					continue
				}
				if pos == len(packed) || packed[pos] == 0 {
					return nil, fmt.Errorf("unpack: word %d of instruction %d is missing or zero", j, len(out))
				}
				w[j] = packed[pos]
				pos++
			}
			out = append(out, w)
		}
	}
	if pos != len(packed) {
		return nil, fmt.Errorf("unpack: %d words past instruction %d", len(packed)-pos, n)
	}
	return out, nil
}

// PackedSize returns the packed representation's size in bytes.
func PackedSize(packed []uint32) int64 { return int64(len(packed)) * 4 }

// FixedSize returns the fixed-width size in bytes of n instructions.
func FixedSize(n int, cfg mach.Config) int64 {
	return int64(n) * int64(WordsPerPair*cfg.Pairs) * 4
}
