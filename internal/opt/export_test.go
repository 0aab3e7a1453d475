package opt

import "github.com/multiflow-repro/trace/internal/ir"

// A DivClaim is what DivConst relies on at one divide it rewrites: the
// dividend X lies in [Lo, Hi] whenever f.Blocks[Block].Ops[Index] runs.
type DivClaim struct {
	Block, Index int
	Line         int
	X            ir.Reg
	Lo, Hi       int64
}

// DivClaims lists the claims DivConst would rewrite f under, for the sites
// whose form depends on the interval (every rewrite but the sign-corrected
// shift sequence, which holds for any dividend).
func DivClaims(f *ir.Func) []DivClaim {
	var cs []DivClaim
	for _, s := range divSites(f) {
		if s.form == divPow2Pos || s.form == divMagic {
			o := &f.Blocks[s.blk].Ops[s.idx]
			cs = append(cs, DivClaim{s.blk, s.idx, o.Line, o.Args[0], s.x.Lo, s.x.Hi})
		}
	}
	return cs
}
