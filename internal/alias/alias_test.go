package alias

import "testing"

func TestFormArithmetic(t *testing.T) {
	a := VarForm(1).Scale(4).Add(ConstForm(8)) // 4v1 + 8
	b := VarForm(1).Scale(4)                   // 4v1
	d := a.Sub(b)
	if !d.IsConst() || d.Const != 8 {
		t.Errorf("diff = %s, want 8", d)
	}
	z := a.Sub(a)
	if !z.IsConst() || z.Const != 0 || len(z.Terms) != 0 {
		t.Errorf("a-a = %s", z)
	}
	if s := a.String(); s != "4*v1 + 8" {
		t.Errorf("String = %q", s)
	}
	if f := a.Scale(0); !f.IsConst() || f.Const != 0 {
		t.Errorf("scale by 0 = %s", f)
	}
}

func TestMayAliasConstants(t *testing.T) {
	base := VarForm(7)
	cases := []struct {
		offA, offB int64
		szA, szB   int64
		want       Answer
	}{
		{0, 0, 4, 4, Yes},  // identical
		{0, 4, 4, 4, No},   // adjacent i32
		{0, 8, 8, 8, No},   // adjacent f64
		{0, 4, 8, 8, Yes},  // f64 at 0 overlaps f64 at 4
		{4, 0, 8, 8, Yes},  // symmetric overlap
		{0, 100, 4, 4, No}, // far apart
		{96, 100, 8, 4, Yes} /* 8-byte at 96 covers 100 */}
	for _, c := range cases {
		a := Ref{Addr: base.Add(ConstForm(c.offA)), Size: c.szA}
		b := Ref{Addr: base.Add(ConstForm(c.offB)), Size: c.szB}
		if got := MayAlias(a, b); got != c.want {
			t.Errorf("MayAlias(+%d/%d, +%d/%d) = %s, want %s",
				c.offA, c.szA, c.offB, c.szB, got, c.want)
		}
	}
}

func TestMayAliasGCD(t *testing.T) {
	// a[2i] vs a[2i+1] (i32): addresses 8i vs 8i+4 — GCD says never equal
	i := VarForm(3)
	a := Ref{Addr: i.Scale(8), Size: 4}
	b := Ref{Addr: i.Scale(8).Add(ConstForm(4)), Size: 4}
	if got := MayAlias(a, b); got != No {
		t.Errorf("even/odd i32 elements: %s, want no", got)
	}
	// a[2i] vs a[2j]: different variables, can collide
	j := VarForm(4)
	c := Ref{Addr: j.Scale(8), Size: 4}
	if got := MayAlias(a, c); got != Maybe {
		t.Errorf("independent even elements: %s, want maybe", got)
	}
	// f64 a[2i] vs a[2i+1]: 16i vs 16i+8 — disjoint
	af := Ref{Addr: i.Scale(16), Size: 8}
	bf := Ref{Addr: i.Scale(16).Add(ConstForm(8)), Size: 8}
	if got := MayAlias(af, bf); got != No {
		t.Errorf("even/odd f64: %s, want no", got)
	}
}

func TestUnknownBasesCancel(t *testing.T) {
	// Two references off the same unknown base (array parameter): x[i] vs
	// x[i+1] — relative disambiguation resolves them with no knowledge of
	// the base (§6.4.4).
	base := VarForm(9)
	i := VarForm(10)
	a := Ref{Addr: base.Add(i.Scale(8)), Size: 8}
	b := Ref{Addr: base.Add(i.Scale(8)).Add(ConstForm(8)), Size: 8}
	if got := MayAlias(a, b); got != No {
		t.Errorf("x[i] vs x[i+1]: %s, want no", got)
	}
	// Different unknown bases: maybe.
	base2 := VarForm(11)
	c := Ref{Addr: base2.Add(i.Scale(8)), Size: 8}
	if got := MayAlias(a, c); got != Maybe {
		t.Errorf("x[i] vs y[i]: %s, want maybe", got)
	}
}

func TestSameBank(t *testing.T) {
	const mod = 8 * 8 // 8-byte granules × 8 banks = 64-byte modulus
	base := VarForm(1)
	mk := func(off int64) Ref { return Ref{Addr: base.Add(ConstForm(off)), Size: 8} }

	if got := SameBank(mk(0), mk(8), mod); got != No {
		t.Errorf("adjacent words: %s, want no", got)
	}
	if got := SameBank(mk(0), mk(64), mod); got != Yes {
		t.Errorf("stride = modulus: %s, want yes", got)
	}
	if got := SameBank(mk(0), mk(4), mod); got != Maybe {
		// same 8-byte word, definitely same bank — but our conservative
		// answer for non-multiple offsets inside a word is Maybe
		t.Errorf("same word: %s, want maybe", got)
	}
	// variable stride: i*64 is always a bank conflict
	i := VarForm(2)
	a := Ref{Addr: base, Size: 8}
	b := Ref{Addr: base.Add(i.Scale(64)), Size: 8}
	if got := SameBank(a, b, mod); got != Maybe && got != Yes {
		t.Errorf("stride-64 variable: %s, want maybe/yes", got)
	}
	// i*8 (consecutive words, unknown i): could be same bank for some i
	c := Ref{Addr: base.Add(i.Scale(8)), Size: 8}
	if got := SameBank(a, c, mod); got != Maybe {
		t.Errorf("stride-8 variable: %s, want maybe", got)
	}
	// two different unknown bases
	d := Ref{Addr: VarForm(3), Size: 8}
	if got := SameBank(a, d, mod); got != Maybe {
		t.Errorf("unknown bases: %s, want maybe", got)
	}
}

func TestSameController(t *testing.T) {
	// "same controller" is the same congruence test with modulus 8*C
	const mod = 8 * 4 // 4 controllers
	base := VarForm(1)
	a := Ref{Addr: base, Size: 8}
	b := Ref{Addr: base.Add(ConstForm(8)), Size: 8}
	c := Ref{Addr: base.Add(ConstForm(32)), Size: 8}
	if got := SameBank(a, b, mod); got != No {
		t.Errorf("adjacent words same controller: %s, want no", got)
	}
	if got := SameBank(a, c, mod); got != Yes {
		t.Errorf("stride 4 words: %s, want yes", got)
	}
}

func TestAnswerString(t *testing.T) {
	if No.String() != "no" || Maybe.String() != "maybe" || Yes.String() != "yes" {
		t.Error("answer strings wrong")
	}
}
