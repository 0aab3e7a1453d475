package lang

import (
	"errors"
	"fmt"

	"github.com/multiflow-repro/trace/internal/ir"
)

// Compile parses, type-checks, and lowers MF source to an IR program.
func Compile(src string) (*ir.Program, error) {
	file, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Lower(file)
}

// CompileFile is Compile with the source's file name attached to any
// diagnostic, so errors render as "name:line:col: message".
func CompileFile(name, src string) (*ir.Program, error) {
	prog, err := Compile(src)
	if err != nil {
		var le *Error
		if errors.As(err, &le) {
			le.File = name
		}
		return nil, err
	}
	return prog, nil
}

// Lower type-checks and lowers a parsed file.
func Lower(file *File) (*ir.Program, error) {
	lw := &lowerer{
		globals: map[string]*GlobalDecl{},
		funcs:   map[string]*FuncDecl{},
	}
	prog := &ir.Program{}
	for _, g := range file.Globals {
		if lw.globals[g.Name] != nil {
			return nil, errf(g.Pos, "duplicate global %s", g.Name)
		}
		lw.globals[g.Name] = g
		ig := &ir.Global{Name: g.Name}
		switch g.Type.Kind {
		case TInt:
			ig.Elem, ig.Count = ir.I32, 1
			if g.HasInit {
				ig.InitI = []int64{g.InitI}
			}
		case TFloat:
			ig.Elem, ig.Count = ir.F64, 1
			if g.HasInit {
				ig.InitF = []float64{g.InitF}
			}
		case TArray:
			ig.Count = g.Type.N
			if g.Type.Elem == TInt {
				ig.Elem = ir.I32
				ig.InitI = g.InitListI
			} else {
				ig.Elem = ir.F64
				ig.InitF = g.InitListF
			}
		}
		prog.Globals = append(prog.Globals, ig)
	}
	for _, fn := range file.Funcs {
		if lw.funcs[fn.Name] != nil {
			return nil, errf(fn.Pos, "duplicate function %s", fn.Name)
		}
		if ir.IsBuiltin(fn.Name) {
			return nil, errf(fn.Pos, "%s is a builtin", fn.Name)
		}
		lw.funcs[fn.Name] = fn
	}
	for _, fn := range file.Funcs {
		irf, err := lw.lowerFunc(fn)
		if err != nil {
			return nil, err
		}
		prog.AddFunc(irf)
	}
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("internal error: lowered IR invalid: %w", err)
	}
	return prog, nil
}

// local is a resolved local name: a scalar/ref in a register, or an array at
// a frame offset.
type local struct {
	typ   Type
	reg   ir.Reg // scalars and refs
	frOff int64  // arrays
}

type lowerer struct {
	globals map[string]*GlobalDecl
	funcs   map[string]*FuncDecl

	f      *ir.Func
	b      *ir.Builder
	fn     *FuncDecl
	scopes []map[string]*local
	// loop context for break/continue
	breakTo    []*ir.Block
	continueTo []*ir.Block
}

func irType(k TypeKind) ir.Type {
	if k == TFloat {
		return ir.F64
	}
	return ir.I32
}

func (lw *lowerer) lookup(name string) *local {
	for i := len(lw.scopes) - 1; i >= 0; i-- {
		if l, ok := lw.scopes[i][name]; ok {
			return l
		}
	}
	return nil
}

func (lw *lowerer) define(pos Pos, name string, l *local) error {
	top := lw.scopes[len(lw.scopes)-1]
	if _, ok := top[name]; ok {
		return errf(pos, "%s redeclared in this scope", name)
	}
	top[name] = l
	return nil
}

func (lw *lowerer) lowerFunc(fn *FuncDecl) (*ir.Func, error) {
	var ret ir.Type
	switch fn.Ret.Kind {
	case TVoid:
		ret = ir.Void
	case TInt:
		ret = ir.I32
	case TFloat:
		ret = ir.F64
	default:
		return nil, errf(fn.Pos, "function %s: bad return type %s", fn.Name, fn.Ret)
	}
	f := ir.NewFunc(fn.Name, ret)
	lw.f = f
	lw.b = ir.NewBuilder(f)
	lw.b.Line = fn.Pos.Line
	lw.fn = fn
	lw.scopes = []map[string]*local{{}}
	lw.breakTo, lw.continueTo = nil, nil

	for _, p := range fn.Params {
		var t ir.Type
		switch p.Type.Kind {
		case TInt, TRef:
			t = ir.I32 // references are byte addresses
		case TFloat:
			t = ir.F64
		default:
			return nil, errf(p.Pos, "bad parameter type %s", p.Type)
		}
		r := f.NewReg(t)
		f.Params = append(f.Params, ir.Param{Reg: r, Type: t})
		if err := lw.define(p.Pos, p.Name, &local{typ: p.Type, reg: r}); err != nil {
			return nil, err
		}
	}
	if err := lw.stmts(fn.Body.Stmts); err != nil {
		return nil, err
	}
	// Implicit return if control can fall off the end.
	if lw.b.Cur.Term() == nil {
		switch ret {
		case ir.Void:
			lw.b.Emit(ir.Op{Kind: ir.Ret})
		case ir.I32:
			z := lw.b.ConstI(0)
			lw.b.Emit(ir.Op{Kind: ir.Ret, Args: []ir.Reg{z}})
		case ir.F64:
			z := lw.b.ConstF(0)
			lw.b.Emit(ir.Op{Kind: ir.Ret, Args: []ir.Reg{z}})
		}
	}
	// Any other block left unterminated (e.g. a loop body ending in break
	// created empty continuation blocks) gets an implicit return too.
	for _, blk := range f.Blocks {
		if blk.Term() == nil {
			lw.b.SetBlock(blk)
			switch ret {
			case ir.Void:
				lw.b.Emit(ir.Op{Kind: ir.Ret})
			case ir.I32:
				z := lw.b.ConstI(0)
				lw.b.Emit(ir.Op{Kind: ir.Ret, Args: []ir.Reg{z}})
			case ir.F64:
				z := lw.b.ConstF(0)
				lw.b.Emit(ir.Op{Kind: ir.Ret, Args: []ir.Reg{z}})
			}
		}
	}
	f.RemoveUnreachable()
	return f, nil
}

func (lw *lowerer) stmts(list []Stmt) error {
	for _, s := range list {
		if err := lw.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (lw *lowerer) pushScope() { lw.scopes = append(lw.scopes, map[string]*local{}) }
func (lw *lowerer) popScope()  { lw.scopes = lw.scopes[:len(lw.scopes)-1] }

func (lw *lowerer) stmt(s Stmt) error {
	switch s := s.(type) {
	case *VarStmt:
		lw.b.Line = s.Pos.Line
		switch s.Type.Kind {
		case TInt, TFloat, TRef:
			t := irType(s.Type.Kind)
			if s.Type.Kind == TRef {
				t = ir.I32
			}
			r := lw.f.NewReg(t)
			if s.Init != nil {
				v, vt, err := lw.expr(s.Init)
				if err != nil {
					return err
				}
				if !assignable(s.Type, vt) {
					return errf(s.Pos, "cannot initialize %s %s with %s", s.Name, s.Type, vt)
				}
				lw.b.Emit(ir.Op{Kind: ir.Mov, Type: t, Dst: r, Args: []ir.Reg{v}})
			} else {
				if t == ir.F64 {
					z := lw.b.ConstF(0)
					lw.b.Emit(ir.Op{Kind: ir.Mov, Type: t, Dst: r, Args: []ir.Reg{z}})
				} else {
					z := lw.b.ConstI(0)
					lw.b.Emit(ir.Op{Kind: ir.Mov, Type: t, Dst: r, Args: []ir.Reg{z}})
				}
			}
			return lw.define(s.Pos, s.Name, &local{typ: s.Type, reg: r})
		case TArray:
			size := s.Type.N * elemSize(s.Type.Elem)
			lw.f.FrameSize = (lw.f.FrameSize + 7) &^ 7
			off := lw.f.FrameSize
			lw.f.FrameSize += (size + 7) &^ 7
			return lw.define(s.Pos, s.Name, &local{typ: s.Type, frOff: off})
		}
		return errf(s.Pos, "bad variable type")

	case *AssignStmt:
		lw.b.Line = s.Pos.Line
		return lw.assign(s)

	case *IfStmt:
		lw.b.Line = s.Pos.Line
		cond, err := lw.condValue(s.Cond)
		if err != nil {
			return err
		}
		then := lw.b.NewBlock()
		done := lw.b.NewBlock()
		els := done
		if s.Else != nil {
			els = lw.b.NewBlock()
		}
		lw.b.CondBr(cond, then, els)
		lw.b.SetBlock(then)
		lw.pushScope()
		if err := lw.stmts(s.Then.Stmts); err != nil {
			return err
		}
		lw.popScope()
		if lw.b.Cur.Term() == nil {
			lw.b.Br(done)
		}
		if s.Else != nil {
			lw.b.SetBlock(els)
			lw.pushScope()
			if err := lw.stmt(s.Else); err != nil {
				return err
			}
			lw.popScope()
			if lw.b.Cur.Term() == nil {
				lw.b.Br(done)
			}
		}
		lw.b.SetBlock(done)
		return nil

	case *WhileStmt:
		lw.b.Line = s.Pos.Line
		head := lw.b.NewBlock()
		body := lw.b.NewBlock()
		done := lw.b.NewBlock()
		lw.b.Br(head)
		lw.b.SetBlock(head)
		cond, err := lw.condValue(s.Cond)
		if err != nil {
			return err
		}
		lw.b.CondBr(cond, body, done)
		lw.b.SetBlock(body)
		lw.pushScope()
		lw.breakTo = append(lw.breakTo, done)
		lw.continueTo = append(lw.continueTo, head)
		err = lw.stmts(s.Body.Stmts)
		lw.breakTo = lw.breakTo[:len(lw.breakTo)-1]
		lw.continueTo = lw.continueTo[:len(lw.continueTo)-1]
		lw.popScope()
		if err != nil {
			return err
		}
		if lw.b.Cur.Term() == nil {
			lw.b.Br(head)
		}
		lw.b.SetBlock(done)
		return nil

	case *ForStmt:
		lw.b.Line = s.Pos.Line
		lw.pushScope() // for-init scope
		if s.Init != nil {
			if err := lw.stmt(s.Init); err != nil {
				return err
			}
		}
		head := lw.b.NewBlock()
		body := lw.b.NewBlock()
		post := lw.b.NewBlock()
		done := lw.b.NewBlock()
		lw.b.Br(head)
		lw.b.SetBlock(head)
		if s.Cond != nil {
			cond, err := lw.condValue(s.Cond)
			if err != nil {
				return err
			}
			lw.b.CondBr(cond, body, done)
		} else {
			lw.b.Br(body)
		}
		lw.b.SetBlock(body)
		lw.pushScope()
		lw.breakTo = append(lw.breakTo, done)
		lw.continueTo = append(lw.continueTo, post)
		err := lw.stmts(s.Body.Stmts)
		lw.breakTo = lw.breakTo[:len(lw.breakTo)-1]
		lw.continueTo = lw.continueTo[:len(lw.continueTo)-1]
		lw.popScope()
		if err != nil {
			return err
		}
		if lw.b.Cur.Term() == nil {
			lw.b.Br(post)
		}
		lw.b.SetBlock(post)
		if s.Post != nil {
			if err := lw.stmt(s.Post); err != nil {
				return err
			}
		}
		lw.b.Br(head)
		lw.popScope()
		lw.b.SetBlock(done)
		return nil

	case *ReturnStmt:
		lw.b.Line = s.Pos.Line
		if s.Val == nil {
			if lw.fn.Ret.Kind != TVoid {
				return errf(s.Pos, "missing return value in %s", lw.fn.Name)
			}
			lw.b.Emit(ir.Op{Kind: ir.Ret})
		} else {
			v, vt, err := lw.expr(s.Val)
			if err != nil {
				return err
			}
			if !vt.Equal(lw.fn.Ret) {
				return errf(s.Pos, "return %s from function returning %s", vt, lw.fn.Ret)
			}
			lw.b.Emit(ir.Op{Kind: ir.Ret, Args: []ir.Reg{v}})
		}
		// Code after a return in the same block is unreachable; park the
		// builder on a fresh block so lowering can continue.
		lw.b.SetBlock(lw.b.NewBlock())
		return nil

	case *BreakStmt:
		lw.b.Line = s.Pos.Line
		if len(lw.breakTo) == 0 {
			return errf(s.Pos, "break outside loop")
		}
		lw.b.Br(lw.breakTo[len(lw.breakTo)-1])
		lw.b.SetBlock(lw.b.NewBlock())
		return nil

	case *ContinueStmt:
		lw.b.Line = s.Pos.Line
		if len(lw.continueTo) == 0 {
			return errf(s.Pos, "continue outside loop")
		}
		lw.b.Br(lw.continueTo[len(lw.continueTo)-1])
		lw.b.SetBlock(lw.b.NewBlock())
		return nil

	case *ExprStmt:
		lw.b.Line = s.Pos.Line
		if c, ok := s.X.(*Call); ok {
			_, _, err := lw.call(c, true)
			return err
		}
		_, _, err := lw.expr(s.X)
		return err

	case *BlockStmt:
		lw.pushScope()
		err := lw.stmts(s.Stmts)
		lw.popScope()
		return err
	}
	return errf(Pos{}, "unknown statement %T", s)
}

func assignable(dst Type, src Type) bool {
	if dst.Kind == TRef {
		return src.Kind == TRef && src.Elem == dst.Elem
	}
	return dst.Kind == src.Kind
}

func elemSize(k TypeKind) int64 {
	if k == TFloat {
		return 8
	}
	return 4
}

func (lw *lowerer) assign(s *AssignStmt) error {
	switch lhs := s.LHS.(type) {
	case *Ident:
		if l := lw.lookup(lhs.Name); l != nil {
			if l.typ.Kind == TArray {
				return errf(s.Pos, "cannot assign to array %s", lhs.Name)
			}
			v, vt, err := lw.expr(s.RHS)
			if err != nil {
				return err
			}
			if !assignable(l.typ, vt) {
				return errf(s.Pos, "cannot assign %s to %s %s", vt, lhs.Name, l.typ)
			}
			t := irType(l.typ.Kind)
			if l.typ.Kind == TRef {
				t = ir.I32
			}
			lw.b.Emit(ir.Op{Kind: ir.Mov, Type: t, Dst: l.reg, Args: []ir.Reg{v}})
			return nil
		}
		if g := lw.globals[lhs.Name]; g != nil {
			if g.Type.Kind == TArray {
				return errf(s.Pos, "cannot assign to array %s", lhs.Name)
			}
			v, vt, err := lw.expr(s.RHS)
			if err != nil {
				return err
			}
			if vt.Kind != g.Type.Kind {
				return errf(s.Pos, "cannot assign %s to %s %s", vt, lhs.Name, g.Type)
			}
			addr := lw.b.GAddr(g.Name)
			lw.b.Emit(ir.Op{Kind: ir.Store, Type: irType(g.Type.Kind), Args: []ir.Reg{addr, v}})
			return nil
		}
		return errf(s.Pos, "undefined: %s", lhs.Name)

	case *Index:
		addr, off, elem, err := lw.elemAddr(lhs)
		if err != nil {
			return err
		}
		v, vt, err := lw.expr(s.RHS)
		if err != nil {
			return err
		}
		if (elem == TInt && vt.Kind != TInt) || (elem == TFloat && vt.Kind != TFloat) {
			return errf(s.Pos, "cannot store %s into %s element", vt, Type{Kind: elem})
		}
		lw.b.Emit(ir.Op{Kind: ir.Store, Type: irType(elem), Args: []ir.Reg{addr, v}, ImmI: off})
		return nil
	}
	return errf(s.Pos, "bad assignment target")
}

// arrayBase lowers an expression of array/reference type to a base address
// register, returning the element kind.
func (lw *lowerer) arrayBase(e Expr) (ir.Reg, TypeKind, error) {
	id, ok := e.(*Ident)
	if !ok {
		return ir.None, TInvalid, errf(e.At(), "expression is not an array")
	}
	if l := lw.lookup(id.Name); l != nil {
		switch l.typ.Kind {
		case TArray:
			return lw.b.FrAddr(l.frOff), l.typ.Elem, nil
		case TRef:
			return l.reg, l.typ.Elem, nil
		}
		return ir.None, TInvalid, errf(id.Pos, "%s is not an array", id.Name)
	}
	if g := lw.globals[id.Name]; g != nil {
		if g.Type.Kind != TArray {
			return ir.None, TInvalid, errf(id.Pos, "%s is not an array", id.Name)
		}
		return lw.b.GAddr(g.Name), g.Type.Elem, nil
	}
	return ir.None, TInvalid, errf(id.Pos, "undefined: %s", id.Name)
}

// elemAddr lowers a[i] to (addrReg, constOffset, elemKind).
func (lw *lowerer) elemAddr(x *Index) (ir.Reg, int64, TypeKind, error) {
	base, elem, err := lw.arrayBase(x.Arr)
	if err != nil {
		return ir.None, 0, TInvalid, err
	}
	size := elemSize(elem)
	if lit, ok := x.Index.(*IntLit); ok {
		return base, lit.Val * size, elem, nil
	}
	idx, it, err := lw.expr(x.Index)
	if err != nil {
		return ir.None, 0, TInvalid, err
	}
	if it.Kind != TInt {
		return ir.None, 0, TInvalid, errf(x.Pos, "array index must be int, not %s", it)
	}
	var scaled ir.Reg
	if size == 4 {
		sh := lw.b.ConstI(2)
		scaled = lw.b.Bin(ir.Shl, ir.I32, idx, sh)
	} else {
		sh := lw.b.ConstI(3)
		scaled = lw.b.Bin(ir.Shl, ir.I32, idx, sh)
	}
	ea := lw.b.Bin(ir.Add, ir.I32, base, scaled)
	return ea, 0, elem, nil
}

// condValue lowers e and normalizes it to an i32 condition register.
func (lw *lowerer) condValue(e Expr) (ir.Reg, error) {
	v, t, err := lw.expr(e)
	if err != nil {
		return ir.None, err
	}
	if t.Kind != TInt {
		return ir.None, errf(e.At(), "condition must be int, not %s", t)
	}
	return v, nil
}

var intOnlyOps = map[Kind]bool{
	PERCENT: true, SHL: true, SHR: true, AMP: true, PIPE: true, CARET: true,
	ANDAND: true, OROR: true,
}

var cmpOps = map[Kind][2]ir.OpKind{ // [int, float]
	EQ: {ir.CmpEQ, ir.FCmpEQ}, NE: {ir.CmpNE, ir.FCmpNE},
	LT: {ir.CmpLT, ir.FCmpLT}, LE: {ir.CmpLE, ir.FCmpLE},
	GT: {ir.CmpGT, ir.FCmpGT}, GE: {ir.CmpGE, ir.FCmpGE},
}

var arithOps = map[Kind][2]ir.OpKind{
	PLUS: {ir.Add, ir.FAdd}, MINUS: {ir.Sub, ir.FSub},
	STAR: {ir.Mul, ir.FMul}, SLASH: {ir.Div, ir.FDiv},
	PERCENT: {ir.Rem, 0}, SHL: {ir.Shl, 0}, SHR: {ir.Sra, 0},
	AMP: {ir.And, 0}, PIPE: {ir.Or, 0}, CARET: {ir.Xor, 0},
}

// expr lowers an expression, returning its value register and type.
func (lw *lowerer) expr(e Expr) (ir.Reg, Type, error) {
	tInt := Type{Kind: TInt}
	tFloat := Type{Kind: TFloat}
	switch e := e.(type) {
	case *IntLit:
		lw.b.Line = e.Pos.Line
		return lw.b.ConstI(e.Val), tInt, nil
	case *FloatLit:
		lw.b.Line = e.Pos.Line
		return lw.b.ConstF(e.Val), tFloat, nil

	case *Ident:
		lw.b.Line = e.Pos.Line
		if l := lw.lookup(e.Name); l != nil {
			switch l.typ.Kind {
			case TInt, TFloat, TRef:
				t := l.typ
				if t.Kind == TRef {
					return l.reg, t, nil
				}
				return l.reg, t, nil
			case TArray:
				// decay to reference
				return lw.b.FrAddr(l.frOff), Type{Kind: TRef, Elem: l.typ.Elem}, nil
			}
		}
		if g := lw.globals[e.Name]; g != nil {
			switch g.Type.Kind {
			case TInt, TFloat:
				addr := lw.b.GAddr(g.Name)
				return lw.b.Load(irType(g.Type.Kind), addr, 0), g.Type, nil
			case TArray:
				return lw.b.GAddr(g.Name), Type{Kind: TRef, Elem: g.Type.Elem}, nil
			}
		}
		return ir.None, Type{}, errf(e.Pos, "undefined: %s", e.Name)

	case *Index:
		lw.b.Line = e.Pos.Line
		addr, off, elem, err := lw.elemAddr(e)
		if err != nil {
			return ir.None, Type{}, err
		}
		t := Type{Kind: TInt}
		if elem == TFloat {
			t = Type{Kind: TFloat}
		}
		r := lw.f.NewReg(irType(elem))
		lw.b.Emit(ir.Op{Kind: ir.Load, Type: irType(elem), Dst: r, Args: []ir.Reg{addr}, ImmI: off})
		return r, t, nil

	case *Unary:
		lw.b.Line = e.Pos.Line
		v, t, err := lw.expr(e.X)
		if err != nil {
			return ir.None, Type{}, err
		}
		switch e.Op {
		case MINUS:
			if t.Kind == TFloat {
				return lw.b.Un(ir.FNeg, ir.F64, v), t, nil
			}
			if t.Kind == TInt {
				return lw.b.Un(ir.Neg, ir.I32, v), t, nil
			}
		case BANG:
			if t.Kind == TInt {
				z := lw.b.ConstI(0)
				return lw.b.Bin(ir.CmpEQ, ir.I32, v, z), tInt, nil
			}
		case TILDE:
			if t.Kind == TInt {
				return lw.b.Un(ir.Not, ir.I32, v), t, nil
			}
		}
		return ir.None, Type{}, errf(e.Pos, "invalid operand type %s for unary %s", t, e.Op)

	case *Binary:
		lw.b.Line = e.Pos.Line
		if e.Op == ANDAND || e.Op == OROR {
			return lw.shortCircuit(e)
		}
		x, xt, err := lw.expr(e.X)
		if err != nil {
			return ir.None, Type{}, err
		}
		y, yt, err := lw.expr(e.Y)
		if err != nil {
			return ir.None, Type{}, err
		}
		if !xt.Scalar() || !xt.Equal(yt) {
			return ir.None, Type{}, errf(e.Pos, "invalid operands %s and %s for %s (use int()/float() casts)", xt, yt, e.Op)
		}
		if xt.Kind == TFloat && intOnlyOps[e.Op] {
			return ir.None, Type{}, errf(e.Pos, "operator %s requires int operands", e.Op)
		}
		if ops, ok := cmpOps[e.Op]; ok {
			k := ops[0]
			if xt.Kind == TFloat {
				k = ops[1]
			}
			// compare predicates always produce an i32 truth value; the
			// op's Type field records the operand type
			r := lw.f.NewReg(ir.I32)
			lw.b.Emit(ir.Op{Kind: k, Type: irType(xt.Kind), Dst: r, Args: []ir.Reg{x, y}})
			return r, tInt, nil
		}
		if ops, ok := arithOps[e.Op]; ok {
			k := ops[0]
			if xt.Kind == TFloat {
				k = ops[1]
			}
			return lw.b.Bin(k, irType(xt.Kind), x, y), xt, nil
		}
		return ir.None, Type{}, errf(e.Pos, "bad operator %s", e.Op)

	case *Cond:
		lw.b.Line = e.Pos.Line
		c, err := lw.condValue(e.C)
		if err != nil {
			return ir.None, Type{}, err
		}
		a, at, err := lw.expr(e.A)
		if err != nil {
			return ir.None, Type{}, err
		}
		b, bt, err := lw.expr(e.B)
		if err != nil {
			return ir.None, Type{}, err
		}
		if !at.Scalar() || !at.Equal(bt) {
			return ir.None, Type{}, errf(e.Pos, "mismatched ?: arms: %s and %s", at, bt)
		}
		r := lw.f.NewReg(irType(at.Kind))
		lw.b.Emit(ir.Op{Kind: ir.Select, Type: irType(at.Kind), Dst: r, Args: []ir.Reg{c, a, b}})
		return r, at, nil

	case *Call:
		lw.b.Line = e.Pos.Line
		return lw.call(e, false)

	case *Cast:
		lw.b.Line = e.Pos.Line
		v, t, err := lw.expr(e.X)
		if err != nil {
			return ir.None, Type{}, err
		}
		if e.To == KINT {
			switch t.Kind {
			case TInt:
				return v, t, nil
			case TFloat:
				return lw.b.Un(ir.FtoI, ir.I32, v), tInt, nil
			}
		} else {
			switch t.Kind {
			case TFloat:
				return v, t, nil
			case TInt:
				return lw.b.Un(ir.ItoF, ir.F64, v), tFloat, nil
			}
		}
		return ir.None, Type{}, errf(e.Pos, "cannot cast %s", t)
	}
	return ir.None, Type{}, errf(Pos{}, "unknown expression %T", e)
}

// shortCircuit lowers && and || with control flow, producing a 0/1 result.
func (lw *lowerer) shortCircuit(e *Binary) (ir.Reg, Type, error) {
	res := lw.f.NewReg(ir.I32)
	x, xt, err := lw.expr(e.X)
	if err != nil {
		return ir.None, Type{}, err
	}
	if xt.Kind != TInt {
		return ir.None, Type{}, errf(e.Pos, "operator %s requires int operands", e.Op)
	}
	evalY := lw.b.NewBlock()
	short := lw.b.NewBlock()
	done := lw.b.NewBlock()
	if e.Op == ANDAND {
		lw.b.CondBr(x, evalY, short)
	} else {
		lw.b.CondBr(x, short, evalY)
	}
	lw.b.SetBlock(evalY)
	y, yt, err := lw.expr(e.Y)
	if err != nil {
		return ir.None, Type{}, err
	}
	if yt.Kind != TInt {
		return ir.None, Type{}, errf(e.Pos, "operator %s requires int operands", e.Op)
	}
	z := lw.b.ConstI(0)
	norm := lw.b.Bin(ir.CmpNE, ir.I32, y, z)
	lw.b.Emit(ir.Op{Kind: ir.Mov, Type: ir.I32, Dst: res, Args: []ir.Reg{norm}})
	lw.b.Br(done)
	lw.b.SetBlock(short)
	var k int64
	if e.Op == OROR {
		k = 1
	}
	c := lw.b.ConstI(k)
	lw.b.Emit(ir.Op{Kind: ir.Mov, Type: ir.I32, Dst: res, Args: []ir.Reg{c}})
	lw.b.Br(done)
	lw.b.SetBlock(done)
	return res, Type{Kind: TInt}, nil
}

func (lw *lowerer) call(e *Call, stmtCtx bool) (ir.Reg, Type, error) {
	if b, ok := ir.Builtins[e.Name]; ok {
		if len(e.Args) != len(b.Params) {
			return ir.None, Type{}, errf(e.Pos, "%s takes %d argument(s)", e.Name, len(b.Params))
		}
		var args []ir.Reg
		for i, a := range e.Args {
			v, vt, err := lw.expr(a)
			if err != nil {
				return ir.None, Type{}, err
			}
			want := TInt
			if b.Params[i] == ir.F64 {
				want = TFloat
			}
			if vt.Kind != want {
				return ir.None, Type{}, errf(e.Pos, "%s argument %d: have %s, want %s", e.Name, i+1, vt, Type{Kind: want})
			}
			args = append(args, v)
		}
		lw.b.Emit(ir.Op{Kind: ir.Call, Sym: e.Name, Args: args})
		return ir.None, Type{Kind: TVoid}, nil
	}
	fn := lw.funcs[e.Name]
	if fn == nil {
		return ir.None, Type{}, errf(e.Pos, "undefined function %s", e.Name)
	}
	if len(e.Args) != len(fn.Params) {
		return ir.None, Type{}, errf(e.Pos, "%s takes %d argument(s), got %d", e.Name, len(fn.Params), len(e.Args))
	}
	var args []ir.Reg
	for i, a := range e.Args {
		v, vt, err := lw.expr(a)
		if err != nil {
			return ir.None, Type{}, err
		}
		if !assignable(fn.Params[i].Type, vt) {
			return ir.None, Type{}, errf(e.Pos, "%s argument %d: have %s, want %s", e.Name, i+1, vt, fn.Params[i].Type)
		}
		args = append(args, v)
	}
	var dst ir.Reg
	var rt Type
	switch fn.Ret.Kind {
	case TVoid:
		rt = Type{Kind: TVoid}
		if !stmtCtx {
			return ir.None, Type{}, errf(e.Pos, "%s returns no value", e.Name)
		}
	case TInt:
		rt = Type{Kind: TInt}
		dst = lw.f.NewReg(ir.I32)
	case TFloat:
		rt = Type{Kind: TFloat}
		dst = lw.f.NewReg(ir.F64)
	}
	lw.b.Emit(ir.Op{Kind: ir.Call, Sym: e.Name, Dst: dst, Args: args})
	return dst, rt, nil
}
