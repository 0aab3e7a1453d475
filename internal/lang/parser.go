package lang

import "fmt"

// Parse lexes and parses an MF source file.
func Parse(src string) (*File, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	return p.file()
}

type parser struct {
	toks  []Token
	pos   int
	depth int // current statement/expression nesting depth
}

// maxNesting bounds recursive-descent depth so hostile input (deep
// parenthesis or brace nesting, long unary chains) produces a positioned
// diagnostic instead of overflowing the host stack.
const maxNesting = 200

// enter guards one level of recursive descent; every enter pairs with leave.
func (p *parser) enter() error {
	p.depth++
	if p.depth > maxNesting {
		return errf(p.cur().Pos, "nesting too deep (max %d levels)", maxNesting)
	}
	return nil
}

func (p *parser) leave() { p.depth-- }

func (p *parser) cur() Token { return p.toks[p.pos] }

func (p *parser) next() Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) accept(k Kind) bool {
	if p.cur().Kind == k {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(k Kind) (Token, error) {
	t := p.cur()
	if t.Kind != k {
		return t, errf(t.Pos, "expected %s, found %s", k, describe(t))
	}
	p.next()
	return t, nil
}

func describe(t Token) string {
	switch t.Kind {
	case IDENT, INTLIT, FLOATLIT:
		return fmt.Sprintf("%s %q", t.Kind, t.Text)
	case EOF:
		return "end of file"
	}
	return fmt.Sprintf("%q", t.Text)
}

func (p *parser) file() (*File, error) {
	f := &File{}
	for p.cur().Kind != EOF {
		switch p.cur().Kind {
		case KVAR:
			g, err := p.globalDecl()
			if err != nil {
				return nil, err
			}
			f.Globals = append(f.Globals, g)
		case KFUNC:
			fn, err := p.funcDecl()
			if err != nil {
				return nil, err
			}
			f.Funcs = append(f.Funcs, fn)
		default:
			return nil, errf(p.cur().Pos, "expected var or func at top level, found %s", describe(p.cur()))
		}
	}
	return f, nil
}

// typ parses int | float | [N]int | [N]float | []int | []float.
func (p *parser) typ() (Type, error) {
	t := p.cur()
	switch t.Kind {
	case KINT:
		p.next()
		return Type{Kind: TInt}, nil
	case KFLOAT:
		p.next()
		return Type{Kind: TFloat}, nil
	case LBRACK:
		p.next()
		if p.accept(RBRACK) {
			elem, err := p.elemType()
			return Type{Kind: TRef, Elem: elem}, err
		}
		n, err := p.expect(INTLIT)
		if err != nil {
			return Type{}, err
		}
		if n.Int <= 0 {
			return Type{}, errf(n.Pos, "array length must be positive")
		}
		if _, err := p.expect(RBRACK); err != nil {
			return Type{}, err
		}
		elem, err := p.elemType()
		return Type{Kind: TArray, Elem: elem, N: n.Int}, err
	}
	return Type{}, errf(t.Pos, "expected type, found %s", describe(t))
}

func (p *parser) elemType() (TypeKind, error) {
	switch p.cur().Kind {
	case KINT:
		p.next()
		return TInt, nil
	case KFLOAT:
		p.next()
		return TFloat, nil
	}
	return TInvalid, errf(p.cur().Pos, "expected int or float element type, found %s", describe(p.cur()))
}

func (p *parser) globalDecl() (*GlobalDecl, error) {
	start, _ := p.expect(KVAR)
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	t, err := p.typ()
	if err != nil {
		return nil, err
	}
	if t.Kind == TRef {
		return nil, errf(start.Pos, "globals cannot have reference type")
	}
	g := &GlobalDecl{Name: name.Text, Type: t, Pos: start.Pos}
	if p.accept(ASSIGN) {
		g.HasInit = true
		if t.Kind == TArray {
			if _, err := p.expect(LBRACE); err != nil {
				return nil, err
			}
			for !p.accept(RBRACE) {
				neg := p.accept(MINUS)
				switch p.cur().Kind {
				case INTLIT:
					v := p.next().Int
					if neg {
						v = -v
					}
					if t.Elem == TInt {
						g.InitListI = append(g.InitListI, v)
					} else {
						g.InitListF = append(g.InitListF, float64(v))
					}
				case FLOATLIT:
					if t.Elem != TFloat {
						return nil, errf(p.cur().Pos, "float literal in int array initializer")
					}
					v := p.next().Flt
					if neg {
						v = -v
					}
					g.InitListF = append(g.InitListF, v)
				default:
					return nil, errf(p.cur().Pos, "expected literal in initializer, found %s", describe(p.cur()))
				}
				if !p.accept(COMMA) && p.cur().Kind != RBRACE {
					return nil, errf(p.cur().Pos, "expected , or } in initializer")
				}
			}
			if int64(len(g.InitListI)) > t.N || int64(len(g.InitListF)) > t.N {
				return nil, errf(start.Pos, "too many initializers for %s[%d]", name.Text, t.N)
			}
		} else {
			neg := p.accept(MINUS)
			switch p.cur().Kind {
			case INTLIT:
				v := p.next().Int
				if neg {
					v = -v
				}
				if t.Kind == TInt {
					g.InitI = v
				} else {
					g.InitF = float64(v)
				}
			case FLOATLIT:
				if t.Kind != TFloat {
					return nil, errf(p.cur().Pos, "float initializer for int global")
				}
				v := p.next().Flt
				if neg {
					v = -v
				}
				g.InitF = v
			default:
				return nil, errf(p.cur().Pos, "expected literal initializer, found %s", describe(p.cur()))
			}
		}
	}
	p.accept(SEMI)
	return g, nil
}

func (p *parser) funcDecl() (*FuncDecl, error) {
	start, _ := p.expect(KFUNC)
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	fn := &FuncDecl{Name: name.Text, Ret: Type{Kind: TVoid}, Pos: start.Pos}
	for p.cur().Kind != RPAREN {
		pn, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		pt, err := p.typ()
		if err != nil {
			return nil, err
		}
		if pt.Kind == TArray {
			return nil, errf(pn.Pos, "array parameters must be references: []%v", pt.Elem)
		}
		fn.Params = append(fn.Params, Param{Name: pn.Text, Type: pt, Pos: pn.Pos})
		if !p.accept(COMMA) && p.cur().Kind != RPAREN {
			return nil, errf(p.cur().Pos, "expected , or ) in parameter list")
		}
	}
	p.next() // RPAREN
	if p.cur().Kind == KINT || p.cur().Kind == KFLOAT {
		rt, err := p.typ()
		if err != nil {
			return nil, err
		}
		fn.Ret = rt
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	fn.Body = body
	return fn, nil
}

func (p *parser) block() (*BlockStmt, error) {
	lb, err := p.expect(LBRACE)
	if err != nil {
		return nil, err
	}
	b := &BlockStmt{stmtBase: stmtBase{Pos: lb.Pos}}
	for !p.accept(RBRACE) {
		if p.cur().Kind == EOF {
			return nil, errf(lb.Pos, "unterminated block")
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	return b, nil
}

func (p *parser) stmt() (Stmt, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	t := p.cur()
	switch t.Kind {
	case KVAR:
		s, err := p.varStmt()
		if err != nil {
			return nil, err
		}
		p.accept(SEMI)
		return s, nil
	case KIF:
		return p.ifStmt()
	case KWHILE:
		p.next()
		if _, err := p.expect(LPAREN); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		body, err := p.block()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{stmtBase: stmtBase{Pos: t.Pos}, Cond: cond, Body: body}, nil
	case KFOR:
		return p.forStmt()
	case KRETURN:
		p.next()
		s := &ReturnStmt{stmtBase: stmtBase{Pos: t.Pos}}
		if p.cur().Kind != SEMI && p.cur().Kind != RBRACE {
			v, err := p.expr()
			if err != nil {
				return nil, err
			}
			s.Val = v
		}
		p.accept(SEMI)
		return s, nil
	case KBREAK:
		p.next()
		p.accept(SEMI)
		return &BreakStmt{stmtBase{Pos: t.Pos}}, nil
	case KCONTINUE:
		p.next()
		p.accept(SEMI)
		return &ContinueStmt{stmtBase{Pos: t.Pos}}, nil
	case LBRACE:
		return p.block()
	default:
		s, err := p.simpleStmt()
		if err != nil {
			return nil, err
		}
		p.accept(SEMI)
		return s, nil
	}
}

func (p *parser) varStmt() (*VarStmt, error) {
	start, _ := p.expect(KVAR)
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	t, err := p.typ()
	if err != nil {
		return nil, err
	}
	s := &VarStmt{stmtBase: stmtBase{Pos: start.Pos}, Name: name.Text, Type: t}
	if p.accept(ASSIGN) {
		if t.Kind == TArray {
			return nil, errf(start.Pos, "local arrays cannot have initializers")
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		s.Init = e
	}
	return s, nil
}

// simpleStmt parses an assignment or expression statement.
func (p *parser) simpleStmt() (Stmt, error) {
	pos := p.cur().Pos
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	if p.accept(ASSIGN) {
		switch e.(type) {
		case *Ident, *Index:
		default:
			return nil, errf(pos, "left side of = must be a variable or array element")
		}
		rhs, err := p.expr()
		if err != nil {
			return nil, err
		}
		return &AssignStmt{stmtBase: stmtBase{Pos: pos}, LHS: e, RHS: rhs}, nil
	}
	return &ExprStmt{stmtBase: stmtBase{Pos: pos}, X: e}, nil
}

func (p *parser) ifStmt() (Stmt, error) {
	start, _ := p.expect(KIF)
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	then, err := p.block()
	if err != nil {
		return nil, err
	}
	s := &IfStmt{stmtBase: stmtBase{Pos: start.Pos}, Cond: cond, Then: then}
	if p.accept(KELSE) {
		if p.cur().Kind == KIF {
			els, err := p.ifStmt()
			if err != nil {
				return nil, err
			}
			s.Else = els
		} else {
			els, err := p.block()
			if err != nil {
				return nil, err
			}
			s.Else = els
		}
	}
	return s, nil
}

func (p *parser) forStmt() (Stmt, error) {
	start, _ := p.expect(KFOR)
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	s := &ForStmt{stmtBase: stmtBase{Pos: start.Pos}}
	if !p.accept(SEMI) {
		var init Stmt
		var err error
		if p.cur().Kind == KVAR {
			init, err = p.varStmt()
		} else {
			init, err = p.simpleStmt()
		}
		if err != nil {
			return nil, err
		}
		s.Init = init
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
	}
	if !p.accept(SEMI) {
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		s.Cond = cond
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
	}
	if p.cur().Kind != RPAREN {
		post, err := p.simpleStmt()
		if err != nil {
			return nil, err
		}
		s.Post = post
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	s.Body = body
	return s, nil
}

// Expression parsing: precedence climbing.

var binPrec = map[Kind]int{
	OROR: 1, ANDAND: 2,
	PIPE: 3, CARET: 4, AMP: 5,
	EQ: 6, NE: 6,
	LT: 7, LE: 7, GT: 7, GE: 7,
	SHL: 8, SHR: 8,
	PLUS: 9, MINUS: 9,
	STAR: 10, SLASH: 10, PERCENT: 10,
}

func (p *parser) expr() (Expr, error) { return p.ternary() }

func (p *parser) ternary() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	c, err := p.binary(1)
	if err != nil {
		return nil, err
	}
	if !p.accept(QUESTION) {
		return c, nil
	}
	pos := p.cur().Pos
	a, err := p.ternary()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(COLON); err != nil {
		return nil, err
	}
	b, err := p.ternary()
	if err != nil {
		return nil, err
	}
	return &Cond{exprBase: exprBase{Pos: pos}, C: c, A: a, B: b}, nil
}

func (p *parser) binary(minPrec int) (Expr, error) {
	lhs, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		op := p.cur().Kind
		prec, ok := binPrec[op]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		pos := p.cur().Pos
		p.next()
		rhs, err := p.binary(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &Binary{exprBase: exprBase{Pos: pos}, Op: op, X: lhs, Y: rhs}
	}
}

func (p *parser) unary() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	t := p.cur()
	switch t.Kind {
	case MINUS, BANG, TILDE:
		p.next()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &Unary{exprBase: exprBase{Pos: t.Pos}, Op: t.Kind, X: x}, nil
	}
	return p.postfix()
}

func (p *parser) postfix() (Expr, error) {
	e, err := p.primary()
	if err != nil {
		return nil, err
	}
	for {
		switch p.cur().Kind {
		case LBRACK:
			pos := p.next().Pos
			idx, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RBRACK); err != nil {
				return nil, err
			}
			e = &Index{exprBase: exprBase{Pos: pos}, Arr: e, Index: idx}
		default:
			return e, nil
		}
	}
}

func (p *parser) primary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case INTLIT:
		p.next()
		return &IntLit{exprBase: exprBase{Pos: t.Pos}, Val: t.Int}, nil
	case FLOATLIT:
		p.next()
		return &FloatLit{exprBase: exprBase{Pos: t.Pos}, Val: t.Flt}, nil
	case KINT, KFLOAT:
		p.next()
		if _, err := p.expect(LPAREN); err != nil {
			return nil, err
		}
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		return &Cast{exprBase: exprBase{Pos: t.Pos}, To: t.Kind, X: x}, nil
	case IDENT:
		p.next()
		if p.cur().Kind == LPAREN {
			p.next()
			c := &Call{exprBase: exprBase{Pos: t.Pos}, Name: t.Text}
			for p.cur().Kind != RPAREN {
				a, err := p.expr()
				if err != nil {
					return nil, err
				}
				c.Args = append(c.Args, a)
				if !p.accept(COMMA) && p.cur().Kind != RPAREN {
					return nil, errf(p.cur().Pos, "expected , or ) in call")
				}
			}
			p.next()
			return c, nil
		}
		return &Ident{exprBase: exprBase{Pos: t.Pos}, Name: t.Text}, nil
	case LPAREN:
		p.next()
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, errf(t.Pos, "expected expression, found %s", describe(t))
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
