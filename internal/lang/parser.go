package lang

import "math"

// Parse builds the AST of a tcf-e compilation unit.
//
// The parser pulls tokens from the lexer as it goes. A lexical error
// anywhere in the source is reported before any syntax error, as if the
// whole source had been tokenized first: when parsing fails, the rest of
// the source is scanned for one.
func Parse(src string) (*Program, error) {
	if len(src) > math.MaxInt32 {
		return nil, errTooLarge
	}
	p := &parser{lex: lexer{src: src, line: 1}}
	p.scan(&p.tok)
	prog, err := p.program()
	if err != nil {
		for p.tok.Kind != TokEOF {
			p.scan(&p.tok)
		}
	}
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	if err != nil {
		return nil, err
	}
	prog.NumNodes = int(p.nodes)
	return prog, nil
}

func (p *parser) program() (*Program, error) {
	prog := &Program{}
	for !p.at(TokEOF) {
		switch {
		case p.at(TokKwFunc):
			fn, err := p.funcDecl()
			if err != nil {
				return nil, err
			}
			prog.Funcs = append(prog.Funcs, fn)
		case p.at(TokKwShared) || p.at(TokKwLocal) || p.at(TokKwInt) || p.at(TokKwThick):
			d, err := p.varDecl(true)
			if err != nil {
				return nil, err
			}
			prog.Globals = append(prog.Globals, d)
		default:
			return nil, p.errf("expected declaration, got %s", p.describe(p.tok))
		}
	}
	return prog, nil
}

// ptok is a token as the parser sees it: with its position.
type ptok struct {
	Token
	Pos Pos
}

type parser struct {
	lex lexer
	// tok is the current token and ahead, when hasAhead, the one after it
	// (the NUMA statement's "#1/" needs two tokens of lookahead).
	tok      ptok
	ahead    ptok
	hasAhead bool
	// lexErr is the first lexical error; the token stream ends there.
	lexErr error
	nodes  int32

	// The nodes that make up most of a program come from slabs.
	idents   slab[Ident]
	intLits  slab[IntLit]
	binaries slab[Binary]
	indexes  slab[Index]
	assigns  slab[AssignStmt]
}

// slab hands out zeroed T's from chunks of growing size: the nodes of an AST
// live and die together, so one allocation serves dozens of them.
type slab[T any] struct {
	free   []T
	chunks uint
}

func (s *slab[T]) alloc() *T {
	if len(s.free) == 0 {
		s.free = make([]T, 8<<min(s.chunks, 3))
		s.chunks++
	}
	t := &s.free[0]
	s.free = s.free[1:]
	return t
}

// scan reads the next token from the lexer into *tok. The first lexical
// error ends the token stream.
func (p *parser) scan(tok *ptok) {
	if p.lexErr == nil {
		if tok.Pos, p.lexErr = p.lex.next(&tok.Token); p.lexErr == nil {
			return
		}
	}
	*tok = ptok{}
}

// node numbers a new AST node at pos.
func (p *parser) node(pos Pos) node {
	p.nodes++
	return node{Pos: pos, id: p.nodes - 1}
}

func (p *parser) at(k TokKind) bool { return p.tok.Kind == k }

// text is a token's spelling; describe renders it for a message.
func (p *parser) text(t ptok) string     { return t.Text(p.lex.src) }
func (p *parser) describe(t ptok) string { return t.Describe(p.lex.src) }
func (p *parser) intValue(t ptok) int64  { return t.IntValue(p.lex.src) }

// peek returns the token after the current one.
func (p *parser) peek() ptok {
	if !p.hasAhead {
		p.scan(&p.ahead)
		p.hasAhead = true
	}
	return p.ahead
}

func (p *parser) next() ptok {
	t := p.tok
	if t.Kind != TokEOF {
		if p.hasAhead {
			p.tok, p.hasAhead = p.ahead, false
		} else {
			p.scan(&p.tok)
		}
	}
	return t
}

func (p *parser) accept(k TokKind) bool {
	if p.at(k) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(k TokKind) (ptok, error) {
	if !p.at(k) {
		return ptok{}, p.errf("expected %s, got %s", k, p.describe(p.tok))
	}
	return p.next(), nil
}

func (p *parser) errf(format string, args ...any) error {
	return posErrf(p.tok.Pos, format, args...)
}

// varDecl parses
//
//	["shared"|"local"] ["thick"] "int" name ["[" int "]"] ["@" int]
//	    ["=" initializer] ";"
//
// Top-level register-space declarations are rejected by sema, not here.
func (p *parser) varDecl(topLevel bool) (*VarDecl, error) {
	d := &VarDecl{node: p.node(p.tok.Pos), ArrayLen: -1, Addr: -1, Space: SpaceReg}
	if topLevel {
		d.Space = SpaceShared
	}
	if p.accept(TokKwShared) {
		d.Space = SpaceShared
	} else if p.accept(TokKwLocal) {
		d.Space = SpaceLocal
	}
	if p.accept(TokKwThick) {
		d.Thick = true
	}
	if _, err := p.expect(TokKwInt); err != nil {
		return nil, err
	}
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	d.Name = p.text(name)
	if p.accept(TokLBracket) {
		n, err := p.expect(TokInt)
		if err != nil {
			return nil, err
		}
		length := p.intValue(n)
		if length <= 0 {
			return nil, posErrf(n.Pos, "array %s needs positive length", d.Name)
		}
		d.ArrayLen = int(length)
		if _, err := p.expect(TokRBracket); err != nil {
			return nil, err
		}
	}
	if p.accept(TokAt) {
		neg := p.accept(TokMinus)
		a, err := p.expect(TokInt)
		if err != nil {
			return nil, err
		}
		d.Addr = p.intValue(a)
		if neg {
			d.Addr = -d.Addr
		}
	}
	if p.accept(TokAssign) {
		if p.at(TokLBrace) {
			p.next()
			for {
				neg := p.accept(TokMinus)
				v, err := p.expect(TokInt)
				if err != nil {
					return nil, err
				}
				val := p.intValue(v)
				if neg {
					val = -val
				}
				d.InitList = append(d.InitList, val)
				if !p.accept(TokComma) {
					break
				}
			}
			if _, err := p.expect(TokRBrace); err != nil {
				return nil, err
			}
		} else {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			d.InitExpr = e
		}
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	return d, nil
}

func (p *parser) funcDecl() (*FuncDecl, error) {
	fn := &FuncDecl{Pos: p.tok.Pos}
	p.next() // func
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	fn.Name = p.text(name)
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	for !p.at(TokRParen) {
		param, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		fn.Params = append(fn.Params, p.text(param))
		if !p.accept(TokComma) {
			break
		}
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	fn.Body = body
	return fn, nil
}

func (p *parser) block() (*BlockStmt, error) {
	b := &BlockStmt{node: p.node(p.tok.Pos)}
	if _, err := p.expect(TokLBrace); err != nil {
		return nil, err
	}
	for !p.at(TokRBrace) && !p.at(TokEOF) {
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	if _, err := p.expect(TokRBrace); err != nil {
		return nil, err
	}
	return b, nil
}

func (p *parser) stmt() (Stmt, error) {
	switch {
	case p.at(TokLBrace):
		return p.block()
	case p.at(TokKwInt) || p.at(TokKwThick) || p.at(TokKwShared) || p.at(TokKwLocal):
		return p.varDecl(false)
	case p.at(TokKwIf):
		return p.ifStmt()
	case p.at(TokKwWhile):
		return p.whileStmt()
	case p.at(TokKwFor):
		return p.forStmt()
	case p.at(TokKwParallel):
		return p.parallelStmt()
	case p.at(TokKwSwitch):
		return p.switchStmt()
	case p.at(TokHash):
		return p.thickOrNuma()
	case p.at(TokKwBarrier):
		pos := p.next().Pos
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &BarrierStmt{node: p.node(pos)}, nil
	case p.at(TokKwHalt):
		pos := p.next().Pos
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &HaltStmt{node: p.node(pos)}, nil
	case p.at(TokKwBreak):
		pos := p.next().Pos
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &BreakStmt{node: p.node(pos)}, nil
	case p.at(TokKwContinue):
		pos := p.next().Pos
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &ContinueStmt{node: p.node(pos)}, nil
	case p.at(TokKwReturn):
		pos := p.next().Pos
		r := &ReturnStmt{node: p.node(pos)}
		if !p.at(TokSemi) {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			r.X = e
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return r, nil
	}
	s, err := p.simpleStmt()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	return s, nil
}

// simpleStmt parses an assignment or expression statement without the
// trailing semicolon (shared with for-headers).
func (p *parser) simpleStmt() (Stmt, error) {
	pos := p.tok.Pos
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	if op := p.tok.Kind; isAssignOp(op) {
		p.next()
		switch e.(type) {
		case *Ident, *Index:
		default:
			return nil, posErrf(pos, "assignment target must be a variable or array element")
		}
		rhs, err := p.expr()
		if err != nil {
			return nil, err
		}
		s := p.assigns.alloc()
		*s = AssignStmt{node: p.node(pos), LHS: e, Op: op, RHS: rhs}
		return s, nil
	}
	return &ExprStmt{node: p.node(pos), X: e}, nil
}

func isAssignOp(k TokKind) bool {
	switch k {
	case TokAssign, TokPlusAssign, TokMinusAssign, TokStarAssign, TokSlashAssign,
		TokPercentAssign, TokAmpAssign, TokPipeAssign, TokCaretAssign,
		TokShlAssign, TokShrAssign:
		return true
	}
	return false
}

func (p *parser) ifStmt() (Stmt, error) {
	pos := p.next().Pos
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	then, err := p.stmt()
	if err != nil {
		return nil, err
	}
	s := &IfStmt{node: p.node(pos), Cond: cond, Then: then}
	if p.accept(TokKwElse) {
		s.Else, err = p.stmt()
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (p *parser) whileStmt() (Stmt, error) {
	pos := p.next().Pos
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	body, err := p.stmt()
	if err != nil {
		return nil, err
	}
	return &WhileStmt{node: p.node(pos), Cond: cond, Body: body}, nil
}

func (p *parser) forStmt() (Stmt, error) {
	pos := p.next().Pos
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	s := &ForStmt{node: p.node(pos)}
	var err error
	if !p.at(TokSemi) {
		if p.at(TokKwInt) || p.at(TokKwThick) {
			s.Init, err = p.varDecl(false) // consumes ';'
			if err != nil {
				return nil, err
			}
		} else {
			s.Init, err = p.simpleStmt()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokSemi); err != nil {
				return nil, err
			}
		}
	} else {
		p.next()
	}
	if !p.at(TokSemi) {
		s.Cond, err = p.expr()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	if !p.at(TokRParen) {
		s.Post, err = p.simpleStmt()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	s.Body, err = p.stmt()
	if err != nil {
		return nil, err
	}
	return s, nil
}

func (p *parser) switchStmt() (Stmt, error) {
	pos := p.next().Pos
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	subject, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokLBrace); err != nil {
		return nil, err
	}
	s := &SwitchStmt{node: p.node(pos), Subject: subject}
	for !p.at(TokRBrace) {
		c := SwitchCase{Pos: p.tok.Pos}
		switch {
		case p.accept(TokKwCase):
			for {
				v, err := p.expr()
				if err != nil {
					return nil, err
				}
				c.Values = append(c.Values, v)
				if !p.accept(TokComma) {
					break
				}
			}
		case p.accept(TokKwDefault):
		default:
			return nil, p.errf("expected case or default in switch")
		}
		if _, err := p.expect(TokColon); err != nil {
			return nil, err
		}
		for !p.at(TokKwCase) && !p.at(TokKwDefault) && !p.at(TokRBrace) && !p.at(TokEOF) {
			body, err := p.stmt()
			if err != nil {
				return nil, err
			}
			c.Body = append(c.Body, body)
		}
		s.Cases = append(s.Cases, c)
	}
	if _, err := p.expect(TokRBrace); err != nil {
		return nil, err
	}
	if len(s.Cases) == 0 {
		return nil, posErrf(pos, "switch needs at least one case")
	}
	return s, nil
}

func (p *parser) parallelStmt() (Stmt, error) {
	pos := p.next().Pos
	if _, err := p.expect(TokLBrace); err != nil {
		return nil, err
	}
	s := &ParallelStmt{node: p.node(pos)}
	for !p.at(TokRBrace) {
		armPos := p.tok.Pos
		if _, err := p.expect(TokHash); err != nil {
			return nil, err
		}
		th, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokColon); err != nil {
			return nil, err
		}
		body, err := p.stmt()
		if err != nil {
			return nil, err
		}
		s.Arms = append(s.Arms, ParArm{Pos: armPos, Thick: th, Body: body})
	}
	if _, err := p.expect(TokRBrace); err != nil {
		return nil, err
	}
	if len(s.Arms) == 0 {
		return nil, posErrf(pos, "parallel statement needs at least one arm")
	}
	return s, nil
}

// thickOrNuma parses "#expr;" (thickness) or "#1/expr;" (NUMA bunch).
func (p *parser) thickOrNuma() (Stmt, error) {
	pos := p.next().Pos // '#'
	// Lookahead for the literal "1 /" prefix marking NUMA.
	if p.at(TokInt) && p.intValue(p.tok) == 1 && p.peek().Kind == TokSlash {
		p.next() // 1
		p.next() // /
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &NumaStmt{node: p.node(pos), X: e}, nil
	}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	return &ThickStmt{node: p.node(pos), X: e}, nil
}

// Expression parsing: precedence climbing.

// binPrec is the precedence of the binary operators; 0 for every other
// token kind.
var binPrec = [...]int{
	TokOrOr:    1,
	TokAndAnd:  2,
	TokPipe:    3,
	TokCaret:   4,
	TokAmp:     5,
	TokEq:      6,
	TokNe:      6,
	TokLt:      7,
	TokLe:      7,
	TokGt:      7,
	TokGe:      7,
	TokShl:     8,
	TokShr:     8,
	TokPlus:    9,
	TokMinus:   9,
	TokStar:    10,
	TokSlash:   10,
	TokPercent: 10,
}

func (p *parser) expr() (Expr, error) { return p.binExpr(1) }

func (p *parser) binExpr(minPrec int) (Expr, error) {
	lhs, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		op := p.tok.Kind
		if int(op) >= len(binPrec) || binPrec[op] < minPrec {
			return lhs, nil
		}
		prec := binPrec[op]
		pos := p.next().Pos
		rhs, err := p.binExpr(prec + 1)
		if err != nil {
			return nil, err
		}
		b := p.binaries.alloc()
		*b = Binary{node: p.node(pos), Op: op, X: lhs, Y: rhs}
		lhs = b
	}
}

func (p *parser) unary() (Expr, error) {
	switch p.tok.Kind {
	case TokMinus, TokBang, TokTilde:
		tok := p.next()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &Unary{node: p.node(tok.Pos), Op: tok.Kind, X: x}, nil
	case TokAmp:
		pos := p.next().Pos
		name, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		a := &AddrOf{node: p.node(pos), Name: p.text(name)}
		if p.accept(TokLBracket) {
			a.Idx, err = p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokRBracket); err != nil {
				return nil, err
			}
		}
		return a, nil
	}
	return p.primary()
}

func (p *parser) primary() (Expr, error) {
	tok := p.tok
	switch tok.Kind {
	case TokInt:
		p.next()
		lit := p.intLits.alloc()
		*lit = IntLit{node: p.node(tok.Pos), Val: p.intValue(tok)}
		return lit, nil
	case TokString:
		p.next()
		return &StrLit{node: p.node(tok.Pos), Val: tok.StringValue(p.lex.src)}, nil
	case TokLParen:
		p.next()
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case TokIdent:
		p.next()
		switch {
		case p.accept(TokLParen):
			c := &Call{node: p.node(tok.Pos), Name: p.text(tok)}
			for !p.at(TokRParen) {
				a, err := p.expr()
				if err != nil {
					return nil, err
				}
				c.Args = append(c.Args, a)
				if !p.accept(TokComma) {
					break
				}
			}
			if _, err := p.expect(TokRParen); err != nil {
				return nil, err
			}
			return c, nil
		case p.accept(TokLBracket):
			idx, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokRBracket); err != nil {
				return nil, err
			}
			ix := p.indexes.alloc()
			*ix = Index{node: p.node(tok.Pos), Name: p.text(tok), Idx: idx}
			return ix, nil
		default:
			id := p.idents.alloc()
			*id = Ident{node: p.node(tok.Pos), Name: p.text(tok)}
			return id, nil
		}
	}
	return nil, p.errf("expected expression, got %s", p.describe(tok))
}
