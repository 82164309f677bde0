package lang

// Space says where a variable lives.
type Space int

const (
	// SpaceReg variables live in flow registers (scalar or thick).
	SpaceReg Space = iota
	// SpaceShared variables live in shared memory.
	SpaceShared
	// SpaceLocal variables live in the group's local memory block.
	SpaceLocal
)

func (s Space) String() string {
	switch s {
	case SpaceReg:
		return "reg"
	case SpaceShared:
		return "shared"
	case SpaceLocal:
		return "local"
	}
	return "space?"
}

// node is what every statement and expression node shares: its source
// position and its number.
type node struct {
	Pos Pos
	id  int32
}

// GetPos returns the node's source position.
func (n *node) GetPos() Pos { return n.Pos }

// ID returns the node's number. The parser numbers the nodes of a program
// densely, 0 ≤ ID < Program.NumNodes, so that later passes keep what they
// learn about a node in a slice indexed by ID instead of a map keyed by the
// node.
func (n *node) ID() int { return int(n.id) }

// Expr is an expression node.
type Expr interface {
	exprNode()
	GetPos() Pos
	ID() int
}

// IntLit is an integer literal.
type IntLit struct {
	node
	Val int64
}

// Ident references a variable or builtin (tid, fid, thickness, nproc,
// ngroups, gid, pid).
type Ident struct {
	node
	Name string
}

// Unary is -x, !x or ~x.
type Unary struct {
	node
	Op TokKind
	X  Expr
}

// Binary is a binary operation; && and || evaluate both sides (no
// short-circuit: conditions are flow-level scalars).
type Binary struct {
	node
	Op   TokKind
	X, Y Expr
}

// Index is a[i].
type Index struct {
	node
	Name string
	Idx  Expr
}

// AddrOf is &a[i] (or &a, the base address).
type AddrOf struct {
	node
	Name string
	Idx  Expr // nil for &a
}

// Call invokes a user function or an intrinsic (mpadd/mpand/mpor/mpmax/
// mpmin, madd/mand/mor/mmax/mmin, radd/rand/ror/rmax/rmin, print, prints).
type Call struct {
	node
	Name string
	Args []Expr
}

// StrLit is a string literal (prints only).
type StrLit struct {
	node
	Val string
}

func (e *IntLit) exprNode() {}
func (e *Ident) exprNode()  {}
func (e *Unary) exprNode()  {}
func (e *Binary) exprNode() {}
func (e *Index) exprNode()  {}
func (e *AddrOf) exprNode() {}
func (e *Call) exprNode()   {}
func (e *StrLit) exprNode() {}

// Stmt is a statement node.
type Stmt interface {
	stmtNode()
	GetPos() Pos
	ID() int
}

// VarDecl declares a variable. Top-level declarations live in shared (the
// default) or local memory and may bind an address with @ and preload a
// constant initializer; in-function declarations live in registers (thick
// or flow-common) and may have a runtime initializer expression.
type VarDecl struct {
	node
	Name     string
	Thick    bool
	Space    Space
	ArrayLen int   // -1 for scalars
	Addr     int64 // -1 = assign automatically
	InitList []int64
	InitExpr Expr
}

// AssignStmt is lvalue op= expr (op TokAssign for plain =).
type AssignStmt struct {
	node
	LHS Expr // *Ident or *Index
	Op  TokKind
	RHS Expr
}

// ExprStmt evaluates an expression for effect (intrinsic calls).
type ExprStmt struct {
	node
	X Expr
}

// IfStmt: the whole flow takes one branch; Cond must be scalar.
type IfStmt struct {
	node
	Cond Expr
	Then Stmt
	Else Stmt // may be nil
}

// WhileStmt loops at flow level.
type WhileStmt struct {
	node
	Cond Expr
	Body Stmt
}

// ForStmt is for (init; cond; post) body.
type ForStmt struct {
	node
	Init Stmt // *AssignStmt or *VarDecl, may be nil
	Cond Expr // may be nil (infinite)
	Post Stmt // *AssignStmt, may be nil
	Body Stmt
}

// BlockStmt is { ... }.
type BlockStmt struct {
	node
	Stmts []Stmt
}

// ParArm is one arm of a parallel statement: "# thickness : stmt".
type ParArm struct {
	Pos   Pos
	Thick Expr
	Body  Stmt
}

// ParallelStmt splits the flow into one child TCF per arm and joins them at
// the end of the statement.
type ParallelStmt struct {
	node
	Arms []ParArm
}

// ThickStmt is the thickness statement "#expr;".
type ThickStmt struct {
	node
	X Expr
}

// NumaStmt is "#1/expr;", declaring NUMA execution with bunch length expr.
type NumaStmt struct {
	node
	X Expr
}

// BarrierStmt is "barrier;".
type BarrierStmt struct{ node }

// ReturnStmt returns from a flow-level function.
type ReturnStmt struct {
	node
	X Expr // may be nil
}

// HaltStmt terminates the flow.
type HaltStmt struct{ node }

// SwitchCase is one arm of a switch: Values nil marks the default case.
// There is no fallthrough — exactly one arm executes (the whole flow takes
// one path, like every TCF control statement).
type SwitchCase struct {
	Pos    Pos
	Values []Expr
	Body   []Stmt
}

// SwitchStmt selects one arm by comparing the scalar subject against the
// case values in order.
type SwitchStmt struct {
	node
	Subject Expr
	Cases   []SwitchCase
}

// BreakStmt leaves the innermost enclosing loop.
type BreakStmt struct{ node }

// ContinueStmt jumps to the next iteration of the innermost loop.
type ContinueStmt struct{ node }

func (s *VarDecl) stmtNode()      {}
func (s *AssignStmt) stmtNode()   {}
func (s *ExprStmt) stmtNode()     {}
func (s *IfStmt) stmtNode()       {}
func (s *WhileStmt) stmtNode()    {}
func (s *ForStmt) stmtNode()      {}
func (s *BlockStmt) stmtNode()    {}
func (s *ParallelStmt) stmtNode() {}
func (s *ThickStmt) stmtNode()    {}
func (s *NumaStmt) stmtNode()     {}
func (s *BarrierStmt) stmtNode()  {}
func (s *ReturnStmt) stmtNode()   {}
func (s *HaltStmt) stmtNode()     {}
func (s *SwitchStmt) stmtNode()   {}
func (s *BreakStmt) stmtNode()    {}
func (s *ContinueStmt) stmtNode() {}

// FuncDecl is a flow-level function: when a flow of thickness T calls it,
// the function is called once with T implicit threads (Section 2.2).
// Parameters are flow-common scalars.
type FuncDecl struct {
	Pos    Pos
	Name   string
	Params []string
	Body   *BlockStmt
}

// Program is a parsed tcf-e compilation unit.
type Program struct {
	Globals []*VarDecl
	Funcs   []*FuncDecl
	// NumNodes is the number of statement and expression nodes: every
	// node's ID is below it.
	NumNodes int
}

// Func returns the function named name, or nil.
func (p *Program) Func(name string) *FuncDecl {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}
