package pascal

import (
	"pag/internal/ag"
	"pag/internal/rope"
)

// Attribute names used throughout the grammar. Indexes are fixed by
// declaration order within each symbol; the named constants below give
// the common layouts.
//
// Inherited: env (the applicative environment, a priority attribute —
// the paper's global symbol table), label (enclosing procedure's code
// label, used to derive nested labels), lbase (unique-identifier base
// for control-flow and string labels, the paper's §4.3 chain).
//
// Synthesized: decl (declaration signatures, phase 1), code (VAX
// assembly, a rope), data (.data section contributions), lused (labels
// consumed), errs (semantic errors), ty (expression type), acode
// (address code for lvalues), plus list-valued helper attributes.
const (
	// layout of stmt, stmt_list (split symbols)
	SAttrEnv   = 0 // inh *Env
	SAttrLbase = 1 // inh int
	SAttrCode  = 2 // syn rope.Code
	SAttrData  = 3 // syn rope.Code
	SAttrLused = 4 // syn int
	SAttrErrs  = 5 // syn []string

	// layout of proc_decl, proc_part (split symbols): decl first, then
	// the stmt layout shifted by one, plus the label attribute.
	PAttrDecl  = 0 // syn []*DeclSig
	PAttrEnv   = 1 // inh *Env
	PAttrLabel = 2 // inh string
	PAttrLbase = 3 // inh int
	PAttrCode  = 4 // syn rope.Code
	PAttrData  = 5 // syn rope.Code
	PAttrLused = 6 // syn int
	PAttrErrs  = 7 // syn []string

	// layout of program (start symbol)
	ProgAttrCode = 0 // syn rope.Code
	ProgAttrErrs = 1 // syn []string
)

// DeclSig is one declaration signature flowing up in phase 1.
type DeclSig struct {
	Kind   EntryKind
	Name   string
	Type   Type
	Params []Param
	Value  int // ConstEntry value
}

// ArgInfo is one actual argument of a call: its value code, its address
// code (nil unless the actual is a variable), a direct VAX operand when
// the actual is foldable, and its type.
type ArgInfo struct {
	Code  rope.Code
	ACode rope.Code
	Opnd  string
	Ty    Type
}

// Lang bundles the Pascal grammar with the handles its parser needs.
type Lang struct {
	G *ag.Grammar
	A *ag.Analysis

	// terminals
	TID, TNum, TStr, TChar *ag.Symbol

	// nonterminals
	Program, Block                 *ag.Symbol
	ConstPart, VarPart             *ag.Symbol
	ProcPart, ProcDecl             *ag.Symbol
	FormalPart, Formal             *ag.Symbol
	TypeExpr, FieldList, FieldDecl *ag.Symbol
	IDList, NumList                *ag.Symbol
	Stmt, StmtList                 *ag.Symbol
	Expr, Variable, ArgList        *ag.Symbol
	ConstDecl, VarDecl             *ag.Symbol
	CaseArms, CaseArm              *ag.Symbol
	WriteArgs, WriteArg, ReadArgs  *ag.Symbol

	// productions (populated by buildRules), by name and as the
	// parser's pre-resolved table
	prods map[string]*ag.Production
	prod  prodTable
}

// Prod returns the named production (panics on unknown names; grammar
// construction is startup-time code).
func (l *Lang) Prod(name string) *ag.Production {
	p, ok := l.prods[name]
	if !ok {
		panic("pascal: unknown production " + name)
	}
	return p
}

// MinSplitSizes: the grammar's per-symbol minimum subtree sizes (§2.5).
const (
	minSplitStmt     = 64
	minSplitStmtList = 96
	minSplitProc     = 128
	minSplitProcList = 128
)

// New builds the Pascal attribute grammar and its OAG analysis.
func New() (*Lang, error) {
	b := ag.NewBuilder("pascal")
	l := &Lang{prods: make(map[string]*ag.Production)}

	// Terminals. All carry their lexeme as the single attribute.
	l.TID = b.Terminal("ID", ag.Syn("string"))
	l.TNum = b.Terminal("NUM", ag.Syn("string"))
	l.TStr = b.Terminal("STR", ag.Syn("string"))
	l.TChar = b.Terminal("CHARLIT", ag.Syn("string"))

	codeC := rope.CodeCodec{Librarian: true}
	env := ag.Inh("env").WithCodec(envCodec{}).WithPriority()
	label := ag.Inh("label").WithCodec(stringCodec{})
	lbase := ag.Inh("lbase").WithCodec(ag.IntCodec{})
	code := ag.Syn("code").WithCodec(codeC)
	data := ag.Syn("data").WithCodec(codeC)
	lused := ag.Syn("lused").WithCodec(ag.IntCodec{})
	errs := ag.Syn("errs").WithCodec(errsCodec{})
	decl := ag.Syn("decl").WithCodec(declCodec{})

	l.Program = b.Nonterminal("program",
		ag.Syn("code").WithCodec(codeC), ag.Syn("errs").WithCodec(errsCodec{}))
	l.Block = b.Nonterminal("block",
		ag.Inh("env"), ag.Inh("label"), ag.Inh("lbase"),
		ag.Syn("scope"), ag.Syn("code"), ag.Syn("procs"), ag.Syn("data"),
		ag.Syn("lused"), ag.Syn("errs"))

	l.ConstPart = b.Nonterminal("const_part", ag.Syn("decl"), ag.Syn("errs"))
	l.ConstDecl = b.Nonterminal("const_decl", ag.Syn("decl"), ag.Syn("errs"))
	l.VarPart = b.Nonterminal("var_part", ag.Syn("decl"), ag.Syn("errs"))
	l.VarDecl = b.Nonterminal("var_decl", ag.Syn("decl"), ag.Syn("errs"))

	// The paper's split points: procedure declarations and lists of
	// procedure declarations...
	l.ProcPart = b.SplitNonterminal("proc_part", minSplitProcList,
		decl, env, label, lbase, code, data, lused, errs)
	l.ProcDecl = b.SplitNonterminal("proc_decl", minSplitProc,
		decl, env, label, lbase, code, data, lused, errs)

	// ...and statements and statement lists.
	l.Stmt = b.SplitNonterminal("stmt", minSplitStmt,
		env, lbase, code, data, lused, errs)
	l.StmtList = b.SplitNonterminal("stmt_list", minSplitStmtList,
		env, lbase, code, data, lused, errs)

	l.FormalPart = b.Nonterminal("formal_part", ag.Syn("params"), ag.Syn("errs"))
	l.Formal = b.Nonterminal("formal", ag.Syn("params"), ag.Syn("errs"))
	l.TypeExpr = b.Nonterminal("type_expr", ag.Syn("ty"), ag.Syn("errs"))
	l.FieldList = b.Nonterminal("field_list", ag.Syn("fields"), ag.Syn("errs"))
	l.FieldDecl = b.Nonterminal("field_decl", ag.Syn("fields"), ag.Syn("errs"))
	l.IDList = b.Nonterminal("id_list", ag.Syn("names"))
	l.NumList = b.Nonterminal("num_list", ag.Syn("nums"))

	// The opnd attribute carries a direct VAX operand ("$5", "-12(fp)")
	// when the expression or variable is addressable without code; the
	// generator folds such operands into the consuming instruction, the
	// core of the compiler's "limited amount of local optimization".
	l.Expr = b.Nonterminal("expr",
		ag.Inh("env"), ag.Inh("lbase"),
		ag.Syn("code"), ag.Syn("acode"), ag.Syn("opnd"), ag.Syn("ty"), ag.Syn("lused"), ag.Syn("errs"))
	l.Variable = b.Nonterminal("variable",
		ag.Inh("env"), ag.Inh("lbase"),
		ag.Syn("code"), ag.Syn("opnd"), ag.Syn("ty"), ag.Syn("direct"), ag.Syn("lused"), ag.Syn("errs"))
	l.ArgList = b.Nonterminal("arg_list",
		ag.Inh("env"), ag.Inh("lbase"),
		ag.Syn("args"), ag.Syn("lused"), ag.Syn("errs"))

	l.CaseArms = b.Nonterminal("case_arms",
		ag.Inh("env"), ag.Inh("lbase"), ag.Inh("endlab"),
		ag.Syn("code"), ag.Syn("data"), ag.Syn("lused"), ag.Syn("errs"))
	l.CaseArm = b.Nonterminal("case_arm",
		ag.Inh("env"), ag.Inh("lbase"), ag.Inh("endlab"),
		ag.Syn("code"), ag.Syn("data"), ag.Syn("lused"), ag.Syn("errs"))
	l.WriteArgs = b.Nonterminal("write_args",
		ag.Inh("env"), ag.Inh("lbase"),
		ag.Syn("code"), ag.Syn("data"), ag.Syn("lused"), ag.Syn("errs"))
	l.WriteArg = b.Nonterminal("write_arg",
		ag.Inh("env"), ag.Inh("lbase"),
		ag.Syn("code"), ag.Syn("data"), ag.Syn("lused"), ag.Syn("errs"))
	l.ReadArgs = b.Nonterminal("read_args",
		ag.Inh("env"), ag.Inh("lbase"),
		ag.Syn("code"), ag.Syn("lused"), ag.Syn("errs"))

	b.Start(l.Program)

	l.buildRules(b)
	l.resolveProds()

	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	l.G = g
	a, err := ag.Analyze(g)
	if err != nil {
		return nil, err
	}
	l.A = a
	return l, nil
}

// MustNew is New panicking on error.
func MustNew() *Lang {
	l, err := New()
	if err != nil {
		panic(err)
	}
	return l
}

// TerminalAttrs recomputes scanner attributes after network transfer.
func (l *Lang) TerminalAttrs(sym *ag.Symbol, token string) ([]ag.Value, error) {
	return []ag.Value{token}, nil
}
