package pascal

import (
	"fmt"
	"time"

	"pag/internal/ag"
	"pag/internal/tree"
)

// maxNesting bounds how deeply statements, types, procedure blocks and
// expression operands may nest. The parser recurses once per level, so
// without a bound a source of a few megabytes of "(" would exhaust the
// goroutine stack — a fatal error no recover can catch — instead of
// failing as a syntax error. Lists (declarations, statements, sums,
// arguments) are loops, not recursion; they are charged against
// tree.MaxListRun instead, which bounds the tree's depth.
const maxNesting = 1 << 10

// parser is a recursive-descent parser producing attributed parse trees
// over the Pascal attribute grammar. It reports syntax errors with line
// numbers; semantic errors are attribute values computed later by the
// evaluators. Each Parse call has its own parser, and with it its own
// tree.Builder, so one Lang parses concurrently.
type parser struct {
	l     *Lang
	b     tree.Builder
	sc    scanner
	tok   token // the current token
	next  token // one token of lookahead
	depth int   // nesting levels open (see maxNesting)
	lists tree.ListRuns
}

// prodTable holds the productions the parser builds, resolved once when
// the grammar is built so that a node costs no name lookup.
type prodTable struct {
	program, block                                         *ag.Production
	constPartEmpty, constPartCons, constDecl, constDeclNeg *ag.Production
	varPartEmpty, varPartCons, varDecl                     *ag.Production
	idListOne, idListCons                                  *ag.Production
	typeBasic, typeArray, typeRecord                       *ag.Production
	fieldListOne, fieldListCons, fieldDecl                 *ag.Production
	procPartEmpty, procPartCons                            *ag.Production
	procDeclProc, procDeclFunc                             *ag.Production
	formalEmpty, formalCons, formalVal, formalVar          *ag.Production
	stmtListOne, stmtListCons                              *ag.Production
	stmtEmpty, stmtCompound, stmtAssign, stmtCall          *ag.Production
	stmtIf, stmtIfelse, stmtWhile, stmtRepeat              *ag.Production
	stmtForTo, stmtForDown, stmtCase, stmtCaseElse         *ag.Production
	caseArmsOne, caseArmsCons, caseArm                     *ag.Production
	numListOne, numListCons                                *ag.Production
	wargsEmpty, wargsCons, wargExpr, wargStr               *ag.Production
	stmtWrite, stmtWriteln                                 *ag.Production
	rargsOne, rargsCons, stmtRead, stmtReadln              *ag.Production
	argsEmpty, argsCons                                    *ag.Production
	varID, varIndex, varField                              *ag.Production
	exprNum, exprChar, exprTrue, exprFalse                 *ag.Production
	exprNot, exprNeg, exprVar, exprCall                    *ag.Production

	// Binary operators by token kind; nil where the kind is not an
	// operator at that precedence level.
	rel, add, mul [numTokKinds]*ag.Production
}

// resolveProds fills l.prod from the productions buildRules declared.
func (l *Lang) resolveProds() {
	t := &l.prod
	for name, dst := range map[string]**ag.Production{
		"program": &t.program, "block": &t.block,
		"const_part_empty": &t.constPartEmpty, "const_part_cons": &t.constPartCons,
		"const_decl": &t.constDecl, "const_decl_neg": &t.constDeclNeg,
		"var_part_empty": &t.varPartEmpty, "var_part_cons": &t.varPartCons, "var_decl": &t.varDecl,
		"id_list_one": &t.idListOne, "id_list_cons": &t.idListCons,
		"type_basic": &t.typeBasic, "type_array": &t.typeArray, "type_record": &t.typeRecord,
		"field_list_one": &t.fieldListOne, "field_list_cons": &t.fieldListCons, "field_decl": &t.fieldDecl,
		"proc_part_empty": &t.procPartEmpty, "proc_part_cons": &t.procPartCons,
		"proc_decl_proc": &t.procDeclProc, "proc_decl_func": &t.procDeclFunc,
		"formal_empty": &t.formalEmpty, "formal_cons": &t.formalCons,
		"formal_val": &t.formalVal, "formal_var": &t.formalVar,
		"stmt_list_one": &t.stmtListOne, "stmt_list_cons": &t.stmtListCons,
		"stmt_empty": &t.stmtEmpty, "stmt_compound": &t.stmtCompound,
		"stmt_assign": &t.stmtAssign, "stmt_call": &t.stmtCall,
		"stmt_if": &t.stmtIf, "stmt_ifelse": &t.stmtIfelse,
		"stmt_while": &t.stmtWhile, "stmt_repeat": &t.stmtRepeat,
		"stmt_for_to": &t.stmtForTo, "stmt_for_down": &t.stmtForDown,
		"stmt_case": &t.stmtCase, "stmt_case_else": &t.stmtCaseElse,
		"case_arms_one": &t.caseArmsOne, "case_arms_cons": &t.caseArmsCons, "case_arm": &t.caseArm,
		"num_list_one": &t.numListOne, "num_list_cons": &t.numListCons,
		"wargs_empty": &t.wargsEmpty, "wargs_cons": &t.wargsCons,
		"warg_expr": &t.wargExpr, "warg_str": &t.wargStr,
		"stmt_write": &t.stmtWrite, "stmt_writeln": &t.stmtWriteln,
		"rargs_one": &t.rargsOne, "rargs_cons": &t.rargsCons,
		"stmt_read": &t.stmtRead, "stmt_readln": &t.stmtReadln,
		"args_empty": &t.argsEmpty, "args_cons": &t.argsCons,
		"var_id": &t.varID, "var_index": &t.varIndex, "var_field": &t.varField,
		"expr_num": &t.exprNum, "expr_char": &t.exprChar,
		"expr_true": &t.exprTrue, "expr_false": &t.exprFalse,
		"expr_not": &t.exprNot, "expr_neg": &t.exprNeg,
		"expr_var": &t.exprVar, "expr_call": &t.exprCall,
	} {
		*dst = l.Prod(name)
	}
	for _, op := range []struct {
		tbl  *[numTokKinds]*ag.Production
		kind tokKind
		name string
	}{
		{&t.rel, tEq, "expr_eq"}, {&t.rel, tNe, "expr_ne"},
		{&t.rel, tLt, "expr_lt"}, {&t.rel, tLe, "expr_le"},
		{&t.rel, tGt, "expr_gt"}, {&t.rel, tGe, "expr_ge"},
		{&t.add, tPlus, "expr_add"}, {&t.add, tMinus, "expr_sub"}, {&t.add, tOr, "expr_or"},
		{&t.mul, tStar, "expr_mul"}, {&t.mul, tDiv, "expr_div"},
		{&t.mul, tMod, "expr_mod"}, {&t.mul, tAnd, "expr_and"},
	} {
		op.tbl[op.kind] = l.Prod(op.name)
	}
}

// Parse parses Pascal source into a tree rooted at the program symbol.
// The tree is built through a tree.Builder, so its nodes, attribute
// slots and child slices come from a few slabs rather than one heap
// object each.
func (l *Lang) Parse(src string) (*tree.Node, error) {
	p := &parser{l: l, sc: scanner{src: src, line: 1}}
	p.tok = p.sc.scan()
	p.next = p.sc.scan()
	root, err := p.program()
	if err == nil && p.cur().kind != tEOF {
		err = p.errf("trailing input after program: %s", p.cur())
	}
	if p.sc.err != nil {
		// The parse stopped at (or just before) the token the
		// scanner could not read; its error is the one to report.
		return nil, p.sc.err
	}
	if err != nil {
		return nil, err
	}
	return root, nil
}

// nest enters one nesting level, failing past maxNesting; every
// successful nest is paired with an unnest.
func (p *parser) nest() error {
	if p.depth >= maxNesting {
		return p.errf("nesting deeper than %d levels", maxNesting)
	}
	p.depth++
	return nil
}

func (p *parser) unnest() { p.depth-- }

// link charges list l the element just added (see tree.ListRuns).
func (p *parser) link(l *tree.List) error {
	if !p.lists.Link(l) {
		return p.errf("lists deeper than %d levels", tree.MaxListRun)
	}
	return nil
}

// ParseCost estimates the simulated parsing time for a source text:
// the paper's parser needed a few seconds for a ~2000-line program on a
// SUN-2, i.e. roughly a millisecond per line.
func ParseCost(src string) time.Duration {
	lines := 1
	for i := 0; i < len(src); i++ {
		if src[i] == '\n' {
			lines++
		}
	}
	return time.Duration(lines) * 900 * time.Microsecond
}

func (p *parser) cur() token { return p.tok }

func (p *parser) peek() token { return p.next }

func (p *parser) advance() token {
	t := p.tok
	if t.kind != tEOF {
		p.tok = p.next
		p.next = p.sc.scan()
	}
	return t
}

func (p *parser) accept(k tokKind) bool {
	if p.cur().kind == k {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expect(k tokKind, what string) (token, error) {
	if p.cur().kind != k {
		return token{}, p.errf("expected %s, got %s", what, p.cur())
	}
	return p.advance(), nil
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("pascal: line %d: %s", p.cur().line, fmt.Sprintf(format, args...))
}

func (p *parser) id(sym string) (*tree.Node, error) {
	t, err := p.expect(tIdent, sym)
	if err != nil {
		return nil, err
	}
	return p.b.NewTerminal(p.l.TID, t.text, t.text), nil
}

// program = "program" ID ";" block "."
func (p *parser) program() (*tree.Node, error) {
	if _, err := p.expect(tProgram, `"program"`); err != nil {
		return nil, err
	}
	name, err := p.id("program name")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tSemi, `";"`); err != nil {
		return nil, err
	}
	blk, err := p.block()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tDot, `"."`); err != nil {
		return nil, err
	}
	return p.b.New(p.l.prod.program, name, blk), nil
}

// block = [consts] [vars] {procdecl} compound
func (p *parser) block() (*tree.Node, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer p.unnest()
	consts, err := p.constPart()
	if err != nil {
		return nil, err
	}
	vars, err := p.varPart()
	if err != nil {
		return nil, err
	}
	procs, err := p.procPart()
	if err != nil {
		return nil, err
	}
	body, err := p.compound()
	if err != nil {
		return nil, err
	}
	return p.b.New(p.l.prod.block, consts, vars, procs, body), nil
}

func (p *parser) constPart() (*tree.Node, error) {
	part := p.b.New(p.l.prod.constPartEmpty)
	if !p.accept(tConst) {
		return part, nil
	}
	decls := p.lists.Open()
	for p.cur().kind == tIdent {
		name, err := p.id("constant name")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tEq, `"="`); err != nil {
			return nil, err
		}
		neg := p.accept(tMinus)
		num, err := p.expect(tNumber, "number")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tSemi, `";"`); err != nil {
			return nil, err
		}
		prod := p.l.prod.constDecl
		if neg {
			prod = p.l.prod.constDeclNeg
		}
		decl := p.b.New(prod, name, p.b.NewTerminal(p.l.TNum, num.text, num.text))
		part = p.b.New(p.l.prod.constPartCons, part, decl)
		if err := p.link(&decls); err != nil {
			return nil, err
		}
	}
	p.lists.Close(decls)
	return part, nil
}

func (p *parser) varPart() (*tree.Node, error) {
	part := p.b.New(p.l.prod.varPartEmpty)
	if !p.accept(tVar) {
		return part, nil
	}
	decls := p.lists.Open()
	for p.cur().kind == tIdent {
		ids, err := p.idList()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tColon, `":"`); err != nil {
			return nil, err
		}
		ty, err := p.typeExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tSemi, `";"`); err != nil {
			return nil, err
		}
		decl := p.b.New(p.l.prod.varDecl, ids, ty)
		part = p.b.New(p.l.prod.varPartCons, part, decl)
		if err := p.link(&decls); err != nil {
			return nil, err
		}
	}
	p.lists.Close(decls)
	return part, nil
}

func (p *parser) idList() (*tree.Node, error) {
	first, err := p.id("identifier")
	if err != nil {
		return nil, err
	}
	list := p.b.New(p.l.prod.idListOne, first)
	ids := p.lists.Open()
	for p.accept(tComma) {
		next, err := p.id("identifier")
		if err != nil {
			return nil, err
		}
		list = p.b.New(p.l.prod.idListCons, list, next)
		if err := p.link(&ids); err != nil {
			return nil, err
		}
	}
	p.lists.Close(ids)
	return list, nil
}

// type = ID | "array" "[" NUM ".." NUM "]" "of" type | "record" fields "end"
func (p *parser) typeExpr() (*tree.Node, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer p.unnest()
	switch p.cur().kind {
	case tIdent:
		t := p.advance()
		return p.b.New(p.l.prod.typeBasic, p.b.NewTerminal(p.l.TID, t.text, t.text)), nil
	case tArray:
		p.advance()
		if _, err := p.expect(tLBrack, `"["`); err != nil {
			return nil, err
		}
		lo, err := p.expect(tNumber, "lower bound")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tDotDot, `".."`); err != nil {
			return nil, err
		}
		hi, err := p.expect(tNumber, "upper bound")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tRBrack, `"]"`); err != nil {
			return nil, err
		}
		if _, err := p.expect(tOf, `"of"`); err != nil {
			return nil, err
		}
		elem, err := p.typeExpr()
		if err != nil {
			return nil, err
		}
		return p.b.New(p.l.prod.typeArray,
			p.b.NewTerminal(p.l.TNum, lo.text, lo.text),
			p.b.NewTerminal(p.l.TNum, hi.text, hi.text),
			elem), nil
	case tRecord:
		p.advance()
		fields, err := p.fieldList()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tEnd, `"end"`); err != nil {
			return nil, err
		}
		return p.b.New(p.l.prod.typeRecord, fields), nil
	default:
		return nil, p.errf("expected a type, got %s", p.cur())
	}
}

func (p *parser) fieldList() (*tree.Node, error) {
	fields := p.lists.Open()
	field, err := p.fieldDecl()
	if err != nil {
		return nil, err
	}
	list := p.b.New(p.l.prod.fieldListOne, field)
	for p.accept(tSemi) {
		if p.cur().kind != tIdent {
			break // trailing semicolon before "end"
		}
		next, err := p.fieldDecl()
		if err != nil {
			return nil, err
		}
		list = p.b.New(p.l.prod.fieldListCons, list, next)
		if err := p.link(&fields); err != nil {
			return nil, err
		}
	}
	p.lists.Close(fields)
	return list, nil
}

func (p *parser) fieldDecl() (*tree.Node, error) {
	ids, err := p.idList()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tColon, `":"`); err != nil {
		return nil, err
	}
	ty, err := p.typeExpr()
	if err != nil {
		return nil, err
	}
	return p.b.New(p.l.prod.fieldDecl, ids, ty), nil
}

func (p *parser) procPart() (*tree.Node, error) {
	part := p.b.New(p.l.prod.procPartEmpty)
	decls := p.lists.Open()
	for p.cur().kind == tProcedure || p.cur().kind == tFunction {
		isFunc := p.advance().kind == tFunction
		decl, err := p.procDecl(isFunc)
		if err != nil {
			return nil, err
		}
		part = p.b.New(p.l.prod.procPartCons, part, decl)
		if err := p.link(&decls); err != nil {
			return nil, err
		}
	}
	p.lists.Close(decls)
	return part, nil
}

func (p *parser) procDecl(isFunc bool) (*tree.Node, error) {
	name, err := p.id("procedure name")
	if err != nil {
		return nil, err
	}
	formals, err := p.formalPart()
	if err != nil {
		return nil, err
	}
	var retType *tree.Node
	if isFunc {
		if _, err := p.expect(tColon, `":"`); err != nil {
			return nil, err
		}
		retType, err = p.typeExpr()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tSemi, `";"`); err != nil {
		return nil, err
	}
	blk, err := p.block()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tSemi, `";"`); err != nil {
		return nil, err
	}
	if isFunc {
		return p.b.New(p.l.prod.procDeclFunc, name, formals, retType, blk), nil
	}
	return p.b.New(p.l.prod.procDeclProc, name, formals, blk), nil
}

func (p *parser) formalPart() (*tree.Node, error) {
	part := p.b.New(p.l.prod.formalEmpty)
	if !p.accept(tLParen) {
		return part, nil
	}
	formals := p.lists.Open()
	for {
		byRef := p.accept(tVar)
		ids, err := p.idList()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tColon, `":"`); err != nil {
			return nil, err
		}
		ty, err := p.typeExpr()
		if err != nil {
			return nil, err
		}
		prod := p.l.prod.formalVal
		if byRef {
			prod = p.l.prod.formalVar
		}
		formal := p.b.New(prod, ids, ty)
		part = p.b.New(p.l.prod.formalCons, part, formal)
		if err := p.link(&formals); err != nil {
			return nil, err
		}
		if !p.accept(tSemi) {
			break
		}
	}
	p.lists.Close(formals)
	if _, err := p.expect(tRParen, `")"`); err != nil {
		return nil, err
	}
	return part, nil
}

// compound = "begin" stmt {";" stmt} "end"
func (p *parser) compound() (*tree.Node, error) {
	if _, err := p.expect(tBegin, `"begin"`); err != nil {
		return nil, err
	}
	stmts := p.lists.Open()
	first, err := p.stmt()
	if err != nil {
		return nil, err
	}
	list := p.b.New(p.l.prod.stmtListOne, first)
	for p.accept(tSemi) {
		next, err := p.stmt()
		if err != nil {
			return nil, err
		}
		list = p.b.New(p.l.prod.stmtListCons, list, next)
		if err := p.link(&stmts); err != nil {
			return nil, err
		}
	}
	p.lists.Close(stmts)
	if _, err := p.expect(tEnd, `"end"`); err != nil {
		return nil, err
	}
	return p.b.New(p.l.prod.stmtCompound, list), nil
}

func (p *parser) stmt() (*tree.Node, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer p.unnest()
	switch p.cur().kind {
	case tBegin:
		return p.compound()
	case tIf:
		return p.ifStmt()
	case tWhile:
		return p.whileStmt()
	case tRepeat:
		return p.repeatStmt()
	case tFor:
		return p.forStmt()
	case tCase:
		return p.caseStmt()
	case tWrite, tWriteln:
		return p.writeStmt()
	case tRead, tReadln:
		return p.readStmt()
	case tIdent:
		return p.assignOrCall()
	default:
		// empty statement (before ";", "end", "until", "else")
		return p.b.New(p.l.prod.stmtEmpty), nil
	}
}

func (p *parser) ifStmt() (*tree.Node, error) {
	p.advance() // if
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tThen, `"then"`); err != nil {
		return nil, err
	}
	then, err := p.stmt()
	if err != nil {
		return nil, err
	}
	if p.accept(tElse) {
		els, err := p.stmt()
		if err != nil {
			return nil, err
		}
		return p.b.New(p.l.prod.stmtIfelse, cond, then, els), nil
	}
	return p.b.New(p.l.prod.stmtIf, cond, then), nil
}

func (p *parser) whileStmt() (*tree.Node, error) {
	p.advance() // while
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tDo, `"do"`); err != nil {
		return nil, err
	}
	body, err := p.stmt()
	if err != nil {
		return nil, err
	}
	return p.b.New(p.l.prod.stmtWhile, cond, body), nil
}

func (p *parser) repeatStmt() (*tree.Node, error) {
	p.advance() // repeat
	stmts := p.lists.Open()
	first, err := p.stmt()
	if err != nil {
		return nil, err
	}
	list := p.b.New(p.l.prod.stmtListOne, first)
	for p.accept(tSemi) {
		next, err := p.stmt()
		if err != nil {
			return nil, err
		}
		list = p.b.New(p.l.prod.stmtListCons, list, next)
		if err := p.link(&stmts); err != nil {
			return nil, err
		}
	}
	p.lists.Close(stmts)
	if _, err := p.expect(tUntil, `"until"`); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	return p.b.New(p.l.prod.stmtRepeat, list, cond), nil
}

func (p *parser) forStmt() (*tree.Node, error) {
	p.advance() // for
	loopVar, err := p.variable()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tAssign, `":="`); err != nil {
		return nil, err
	}
	from, err := p.expr()
	if err != nil {
		return nil, err
	}
	prod := p.l.prod.stmtForTo
	switch p.cur().kind {
	case tTo:
		p.advance()
	case tDownto:
		p.advance()
		prod = p.l.prod.stmtForDown
	default:
		return nil, p.errf(`expected "to" or "downto", got %s`, p.cur())
	}
	to, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tDo, `"do"`); err != nil {
		return nil, err
	}
	body, err := p.stmt()
	if err != nil {
		return nil, err
	}
	return p.b.New(prod, loopVar, from, to, body), nil
}

func (p *parser) caseStmt() (*tree.Node, error) {
	p.advance() // case
	sel, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tOf, `"of"`); err != nil {
		return nil, err
	}
	caseArms := p.lists.Open()
	arm, err := p.caseArm()
	if err != nil {
		return nil, err
	}
	arms := p.b.New(p.l.prod.caseArmsOne, arm)
	var elseStmt *tree.Node
	for p.accept(tSemi) {
		if p.cur().kind == tEnd || p.cur().kind == tElse {
			break
		}
		next, err := p.caseArm()
		if err != nil {
			return nil, err
		}
		arms = p.b.New(p.l.prod.caseArmsCons, arms, next)
		if err := p.link(&caseArms); err != nil {
			return nil, err
		}
	}
	p.lists.Close(caseArms)
	if p.accept(tElse) {
		elseStmt, err = p.stmt()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tEnd, `"end"`); err != nil {
		return nil, err
	}
	if elseStmt != nil {
		return p.b.New(p.l.prod.stmtCaseElse, sel, arms, elseStmt), nil
	}
	return p.b.New(p.l.prod.stmtCase, sel, arms), nil
}

func (p *parser) caseArm() (*tree.Node, error) {
	num, err := p.expect(tNumber, "case label")
	if err != nil {
		return nil, err
	}
	nums := p.b.New(p.l.prod.numListOne, p.b.NewTerminal(p.l.TNum, num.text, num.text))
	labels := p.lists.Open()
	for p.accept(tComma) {
		next, err := p.expect(tNumber, "case label")
		if err != nil {
			return nil, err
		}
		nums = p.b.New(p.l.prod.numListCons, nums, p.b.NewTerminal(p.l.TNum, next.text, next.text))
		if err := p.link(&labels); err != nil {
			return nil, err
		}
	}
	p.lists.Close(labels)
	if _, err := p.expect(tColon, `":"`); err != nil {
		return nil, err
	}
	body, err := p.stmt()
	if err != nil {
		return nil, err
	}
	return p.b.New(p.l.prod.caseArm, nums, body), nil
}

func (p *parser) writeStmt() (*tree.Node, error) {
	newline := p.cur().kind == tWriteln
	p.advance()
	args := p.b.New(p.l.prod.wargsEmpty)
	if p.accept(tLParen) {
		wargs := p.lists.Open()
		for {
			var arg *tree.Node
			if p.cur().kind == tString {
				t := p.advance()
				arg = p.b.New(p.l.prod.wargStr, p.b.NewTerminal(p.l.TStr, t.text, t.text))
			} else {
				e, err := p.expr()
				if err != nil {
					return nil, err
				}
				arg = p.b.New(p.l.prod.wargExpr, e)
			}
			args = p.b.New(p.l.prod.wargsCons, args, arg)
			if err := p.link(&wargs); err != nil {
				return nil, err
			}
			if !p.accept(tComma) {
				break
			}
		}
		p.lists.Close(wargs)
		if _, err := p.expect(tRParen, `")"`); err != nil {
			return nil, err
		}
	}
	prod := p.l.prod.stmtWrite
	if newline {
		prod = p.l.prod.stmtWriteln
	}
	return p.b.New(prod, args), nil
}

func (p *parser) readStmt() (*tree.Node, error) {
	skip := p.cur().kind == tReadln
	p.advance()
	if _, err := p.expect(tLParen, `"("`); err != nil {
		return nil, err
	}
	rargs := p.lists.Open()
	v, err := p.variable()
	if err != nil {
		return nil, err
	}
	list := p.b.New(p.l.prod.rargsOne, v)
	for p.accept(tComma) {
		next, err := p.variable()
		if err != nil {
			return nil, err
		}
		list = p.b.New(p.l.prod.rargsCons, list, next)
		if err := p.link(&rargs); err != nil {
			return nil, err
		}
	}
	p.lists.Close(rargs)
	if _, err := p.expect(tRParen, `")"`); err != nil {
		return nil, err
	}
	prod := p.l.prod.stmtRead
	if skip {
		prod = p.l.prod.stmtReadln
	}
	return p.b.New(prod, list), nil
}

// assignOrCall parses `variable := expr` or `ID [args]`.
func (p *parser) assignOrCall() (*tree.Node, error) {
	if p.peek().kind == tLParen {
		// procedure call with arguments
		name := p.advance()
		args, err := p.argList()
		if err != nil {
			return nil, err
		}
		return p.b.New(p.l.prod.stmtCall,
			p.b.NewTerminal(p.l.TID, name.text, name.text), args), nil
	}
	switch p.peek().kind {
	case tAssign, tLBrack, tDot:
		v, err := p.variable()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tAssign, `":="`); err != nil {
			return nil, err
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		return p.b.New(p.l.prod.stmtAssign, v, e), nil
	default:
		// parameterless procedure call
		name := p.advance()
		args := p.b.New(p.l.prod.argsEmpty)
		return p.b.New(p.l.prod.stmtCall,
			p.b.NewTerminal(p.l.TID, name.text, name.text), args), nil
	}
}

// variable = ID { "[" expr "]" | "." ID }
func (p *parser) variable() (*tree.Node, error) {
	name, err := p.id("variable")
	if err != nil {
		return nil, err
	}
	v := p.b.New(p.l.prod.varID, name)
	selectors := p.lists.Open()
	for {
		switch {
		case p.accept(tLBrack):
			idx, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tRBrack, `"]"`); err != nil {
				return nil, err
			}
			v = p.b.New(p.l.prod.varIndex, v, idx)
		case p.cur().kind == tDot && p.peek().kind == tIdent:
			p.advance()
			field := p.advance()
			v = p.b.New(p.l.prod.varField, v,
				p.b.NewTerminal(p.l.TID, field.text, field.text))
		default:
			p.lists.Close(selectors)
			return v, nil
		}
		if err := p.link(&selectors); err != nil {
			return nil, err
		}
	}
}

// argList = "(" [expr {"," expr}] ")"
func (p *parser) argList() (*tree.Node, error) {
	if _, err := p.expect(tLParen, `"("`); err != nil {
		return nil, err
	}
	args := p.b.New(p.l.prod.argsEmpty)
	if p.cur().kind != tRParen {
		exprs := p.lists.Open()
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			args = p.b.New(p.l.prod.argsCons, args, e)
			if err := p.link(&exprs); err != nil {
				return nil, err
			}
			if !p.accept(tComma) {
				break
			}
		}
		p.lists.Close(exprs)
	}
	if _, err := p.expect(tRParen, `")"`); err != nil {
		return nil, err
	}
	return args, nil
}

// expr = simple [relop simple]
func (p *parser) expr() (*tree.Node, error) {
	left, err := p.simple()
	if err != nil {
		return nil, err
	}
	prod := p.l.prod.rel[p.cur().kind]
	if prod == nil {
		return left, nil
	}
	p.advance()
	right, err := p.simple()
	if err != nil {
		return nil, err
	}
	return p.b.New(prod, left, right), nil
}

// simple = ["-"] term { ("+"|"-"|"or") term }
func (p *parser) simple() (*tree.Node, error) {
	terms := p.lists.Open()
	neg := p.accept(tMinus)
	left, err := p.term()
	if err != nil {
		return nil, err
	}
	if neg {
		left = p.b.New(p.l.prod.exprNeg, left)
	}
	for {
		prod := p.l.prod.add[p.cur().kind]
		if prod == nil {
			p.lists.Close(terms)
			return left, nil
		}
		p.advance()
		right, err := p.term()
		if err != nil {
			return nil, err
		}
		left = p.b.New(prod, left, right)
		if err := p.link(&terms); err != nil {
			return nil, err
		}
	}
}

// term = factor { ("*"|"div"|"mod"|"and") factor }
func (p *parser) term() (*tree.Node, error) {
	factors := p.lists.Open()
	left, err := p.factor()
	if err != nil {
		return nil, err
	}
	for {
		prod := p.l.prod.mul[p.cur().kind]
		if prod == nil {
			p.lists.Close(factors)
			return left, nil
		}
		p.advance()
		right, err := p.factor()
		if err != nil {
			return nil, err
		}
		left = p.b.New(prod, left, right)
		if err := p.link(&factors); err != nil {
			return nil, err
		}
	}
}

// factor parses one operand one nesting level deeper. It unnests
// without defer: operand has too many returns for the compiler to
// open-code a deferred call, and operands are the parser's hottest path.
func (p *parser) factor() (*tree.Node, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	n, err := p.operand()
	p.unnest()
	return n, err
}

func (p *parser) operand() (*tree.Node, error) {
	switch t := p.cur(); t.kind {
	case tNumber:
		p.advance()
		return p.b.New(p.l.prod.exprNum, p.b.NewTerminal(p.l.TNum, t.text, t.text)), nil
	case tChar:
		p.advance()
		return p.b.New(p.l.prod.exprChar, p.b.NewTerminal(p.l.TChar, t.text, t.text)), nil
	case tTrue:
		p.advance()
		return p.b.New(p.l.prod.exprTrue), nil
	case tFalse:
		p.advance()
		return p.b.New(p.l.prod.exprFalse), nil
	case tNot:
		p.advance()
		operand, err := p.factor()
		if err != nil {
			return nil, err
		}
		return p.b.New(p.l.prod.exprNot, operand), nil
	case tMinus:
		p.advance()
		operand, err := p.factor()
		if err != nil {
			return nil, err
		}
		return p.b.New(p.l.prod.exprNeg, operand), nil
	case tLParen:
		p.advance()
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tRParen, `")"`); err != nil {
			return nil, err
		}
		return e, nil
	case tIdent:
		if p.peek().kind == tLParen {
			name := p.advance()
			args, err := p.argList()
			if err != nil {
				return nil, err
			}
			return p.b.New(p.l.prod.exprCall,
				p.b.NewTerminal(p.l.TID, name.text, name.text), args), nil
		}
		v, err := p.variable()
		if err != nil {
			return nil, err
		}
		return p.b.New(p.l.prod.exprVar, v), nil
	default:
		return nil, p.errf("expected an expression, got %s", t)
	}
}
