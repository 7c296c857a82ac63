package pascal

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"pag/internal/ag"
	"pag/internal/rope"
	"pag/internal/vax"
)

// This file holds the value helpers and code generation routines the
// semantic rules are written with. All of them are pure functions of
// their inputs, as the attribute grammar formalism requires.

// ---- attribute value accessors (defensive against nil) -------------

func asCode(v ag.Value) rope.Code {
	if v == nil {
		return nil
	}
	return v.(rope.Code)
}

func asErrs(v ag.Value) []string {
	if v == nil {
		return nil
	}
	return v.([]string)
}

func asInt(v ag.Value) int    { return v.(int) }
func asStr(v ag.Value) string { return v.(string) }
func asEnv(v ag.Value) *Env   { return v.(*Env) }
func asType(v ag.Value) Type  { return v.(Type) }
func asBool(v ag.Value) bool  { return v.(bool) }
func asArgs(v ag.Value) []ArgInfo {
	if v == nil {
		return nil
	}
	return v.([]ArgInfo)
}

func asSigs(v ag.Value) []*DeclSig {
	if v == nil {
		return nil
	}
	return v.([]*DeclSig)
}

func asParams(v ag.Value) []Param {
	if v == nil {
		return nil
	}
	return v.([]Param)
}

func asNames(v ag.Value) []string {
	if v == nil {
		return nil
	}
	return v.([]string)
}

func asFields(v ag.Value) []Field {
	if v == nil {
		return nil
	}
	return v.([]Field)
}

func asNums(v ag.Value) []int {
	if v == nil {
		return nil
	}
	return v.([]int)
}

// catErrs merges error lists without mutating the inputs.
func catErrs(lists ...[]string) []string {
	var out []string
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

func errf(format string, args ...any) []string {
	return []string{fmt.Sprintf(format, args...)}
}

// ---- simulated rule costs ------------------------------------------

func micros(n int) time.Duration { return time.Duration(n) * time.Microsecond }

func costConst(n int) ag.CostFn {
	d := micros(n)
	return func([]ag.Value) time.Duration { return d }
}

var (
	costCopy  = costConst(4)
	costTiny  = costConst(15)
	costSmall = costConst(50)
	costGen   = costConst(170) // typical code-emitting rule
	costBig   = costConst(340) // multi-instruction emitters
)

// costLookup models an O(depth) symbol-table search; the environment is
// the rule's first dependency.
func costLookup(args []ag.Value) time.Duration {
	if env, ok := args[0].(*Env); ok {
		return micros(25 + 8*env.Depth())
	}
	return micros(30)
}

// ---- shared snippets --------------------------------------------------

// Constant code snippets are built once and shared: ropes are
// immutable, so one leaf can sit in any number of programs.
var (
	codePushR0   = rope.Text("\tpushl r0\n")
	codePushFP   = rope.Text("\tpushl fp\n")
	codePopR1    = rope.Text("\tmovl r0, r1\n\tmovl (sp)+, r0\n")
	codePopCmp   = rope.Text("\tmovl r0, r1\n\tmovl (sp)+, r0\n\tcmpl r0, r1\n")
	codePopStore = rope.Text("\tmovl (sp)+, (r0)\n")
	codeClrR0    = rope.Text("\tclrl r0\n")
	codeDeref    = rope.Text("\tmovl (r0), r0\n")
	codeNeg      = rope.Text("\tmnegl r0, r0\n")
	codeNot      = rope.Text("\txorl2 $1, r0\n")
	codeFuncSlot = rope.Text("\tmoval -8(fp), r0\n")
	codeChaseFP  = rope.Text("\tmovl -4(fp), r0\n")
	codeChaseR0  = rope.Text("\tmovl -4(r0), r0\n")
	codeAndTail  = rope.Text("\tmcoml r1, r1\n\tbicl2 r1, r0\n")
	codeModTail  = rope.Text("\tdivl3 r1, r0, r2\n\tmull2 r1, r2\n\tsubl2 r2, r0\n")
	codeRet      = rope.Text("\tret\n")
	codeData     = rope.Text("\n\t.data\n")
	codeFuncRet  = rope.Text("\tmovl -8(fp), r0\n\tret\n")
	codePrintNL  = rope.Text("\tcalls $0, _printnl\n")
	codeReadSkip = rope.Text("\tcalls $0, _readskip\n")
	codeReadInt  = rope.Text("\tpushl r0\n\tcalls $1, _readint\n")
)

// ---- labels ---------------------------------------------------------

// lbl renders unique label n; string-literal labels use the same space.
func lbl(n int) string { return "L" + strconv.Itoa(n) }

func strLbl(n int) string { return "S" + strconv.Itoa(n) }

// ---- scope construction ---------------------------------------------

// ScopeVal is the value of block.scope: the inner environment plus any
// declaration errors discovered while building it.
type ScopeVal struct {
	Env  *Env
	Errs []string
}

// buildScope extends the outer environment with the block's constant,
// variable and procedure declarations, assigning frame offsets to
// variables and code labels to procedures. Duplicate names at the same
// level are reported.
func buildScope(outer *Env, label string, sigGroups ...[]*DeclSig) ScopeVal {
	env := outer
	var errs []string
	seen := map[string]bool{}
	nextFree := outer.NextFree
	for _, sigs := range sigGroups {
		for _, s := range sigs {
			if seen[s.Name] {
				errs = append(errs, fmt.Sprintf("duplicate declaration of %q", s.Name))
				continue
			}
			seen[s.Name] = true
			ent := &Entry{Name: s.Name, Kind: s.Kind, Type: s.Type, Level: env.Level, Value: s.Value}
			switch s.Kind {
			case VarEntry:
				sz := s.Type.Size()
				nextFree += sz
				ent.Offset = -nextFree
			case ProcEntry, FuncEntry:
				ent.Label = label + "_" + s.Name
				ent.Params = s.Params
			}
			env = env.Bind(ent)
		}
	}
	inner := &Env{tab: env.tab, Level: env.Level, NextFree: nextFree}
	return ScopeVal{Env: inner, Errs: errs}
}

// procScope builds the environment for a procedure or function body:
// one level deeper, with the formals bound to local slots (the
// prologue copies arguments there so that uplevel addressing is
// uniformly fp-relative through static links). Functions additionally
// reserve the result slot at -8(fp).
func procScope(outer *Env, params []Param, isFunc bool) ScopeVal {
	env := outer.Enter()
	var errs []string
	nextFree := 4 // -4(fp): static link
	if isFunc {
		nextFree = 8 // -8(fp): function result
	}
	seen := map[string]bool{}
	for _, p := range params {
		if seen[p.Name] {
			errs = append(errs, fmt.Sprintf("duplicate parameter %q", p.Name))
			continue
		}
		seen[p.Name] = true
		nextFree += 4 // parameter slots are one longword (scalar or address)
		env = env.Bind(&Entry{
			Name: p.Name, Kind: VarEntry, Type: p.Type,
			Level: env.Level, Offset: -nextFree, ByRef: p.ByRef,
		})
	}
	inner := &Env{tab: env.tab, Level: env.Level, NextFree: nextFree}
	return ScopeVal{Env: inner, Errs: errs}
}

// prologue emits a procedure's entry sequence: frame allocation, static
// link capture, and parameter spill to the local slots assigned by
// procScope (argument i+1 lives at 4(i+2)(ap); the slot base depends on
// whether a function-result slot is reserved).
func prologue(label string, frameSize int, params []Param, isFunc bool) rope.Code {
	code := rope.Text("\n" + label + ":\n\t.word 0\n\tsubl2 $" + strconv.Itoa(frameSize) + ", sp\n\tmovl 4(ap), -4(fp)\n")
	base := 4
	if isFunc {
		base = 8
	}
	for i := range params {
		code = rope.CatCode(code,
			rope.Text("\tmovl "+strconv.Itoa(4*(i+2))+"(ap), "+strconv.Itoa(-(base+4*(i+1)))+"(fp)\n"))
	}
	return code
}

// ---- variable addressing --------------------------------------------

// chaseCode emits the static-link chase that leaves the frame pointer
// of the frame at the entry's level in r0 (k = levels up, k >= 1).
func chaseCode(k int) rope.Code {
	c := codeChaseFP
	for i := 1; i < k; i++ {
		c = rope.CatCode(c, codeChaseR0)
	}
	return c
}

// addrCode emits code leaving the address of the entry's storage in r0.
func addrCode(env *Env, ent *Entry) rope.Code {
	k := env.Level - ent.Level
	if k == 0 {
		if ent.ByRef {
			return rope.Text("\tmovl " + strconv.Itoa(ent.Offset) + "(fp), r0\n")
		}
		return rope.Text("\tmoval " + strconv.Itoa(ent.Offset) + "(fp), r0\n")
	}
	c := chaseCode(k)
	if ent.ByRef {
		return rope.CatCode(c, rope.Text("\tmovl "+strconv.Itoa(ent.Offset)+"(r0), r0\n"))
	}
	return rope.CatCode(c, rope.Text("\tmoval "+strconv.Itoa(ent.Offset)+"(r0), r0\n"))
}

// ---- binary operators -------------------------------------------------

// genBin emits code for `x op y` with operand folding: when either side
// is a direct VAX operand the stack round trip disappears. x's code
// leaves x in r0; likewise y.
func genBin(op string, xCode, yCode rope.Code, xOp, yOp string) rope.Code {
	op2 := arith2(op)
	switch {
	case yOp != "":
		switch op {
		case "and":
			return rope.CatCode(xCode, rope.Text("\tmcoml "+yOp+", r1\n\tbicl2 r1, r0\n"))
		case "mod":
			return rope.CatCode(xCode, rope.Text("\tdivl3 "+yOp+", r0, r2\n\tmull2 "+yOp+", r2\n\tsubl2 r2, r0\n"))
		default:
			return rope.CatCode(xCode, rope.Text("\t"+op2+" "+yOp+", r0\n"))
		}
	case xOp != "":
		switch op {
		case "add", "mul", "or":
			return rope.CatCode(yCode, rope.Text("\t"+op2+" "+xOp+", r0\n"))
		case "and":
			return rope.CatCode(yCode, rope.Text("\tmcoml r0, r1\n\tbicl3 r1, "+xOp+", r0\n"))
		case "sub":
			return rope.CatCode(yCode, rope.Text("\tsubl3 r0, "+xOp+", r0\n"))
		case "div":
			return rope.CatCode(yCode, rope.Text("\tdivl3 r0, "+xOp+", r0\n"))
		case "mod":
			return rope.CatCode(yCode,
				rope.Text("\tdivl3 r0, "+xOp+", r2\n\tmull2 r0, r2\n\tsubl3 r2, "+xOp+", r0\n"))
		}
	}
	var tail rope.Code
	switch op {
	case "and":
		tail = codeAndTail
	case "mod":
		tail = codeModTail
	default:
		tail = rope.Text("\t" + op2 + " r1, r0\n")
	}
	return rope.CatCode(xCode, codePushR0, yCode, codePopR1, tail)
}

// arith2 names the two-operand VAX instruction of a binary operator
// ("" for and/mod, which need instruction sequences).
func arith2(op string) string {
	switch op {
	case "add":
		return "addl2"
	case "sub":
		return "subl2"
	case "mul":
		return "mull2"
	case "div":
		return "divl2"
	case "or":
		return "bisl2"
	}
	return ""
}

// memOperand reports whether o is a plain memory operand (assignable,
// addressable with pushal).
func memOperand(o string) bool {
	return o != "" && o[0] != '$' && o[0] != '*'
}

// ---- calls ------------------------------------------------------------

// genCall emits a call to ent with the given actuals and reports any
// argument errors. The result (for functions) is left in r0.
func genCall(env *Env, ent *Entry, args []ArgInfo) (rope.Code, []string) {
	var errs []string
	if len(args) != len(ent.Params) {
		errs = append(errs, fmt.Sprintf("%s %q expects %d argument(s), got %d",
			ent.Kind, ent.Name, len(ent.Params), len(args)))
	}
	var code rope.Code
	// Arguments are pushed right to left; the static link goes last so
	// it lands at 4(ap).
	for i := len(args) - 1; i >= 0; i-- {
		if i < len(ent.Params) {
			f := ent.Params[i]
			if f.ByRef {
				if args[i].ACode == nil {
					errs = append(errs, fmt.Sprintf("argument %d of %q must be a variable (var parameter)", i+1, ent.Name))
					code = rope.CatCode(code, codeClrR0, codePushR0)
					continue
				}
				if !f.Type.Equal(args[i].Ty) {
					errs = append(errs, fmt.Sprintf("argument %d of %q: expected %s, got %s", i+1, ent.Name, f.Type, args[i].Ty))
				}
				code = rope.CatCode(code, args[i].ACode, codePushR0)
				continue
			}
			if !isScalar(f.Type) {
				errs = append(errs, fmt.Sprintf("argument %d of %q: aggregates must be passed by var", i+1, ent.Name))
			}
			if !f.Type.Equal(args[i].Ty) {
				errs = append(errs, fmt.Sprintf("argument %d of %q: expected %s, got %s", i+1, ent.Name, f.Type, args[i].Ty))
			}
		}
		if args[i].Opnd != "" {
			code = rope.CatCode(code, rope.Text("\tpushl "+args[i].Opnd+"\n"))
			continue
		}
		code = rope.CatCode(code, args[i].Code, codePushR0)
	}
	k := env.Level - ent.Level
	if k == 0 {
		code = rope.CatCode(code, codePushFP)
	} else {
		code = rope.CatCode(code, chaseCode(k), codePushR0)
	}
	code = rope.CatCode(code, rope.Text("\tcalls $"+strconv.Itoa(len(args)+1)+", "+ent.Label+"\n"))
	return code, errs
}

func isScalar(t Type) bool {
	_, ok := t.(*Basic)
	return ok
}

// ---- peephole ---------------------------------------------------------

// peep applies the local optimizer to a code value when it consists
// purely of local text (it always does below statement level, because
// expressions are never split across machines).
func peep(c rope.Code) rope.Code {
	if c == nil {
		return nil
	}
	pure := true
	rope.WalkCode(c, func(string) {}, func(int32, int) { pure = false })
	if !pure {
		return c
	}
	text := rope.FlattenCode(c, nil)
	opt, _ := vax.Peephole(text)
	return rope.Leaf(opt)
}

// costPeep models flatten+scan cost proportional to the code length.
func costPeep(args []ag.Value) time.Duration {
	n := 0
	for _, a := range args {
		if c, ok := a.(rope.Code); ok && c != nil {
			n += c.CodeLen()
		}
	}
	return micros(60 + n/6)
}

// escapeStr renders a Pascal string literal as an .asciz operand.
func escapeStr(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"', '\\':
			b.WriteByte('\\')
			b.WriteByte(c)
		case '\n':
			b.WriteString("\\n")
		case '\t':
			b.WriteString("\\t")
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}
