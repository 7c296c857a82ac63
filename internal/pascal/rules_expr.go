package pascal

import (
	"fmt"
	"strconv"

	"pag/internal/ag"
	"pag/internal/rope"
)

// exprRules covers expressions, variables (lvalues) and argument lists.
func (l *Lang) exprRules(b *ag.Builder, P func(string, *ag.Symbol, []*ag.Symbol, ...ag.RuleSpec), S func(...*ag.Symbol) []*ag.Symbol) {
	_ = b
	sum := func(a []ag.Value) ag.Value { return ag.IntValue(asInt(a[0]) + asInt(a[1])) }
	merge2 := func(a []ag.Value) ag.Value { return catErrs(asErrs(a[0]), asErrs(a[1])) }

	// binOp declares expr -> expr expr with the given instruction tail
	// and operand/result types.
	binOp := func(name, op string, operand, result Type) {
		P(name, l.Expr, S(l.Expr, l.Expr),
			ag.Copy("1.env", "env"),
			ag.Copy("2.env", "env"),
			ag.Copy("1.lbase", "lbase"),
			ag.Def("2.lbase", sum, "lbase", "1.lused").WithCost(costCopy),
			ag.Def("lused", sum, "1.lused", "2.lused").WithCost(costCopy),
			ag.Def("code", func(a []ag.Value) ag.Value {
				return genBin(op, asCode(a[0]), asCode(a[1]), asStr(a[2]), asStr(a[3]))
			}, "1.code", "2.code", "1.opnd", "2.opnd").WithCost(costGen),
			ag.Const("acode", rope.Code(nil)),
			ag.Const("opnd", ""),
			ag.Const("ty", Type(result)),
			ag.Def("errs", func(a []ag.Value) ag.Value {
				errs := catErrs(asErrs(a[0]), asErrs(a[1]))
				if !asType(a[2]).Equal(operand) || !asType(a[3]).Equal(operand) {
					errs = catErrs(errs, errf("operands of %s must be %s", name[len("expr_"):], operand))
				}
				return errs
			}, "1.errs", "2.errs", "1.ty", "2.ty").WithCost(costTiny),
		)
	}
	binOp("expr_add", "add", IntegerType, IntegerType)
	binOp("expr_sub", "sub", IntegerType, IntegerType)
	binOp("expr_mul", "mul", IntegerType, IntegerType)
	binOp("expr_div", "div", IntegerType, IntegerType)
	binOp("expr_mod", "mod", IntegerType, IntegerType)
	binOp("expr_or", "or", BooleanType, BooleanType)
	binOp("expr_and", "and", BooleanType, BooleanType)

	// relOp declares a comparison producing a boolean in r0.
	relOp := func(name, branch string) {
		P(name, l.Expr, S(l.Expr, l.Expr),
			ag.Copy("1.env", "env"),
			ag.Copy("2.env", "env"),
			ag.Def("1.lbase", func(a []ag.Value) ag.Value { return ag.IntValue(asInt(a[0]) + 2) }, "lbase").WithCost(costCopy),
			ag.Def("2.lbase", func(a []ag.Value) ag.Value { return ag.IntValue(asInt(a[0]) + 2 + asInt(a[1])) },
				"lbase", "1.lused").WithCost(costCopy),
			ag.Def("lused", func(a []ag.Value) ag.Value { return ag.IntValue(2 + asInt(a[0]) + asInt(a[1])) },
				"1.lused", "2.lused").WithCost(costCopy),
			ag.Def("code", func(a []ag.Value) ag.Value {
				yes, end := lbl(asInt(a[2])), lbl(asInt(a[2])+1)
				o1, o2 := asStr(a[3]), asStr(a[4])
				var cmp rope.Code
				switch {
				case o2 != "":
					cmp = rope.CatCode(asCode(a[0]), rope.Text("\tcmpl r0, "+o2+"\n"))
				case o1 != "":
					cmp = rope.CatCode(asCode(a[1]), rope.Text("\tcmpl "+o1+", r0\n"))
				default:
					cmp = rope.CatCode(asCode(a[0]), codePushR0, asCode(a[1]), codePopCmp)
				}
				return rope.CatCode(cmp,
					rope.Text("\t"+branch+" "+yes+"\n\tclrl r0\n\tbrb "+end+"\n"+yes+":\n\tmovl $1, r0\n"+end+":\n"))
			}, "1.code", "2.code", "lbase", "1.opnd", "2.opnd").WithCost(costGen),
			ag.Const("acode", rope.Code(nil)),
			ag.Const("opnd", ""),
			ag.Const("ty", Type(BooleanType)),
			ag.Def("errs", func(a []ag.Value) ag.Value {
				errs := catErrs(asErrs(a[0]), asErrs(a[1]))
				t1, t2 := asType(a[2]), asType(a[3])
				if !t1.Equal(t2) {
					errs = catErrs(errs, errf("cannot compare %s with %s", t1, t2))
				} else if !isScalar(t1) && t1 != ErrorType {
					errs = catErrs(errs, errf("cannot compare %s values", t1))
				}
				return errs
			}, "1.errs", "2.errs", "1.ty", "2.ty").WithCost(costTiny),
		)
	}
	relOp("expr_eq", "beql")
	relOp("expr_ne", "bneq")
	relOp("expr_lt", "blss")
	relOp("expr_le", "bleq")
	relOp("expr_gt", "bgtr")
	relOp("expr_ge", "bgeq")

	// unary minus
	P("expr_neg", l.Expr, S(l.Expr),
		ag.Copy("1.env", "env"),
		ag.Copy("1.lbase", "lbase"),
		ag.Copy("lused", "1.lused"),
		ag.Def("code", func(a []ag.Value) ag.Value {
			return rope.CatCode(asCode(a[0]), codeNeg)
		}, "1.code").WithCost(costGen),
		ag.Const("acode", rope.Code(nil)),
		ag.Const("opnd", ""),
		ag.Const("ty", Type(IntegerType)),
		ag.Def("errs", func(a []ag.Value) ag.Value {
			errs := asErrs(a[0])
			if !asType(a[1]).Equal(IntegerType) {
				errs = catErrs(errs, errf("unary minus needs an integer operand"))
			}
			return errs
		}, "1.errs", "1.ty").WithCost(costTiny),
	)
	// not
	P("expr_not", l.Expr, S(l.Expr),
		ag.Copy("1.env", "env"),
		ag.Copy("1.lbase", "lbase"),
		ag.Copy("lused", "1.lused"),
		ag.Def("code", func(a []ag.Value) ag.Value {
			return rope.CatCode(asCode(a[0]), codeNot)
		}, "1.code").WithCost(costGen),
		ag.Const("acode", rope.Code(nil)),
		ag.Const("opnd", ""),
		ag.Const("ty", Type(BooleanType)),
		ag.Def("errs", func(a []ag.Value) ag.Value {
			errs := asErrs(a[0])
			if !asType(a[1]).Equal(BooleanType) {
				errs = catErrs(errs, errf("not needs a boolean operand"))
			}
			return errs
		}, "1.errs", "1.ty").WithCost(costTiny),
	)

	// literals
	P("expr_num", l.Expr, S(l.TNum),
		ag.Def("code", func(a []ag.Value) ag.Value {
			n, _ := strconv.Atoi(asStr(a[0]))
			return rope.Text("\tmovl $" + strconv.Itoa(n) + ", r0\n")
		}, "1.string").WithCost(costTiny),
		ag.Const("acode", rope.Code(nil)),
		ag.Def("opnd", func(a []ag.Value) ag.Value {
			n, _ := strconv.Atoi(asStr(a[0]))
			return "$" + strconv.Itoa(n)
		}, "1.string").WithCost(costCopy),
		ag.Const("ty", Type(IntegerType)),
		ag.Const("lused", 0),
		ag.Const("errs", []string(nil)),
	)
	P("expr_char", l.Expr, S(l.TChar),
		ag.Def("code", func(a []ag.Value) ag.Value {
			s := asStr(a[0])
			c := byte(' ')
			if len(s) > 0 {
				c = s[0]
			}
			return rope.Text("\tmovl $" + strconv.Itoa(int(c)) + ", r0\n")
		}, "1.string").WithCost(costTiny),
		ag.Const("acode", rope.Code(nil)),
		ag.Def("opnd", func(a []ag.Value) ag.Value {
			s := asStr(a[0])
			c := byte(' ')
			if len(s) > 0 {
				c = s[0]
			}
			return "$" + strconv.Itoa(int(c))
		}, "1.string").WithCost(costCopy),
		ag.Const("ty", Type(CharType)),
		ag.Const("lused", 0),
		ag.Const("errs", []string(nil)),
	)
	boolLit := func(name string, v int) {
		P(name, l.Expr, S(),
			ag.Const("code", rope.Text("\tmovl $"+strconv.Itoa(v)+", r0\n")),
			ag.Const("acode", rope.Code(nil)),
			ag.Const("opnd", "$"+strconv.Itoa(v)),
			ag.Const("ty", Type(BooleanType)),
			ag.Const("lused", 0),
			ag.Const("errs", []string(nil)),
		)
	}
	boolLit("expr_true", 1)
	boolLit("expr_false", 0)

	// expr -> variable  (rvalue use of an lvalue)
	P("expr_var", l.Expr, S(l.Variable),
		ag.Copy("1.env", "env"),
		ag.Copy("1.lbase", "lbase"),
		ag.Copy("lused", "1.lused"),
		ag.Def("code", func(a []ag.Value) ag.Value {
			if o := asStr(a[2]); o != "" {
				return rope.Text("\tmovl " + o + ", r0\n")
			}
			if asBool(a[1]) { // constant: code already loads the value
				return asCode(a[0])
			}
			return rope.CatCode(asCode(a[0]), codeDeref)
		}, "1.code", "1.direct", "1.opnd").WithCost(costTiny),
		ag.Def("acode", func(a []ag.Value) ag.Value {
			if asBool(a[1]) {
				return rope.Code(nil) // constants have no address
			}
			return asCode(a[0])
		}, "1.code", "1.direct").WithCost(costCopy),
		ag.Copy("opnd", "1.opnd"),
		ag.Copy("ty", "1.ty"),
		ag.Copy("errs", "1.errs"),
	)

	// expr -> ID arg_list  (function call)
	P("expr_call", l.Expr, S(l.TID, l.ArgList),
		ag.Copy("2.env", "env"),
		ag.Copy("2.lbase", "lbase"),
		ag.Copy("lused", "2.lused"),
		ag.Def("code", func(a []ag.Value) ag.Value {
			env := asEnv(a[0])
			ent, ok := env.Lookup(asStr(a[1]))
			if !ok || ent.Kind != FuncEntry {
				return codeClrR0
			}
			code, _ := genCall(env, ent, asArgs(a[2]))
			return peep(code)
		}, "env", "1.string", "2.args").WithCost(costPeep),
		ag.Const("acode", rope.Code(nil)),
		ag.Const("opnd", ""),
		ag.Def("ty", func(a []ag.Value) ag.Value {
			ent, ok := asEnv(a[0]).Lookup(asStr(a[1]))
			if !ok || ent.Kind != FuncEntry {
				return Type(ErrorType)
			}
			return ent.Type
		}, "env", "1.string").WithCost(costLookup),
		ag.Def("errs", func(a []ag.Value) ag.Value {
			env := asEnv(a[0])
			name := asStr(a[1])
			errs := asErrs(a[3])
			ent, ok := env.Lookup(name)
			switch {
			case !ok:
				errs = catErrs(errs, errf("undeclared function %q", name))
			case ent.Kind != FuncEntry:
				errs = catErrs(errs, errf("%q is a %s, not a function", name, ent.Kind))
			default:
				_, callErrs := genCall(env, ent, asArgs(a[2]))
				errs = catErrs(errs, callErrs)
			}
			return errs
		}, "env", "1.string", "2.args", "2.errs").WithCost(costLookup),
	)

	// ---- variables -----------------------------------------------------
	P("var_id", l.Variable, S(l.TID),
		ag.Const("lused", 0),
		ag.Def("opnd", func(a []ag.Value) ag.Value {
			env := asEnv(a[0])
			ent, ok := env.Lookup(asStr(a[1]))
			if !ok {
				return ""
			}
			switch {
			case ent.Kind == ConstEntry:
				return "$" + strconv.Itoa(ent.Value)
			case ent.Kind == VarEntry && env.Level == ent.Level && isScalar(ent.Type):
				if ent.ByRef {
					return fmt.Sprintf("*%d(fp)", ent.Offset)
				}
				return fmt.Sprintf("%d(fp)", ent.Offset)
			default:
				return ""
			}
		}, "env", "1.string").WithCost(costLookup),
		ag.Def("code", func(a []ag.Value) ag.Value {
			env := asEnv(a[0])
			ent, ok := env.Lookup(asStr(a[1]))
			if !ok {
				return codeClrR0
			}
			switch ent.Kind {
			case ConstEntry:
				return rope.Text("\tmovl $" + strconv.Itoa(ent.Value) + ", r0\n")
			case FuncEntry:
				// assignment to the function result slot
				return codeFuncSlot
			case ProcEntry:
				return codeClrR0
			default:
				return addrCode(env, ent)
			}
		}, "env", "1.string").WithCost(costLookup),
		ag.Def("ty", func(a []ag.Value) ag.Value {
			ent, ok := asEnv(a[0]).Lookup(asStr(a[1]))
			if !ok || ent.Type == nil {
				return Type(ErrorType)
			}
			return ent.Type
		}, "env", "1.string").WithCost(costLookup),
		ag.Def("direct", func(a []ag.Value) ag.Value {
			ent, ok := asEnv(a[0]).Lookup(asStr(a[1]))
			return ok && ent.Kind == ConstEntry
		}, "env", "1.string").WithCost(costLookup),
		ag.Def("errs", func(a []ag.Value) ag.Value {
			ent, ok := asEnv(a[0]).Lookup(asStr(a[1]))
			switch {
			case !ok:
				return errf("undeclared identifier %q", asStr(a[1]))
			case ent.Kind == ProcEntry:
				return errf("procedure %q used as a variable", asStr(a[1]))
			default:
				return []string(nil)
			}
		}, "env", "1.string").WithCost(costLookup),
	)

	// variable -> variable expr   (array indexing)
	P("var_index", l.Variable, S(l.Variable, l.Expr),
		ag.Copy("1.env", "env"),
		ag.Copy("2.env", "env"),
		ag.Copy("1.lbase", "lbase"),
		ag.Def("2.lbase", sum, "lbase", "1.lused").WithCost(costCopy),
		ag.Def("lused", sum, "1.lused", "2.lused").WithCost(costCopy),
		ag.Const("direct", false),
		ag.Const("opnd", ""),
		ag.Def("code", func(a []ag.Value) ag.Value {
			arr, ok := asType(a[2]).(*Array)
			if !ok {
				return asCode(a[0])
			}
			return rope.CatCode(
				asCode(a[0]), // base address
				codePushR0,
				asCode(a[1]), // index value
				rope.Text("\tsubl2 $"+strconv.Itoa(arr.Lo)+", r0\n\tmull2 $"+strconv.Itoa(arr.Elem.Size())+", r0\n\taddl2 (sp)+, r0\n"),
			)
		}, "1.code", "2.code", "1.ty").WithCost(costGen),
		ag.Def("ty", func(a []ag.Value) ag.Value {
			if arr, ok := asType(a[0]).(*Array); ok {
				return arr.Elem
			}
			return Type(ErrorType)
		}, "1.ty").WithCost(costCopy),
		ag.Def("errs", func(a []ag.Value) ag.Value {
			errs := catErrs(asErrs(a[0]), asErrs(a[1]))
			if _, ok := asType(a[2]).(*Array); !ok && asType(a[2]) != ErrorType {
				errs = catErrs(errs, errf("cannot index a %s", asType(a[2])))
			}
			if !asType(a[3]).Equal(IntegerType) {
				errs = catErrs(errs, errf("array index must be integer, got %s", asType(a[3])))
			}
			if asBool(a[4]) {
				errs = catErrs(errs, errf("cannot index a constant"))
			}
			return errs
		}, "1.errs", "2.errs", "1.ty", "2.ty", "1.direct").WithCost(costTiny),
	)

	// variable -> variable ID   (record field selection)
	P("var_field", l.Variable, S(l.Variable, l.TID),
		ag.Copy("1.env", "env"),
		ag.Copy("1.lbase", "lbase"),
		ag.Copy("lused", "1.lused"),
		ag.Const("direct", false),
		ag.Const("opnd", ""),
		ag.Def("code", func(a []ag.Value) ag.Value {
			rec, ok := asType(a[1]).(*Record)
			if !ok {
				return asCode(a[0])
			}
			f, ok := rec.Find(asStr(a[2]))
			if !ok {
				return asCode(a[0])
			}
			return rope.CatCode(asCode(a[0]), rope.Text("\taddl2 $"+strconv.Itoa(f.Offset)+", r0\n"))
		}, "1.code", "1.ty", "2.string").WithCost(costGen),
		ag.Def("ty", func(a []ag.Value) ag.Value {
			rec, ok := asType(a[0]).(*Record)
			if !ok {
				return Type(ErrorType)
			}
			f, ok := rec.Find(asStr(a[1]))
			if !ok {
				return Type(ErrorType)
			}
			return f.Type
		}, "1.ty", "2.string").WithCost(costCopy),
		ag.Def("errs", func(a []ag.Value) ag.Value {
			errs := asErrs(a[0])
			rec, ok := asType(a[1]).(*Record)
			switch {
			case !ok && asType(a[1]) != ErrorType:
				errs = catErrs(errs, errf("%s has no fields", asType(a[1])))
			case ok:
				if _, found := rec.Find(asStr(a[2])); !found {
					errs = catErrs(errs, errf("record has no field %q", asStr(a[2])))
				}
			}
			if asBool(a[3]) {
				errs = catErrs(errs, errf("cannot select a field of a constant"))
			}
			return errs
		}, "1.errs", "1.ty", "2.string", "1.direct").WithCost(costTiny),
	)

	// ---- argument lists -------------------------------------------------
	P("args_empty", l.ArgList, S(),
		ag.Const("args", []ArgInfo(nil)),
		ag.Const("lused", 0),
		ag.Const("errs", []string(nil)),
	)
	P("args_cons", l.ArgList, S(l.ArgList, l.Expr),
		ag.Copy("1.env", "env"),
		ag.Copy("2.env", "env"),
		ag.Copy("1.lbase", "lbase"),
		ag.Def("2.lbase", sum, "lbase", "1.lused").WithCost(costCopy),
		ag.Def("lused", sum, "1.lused", "2.lused").WithCost(costCopy),
		ag.Def("args", func(a []ag.Value) ag.Value {
			return append(append([]ArgInfo(nil), asArgs(a[0])...),
				ArgInfo{Code: asCode(a[1]), ACode: asCode(a[2]), Opnd: asStr(a[3]), Ty: asType(a[4])})
		}, "1.args", "2.code", "2.acode", "2.opnd", "2.ty").WithCost(costTiny),
		ag.Def("errs", merge2, "1.errs", "2.errs").WithCost(costCopy),
	)
}
