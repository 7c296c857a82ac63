package pascal

import (
	"strconv"

	"pag/internal/ag"
	"pag/internal/rope"
)

// stmtRules covers statements, statement lists, case arms, and the
// write/read argument lists.
func (l *Lang) stmtRules(b *ag.Builder, P func(string, *ag.Symbol, []*ag.Symbol, ...ag.RuleSpec), S func(...*ag.Symbol) []*ag.Symbol) {
	_ = b
	sum := func(a []ag.Value) ag.Value { return ag.IntValue(asInt(a[0]) + asInt(a[1])) }
	merge2 := func(a []ag.Value) ag.Value { return catErrs(asErrs(a[0]), asErrs(a[1])) }
	cat2 := func(a []ag.Value) ag.Value { return rope.CatCode(asCode(a[0]), asCode(a[1])) }

	// ---- statement lists ---------------------------------------------
	P("stmt_list_one", l.StmtList, S(l.Stmt),
		ag.Copy("1.env", "env"),
		ag.Copy("1.lbase", "lbase"),
		ag.Copy("code", "1.code"),
		ag.Copy("data", "1.data"),
		ag.Copy("lused", "1.lused"),
		ag.Copy("errs", "1.errs"),
	)
	P("stmt_list_cons", l.StmtList, S(l.StmtList, l.Stmt),
		ag.Copy("1.env", "env"),
		ag.Copy("2.env", "env"),
		ag.Copy("1.lbase", "lbase"),
		ag.Def("2.lbase", sum, "lbase", "1.lused").WithCost(costCopy),
		ag.Def("lused", sum, "1.lused", "2.lused").WithCost(costCopy),
		ag.Def("code", cat2, "1.code", "2.code").WithCost(costTiny),
		ag.Def("data", cat2, "1.data", "2.data").WithCost(costTiny),
		ag.Def("errs", merge2, "1.errs", "2.errs").WithCost(costCopy),
	)

	// ---- compound ------------------------------------------------------
	P("stmt_compound", l.Stmt, S(l.StmtList),
		ag.Copy("1.env", "env"),
		ag.Copy("1.lbase", "lbase"),
		ag.Copy("code", "1.code"),
		ag.Copy("data", "1.data"),
		ag.Copy("lused", "1.lused"),
		ag.Copy("errs", "1.errs"),
	)

	// ---- empty ----------------------------------------------------------
	P("stmt_empty", l.Stmt, S(),
		ag.Const("code", rope.Code(nil)),
		ag.Const("data", rope.Code(nil)),
		ag.Const("lused", 0),
		ag.Const("errs", []string(nil)),
	)

	// ---- assignment: stmt -> variable expr ------------------------------
	P("stmt_assign", l.Stmt, S(l.Variable, l.Expr),
		ag.Copy("1.env", "env"),
		ag.Copy("2.env", "env"),
		ag.Copy("1.lbase", "lbase"),
		ag.Def("2.lbase", sum, "lbase", "1.lused").WithCost(costCopy),
		ag.Def("lused", sum, "1.lused", "2.lused").WithCost(costCopy),
		ag.Def("code", func(a []ag.Value) ag.Value {
			target, value := asStr(a[2]), asStr(a[3])
			switch {
			case memOperand(target) && value != "":
				return rope.Text("\tmovl " + value + ", " + target + "\n")
			case memOperand(target):
				return peep(rope.CatCode(asCode(a[1]), rope.Text("\tmovl r0, "+target+"\n")))
			default:
				return peep(rope.CatCode(
					asCode(a[1]), // value in r0
					codePushR0,   // save it
					asCode(a[0]), // address in r0
					codePopStore,
				))
			}
		}, "1.code", "2.code", "1.opnd", "2.opnd").WithCost(costPeep),
		ag.Const("data", rope.Code(nil)),
		ag.Def("errs", func(a []ag.Value) ag.Value {
			errs := catErrs(asErrs(a[0]), asErrs(a[1]))
			lt, rt := asType(a[2]), asType(a[3])
			if asBool(a[4]) {
				errs = catErrs(errs, errf("cannot assign to a constant"))
			}
			if !isScalar(lt) && lt != ErrorType {
				errs = catErrs(errs, errf("aggregate assignment is not supported"))
			} else if !lt.Equal(rt) {
				errs = catErrs(errs, errf("cannot assign %s to %s", rt, lt))
			}
			return errs
		}, "1.errs", "2.errs", "1.ty", "2.ty", "1.direct").WithCost(costTiny),
	)

	// ---- procedure call: stmt -> ID arg_list -----------------------------
	P("stmt_call", l.Stmt, S(l.TID, l.ArgList),
		ag.Copy("2.env", "env"),
		ag.Copy("2.lbase", "lbase"),
		ag.Copy("lused", "2.lused"),
		ag.Def("code", func(a []ag.Value) ag.Value {
			env := asEnv(a[0])
			ent, ok := env.Lookup(asStr(a[1]))
			if !ok || ent.Kind != ProcEntry {
				return rope.Code(nil)
			}
			code, _ := genCall(env, ent, asArgs(a[2]))
			return peep(code)
		}, "env", "1.string", "2.args").WithCost(costPeep),
		ag.Const("data", rope.Code(nil)),
		ag.Def("errs", func(a []ag.Value) ag.Value {
			env := asEnv(a[0])
			name := asStr(a[1])
			errs := asErrs(a[3])
			ent, ok := env.Lookup(name)
			switch {
			case !ok:
				errs = catErrs(errs, errf("undeclared procedure %q", name))
			case ent.Kind != ProcEntry:
				errs = catErrs(errs, errf("%q is a %s, not a procedure", name, ent.Kind))
			default:
				_, callErrs := genCall(env, ent, asArgs(a[2]))
				errs = catErrs(errs, callErrs)
			}
			return errs
		}, "env", "1.string", "2.args", "2.errs").WithCost(costLookup),
	)

	// ---- if / if-else ---------------------------------------------------
	P("stmt_if", l.Stmt, S(l.Expr, l.Stmt),
		ag.Copy("1.env", "env"),
		ag.Copy("2.env", "env"),
		ag.Def("1.lbase", func(a []ag.Value) ag.Value { return ag.IntValue(asInt(a[0]) + 1) }, "lbase").WithCost(costCopy),
		ag.Def("2.lbase", func(a []ag.Value) ag.Value { return ag.IntValue(asInt(a[0]) + 1 + asInt(a[1])) },
			"lbase", "1.lused").WithCost(costCopy),
		ag.Def("lused", func(a []ag.Value) ag.Value { return ag.IntValue(1 + asInt(a[0]) + asInt(a[1])) },
			"1.lused", "2.lused").WithCost(costCopy),
		ag.Def("code", func(a []ag.Value) ag.Value {
			end := lbl(asInt(a[2]))
			return rope.CatCode(
				asCode(a[0]),
				rope.Text("\ttstl r0\n\tbeql "+end+"\n"),
				asCode(a[1]),
				rope.Text(end+":\n"),
			)
		}, "1.code", "2.code", "lbase").WithCost(costGen),
		ag.Copy("data", "2.data"),
		ag.Def("errs", func(a []ag.Value) ag.Value {
			errs := catErrs(asErrs(a[0]), asErrs(a[1]))
			if !asType(a[2]).Equal(BooleanType) {
				errs = catErrs(errs, errf("if condition must be boolean, got %s", asType(a[2])))
			}
			return errs
		}, "1.errs", "2.errs", "1.ty").WithCost(costTiny),
	)
	P("stmt_ifelse", l.Stmt, S(l.Expr, l.Stmt, l.Stmt),
		ag.Copy("1.env", "env"),
		ag.Copy("2.env", "env"),
		ag.Copy("3.env", "env"),
		ag.Def("1.lbase", func(a []ag.Value) ag.Value { return ag.IntValue(asInt(a[0]) + 2) }, "lbase").WithCost(costCopy),
		ag.Def("2.lbase", func(a []ag.Value) ag.Value { return ag.IntValue(asInt(a[0]) + 2 + asInt(a[1])) },
			"lbase", "1.lused").WithCost(costCopy),
		ag.Def("3.lbase", func(a []ag.Value) ag.Value { return ag.IntValue(asInt(a[0]) + 2 + asInt(a[1]) + asInt(a[2])) },
			"lbase", "1.lused", "2.lused").WithCost(costCopy),
		ag.Def("lused", func(a []ag.Value) ag.Value { return ag.IntValue(2 + asInt(a[0]) + asInt(a[1]) + asInt(a[2])) },
			"1.lused", "2.lused", "3.lused").WithCost(costCopy),
		ag.Def("code", func(a []ag.Value) ag.Value {
			els, end := lbl(asInt(a[3])), lbl(asInt(a[3])+1)
			return rope.CatCode(
				asCode(a[0]),
				rope.Text("\ttstl r0\n\tbeql "+els+"\n"),
				asCode(a[1]),
				rope.Text("\tbrb "+end+"\n"+els+":\n"),
				asCode(a[2]),
				rope.Text(end+":\n"),
			)
		}, "1.code", "2.code", "3.code", "lbase").WithCost(costGen),
		ag.Def("data", cat2, "2.data", "3.data").WithCost(costTiny),
		ag.Def("errs", func(a []ag.Value) ag.Value {
			errs := catErrs(asErrs(a[0]), asErrs(a[1]), asErrs(a[2]))
			if !asType(a[3]).Equal(BooleanType) {
				errs = catErrs(errs, errf("if condition must be boolean, got %s", asType(a[3])))
			}
			return errs
		}, "1.errs", "2.errs", "3.errs", "1.ty").WithCost(costTiny),
	)

	// ---- while ----------------------------------------------------------
	P("stmt_while", l.Stmt, S(l.Expr, l.Stmt),
		ag.Copy("1.env", "env"),
		ag.Copy("2.env", "env"),
		ag.Def("1.lbase", func(a []ag.Value) ag.Value { return ag.IntValue(asInt(a[0]) + 2) }, "lbase").WithCost(costCopy),
		ag.Def("2.lbase", func(a []ag.Value) ag.Value { return ag.IntValue(asInt(a[0]) + 2 + asInt(a[1])) },
			"lbase", "1.lused").WithCost(costCopy),
		ag.Def("lused", func(a []ag.Value) ag.Value { return ag.IntValue(2 + asInt(a[0]) + asInt(a[1])) },
			"1.lused", "2.lused").WithCost(costCopy),
		ag.Def("code", func(a []ag.Value) ag.Value {
			top, end := lbl(asInt(a[2])), lbl(asInt(a[2])+1)
			return rope.CatCode(
				rope.Text(top+":\n"),
				asCode(a[0]),
				rope.Text("\ttstl r0\n\tbeql "+end+"\n"),
				asCode(a[1]),
				rope.Text("\tbrb "+top+"\n"+end+":\n"),
			)
		}, "1.code", "2.code", "lbase").WithCost(costGen),
		ag.Copy("data", "2.data"),
		ag.Def("errs", func(a []ag.Value) ag.Value {
			errs := catErrs(asErrs(a[0]), asErrs(a[1]))
			if !asType(a[2]).Equal(BooleanType) {
				errs = catErrs(errs, errf("while condition must be boolean, got %s", asType(a[2])))
			}
			return errs
		}, "1.errs", "2.errs", "1.ty").WithCost(costTiny),
	)

	// ---- repeat ... until -------------------------------------------------
	P("stmt_repeat", l.Stmt, S(l.StmtList, l.Expr),
		ag.Copy("1.env", "env"),
		ag.Copy("2.env", "env"),
		ag.Def("1.lbase", func(a []ag.Value) ag.Value { return ag.IntValue(asInt(a[0]) + 1) }, "lbase").WithCost(costCopy),
		ag.Def("2.lbase", func(a []ag.Value) ag.Value { return ag.IntValue(asInt(a[0]) + 1 + asInt(a[1])) },
			"lbase", "1.lused").WithCost(costCopy),
		ag.Def("lused", func(a []ag.Value) ag.Value { return ag.IntValue(1 + asInt(a[0]) + asInt(a[1])) },
			"1.lused", "2.lused").WithCost(costCopy),
		ag.Def("code", func(a []ag.Value) ag.Value {
			top := lbl(asInt(a[2]))
			return rope.CatCode(
				rope.Text(top+":\n"),
				asCode(a[0]),
				asCode(a[1]),
				rope.Text("\ttstl r0\n\tbeql "+top+"\n"),
			)
		}, "1.code", "2.code", "lbase").WithCost(costGen),
		ag.Copy("data", "1.data"),
		ag.Def("errs", func(a []ag.Value) ag.Value {
			errs := catErrs(asErrs(a[0]), asErrs(a[1]))
			if !asType(a[2]).Equal(BooleanType) {
				errs = catErrs(errs, errf("until condition must be boolean, got %s", asType(a[2])))
			}
			return errs
		}, "1.errs", "2.errs", "2.ty").WithCost(costTiny),
	)

	// ---- for loops ---------------------------------------------------------
	forLoop := func(name, cmpBr, step string) {
		P(name, l.Stmt, S(l.Variable, l.Expr, l.Expr, l.Stmt),
			ag.Copy("1.env", "env"),
			ag.Copy("2.env", "env"),
			ag.Copy("3.env", "env"),
			ag.Copy("4.env", "env"),
			ag.Def("1.lbase", func(a []ag.Value) ag.Value { return ag.IntValue(asInt(a[0]) + 2) }, "lbase").WithCost(costCopy),
			ag.Def("2.lbase", func(a []ag.Value) ag.Value { return ag.IntValue(asInt(a[0]) + 2 + asInt(a[1])) },
				"lbase", "1.lused").WithCost(costCopy),
			ag.Def("3.lbase", func(a []ag.Value) ag.Value { return ag.IntValue(asInt(a[0]) + 2 + asInt(a[1]) + asInt(a[2])) },
				"lbase", "1.lused", "2.lused").WithCost(costCopy),
			ag.Def("4.lbase", func(a []ag.Value) ag.Value {
				return ag.IntValue(asInt(a[0]) + 2 + asInt(a[1]) + asInt(a[2]) + asInt(a[3]))
			}, "lbase", "1.lused", "2.lused", "3.lused").WithCost(costCopy),
			ag.Def("lused", func(a []ag.Value) ag.Value {
				return ag.IntValue(2 + asInt(a[0]) + asInt(a[1]) + asInt(a[2]) + asInt(a[3]))
			}, "1.lused", "2.lused", "3.lused", "4.lused").WithCost(costCopy),
			ag.Def("code", func(a []ag.Value) ag.Value {
				top, end := lbl(asInt(a[4])), lbl(asInt(a[4])+1)
				iOp := asStr(a[5])
				// limit on the stack for the loop's duration
				var limit rope.Code
				if o := asStr(a[6]); o != "" {
					limit = rope.Text("\tpushl " + o + "\n")
				} else {
					limit = rope.CatCode(asCode(a[2]), codePushR0)
				}
				if memOperand(iOp) {
					var init rope.Code
					if o := asStr(a[7]); o != "" {
						init = rope.Text("\tmovl " + o + ", " + iOp + "\n")
					} else {
						init = rope.CatCode(asCode(a[1]), rope.Text("\tmovl r0, "+iOp+"\n"))
					}
					return rope.CatCode(
						limit, init,
						rope.Text(top+":\n\tcmpl "+iOp+", (sp)\n\t"+cmpBr+" "+end+"\n"),
						asCode(a[3]), // body
						rope.Text("\t"+step+" "+iOp+"\n\tbrb "+top+"\n"+end+":\n\tmovl (sp)+, r1\n"),
					)
				}
				return rope.CatCode(
					limit,
					asCode(a[1]), // start -> r0
					codePushR0,
					asCode(a[0]), // loop var address -> r0
					codePopStore, // i := start
					rope.Text(top+":\n"),
					asCode(a[0]), // address again
					rope.Text("\tmovl (r0), r1\n\tcmpl r1, (sp)\n\t"+cmpBr+" "+end+"\n"),
					asCode(a[3]), // body
					asCode(a[0]),
					rope.Text("\t"+step+" (r0)\n\tbrb "+top+"\n"+end+":\n\tmovl (sp)+, r1\n"),
				)
			}, "1.code", "2.code", "3.code", "4.code", "lbase", "1.opnd", "3.opnd", "2.opnd").WithCost(costBig),
			ag.Copy("data", "4.data"),
			ag.Def("errs", func(a []ag.Value) ag.Value {
				errs := catErrs(asErrs(a[0]), asErrs(a[1]), asErrs(a[2]), asErrs(a[3]))
				if !asType(a[4]).Equal(IntegerType) {
					errs = catErrs(errs, errf("for loop variable must be integer, got %s", asType(a[4])))
				}
				if !asType(a[5]).Equal(IntegerType) || !asType(a[6]).Equal(IntegerType) {
					errs = catErrs(errs, errf("for loop bounds must be integer"))
				}
				if asBool(a[7]) {
					errs = catErrs(errs, errf("for loop variable cannot be a constant"))
				}
				return errs
			}, "1.errs", "2.errs", "3.errs", "4.errs", "1.ty", "2.ty", "3.ty", "1.direct").WithCost(costTiny),
		)
	}
	forLoop("stmt_for_to", "bgtr", "incl")
	forLoop("stmt_for_down", "blss", "decl")

	// ---- case -----------------------------------------------------------
	P("stmt_case", l.Stmt, S(l.Expr, l.CaseArms),
		ag.Copy("1.env", "env"),
		ag.Copy("2.env", "env"),
		ag.Def("1.lbase", func(a []ag.Value) ag.Value { return ag.IntValue(asInt(a[0]) + 1) }, "lbase").WithCost(costCopy),
		ag.Def("2.lbase", func(a []ag.Value) ag.Value { return ag.IntValue(asInt(a[0]) + 1 + asInt(a[1])) },
			"lbase", "1.lused").WithCost(costCopy),
		ag.Def("2.endlab", func(a []ag.Value) ag.Value { return lbl(asInt(a[0])) }, "lbase").WithCost(costCopy),
		ag.Def("lused", func(a []ag.Value) ag.Value { return ag.IntValue(1 + asInt(a[0]) + asInt(a[1])) },
			"1.lused", "2.lused").WithCost(costCopy),
		ag.Def("code", func(a []ag.Value) ag.Value {
			end := lbl(asInt(a[2]))
			sel := rope.CatCode(asCode(a[0]), codePushR0)
			if o := asStr(a[3]); o != "" {
				sel = rope.Text("\tpushl " + o + "\n")
			}
			return rope.CatCode(
				sel,
				asCode(a[1]),
				rope.Text(end+":\n\tmovl (sp)+, r1\n"),
			)
		}, "1.code", "2.code", "lbase", "1.opnd").WithCost(costGen),
		ag.Copy("data", "2.data"),
		ag.Def("errs", func(a []ag.Value) ag.Value {
			errs := catErrs(asErrs(a[0]), asErrs(a[1]))
			if t := asType(a[2]); !t.Equal(IntegerType) && !t.Equal(CharType) {
				errs = catErrs(errs, errf("case selector must be integer or char, got %s", t))
			}
			return errs
		}, "1.errs", "2.errs", "1.ty").WithCost(costTiny),
	)
	P("stmt_case_else", l.Stmt, S(l.Expr, l.CaseArms, l.Stmt),
		ag.Copy("1.env", "env"),
		ag.Copy("2.env", "env"),
		ag.Copy("3.env", "env"),
		ag.Def("1.lbase", func(a []ag.Value) ag.Value { return ag.IntValue(asInt(a[0]) + 1) }, "lbase").WithCost(costCopy),
		ag.Def("2.lbase", func(a []ag.Value) ag.Value { return ag.IntValue(asInt(a[0]) + 1 + asInt(a[1])) },
			"lbase", "1.lused").WithCost(costCopy),
		ag.Def("2.endlab", func(a []ag.Value) ag.Value { return lbl(asInt(a[0])) }, "lbase").WithCost(costCopy),
		ag.Def("3.lbase", func(a []ag.Value) ag.Value { return ag.IntValue(asInt(a[0]) + 1 + asInt(a[1]) + asInt(a[2])) },
			"lbase", "1.lused", "2.lused").WithCost(costCopy),
		ag.Def("lused", func(a []ag.Value) ag.Value { return ag.IntValue(1 + asInt(a[0]) + asInt(a[1]) + asInt(a[2])) },
			"1.lused", "2.lused", "3.lused").WithCost(costCopy),
		ag.Def("code", func(a []ag.Value) ag.Value {
			end := lbl(asInt(a[3]))
			sel := rope.CatCode(asCode(a[0]), codePushR0)
			if o := asStr(a[4]); o != "" {
				sel = rope.Text("\tpushl " + o + "\n")
			}
			return rope.CatCode(
				sel,
				asCode(a[1]),
				asCode(a[2]), // else statement
				rope.Text(end+":\n\tmovl (sp)+, r1\n"),
			)
		}, "1.code", "2.code", "3.code", "lbase", "1.opnd").WithCost(costGen),
		ag.Def("data", cat2, "2.data", "3.data").WithCost(costTiny),
		ag.Def("errs", func(a []ag.Value) ag.Value {
			errs := catErrs(asErrs(a[0]), asErrs(a[1]), asErrs(a[2]))
			if t := asType(a[3]); !t.Equal(IntegerType) && !t.Equal(CharType) {
				errs = catErrs(errs, errf("case selector must be integer or char, got %s", t))
			}
			return errs
		}, "1.errs", "2.errs", "3.errs", "1.ty").WithCost(costTiny),
	)

	P("case_arms_one", l.CaseArms, S(l.CaseArm),
		ag.Copy("1.env", "env"),
		ag.Copy("1.lbase", "lbase"),
		ag.Copy("1.endlab", "endlab"),
		ag.Copy("code", "1.code"),
		ag.Copy("data", "1.data"),
		ag.Copy("lused", "1.lused"),
		ag.Copy("errs", "1.errs"),
	)
	P("case_arms_cons", l.CaseArms, S(l.CaseArms, l.CaseArm),
		ag.Copy("1.env", "env"),
		ag.Copy("2.env", "env"),
		ag.Copy("1.endlab", "endlab"),
		ag.Copy("2.endlab", "endlab"),
		ag.Copy("1.lbase", "lbase"),
		ag.Def("2.lbase", sum, "lbase", "1.lused").WithCost(costCopy),
		ag.Def("lused", sum, "1.lused", "2.lused").WithCost(costCopy),
		ag.Def("code", cat2, "1.code", "2.code").WithCost(costTiny),
		ag.Def("data", cat2, "1.data", "2.data").WithCost(costTiny),
		ag.Def("errs", merge2, "1.errs", "2.errs").WithCost(costCopy),
	)
	// case_arm -> num_list stmt
	P("case_arm", l.CaseArm, S(l.NumList, l.Stmt),
		ag.Copy("2.env", "env"),
		ag.Def("2.lbase", func(a []ag.Value) ag.Value { return ag.IntValue(asInt(a[0]) + 2) }, "lbase").WithCost(costCopy),
		ag.Def("lused", func(a []ag.Value) ag.Value { return ag.IntValue(2 + asInt(a[0])) }, "2.lused").WithCost(costCopy),
		ag.Def("code", func(a []ag.Value) ag.Value {
			body, next := lbl(asInt(a[2])), lbl(asInt(a[2])+1)
			var tests rope.Code
			for _, c := range asNums(a[0]) {
				tests = rope.CatCode(tests, rope.Text("\tcmpl (sp), $"+strconv.Itoa(c)+"\n\tbeql "+body+"\n"))
			}
			return rope.CatCode(
				tests,
				rope.Text("\tbrb "+next+"\n"+body+":\n"),
				asCode(a[1]),
				rope.Text("\tbrb "+asStr(a[3])+"\n"+next+":\n"),
			)
		}, "1.nums", "2.code", "lbase", "endlab").WithCost(costGen),
		ag.Copy("data", "2.data"),
		ag.Copy("errs", "2.errs"),
	)
	P("num_list_one", l.NumList, S(l.TNum),
		ag.Def("nums", func(a []ag.Value) ag.Value {
			n, _ := strconv.Atoi(asStr(a[0]))
			return []int{n}
		}, "1.string").WithCost(costCopy),
	)
	P("num_list_cons", l.NumList, S(l.NumList, l.TNum),
		ag.Def("nums", func(a []ag.Value) ag.Value {
			n, _ := strconv.Atoi(asStr(a[1]))
			return append(append([]int(nil), asNums(a[0])...), n)
		}, "1.nums", "2.string").WithCost(costCopy),
	)

	// ---- write / writeln --------------------------------------------------
	writeStmt := func(name string, newline bool) {
		P(name, l.Stmt, S(l.WriteArgs),
			ag.Copy("1.env", "env"),
			ag.Copy("1.lbase", "lbase"),
			ag.Copy("lused", "1.lused"),
			ag.Def("code", func(a []ag.Value) ag.Value {
				code := asCode(a[0])
				if newline {
					code = rope.CatCode(code, codePrintNL)
				}
				return code
			}, "1.code").WithCost(costTiny),
			ag.Copy("data", "1.data"),
			ag.Copy("errs", "1.errs"),
		)
	}
	writeStmt("stmt_write", false)
	writeStmt("stmt_writeln", true)

	P("wargs_empty", l.WriteArgs, S(),
		ag.Const("code", rope.Code(nil)),
		ag.Const("data", rope.Code(nil)),
		ag.Const("lused", 0),
		ag.Const("errs", []string(nil)),
	)
	P("wargs_cons", l.WriteArgs, S(l.WriteArgs, l.WriteArg),
		ag.Copy("1.env", "env"),
		ag.Copy("2.env", "env"),
		ag.Copy("1.lbase", "lbase"),
		ag.Def("2.lbase", sum, "lbase", "1.lused").WithCost(costCopy),
		ag.Def("lused", sum, "1.lused", "2.lused").WithCost(costCopy),
		ag.Def("code", cat2, "1.code", "2.code").WithCost(costTiny),
		ag.Def("data", cat2, "1.data", "2.data").WithCost(costTiny),
		ag.Def("errs", merge2, "1.errs", "2.errs").WithCost(costCopy),
	)
	P("warg_expr", l.WriteArg, S(l.Expr),
		ag.Copy("1.env", "env"),
		ag.Copy("1.lbase", "lbase"),
		ag.Copy("lused", "1.lused"),
		ag.Def("code", func(a []ag.Value) ag.Value {
			var runtime string
			switch t := asType(a[1]); {
			case t.Equal(CharType):
				runtime = "_printchar"
			case t.Equal(BooleanType):
				runtime = "_printbool"
			default:
				runtime = "_printint"
			}
			if o := asStr(a[2]); o != "" {
				return rope.Text("\tpushl " + o + "\n\tcalls $1, " + runtime + "\n")
			}
			return peep(rope.CatCode(asCode(a[0]), rope.Text("\tpushl r0\n\tcalls $1, "+runtime+"\n")))
		}, "1.code", "1.ty", "1.opnd").WithCost(costPeep),
		ag.Const("data", rope.Code(nil)),
		ag.Def("errs", func(a []ag.Value) ag.Value {
			errs := asErrs(a[0])
			if !isScalar(asType(a[1])) {
				errs = catErrs(errs, errf("cannot write a %s value", asType(a[1])))
			}
			return errs
		}, "1.errs", "1.ty").WithCost(costTiny),
	)
	P("warg_str", l.WriteArg, S(l.TStr),
		ag.Def("code", func(a []ag.Value) ag.Value {
			return rope.Text("\tpushab " + strLbl(asInt(a[0])) + "\n\tcalls $1, _printstr\n")
		}, "lbase").WithCost(costGen),
		ag.Def("data", func(a []ag.Value) ag.Value {
			return rope.Text(strLbl(asInt(a[1])) + ":\t.asciz \"" + escapeStr(asStr(a[0])) + "\"\n")
		}, "1.string", "lbase").WithCost(costGen),
		ag.Const("lused", 1),
		ag.Const("errs", []string(nil)),
	)

	// ---- read / readln ------------------------------------------------------
	readStmt := func(name string, skip bool) {
		P(name, l.Stmt, S(l.ReadArgs),
			ag.Copy("1.env", "env"),
			ag.Copy("1.lbase", "lbase"),
			ag.Copy("lused", "1.lused"),
			ag.Def("code", func(a []ag.Value) ag.Value {
				code := asCode(a[0])
				if skip {
					code = rope.CatCode(code, codeReadSkip)
				}
				return code
			}, "1.code").WithCost(costTiny),
			ag.Const("data", rope.Code(nil)),
			ag.Copy("errs", "1.errs"),
		)
	}
	readStmt("stmt_read", false)
	readStmt("stmt_readln", true)

	readOne := func(a []ag.Value) ag.Value {
		if o := asStr(a[1]); memOperand(o) {
			return rope.Text("\tpushal " + o + "\n\tcalls $1, _readint\n")
		}
		return peep(rope.CatCode(asCode(a[0]), codeReadInt))
	}
	readErrs := func(a []ag.Value) ag.Value {
		errs := asErrs(a[0])
		if t := asType(a[1]); !t.Equal(IntegerType) && !t.Equal(CharType) {
			errs = catErrs(errs, errf("read target must be integer or char, got %s", t))
		}
		if asBool(a[2]) {
			errs = catErrs(errs, errf("cannot read into a constant"))
		}
		return errs
	}
	P("rargs_one", l.ReadArgs, S(l.Variable),
		ag.Copy("1.env", "env"),
		ag.Copy("1.lbase", "lbase"),
		ag.Copy("lused", "1.lused"),
		ag.Def("code", readOne, "1.code", "1.opnd").WithCost(costPeep),
		ag.Def("errs", readErrs, "1.errs", "1.ty", "1.direct").WithCost(costTiny),
	)
	P("rargs_cons", l.ReadArgs, S(l.ReadArgs, l.Variable),
		ag.Copy("1.env", "env"),
		ag.Copy("2.env", "env"),
		ag.Copy("1.lbase", "lbase"),
		ag.Def("2.lbase", sum, "lbase", "1.lused").WithCost(costCopy),
		ag.Def("lused", sum, "1.lused", "2.lused").WithCost(costCopy),
		ag.Def("code", func(a []ag.Value) ag.Value {
			second := readOne([]ag.Value{a[1], a[2]})
			return rope.CatCode(asCode(a[0]), second.(rope.Code))
		}, "1.code", "2.code", "2.opnd").WithCost(costPeep),
		ag.Def("errs", func(a []ag.Value) ag.Value {
			errs := catErrs(asErrs(a[0]))
			sub := readErrs([]ag.Value{a[1], a[2], a[3]})
			return catErrs(errs, asErrs(sub))
		}, "1.errs", "2.errs", "2.ty", "2.direct").WithCost(costTiny),
	)
}
