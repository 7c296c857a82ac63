package pascal

import (
	"strconv"
	"time"

	"pag/internal/ag"
	"pag/internal/rope"
)

// buildRules declares every production and its semantic rules. The
// grammar is abstract-syntax shaped: punctuation terminals are omitted
// from right-hand sides (the hand-written parser supplies structure),
// which keeps the production count near the paper's scale while every
// translation decision still lives in a semantic rule.
func (l *Lang) buildRules(b *ag.Builder) {
	S := func(syms ...*ag.Symbol) []*ag.Symbol { return syms }
	P := func(name string, lhs *ag.Symbol, rhs []*ag.Symbol, rules ...ag.RuleSpec) {
		l.prods[name] = b.Production(lhs, rhs, rules...)
	}

	// ---------------- program ----------------------------------------
	// program -> ID block
	P("program", l.Program, S(l.TID, l.Block),
		ag.Def("2.env", func([]ag.Value) ag.Value { return EmptyEnv() }).WithCost(costTiny),
		ag.Const("2.label", "main"),
		ag.Const("2.lbase", 1),
		ag.Def("code", func(a []ag.Value) ag.Value {
			scope := a[0].(ScopeVal)
			body := asCode(a[1])
			procs := asCode(a[2])
			data := asCode(a[3])
			head := rope.Text(".text\n\t.globl _main\n_main:\n\t.word 0\n\tsubl2 $" +
				strconv.Itoa(scope.Env.NextFree) + ", sp\n\tclrl -4(fp)\n")
			out := rope.CatCode(head, body, codeRet, procs)
			if data != nil && data.CodeLen() > 0 {
				out = rope.CatCode(out, codeData, data)
			}
			return out
		}, "2.scope", "2.code", "2.procs", "2.data").WithCost(costGen),
		ag.Def("errs", func(a []ag.Value) ag.Value {
			return catErrs(a[0].(ScopeVal).Errs, asErrs(a[1]))
		}, "2.scope", "2.errs").WithCost(costTiny),
	)

	// block -> const_part var_part proc_part stmt
	P("block", l.Block, S(l.ConstPart, l.VarPart, l.ProcPart, l.Stmt),
		ag.Def("scope", func(a []ag.Value) ag.Value {
			return buildScope(asEnv(a[0]), asStr(a[1]), asSigs(a[2]), asSigs(a[3]), asSigs(a[4]))
		}, "env", "label", "1.decl", "2.decl", "3.decl").WithCost(func(a []ag.Value) time.Duration {
			n := len(asSigs(a[2])) + len(asSigs(a[3])) + len(asSigs(a[4]))
			return micros(60 + 40*n)
		}),
		ag.Def("3.env", func(a []ag.Value) ag.Value { return a[0].(ScopeVal).Env }, "scope").WithCost(costCopy),
		ag.Def("4.env", func(a []ag.Value) ag.Value { return a[0].(ScopeVal).Env }, "scope").WithCost(costCopy),
		ag.Copy("3.label", "label"),
		ag.Copy("3.lbase", "lbase"),
		ag.Def("4.lbase", func(a []ag.Value) ag.Value { return ag.IntValue(asInt(a[0]) + asInt(a[1])) },
			"lbase", "3.lused").WithCost(costCopy),
		ag.Def("lused", func(a []ag.Value) ag.Value { return ag.IntValue(asInt(a[0]) + asInt(a[1])) },
			"3.lused", "4.lused").WithCost(costCopy),
		ag.Copy("code", "4.code"),
		ag.Copy("procs", "3.code"),
		ag.Def("data", func(a []ag.Value) ag.Value {
			return rope.CatCode(asCode(a[0]), asCode(a[1]))
		}, "3.data", "4.data").WithCost(costTiny),
		ag.Def("errs", func(a []ag.Value) ag.Value {
			return catErrs(asErrs(a[0]), asErrs(a[1]), a[2].(ScopeVal).Errs, asErrs(a[3]), asErrs(a[4]))
		}, "1.errs", "2.errs", "scope", "3.errs", "4.errs").WithCost(costTiny),
	)

	l.declRules(b, P, S)
	l.stmtRules(b, P, S)
	l.exprRules(b, P, S)
}

// declRules covers constants, variables, types, formals and procedures.
func (l *Lang) declRules(b *ag.Builder, P func(string, *ag.Symbol, []*ag.Symbol, ...ag.RuleSpec), S func(...*ag.Symbol) []*ag.Symbol) {
	// const_part
	P("const_part_empty", l.ConstPart, S(),
		ag.Const("decl", []*DeclSig(nil)),
		ag.Const("errs", []string(nil)),
	)
	P("const_part_cons", l.ConstPart, S(l.ConstPart, l.ConstDecl),
		ag.Def("decl", func(a []ag.Value) ag.Value {
			return append(append([]*DeclSig(nil), asSigs(a[0])...), asSigs(a[1])...)
		}, "1.decl", "2.decl").WithCost(costTiny),
		ag.Def("errs", func(a []ag.Value) ag.Value { return catErrs(asErrs(a[0]), asErrs(a[1])) },
			"1.errs", "2.errs").WithCost(costCopy),
	)
	constDecl := func(name string, sign int) {
		P(name, l.ConstDecl, S(l.TID, l.TNum),
			ag.Def("decl", func(a []ag.Value) ag.Value {
				n, err := strconv.Atoi(asStr(a[1]))
				if err != nil {
					n = 0
				}
				return []*DeclSig{{Kind: ConstEntry, Name: asStr(a[0]), Type: IntegerType, Value: sign * n}}
			}, "1.string", "2.string").WithCost(costTiny),
			ag.Const("errs", []string(nil)),
		)
	}
	constDecl("const_decl", 1)
	constDecl("const_decl_neg", -1)

	// var_part
	P("var_part_empty", l.VarPart, S(),
		ag.Const("decl", []*DeclSig(nil)),
		ag.Const("errs", []string(nil)),
	)
	P("var_part_cons", l.VarPart, S(l.VarPart, l.VarDecl),
		ag.Def("decl", func(a []ag.Value) ag.Value {
			return append(append([]*DeclSig(nil), asSigs(a[0])...), asSigs(a[1])...)
		}, "1.decl", "2.decl").WithCost(costTiny),
		ag.Def("errs", func(a []ag.Value) ag.Value { return catErrs(asErrs(a[0]), asErrs(a[1])) },
			"1.errs", "2.errs").WithCost(costCopy),
	)
	// var_decl -> id_list type_expr
	P("var_decl", l.VarDecl, S(l.IDList, l.TypeExpr),
		ag.Def("decl", func(a []ag.Value) ag.Value {
			ty := asType(a[1])
			var sigs []*DeclSig
			for _, n := range asNames(a[0]) {
				sigs = append(sigs, &DeclSig{Kind: VarEntry, Name: n, Type: ty})
			}
			return sigs
		}, "1.names", "2.ty").WithCost(costTiny),
		ag.Copy("errs", "2.errs"),
	)

	// id_list
	P("id_list_one", l.IDList, S(l.TID),
		ag.Def("names", func(a []ag.Value) ag.Value { return []string{asStr(a[0])} }, "1.string").WithCost(costCopy),
	)
	P("id_list_cons", l.IDList, S(l.IDList, l.TID),
		ag.Def("names", func(a []ag.Value) ag.Value {
			return append(append([]string(nil), asNames(a[0])...), asStr(a[1]))
		}, "1.names", "2.string").WithCost(costCopy),
	)

	// type_expr
	P("type_basic", l.TypeExpr, S(l.TID),
		ag.Def("ty", func(a []ag.Value) ag.Value {
			switch asStr(a[0]) {
			case "integer":
				return Type(IntegerType)
			case "boolean":
				return Type(BooleanType)
			case "char":
				return Type(CharType)
			default:
				return Type(ErrorType)
			}
		}, "1.string").WithCost(costTiny),
		ag.Def("errs", func(a []ag.Value) ag.Value {
			switch asStr(a[0]) {
			case "integer", "boolean", "char":
				return []string(nil)
			default:
				return errf("unknown type %q", asStr(a[0]))
			}
		}, "1.string").WithCost(costTiny),
	)
	P("type_array", l.TypeExpr, S(l.TNum, l.TNum, l.TypeExpr),
		ag.Def("ty", func(a []ag.Value) ag.Value {
			lo, _ := strconv.Atoi(asStr(a[0]))
			hi, _ := strconv.Atoi(asStr(a[1]))
			return Type(&Array{Lo: lo, Hi: hi, Elem: asType(a[2])})
		}, "1.string", "2.string", "3.ty").WithCost(costTiny),
		ag.Def("errs", func(a []ag.Value) ag.Value {
			lo, _ := strconv.Atoi(asStr(a[0]))
			hi, _ := strconv.Atoi(asStr(a[1]))
			errs := asErrs(a[2])
			if hi < lo {
				errs = catErrs(errs, errf("array bounds %d..%d are empty", lo, hi))
			}
			return errs
		}, "1.string", "2.string", "3.errs").WithCost(costTiny),
	)
	P("type_record", l.TypeExpr, S(l.FieldList),
		ag.Def("ty", func(a []ag.Value) ag.Value {
			return Type(NewRecord(append([]Field(nil), asFields(a[0])...)))
		}, "1.fields").WithCost(costTiny),
		ag.Copy("errs", "1.errs"),
	)
	P("field_list_one", l.FieldList, S(l.FieldDecl),
		ag.Copy("fields", "1.fields"),
		ag.Copy("errs", "1.errs"),
	)
	P("field_list_cons", l.FieldList, S(l.FieldList, l.FieldDecl),
		ag.Def("fields", func(a []ag.Value) ag.Value {
			return append(append([]Field(nil), asFields(a[0])...), asFields(a[1])...)
		}, "1.fields", "2.fields").WithCost(costCopy),
		ag.Def("errs", func(a []ag.Value) ag.Value { return catErrs(asErrs(a[0]), asErrs(a[1])) },
			"1.errs", "2.errs").WithCost(costCopy),
	)
	P("field_decl", l.FieldDecl, S(l.IDList, l.TypeExpr),
		ag.Def("fields", func(a []ag.Value) ag.Value {
			ty := asType(a[1])
			var fields []Field
			for _, n := range asNames(a[0]) {
				fields = append(fields, Field{Name: n, Type: ty})
			}
			return fields
		}, "1.names", "2.ty").WithCost(costTiny),
		ag.Copy("errs", "2.errs"),
	)

	// formal_part
	P("formal_empty", l.FormalPart, S(),
		ag.Const("params", []Param(nil)),
		ag.Const("errs", []string(nil)),
	)
	P("formal_cons", l.FormalPart, S(l.FormalPart, l.Formal),
		ag.Def("params", func(a []ag.Value) ag.Value {
			return append(append([]Param(nil), asParams(a[0])...), asParams(a[1])...)
		}, "1.params", "2.params").WithCost(costCopy),
		ag.Def("errs", func(a []ag.Value) ag.Value { return catErrs(asErrs(a[0]), asErrs(a[1])) },
			"1.errs", "2.errs").WithCost(costCopy),
	)
	formal := func(name string, byRef bool) {
		P(name, l.Formal, S(l.IDList, l.TypeExpr),
			ag.Def("params", func(a []ag.Value) ag.Value {
				ty := asType(a[1])
				var ps []Param
				for _, n := range asNames(a[0]) {
					ps = append(ps, Param{Name: n, Type: ty, ByRef: byRef})
				}
				return ps
			}, "1.names", "2.ty").WithCost(costTiny),
			ag.Def("errs", func(a []ag.Value) ag.Value {
				errs := asErrs(a[1])
				if !byRef {
					if !isScalar(asType(a[0])) {
						errs = catErrs(errs, errf("value parameters must be scalar (use var for aggregates)"))
					}
				}
				return errs
			}, "2.ty", "2.errs").WithCost(costTiny),
		)
	}
	formal("formal_val", false)
	formal("formal_var", true)
	_ = b

	// proc_part
	P("proc_part_empty", l.ProcPart, S(),
		ag.Const("decl", []*DeclSig(nil)),
		ag.Const("code", rope.Code(nil)),
		ag.Const("data", rope.Code(nil)),
		ag.Const("lused", 0),
		ag.Const("errs", []string(nil)),
	)
	P("proc_part_cons", l.ProcPart, S(l.ProcPart, l.ProcDecl),
		ag.Def("decl", func(a []ag.Value) ag.Value {
			return append(append([]*DeclSig(nil), asSigs(a[0])...), asSigs(a[1])...)
		}, "1.decl", "2.decl").WithCost(costTiny),
		ag.Copy("1.env", "env"),
		ag.Copy("2.env", "env"),
		ag.Copy("1.label", "label"),
		ag.Copy("2.label", "label"),
		ag.Copy("1.lbase", "lbase"),
		ag.Def("2.lbase", func(a []ag.Value) ag.Value { return ag.IntValue(asInt(a[0]) + asInt(a[1])) },
			"lbase", "1.lused").WithCost(costCopy),
		ag.Def("lused", func(a []ag.Value) ag.Value { return ag.IntValue(asInt(a[0]) + asInt(a[1])) },
			"1.lused", "2.lused").WithCost(costCopy),
		ag.Def("code", func(a []ag.Value) ag.Value { return rope.CatCode(asCode(a[0]), asCode(a[1])) },
			"1.code", "2.code").WithCost(costTiny),
		ag.Def("data", func(a []ag.Value) ag.Value { return rope.CatCode(asCode(a[0]), asCode(a[1])) },
			"1.data", "2.data").WithCost(costTiny),
		ag.Def("errs", func(a []ag.Value) ag.Value { return catErrs(asErrs(a[0]), asErrs(a[1])) },
			"1.errs", "2.errs").WithCost(costCopy),
	)

	// proc_decl -> ID formal_part block            (procedure)
	P("proc_decl_proc", l.ProcDecl, S(l.TID, l.FormalPart, l.Block),
		ag.Def("decl", func(a []ag.Value) ag.Value {
			return []*DeclSig{{Kind: ProcEntry, Name: asStr(a[0]), Params: asParams(a[1])}}
		}, "1.string", "2.params").WithCost(costTiny),
		ag.Def("3.env", func(a []ag.Value) ag.Value {
			return procScope(asEnv(a[0]), asParams(a[1]), false).Env
		}, "env", "2.params").WithCost(costLookup),
		ag.Def("3.label", func(a []ag.Value) ag.Value { return asStr(a[0]) + "_" + asStr(a[1]) },
			"label", "1.string").WithCost(costCopy),
		ag.Copy("3.lbase", "lbase"),
		ag.Copy("lused", "3.lused"),
		ag.Def("code", func(a []ag.Value) ag.Value {
			label := asStr(a[0]) + "_" + asStr(a[1])
			scope := a[2].(ScopeVal)
			params := asParams(a[3])
			return rope.CatCode(
				prologue(label, scope.Env.NextFree, params, false),
				asCode(a[4]),
				codeRet,
				asCode(a[5]),
			)
		}, "label", "1.string", "3.scope", "2.params", "3.code", "3.procs").WithCost(costBig),
		ag.Copy("data", "3.data"),
		ag.Def("errs", func(a []ag.Value) ag.Value {
			ps := procScope(asEnv(a[0]), asParams(a[1]), false)
			return catErrs(asErrs(a[2]), ps.Errs, asErrs(a[3]))
		}, "env", "2.params", "2.errs", "3.errs").WithCost(costTiny),
	)

	// proc_decl -> ID formal_part type_expr block  (function)
	P("proc_decl_func", l.ProcDecl, S(l.TID, l.FormalPart, l.TypeExpr, l.Block),
		ag.Def("decl", func(a []ag.Value) ag.Value {
			return []*DeclSig{{Kind: FuncEntry, Name: asStr(a[0]), Type: asType(a[1]), Params: asParams(a[2])}}
		}, "1.string", "3.ty", "2.params").WithCost(costTiny),
		ag.Def("4.env", func(a []ag.Value) ag.Value {
			return procScope(asEnv(a[0]), asParams(a[1]), true).Env
		}, "env", "2.params").WithCost(costLookup),
		ag.Def("4.label", func(a []ag.Value) ag.Value { return asStr(a[0]) + "_" + asStr(a[1]) },
			"label", "1.string").WithCost(costCopy),
		ag.Copy("4.lbase", "lbase"),
		ag.Copy("lused", "4.lused"),
		ag.Def("code", func(a []ag.Value) ag.Value {
			label := asStr(a[0]) + "_" + asStr(a[1])
			scope := a[2].(ScopeVal)
			params := asParams(a[3])
			return rope.CatCode(
				prologue(label, scope.Env.NextFree, params, true),
				asCode(a[4]),
				codeFuncRet,
				asCode(a[5]),
			)
		}, "label", "1.string", "4.scope", "2.params", "4.code", "4.procs").WithCost(costBig),
		ag.Copy("data", "4.data"),
		ag.Def("errs", func(a []ag.Value) ag.Value {
			ps := procScope(asEnv(a[0]), asParams(a[1]), true)
			errs := catErrs(asErrs(a[2]), ps.Errs, asErrs(a[3]), asErrs(a[4]))
			if !isScalar(asType(a[5])) {
				errs = catErrs(errs, errf("function result must be a scalar type"))
			}
			return errs
		}, "env", "2.params", "2.errs", "3.errs", "4.errs", "3.ty").WithCost(costTiny),
	)
}
