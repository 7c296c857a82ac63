// Package vax models the compiler's target: VAX-11 assembly language
// (the paper's generated code, §3). It provides the instruction table
// used to validate generated code, a size assembler that estimates the
// machine-code size of an assembly text (the paper's §4.1 observation
// that "machine language is much more compact than assembly language"
// motivates the integrated-assembly experiment), and a peephole
// optimizer implementing the paper's "limited amount of local
// optimization".
package vax

import (
	"fmt"
	"strings"
)

// instrSpec describes one mnemonic: its operand count and base opcode
// size in bytes.
type instrSpec struct {
	operands int
	opBytes  int
}

// instrTable lists the VAX mnemonics the code generator may emit.
var instrTable = map[string]instrSpec{
	// data movement
	"movl":   {2, 1},
	"movb":   {2, 1},
	"movzbl": {2, 1},
	"movab":  {2, 1},
	"moval":  {2, 1},
	"clrl":   {1, 1},
	"pushl":  {1, 1},
	"pushab": {1, 1},
	"pushal": {1, 1},
	// arithmetic
	"addl2": {2, 1},
	"addl3": {3, 1},
	"subl2": {2, 1},
	"subl3": {3, 1},
	"mull2": {2, 1},
	"mull3": {3, 1},
	"divl2": {2, 1},
	"divl3": {3, 1},
	"mnegl": {2, 1},
	"incl":  {1, 1},
	"decl":  {1, 1},
	// logical
	"bisl2": {2, 1},
	"bisl3": {3, 1},
	"bicl2": {2, 1},
	"bicl3": {3, 1},
	"xorl2": {2, 1},
	"xorl3": {3, 1},
	"mcoml": {2, 1},
	// comparison and branches
	"cmpl": {2, 1},
	"tstl": {1, 1},
	"beql": {1, 1},
	"bneq": {1, 1},
	"blss": {1, 1},
	"bleq": {1, 1},
	"bgtr": {1, 1},
	"bgeq": {1, 1},
	"brb":  {1, 1},
	"brw":  {1, 2},
	"jmp":  {1, 1},
	// procedures
	"calls": {2, 1},
	"ret":   {0, 1},
	"halt":  {0, 1},
}

// Directives accepted by Validate (assembler pseudo-ops).
var directives = map[string]bool{
	".text": true, ".data": true, ".globl": true, ".align": true,
	".long": true, ".byte": true, ".asciz": true, ".ascii": true,
	".word": true, ".space": true, ".set": true,
}

// IsInstruction reports whether mnemonic is a known VAX instruction.
func IsInstruction(mnemonic string) bool {
	_, ok := instrTable[mnemonic]
	return ok
}

// line splits an assembly line into label, mnemonic and operand fields.
// Comments start with '#'.
func parseLine(raw string) (label, mnemonic string, operands []string) {
	s := raw
	if i := strings.IndexByte(s, '#'); i >= 0 {
		s = s[:i]
	}
	s = strings.TrimSpace(s)
	if s == "" {
		return "", "", nil
	}
	if i := strings.IndexByte(s, ':'); i >= 0 && !strings.ContainsAny(s[:i], " \t") {
		label = s[:i]
		s = strings.TrimSpace(s[i+1:])
		if s == "" {
			return label, "", nil
		}
	}
	fields := strings.Fields(s)
	mnemonic = fields[0]
	rest := strings.TrimSpace(s[len(mnemonic):])
	if rest != "" {
		for _, op := range splitOperands(rest) {
			operands = append(operands, strings.TrimSpace(op))
		}
	}
	return label, mnemonic, operands
}

// splitTwo splits s into exactly two top-level operands without
// allocating. ok is false when s does not have exactly two operands.
// The peephole pass calls this once per instruction per fixpoint
// iteration, so it must not produce garbage like splitOperands does.
func splitTwo(s []byte) (first, second []byte, ok bool) {
	depth := 0
	inStr := false
	cut := -1
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			inStr = !inStr
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 && !inStr {
				if cut >= 0 {
					return nil, nil, false // three or more operands
				}
				cut = i
			}
		}
	}
	if cut < 0 {
		return nil, nil, false
	}
	return s[:cut], s[cut+1:], true
}

// splitOperands splits on commas that are not inside quotes.
func splitOperands(s string) []string {
	var out []string
	depth := 0
	inStr := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			inStr = !inStr
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 && !inStr {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	out = append(out, s[start:])
	return out
}

// operandBytes estimates the encoded size of one operand specifier.
func operandBytes(op string) int {
	op = strings.TrimSpace(op)
	if _, isReg := registers[op]; isReg {
		return 1
	}
	switch {
	case op == "":
		return 0
	case op == "(sp)+" || op == "-(sp)":
		return 1
	case strings.HasPrefix(op, "(") && strings.HasSuffix(op, ")"):
		if _, isReg := registers[op[1:len(op)-1]]; isReg {
			return 1 // register deferred
		}
		return 2
	case strings.HasPrefix(op, "$"): // immediate
		n := 0
		fmt.Sscanf(op[1:], "%d", &n)
		if n >= 0 && n <= 63 {
			return 1 // short literal
		}
		return 5
	case strings.Contains(op, "("): // displacement(reg)
		var d int
		fmt.Sscanf(op, "%d(", &d)
		if d >= -128 && d < 128 {
			return 2 // byte displacement
		}
		return 5 // longword displacement
	case strings.HasPrefix(op, "*"): // indirect
		return 1 + operandBytes(op[1:])
	default: // symbolic address or branch target
		return 2
	}
}

// MachineSize estimates the number of machine-code bytes the assembly
// text assembles to. Labels, directives, comments and blank lines
// contribute nothing (except .asciz/.long/.space data).
func MachineSize(text string) int {
	total := 0
	for _, raw := range strings.Split(text, "\n") {
		_, mnem, ops := parseLine(raw)
		if mnem == "" {
			continue
		}
		if spec, ok := instrTable[mnem]; ok {
			n := spec.opBytes
			for _, op := range ops {
				n += operandBytes(op)
			}
			total += n
			continue
		}
		switch mnem {
		case ".long":
			total += 4 * len(ops)
		case ".word":
			total += 2 * len(ops)
		case ".byte":
			total += len(ops)
		case ".asciz", ".ascii":
			for _, op := range ops {
				total += len(strings.Trim(op, `"`)) + 1
			}
		case ".space":
			var n int
			if len(ops) > 0 {
				fmt.Sscanf(ops[0], "%d", &n)
			}
			total += n
		}
	}
	return total
}

// Validate checks the assembly text line by line: every instruction
// must be a known mnemonic with the right operand count; everything
// else must be a label or a known directive. It returns one message per
// offending line.
func Validate(text string) []string {
	var problems []string
	for lineNo, raw := range strings.Split(text, "\n") {
		_, mnem, ops := parseLine(raw)
		if mnem == "" {
			continue
		}
		if strings.HasPrefix(mnem, ".") {
			if !directives[mnem] {
				problems = append(problems, fmt.Sprintf("line %d: unknown directive %s", lineNo+1, mnem))
			}
			continue
		}
		spec, ok := instrTable[mnem]
		if !ok {
			problems = append(problems, fmt.Sprintf("line %d: unknown instruction %q in %q", lineNo+1, mnem, strings.TrimSpace(raw)))
			continue
		}
		if len(ops) != spec.operands {
			problems = append(problems, fmt.Sprintf("line %d: %s takes %d operand(s), got %d (%q)",
				lineNo+1, mnem, spec.operands, len(ops), strings.TrimSpace(raw)))
		}
	}
	return problems
}

// CountInstructions returns the number of instruction lines.
func CountInstructions(text string) int {
	n := 0
	for _, raw := range strings.Split(text, "\n") {
		if _, mnem, _ := parseLine(raw); mnem != "" {
			if _, ok := instrTable[mnem]; ok {
				n++
			}
		}
	}
	return n
}
