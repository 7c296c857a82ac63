package vax

import "strings"

// peepholeRef is the original string-splitting Peephole, kept as the
// reference the buffered implementation is checked against: it splits
// the text into lines, rewrites, and joins again on every pass.
func peepholeRef(text string) (string, int) {
	lines := strings.Split(text, "\n")
	rewrites := 0
	for {
		changed := false
		out := make([]string, 0, len(lines))
		i := 0
		for i < len(lines) {
			cur := strings.TrimSpace(lines[i])
			next := ""
			if i+1 < len(lines) {
				next = strings.TrimSpace(lines[i+1])
			}

			// pushl X ; movl (sp)+, Y  →  movl X, Y
			if x, ok := strings.CutPrefix(cur, "pushl "); ok {
				if y, ok2 := strings.CutPrefix(next, "movl (sp)+, "); ok2 {
					out = append(out, "\tmovl "+x+", "+y)
					i += 2
					rewrites++
					changed = true
					continue
				}
			}

			// movl X, X → removed
			if rest, ok := strings.CutPrefix(cur, "movl "); ok {
				if x, y, ok2 := refSplitTwo(rest); ok2 && strings.TrimSpace(x) == strings.TrimSpace(y) {
					i++
					rewrites++
					changed = true
					continue
				}
			}

			// movl X, r0 ; movl r0, Y → movl X, Y  (r0 dead after)
			if x, ok := refCutMoveTo(cur, "r0"); ok {
				if y, ok2 := strings.CutPrefix(next, "movl r0, "); ok2 && !strings.Contains(x, "r0") {
					out = append(out, "\tmovl "+x+", "+y)
					i += 2
					rewrites++
					changed = true
					continue
				}
			}

			// arithmetic identities
			if refIsIdentity(cur) {
				i++
				rewrites++
				changed = true
				continue
			}

			// brb L ; L: → L:
			if target, ok := strings.CutPrefix(cur, "brb "); ok {
				if strings.HasPrefix(next, strings.TrimSpace(target)+":") {
					i++ // drop the branch, keep the label line
					rewrites++
					changed = true
					continue
				}
			}

			out = append(out, lines[i])
			i++
		}
		lines = out
		if !changed {
			break
		}
	}
	return strings.Join(lines, "\n"), rewrites
}

// cutMoveTo matches "movl X, dst" and returns X.
func refCutMoveTo(line, dst string) (string, bool) {
	rest, ok := strings.CutPrefix(line, "movl ")
	if !ok {
		return "", false
	}
	x, y, ok := refSplitTwo(rest)
	if !ok || strings.TrimSpace(y) != dst {
		return "", false
	}
	return strings.TrimSpace(x), true
}

func refIsIdentity(line string) bool {
	for _, pat := range []string{"addl2 $0, ", "subl2 $0, ", "mull2 $1, ", "divl2 $1, ", "bisl2 $0, "} {
		if strings.HasPrefix(line, pat) {
			return true
		}
	}
	return false
}

// refSplitTwo is splitTwo over strings.
func refSplitTwo(s string) (first, second string, ok bool) {
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
					return "", "", false
				}
				cut = i
			}
		}
	}
	if cut < 0 {
		return "", "", false
	}
	return s[:cut], s[cut+1:], true
}
