package main

import (
	"fmt"
	"math/rand"
	"strings"

	"pag/internal/workload"
)

// Program shapes, all internal/workload configurations whose Seed the
// benchmark replaces with one derived from the run seed.
const (
	shapeTiny = iota
	shapeSmall
	shapeCourse
)

// progSeed derives the generator seed of program i of a stream (one
// stream per role inside a workload) from the run seed, so one run
// seed gives the same inputs every time and distinct programs
// everywhere else.
func progSeed(runSeed int64, stream, i int) int64 {
	return runSeed*1_000_003 + int64(stream)*10_007 + int64(i)
}

// genProgram returns the Pascal source of one seeded program.
func genProgram(shape int, seed int64) string {
	var cfg workload.Config
	switch shape {
	case shapeTiny:
		cfg = workload.Tiny()
	case shapeSmall:
		cfg = workload.Small()
	default:
		cfg = workload.CourseCompiler()
	}
	cfg.Seed = seed
	return workload.Generate(cfg)
}

// literalSites lists the byte offsets of the integer literals a
// one-token edit may rewrite: inside procedure and function bodies, in
// assignments and loop or branch conditions, never in declarations,
// array subscripts or case labels (where a new value could break the
// program's semantics or its bounds).
func literalSites(src string) []int {
	lines := strings.SplitAfter(src, "\n")
	// Procedure bodies lie between the first procedure header and the
	// main program's "begin", the last unindented one.
	first, last := -1, -1
	for i, ln := range lines {
		if first < 0 && (strings.HasPrefix(ln, "procedure ") || strings.HasPrefix(ln, "function ")) {
			first = i
		}
		if strings.TrimRight(ln, "\n") == "begin" {
			last = i
		}
	}
	var sites []int
	off := 0
	for i, ln := range lines {
		start := off
		off += len(ln)
		if i <= first || i >= last || first < 0 {
			continue
		}
		t := strings.TrimSpace(ln)
		if strings.ContainsAny(t, "['") || strings.Contains(t, "case ") || strings.Contains(t, "array") {
			continue
		}
		if !strings.Contains(t, ":=") && !strings.HasPrefix(t, "while ") && !strings.HasPrefix(t, "repeat ") && !strings.HasPrefix(t, "if ") {
			continue
		}
		if j := strings.IndexByte(t, ':'); j >= 0 && (j+1 >= len(t) || t[j+1] != '=') {
			continue // a case arm label
		}
		for j := 0; j < len(ln); j++ {
			if !isDigit(ln[j]) || (j > 0 && isIdent(ln[j-1])) {
				continue
			}
			k := j
			for k < len(ln) && isDigit(ln[k]) {
				k++
			}
			if k == j+1 && (k >= len(ln) || !isIdent(ln[k])) {
				sites = append(sites, start+j)
			}
			j = k
		}
	}
	return sites
}

func isDigit(b byte) bool { return b >= '0' && b <= '9' }

func isIdent(b byte) bool {
	return isDigit(b) || b == '_' || (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z')
}

// editLiteral rewrites one single-digit literal of a procedure body to
// another digit in 2..9 (never zero: divisors stay non-zero, loop
// bounds stay small).
func editLiteral(src string, rng *rand.Rand) string {
	sites := literalSites(src)
	if len(sites) == 0 {
		return src
	}
	at := sites[rng.Intn(len(sites))]
	old := src[at]
	nd := byte('2' + rng.Intn(8))
	if nd == old {
		nd = '2' + (nd-'2'+1)%8
	}
	return src[:at] + string(nd) + src[at+1:]
}

// editDecl adds one unused local variable to a procedure's variable
// declarations: the procedure's scope, and so the inherited symbol
// table of every fragment below it, changes while its code does not.
func editDecl(src string, rng *rand.Rand, n int) string {
	const decl = "  i, acc, tmp"
	var sites []int
	for at := 0; ; {
		j := strings.Index(src[at:], "\n"+decl)
		if j < 0 {
			break
		}
		sites = append(sites, at+j+1+len(decl))
		at += j + 1
	}
	if len(sites) == 0 {
		return src
	}
	at := sites[rng.Intn(len(sites))]
	return src[:at] + fmt.Sprintf(", e%d", n) + src[at:]
}

// editChain returns n cumulative one-token edits of base: mostly
// integer literals in procedure bodies, every tenth a declaration.
func editChain(base string, n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, 0, n)
	src := base
	for i := 0; i < n; i++ {
		if i%10 == 9 {
			src = editDecl(src, rng, i)
		} else {
			src = editLiteral(src, rng)
		}
		out = append(out, src)
	}
	return out
}
