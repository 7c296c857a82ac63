package vax

import (
	"strings"
	"testing"
)

// peepVocab is the rewrite vocabulary of Peephole: lines that fire each
// rule, near misses that must not, and operands with commas inside
// quotes or parentheses.
var peepVocab = []string{
	"pushl r0", "pushl 8(fp)", "pushl $3", "pushl  r1",
	"movl (sp)+, r0", "movl (sp)+, r1", "movl (sp)+, (r0)", "movl (sp)+,r2",
	"movl r0, r1", "movl r0, -8(fp)", "movl r0, r0", "movl r1 , r1",
	"movl -4(fp), r0", "movl $1, r0", "movl (r0), r0", "movl 4(r0), r0",
	"movl a, b, c", "movl \"x,y\", r0", "movl (a,b), r0",
	"addl2 $0, r0", "subl2 $0, r1", "mull2 $1, r0", "divl2 $1, r0",
	"bisl2 $0, r0", "addl2 $1, r0",
	"brb L1", "brb  L1 ", "brb L2", "L1:", "L1:\t.asciz \"a,b\"", "L2:", "L12:",
	"cmpl r0, r1", "",
}

// peepSpace decorates a vocabulary line with leading and trailing
// whitespace, including the non-ASCII spaces strings.TrimSpace strips.
var peepSpace = [][2]string{
	{"\t", ""}, {"", ""}, {" ", " "}, {"\t ", "\r"},
	{"\v", "\t"}, {" ", ""}, {"", "\u0085"}, {"\f", " "},
}

// peepText builds assembly text from fuzz bytes: each byte picks a
// vocabulary line and a whitespace decoration.
func peepText(data []byte) string {
	var b strings.Builder
	for i, c := range data {
		if i > 0 {
			b.WriteByte('\n')
		}
		sp := peepSpace[int(c>>5)%len(peepSpace)]
		b.WriteString(sp[0])
		b.WriteString(peepVocab[int(c&31)%len(peepVocab)])
		b.WriteString(sp[1])
	}
	if len(data)%3 == 0 {
		b.WriteByte('\n')
	}
	return b.String()
}

func checkPeephole(t *testing.T, in string) {
	t.Helper()
	got, gotN := Peephole(in)
	want, wantN := peepholeRef(in)
	if got != want || gotN != wantN {
		t.Fatalf("Peephole(%q) = %q, %d; reference gives %q, %d", in, got, gotN, want, wantN)
	}
}

// FuzzPeephole checks the buffered Peephole against the original
// string-splitting implementation, on text built from the rewrite
// vocabulary and on the raw fuzz input.
func FuzzPeephole(f *testing.F) {
	f.Add([]byte{0, 4})
	f.Add([]byte{0, 4, 8, 9})
	f.Add([]byte{12, 9, 25, 28})
	f.Add([]byte{0, 14, 8, 19, 26, 30, 33})
	f.Add([]byte("\tpushl r0\n\tmovl (sp)+, r1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkPeephole(t, peepText(data))
		checkPeephole(t, string(data))
	})
}

func TestPeepholeMatchesReference(t *testing.T) {
	for _, in := range []string{
		"", "\n", "\n\n", "pushl r0", "pushl r0\n", "addl2 $0, r0", "addl2 $0, r0\n",
		"\tpushl r0\n\tmovl (sp)+, r0\n\tmovl r0, r1\n",
		"\tbrb L1\nL1:\n\tbrb L2\n\tbrb L2\nL2:\n",
	} {
		checkPeephole(t, in)
	}
	for i := 0; i < 4096; i++ {
		data := []byte{byte(i), byte(i * 7), byte(i >> 3), byte(i*13 + 5), byte(i >> 5)}
		checkPeephole(t, peepText(data[:1+i%len(data)]))
	}
}

// TestPeepholeAllocs guards the buffered implementation: text no rule
// fires on is returned without allocating, and a rewrite costs only
// the result string, however many passes it takes.
func TestPeepholeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under -race")
	}
	clean := "L3:\n\tmovl -8(fp), r0\n\tcmpl r0, $5\n\tbeql L4\n\tpushl r0\n\tcalls $1, _printint\nL4:\n"
	chain := "\tpushl 8(fp)\n\tmovl (sp)+, r0\n\tmovl r0, r1\n\taddl2 $0, r1\n\tbrb L4\nL4:\n"
	if out, n := Peephole(clean); n != 0 || out != clean {
		t.Fatalf("clean text rewritten %d times: %q", n, out)
	}
	if _, n := Peephole(chain); n < 4 {
		t.Fatalf("chain text rewritten %d times, want at least 4 over two passes", n)
	}
	for _, tc := range []struct {
		name string
		in   string
		max  float64
	}{{"no rewrite", clean, 0}, {"rewrites", chain, 1}} {
		if got := testing.AllocsPerRun(100, func() { Peephole(tc.in) }); got > tc.max {
			t.Errorf("%s: Peephole allocates %.1f times per call, want at most %.0f", tc.name, got, tc.max)
		}
	}
}
