package vax

import (
	"bytes"
	"sync"
)

// Peephole performs the paper's "limited amount of local optimization"
// on a window of assembly text (typically one procedure body). It
// applies a small set of classical rewrites until a fixed point:
//
//   - push/pop elimination:       pushl X ; movl (sp)+, Y  →  movl X, Y
//   - self-move elimination:      movl X, X                →  (removed)
//   - move chaining:              movl X, r0 ; movl r0, Y  →  movl X, Y
//     (only when the next instruction overwrites r0, which our
//     accumulator-style generator guarantees locally)
//   - arithmetic identities:      addl2 $0, X / subl2 $0, X /
//     mull2 $1, X / divl2 $1, X   →  (removed)
//   - jump-to-next elimination:   brb L ; L:               →  L:
//
// It returns the optimized text and the number of rewrites applied.
// Each pass reads one buffer and writes the next, so the work is one
// scan per pass with no per-line garbage; when no rule fires the input
// is returned as is, and otherwise the result is the only allocation.
func Peephole(text string) (string, int) {
	bufs := peepBufs.Get().(*peepBuf)
	src := append(bufs.a[:0], text...)
	dst := bufs.b
	rewrites := 0
	for {
		var n int
		dst, n = peepPass(src, dst[:0])
		if n == 0 {
			break
		}
		rewrites += n
		src, dst = dst, src
	}
	out := text
	if rewrites > 0 {
		out = string(src)
	}
	if cap(src)+cap(dst) <= maxPooledPeep {
		bufs.a, bufs.b = src, dst
		peepBufs.Put(bufs)
	}
	return out, rewrites
}

// peepBuf holds the two line buffers a Peephole call alternates
// between; they are pooled so that steady-state calls reuse them.
type peepBuf struct{ a, b []byte }

var peepBufs = sync.Pool{New: func() any { return new(peepBuf) }}

// maxPooledPeep bounds the buffer bytes kept for reuse, so one large
// input does not pin its buffers for the rest of the process.
const maxPooledPeep = 1 << 16

var (
	opPushl    = []byte("pushl ")
	opMovl     = []byte("movl ")
	opBrb      = []byte("brb ")
	opPop      = []byte("movl (sp)+, ")
	opFromR0   = []byte("movl r0, ")
	regR0      = []byte("r0")
	identities = [][]byte{
		[]byte("addl2 $0, "), []byte("subl2 $0, "), []byte("mull2 $1, "),
		[]byte("divl2 $1, "), []byte("bisl2 $0, "),
	}
)

// peepPass runs one pass of the rewrites over the lines of src and
// returns the number applied. The output is appended to dst only from
// the first rewrite on: until then it equals the prefix of src already
// scanned, which is copied in one piece when a rule first fires. With
// no rewrite dst is returned empty and src is the pass's result.
//
// A line is src[start:end]; lines are separated by '\n', and an empty
// text is one empty line, as strings.Split has it.
func peepPass(src, dst []byte) ([]byte, int) {
	// Every output line is written with a trailing '\n'; the last one
	// is dropped at the end, as strings.Join would not write it.
	rewrites := 0
	started := false
	start := 0
	for start <= len(src) {
		end := lineEnd(src, start)
		cur := bytes.TrimSpace(src[start:end])
		nextStart, nextEnd := end+1, end+1
		var next []byte
		if nextStart <= len(src) {
			nextEnd = lineEnd(src, nextStart)
			next = bytes.TrimSpace(src[nextStart:nextEnd])
		}

		var x, y []byte // operands of a merged move
		consumed := 0   // lines consumed by a rewrite; 0 keeps cur
		switch {
		case pushPop(cur, next, &x, &y):
			consumed = 2
		case selfMove(cur):
			consumed = 1
		case moveChain(cur, next, &x, &y):
			consumed = 2
		case isIdentity(cur):
			consumed = 1
		case branchToNext(cur, next):
			consumed = 1
		}
		if consumed == 0 {
			if started {
				dst = append(dst, src[start:end]...)
				dst = append(dst, '\n')
			}
			start = end + 1
			continue
		}
		if !started {
			dst = append(dst, src[:start]...)
			started = true
		}
		rewrites++
		if consumed == 2 {
			dst = append(dst, "\tmovl "...)
			dst = append(dst, x...)
			dst = append(dst, ", "...)
			dst = append(dst, y...)
			dst = append(dst, '\n')
			start = nextEnd + 1
		} else {
			start = end + 1
		}
	}
	if len(dst) > 0 {
		dst = dst[:len(dst)-1]
	}
	return dst, rewrites
}

// lineEnd returns the index of the '\n' ending the line that starts at
// start, or len(s) for the last line.
func lineEnd(s []byte, start int) int {
	if i := bytes.IndexByte(s[start:], '\n'); i >= 0 {
		return start + i
	}
	return len(s)
}

// pushPop matches pushl X ; movl (sp)+, Y.
func pushPop(cur, next []byte, x, y *[]byte) bool {
	px, ok := bytes.CutPrefix(cur, opPushl)
	if !ok {
		return false
	}
	py, ok := bytes.CutPrefix(next, opPop)
	if !ok {
		return false
	}
	*x, *y = px, py
	return true
}

// selfMove matches movl X, X.
func selfMove(cur []byte) bool {
	rest, ok := bytes.CutPrefix(cur, opMovl)
	if !ok {
		return false
	}
	a, b, ok := splitTwo(rest)
	return ok && bytes.Equal(bytes.TrimSpace(a), bytes.TrimSpace(b))
}

// moveChain matches movl X, r0 ; movl r0, Y where X does not mention
// r0.
func moveChain(cur, next []byte, x, y *[]byte) bool {
	mx, ok := cutMoveTo(cur, regR0)
	if !ok {
		return false
	}
	my, ok := bytes.CutPrefix(next, opFromR0)
	if !ok || bytes.Contains(mx, regR0) {
		return false
	}
	*x, *y = mx, my
	return true
}

// branchToNext matches brb L ; L: (the label line is kept).
func branchToNext(cur, next []byte) bool {
	target, ok := bytes.CutPrefix(cur, opBrb)
	if !ok {
		return false
	}
	target = bytes.TrimSpace(target)
	return len(next) > len(target) && bytes.HasPrefix(next, target) && next[len(target)] == ':'
}

// cutMoveTo matches "movl X, dst" and returns X.
func cutMoveTo(line, dst []byte) ([]byte, bool) {
	rest, ok := bytes.CutPrefix(line, opMovl)
	if !ok {
		return nil, false
	}
	x, y, ok := splitTwo(rest)
	if !ok || !bytes.Equal(bytes.TrimSpace(y), dst) {
		return nil, false
	}
	return bytes.TrimSpace(x), true
}

func isIdentity(line []byte) bool {
	for _, pat := range identities {
		if bytes.HasPrefix(line, pat) {
			return true
		}
	}
	return false
}
