package main

import (
	"bufio"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The design machine's speed drifts over minutes by 20-40%, sometimes
// more, with every timing moving together. Pure arithmetic does not
// drift there; compiler-like work, which allocates trees and fills
// symbol maps, drifts nearly in step with a compile. So every untraced
// run also times a fixed piece of such work that shares no code with
// the system (the standard library's Go parser and type checker on a
// fixed source), interleaved with its measured jobs, and scales its
// gated times to the speed at which that work takes calibMs: they read
// as milliseconds (or seconds) on the design machine at its usual
// speed, and a change to the system moves them while a change of host
// speed mostly does not. The raw times are in every report line beside
// them.
//
// The calibration runs in a child process (this binary with
// -calibrate), so its memory does not count in peak_rss_mb and a
// change to the system's garbage collector settings does not reach it.
const (
	// calibMs is about the median time of one calibration on the
	// design machine.
	calibMs = 50.0
	// calibEvery is how often a closed loop samples the host, at most.
	calibEvery = 300 * time.Millisecond
	// calibUnits is the size of the Go source the calibration checks.
	calibUnits = 150
)

// hostMeter collects calibration times over one run.
type hostMeter struct {
	cmd     *exec.Cmd
	in      io.WriteCloser
	out     *bufio.Reader
	samples []float64 // ms
	last    time.Time
	err     error
	closed  bool
}

// startHost starts the calibration child process.
func startHost() (*hostMeter, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	h := &hostMeter{cmd: exec.Command(exe, "-calibrate")}
	h.cmd.Stderr = os.Stderr
	if h.in, err = h.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	out, err := h.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	h.out = bufio.NewReader(out)
	if err := h.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start calibration: %w", err)
	}
	return h, nil
}

// sample has the child run one calibration and records its time. The
// first failure is kept for close to report. A nil meter does nothing.
func (h *hostMeter) sample() {
	if h == nil || h.err != nil {
		return
	}
	line := ""
	_, err := io.WriteString(h.in, "\n")
	if err == nil {
		line, err = h.out.ReadString('\n')
	}
	var v float64
	if err == nil {
		v, err = strconv.ParseFloat(strings.TrimSpace(line), 64)
	}
	if err != nil {
		h.err = fmt.Errorf("calibration: %w", err)
		return
	}
	h.last = time.Now()
	h.samples = append(h.samples, v)
}

// tick samples the host when calibEvery has passed since the last
// sample. A nil meter does nothing.
func (h *hostMeter) tick() {
	if h != nil && time.Since(h.last) >= calibEvery {
		h.sample()
	}
}

// close ends the child and waits for it; it reports the first sampling
// failure, if any. Closing twice is harmless.
func (h *hostMeter) close() error {
	if h.closed {
		return h.err
	}
	h.closed = true
	h.in.Close()
	if err := h.cmd.Wait(); err != nil && h.err == nil {
		h.err = fmt.Errorf("calibration child: %w", err)
	}
	if h.err == nil && len(h.samples) == 0 {
		h.err = errors.New("calibration took no samples")
	}
	return h.err
}

// scale converts a time measured in this run to design-machine time.
func (h *hostMeter) scale() float64 { return ratio(calibMs, median(h.samples)) }

// report puts the calibration's median and the scale on the sheet.
func (h *hostMeter) report(s *sheet) {
	s.add("host.calib_ms", "ms", median(h.samples), len(h.samples))
	s.add("host.scale", "x", h.scale(), len(h.samples))
}

// serveCalibration is the child's side: for every line on stdin it
// runs one calibration and prints its time in ms, until stdin closes.
// One calibration is workers goroutines that each parse and type-check
// a fixed Go source with the standard library's go/parser and go/types:
// a compiler's work (scanning, tree building, scopes and symbol maps)
// that shares no code with the system.
func serveCalibration() {
	src := calibSource()
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		t := time.Now()
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for g := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[g] = calibCheck(src)
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			fmt.Fprintln(os.Stderr, "calibration:", err)
			os.Exit(1)
		}
		fmt.Println(strconv.FormatFloat(ms(time.Since(t)), 'f', -1, 64))
	}
}

// calibCheck parses and type-checks src.
func calibCheck(src string) error {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "calib.go", src, 0)
	if err != nil {
		return err
	}
	_, err = (&types.Config{}).Check("calib", fset, []*ast.File{f}, &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	})
	return err
}

// calibSource is the fixed Go source the calibration checks: calibUnits
// copies of a small unit of types, methods and loops.
func calibSource() string {
	var b strings.Builder
	b.WriteString("package calib\n")
	for i := 0; i < calibUnits; i++ {
		fmt.Fprintf(&b, `
type T%[1]d struct {
	a, b int
	s    string
	m    map[string]int
	next *T%[1]d
}

func (t *T%[1]d) F(x int) int {
	s := 0
	for i := 0; i < x; i++ {
		if i%%2 == 0 {
			s += t.a * i
		} else {
			s -= t.b + len(t.s)
		}
		t.m[t.s] += s
	}
	if t.next != nil {
		s += t.next.F(x - 1)
	}
	return s
}

func G%[1]d(xs []int, names []string) (int, []string) {
	t := &T%[1]d{a: %[1]d, b: 2, s: "u%[1]d", m: map[string]int{}}
	r := 0
	var out []string
	for i, x := range xs {
		r += t.F(x)
		if i < len(names) && len(names[i]) > r%%7 {
			out = append(out, names[i]+t.s)
		}
	}
	return r, out
}
`, i)
	}
	return b.String()
}
